"""Elastodynamic residual/tangent, Newton behavior and Newmark conservation."""

import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from lagfsi import fluid
from lagfsi import solid as solidmod
from lagfsi.config import RunConfig
from lagfsi.coupling import CoupledProblem, initial_state
from lagfsi.errors import SolverError
from lagfsi.material import make_material
from lagfsi.mesh import SOLID, build_annular_mesh
from lagfsi.solid import (
    KRYLOV_MAXIT, KRYLOV_RTOL, LU_ORDERING, LU_PIVOT_THRESHOLD, NEWMARK_BETA, NEWMARK_GAMMA,
    FactorStore, TangentOperator, _krylov_solve, internal_force, lu_factor, newmark_update,
    newton_solve, solid_residual, stiffness_matrix, stiffness_remainder,
)
from lagfsi.spaces import FieldSpace

from oracle_fem import DenseStep, make_tiny_mesh
from test_kernels import ref_stiffness

SVK = "saint-venant-kirchhoff"
LIN = "linear-isotropic"


def stiffness_operator(model, space, w, shift=None):
    """K(w) + shift as the Newton solve takes it: K(0) + shift assembled,
    plus the matrix-free remainder K(w) - K(0)."""
    K0 = stiffness_matrix(model, space)
    return TangentOperator(K0 if shift is None else K0 + shift,
                           stiffness_remainder(model, space, w))


@pytest.fixture(scope="module")
def tiny():
    mesh = make_tiny_mesh()
    model = make_material(SVK, 1.0, 1.0)
    return CoupledProblem(mesh, model), model


@pytest.fixture(scope="module")
def annulus():
    mesh = build_annular_mesh(2, 0.4, 1.0, 5)
    model = make_material(SVK, 1.0, 1.0)
    return CoupledProblem(mesh, model), model


def test_equilibrium_residual(tiny):
    problem, model = tiny
    ss = problem.sspace
    z = ss.zeros()
    R = solid_residual(model, ss, problem.M_solid, z, z, z)
    assert np.abs(R).max() == 0.0


def test_internal_force_matches_dense_oracle(tiny):
    problem, model = tiny
    ss = problem.sspace
    w = ss.interpolate(lambda x: 0.1 * np.array([x[0] ** 2, np.sin(x[1])]))
    oracle = DenseStep(problem, model)
    assert np.abs(internal_force(model, ss, w) - oracle.internal_force(w)).max() < 1e-13


def test_static_pressure_load_linear(tiny):
    # uniform normal traction: the displacement solves the linear
    # elastostatic problem with the zeroth-order term, via a dense oracle
    problem, _ = tiny
    lin = make_material(LIN, 1.0, 1.0)
    ss, iface = problem.sspace, problem.interface
    p = 1e-3
    trac = -p * np.broadcast_to(iface.normal[:, None, :], (iface.nfac, iface.nqf, 2)).copy()
    oracle = DenseStep(problem, lin)
    K = oracle.stiffness(ss.zeros()) + oracle.solid_mass()
    rhs = np.zeros(ss.ndof)
    # dense traction load, assembled facet-wise from the solid-side trace
    elem = np.einsum("kq,kqa,kqc->kac", iface.wq, iface.sval_cell, trac)
    vdofs = iface.solid_cell_dofs[:, :, None] * 2 + np.arange(2)
    np.add.at(rhs, vdofs.ravel(), elem.ravel())
    w = np.linalg.solve(K, rhs)
    R = solid_residual(lin, ss, problem.M_solid, w, ss.zeros(), rhs)
    assert np.abs(R).max() < 1e-12


def test_linear_scaling(tiny):
    problem, _ = tiny
    lin = make_material(LIN, 1.0, 1.0)
    ss = problem.sspace
    rng = np.random.default_rng(0)
    w = 1e-2 * rng.standard_normal(ss.ndof)
    wtt = 1e-2 * rng.standard_normal(ss.ndof)
    R1 = solid_residual(lin, ss, problem.M_solid, w, wtt, ss.zeros())
    R3 = solid_residual(lin, ss, problem.M_solid, 3 * w, 3 * wtt, ss.zeros())
    assert np.allclose(R3, 3 * R1, atol=1e-14)


@pytest.mark.parametrize("amplitude", [1e-2, 1e-6, 1e-10])
def test_linear_force_keeps_small_gradients_exact(amplitude):
    # the stress law takes Dw itself: forming F = Dw + I and subtracting I
    # again would cost a relative error of eps / |Dw| (6e-9 at |w| ~ 1e-10)
    lin = make_material(LIN, 1.0, 1.0)
    ss = FieldSpace(build_annular_mesh(2, 0.4, 1.0, 4), SOLID, 2, 2)
    w = amplitude * np.random.default_rng(0).standard_normal(ss.ndof)
    ref = stiffness_matrix(lin, ss) @ w
    assert np.linalg.norm(internal_force(lin, ss, w) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_tangent_at_zero_matches_linear(tiny):
    # the identity-state stiffness is both kinds' tangent at w = 0, where the
    # SVK remainder vanishes exactly
    problem, model = tiny
    ss = problem.sspace
    K0 = stiffness_matrix(model, ss).toarray()
    for kind in (SVK, LIN):
        oracle = DenseStep(problem, make_material(kind, 1.0, 1.0))
        assert np.abs(K0 - oracle.stiffness(ss.zeros())).max() < 1e-12
    z = np.random.default_rng(0).standard_normal(ss.ndof)
    assert not (stiffness_remainder(model, ss, ss.zeros()) @ z).any()


def test_tangent_consistency(tiny):
    problem, model = tiny
    ss = problem.sspace
    rng = np.random.default_rng(1)
    w = 0.02 * rng.standard_normal(ss.ndof)
    K = stiffness_operator(model, ss, w)
    delta = rng.standard_normal(ss.ndof)
    errs = []
    for h in (1e-4, 5e-5):
        fd = (internal_force(model, ss, w + h * delta) - internal_force(model, ss, w)) / h
        errs.append(np.linalg.norm(fd - K @ delta))
    assert errs[1] < 0.7 * errs[0]
    ref = ref_stiffness(model, ss, w) @ delta
    assert np.linalg.norm(K @ delta - ref) <= 1e-13 * np.linalg.norm(ref)


def test_tangent_symmetry(tiny):
    problem, model = tiny
    ss = problem.sspace
    rng = np.random.default_rng(2)
    w = 0.05 * rng.standard_normal(ss.ndof)
    dt = 0.01
    mass = (1.0 / (NEWMARK_BETA * dt * dt) + 1.0) * problem.M_solid
    A = stiffness_operator(model, ss, w, mass).assembled().toarray()
    assert np.abs(A - A.T).max() < 1e-11
    x, y = rng.standard_normal((2, ss.ndof))
    J = stiffness_operator(model, ss, w, mass)
    assert x @ (J @ y) == pytest.approx(y @ (J @ x), rel=1e-12)


def test_newton_zero_data(tiny):
    problem, model = tiny
    ss = problem.sspace

    def residual(u):
        return solid_residual(model, ss, problem.M_solid, u, ss.zeros(), ss.zeros())

    def tangent(u):
        return stiffness_operator(model, ss, u, problem.M_solid)

    u, info = newton_solve(residual, tangent, ss.zeros(), tol=1e-12)
    assert info["iterations"] == 0


def test_newton_linear_single_iteration(tiny):
    problem, _ = tiny
    lin = make_material(LIN, 1.0, 1.0)
    ss = problem.sspace
    rng = np.random.default_rng(3)
    load = 1e-3 * rng.standard_normal(ss.ndof)

    def residual(u):
        return (stiffness_matrix(lin, ss) + problem.M_solid) @ u - load

    def tangent(u):
        return stiffness_operator(lin, ss, u, problem.M_solid)

    u, info = newton_solve(residual, tangent, rng.standard_normal(ss.ndof), tol=1e-10)
    assert info["iterations"] == 1


def test_newton_quadratic_convergence(annulus):
    problem, model = annulus
    ss = problem.sspace
    load = internal_force(model, ss, ss.interpolate(lambda x: 0.05 * x)) \
        + problem.M_solid @ ss.interpolate(lambda x: 0.05 * x)

    def residual(u):
        return internal_force(model, ss, u) + problem.M_solid @ u - load

    def tangent(u):
        return stiffness_operator(model, ss, u, problem.M_solid)

    u, info = newton_solve(residual, tangent, ss.zeros(), tol=1e-12, maxit=30)
    rs = info["residuals"]
    # once in the quadratic basin, residuals contract superlinearly
    tail = [r for r in rs if 1e-12 < r < 1e-2]
    for r0, r1 in zip(tail, tail[1:]):
        assert r1 <= 20 * r0 * r0 / max(tail[0], 1e-30) or r1 < 1e-11


def test_newton_maxit_raises(tiny):
    problem, model = tiny
    ss = problem.sspace
    load = np.ones(ss.ndof)

    def residual(u):
        return internal_force(model, ss, u) + problem.M_solid @ u - load

    def tangent(u):
        return stiffness_operator(model, ss, u, problem.M_solid)

    with pytest.raises(SolverError) as err:
        newton_solve(residual, tangent, ss.zeros(), tol=1e-14, maxit=1)
    assert err.value.history is not None and len(err.value.history) >= 1


def test_newton_refactors_a_stale_tangent():
    # R(u) = A u + u^3 - b: the cubic term moves the tangent far from the
    # first iterate's, so the reused LU no longer serves GMRES
    n = 100
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) + sp.identity(n)
    b = np.random.default_rng(5).uniform(1.0, 10.0, n)

    def residual(u):
        return A @ u + u**3 - b

    def tangent(u):
        return TangentOperator((A + sp.diags(3 * u**2)).tocsc())

    u, info = newton_solve(residual, tangent, np.zeros(n), tol=1e-10)
    assert info["factorizations"] >= 2
    assert np.linalg.norm(residual(u)) <= 1e-10
    # the iterates are those of Newton with dense direct solves
    ref = np.zeros(n)
    for r in info["residuals"][:-1]:
        assert np.linalg.norm(residual(ref)) == pytest.approx(r, rel=1e-9, abs=1e-13)
        ref = ref - np.linalg.solve(tangent(ref).matrix.toarray(), residual(ref))


def _mild_cubic(n=100):
    # R(u) = A u + c u^3 - b with a small c: the tangent moves little along
    # the Newton path, so the factor of the first tangent serves every iterate
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) + sp.identity(n)
    b = np.random.default_rng(5).uniform(1.0, 10.0, n)
    c = 1e-3

    def residual(u):
        return A @ u + c * u**3 - b

    def tangent(u):
        return TangentOperator((A + sp.diags(3 * c * u**2)).tocsc())

    return residual, tangent


def test_newton_replaces_a_far_off_stored_factor():
    n = 100
    residual, tangent = _mild_cubic(n)
    store = FactorStore()
    store.put(lu_factor(tangent(np.full(n, 100.0)).matrix), "dt")
    u, info = newton_solve(residual, tangent, np.zeros(n), tol=1e-10, store=store, key="dt")
    assert info["factorizations"] == 1
    assert store.key == "dt" and store.lu is not None
    ref = np.zeros(n)
    for r in info["residuals"][:-1]:
        assert np.linalg.norm(residual(ref)) == pytest.approx(r, rel=1e-9, abs=1e-13)
        ref = ref - np.linalg.solve(tangent(ref).matrix.toarray(), residual(ref))
    # a solve under another key does not use the stored factor
    _, info = newton_solve(residual, tangent, np.zeros(n), tol=1e-10, store=store, key="dt/2")
    assert info["factorizations"] == 1


def test_newton_failure_leaves_no_factor():
    n = 100
    residual, tangent = _mild_cubic(n)
    store = FactorStore()
    store.put(lu_factor(tangent(np.zeros(n)).matrix), "dt")
    with pytest.raises(SolverError):
        newton_solve(residual, tangent, np.zeros(n), tol=1e-14, maxit=1, store=store, key="dt")
    assert store.lu is None and store.key is None


@functools.lru_cache(maxsize=None)
def _first_step_tangent(dim, res):
    """The assembled coupled tangent of a run's first step, the matrix its
    Newton solve factors (built once per module; callers must not modify
    it)."""
    cfg = RunConfig(dimension=dim, resolution=res, dt=1e-2, gamma=1.0)
    model = cfg.make_material()
    problem = CoupledProblem(cfg.make_mesh(), model)
    ccfg = cfg.coupling_config()
    state = initial_state(problem, ccfg, *cfg.make_initial_data().build(problem))
    elements = fluid.assemble_fluid_operator(state.kin, problem.vspace, problem.pspace)
    return problem.tangent.step_matrix(elements, ccfg.viscosity, ccfg.dt, ccfg.gamma)


@pytest.mark.parametrize("dim,res,fill_excess", [(2, 5, 0.0), (3, 4, 1e-5)])
def test_lu_factor_matches_default_relaxation(dim, res, fill_excess):
    # lu_factor keeps fundamental supernodes only; the reference factor uses
    # SuperLU's default supernode relaxation on the same ordering and pivot
    # threshold.  Its pivot sequence differs slightly: on 3-D res 4 the fill
    # is 18 entries (4e-6) above the reference's 4.16 M, on 2-D res 5 it is
    # below the reference's.
    J = _first_step_tangent(dim, res).tocsc()
    b = np.random.default_rng(dim).standard_normal(J.shape[0])
    lu = lu_factor(J)
    ref = spla.splu(J, permc_spec=LU_ORDERING, diag_pivot_thresh=LU_PIVOT_THRESHOLD)
    x, x_ref = lu.solve(b), ref.solve(b)
    assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    assert np.linalg.norm(J @ x - b) <= 1e-12 * np.linalg.norm(b)
    fill, fill_ref = lu.L.nnz + lu.U.nnz, ref.L.nnz + ref.U.nnz
    assert fill <= fill_ref * (1 + fill_excess)


@pytest.mark.parametrize("dim,res", [(2, 5), (3, 4)])
def test_single_precision_factor_keeps_the_fill(dim, res):
    # the step's matrix is factored in float32 on the same ordering, pivot
    # threshold and relaxation: the pivot sequence may move, the fill may
    # not (2-D res 5: 195 893 against 196 834; 3-D res 4: 4 161 846
    # against 4 163 655)
    J = _first_step_tangent(dim, res).tocsc()
    lu64, lu32 = lu_factor(J), lu_factor(J.astype(np.float32))
    fill64, fill32 = lu64.L.nnz + lu64.U.nnz, lu32.L.nnz + lu32.U.nnz
    assert lu32.L.dtype == np.float32
    assert abs(fill32 - fill64) <= 0.01 * fill64


class CountingFactor:
    """An LU factor that counts its solves."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


def _perturbed_factor(J, size=1e-3, seed=6):
    """float32 factor of J with each entry scaled by 1 + size * N(0, 1)."""
    Jp = J.copy()
    Jp.data *= 1 + size * np.random.default_rng(seed).standard_normal(Jp.nnz)
    return lu_factor(Jp.astype(np.float32))


def test_krylov_solve_meets_the_tolerance_on_a_perturbed_single_precision_factor():
    J = _first_step_tangent(2, 5).tocsc()
    b = np.random.default_rng(7).standard_normal(J.shape[0])
    lu = CountingFactor(_perturbed_factor(J))
    x, its = _krylov_solve(J, lu, b)
    assert x is not None and x.dtype == np.float64
    assert np.linalg.norm(b - J @ x) <= KRYLOV_RTOL * np.linalg.norm(b)
    # each iteration applies the factor once, and nothing else does
    assert 2 <= its <= KRYLOV_MAXIT
    assert lu.solves == its


def test_krylov_solve_of_zero_is_zero():
    J = _first_step_tangent(2, 5).tocsc()
    lu = CountingFactor(lu_factor(J.astype(np.float32)))
    x, its = _krylov_solve(J, lu, np.zeros(J.shape[0]))
    assert its == 0 and lu.solves == 0
    assert x.shape == (J.shape[0],) and not x.any()


def test_unrelated_factor_fails_after_one_refactor(monkeypatch):
    # a factor of another matrix leaves GMRES short of the tolerance; the
    # Newton solve refactors once, and a miss on that factor too raises
    n = 100
    residual, tangent = _mild_cubic(n)
    other = sp.diags(np.random.default_rng(8).uniform(1.0, 10.0, n), format="csc")
    J = tangent(np.zeros(n))
    x, its = _krylov_solve(J, lu_factor(other), -residual(np.zeros(n)))
    assert x is None and its == KRYLOV_MAXIT
    factored = []

    def unrelated_factor(A, history=None):
        factored.append(A)
        return lu_factor(other, history)

    monkeypatch.setattr(solidmod, "lu_factor", unrelated_factor)
    store = FactorStore()
    store.put(lu_factor(other), "dt")
    with pytest.raises(SolverError, match="freshly factored"):
        newton_solve(residual, tangent, np.zeros(n), store=store, key="dt")
    assert len(factored) == 1
    assert store.lu is None


def test_newton_singular_tangent_raises():
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(6, 6)).tolil()
    A[2, :] = 0.0
    calls = []

    def tangent(u):
        calls.append(u)
        return TangentOperator(A.tocsc())

    with pytest.raises(SolverError) as err:
        newton_solve(lambda u: A @ u - np.ones(6), tangent, np.zeros(6))
    assert len(calls) == 1
    assert err.value.history == [pytest.approx(np.sqrt(6.0))]


def test_newmark_closure_exact():
    rng = np.random.default_rng(4)
    w0, wt0, wtt0 = rng.standard_normal((3, 7))
    dt = 0.01
    w1 = rng.standard_normal(7)
    wt1, wtt1 = newmark_update(w1, w0, wt0, wtt0, dt)
    beta, gam = NEWMARK_BETA, NEWMARK_GAMMA
    assert np.allclose(
        w1, w0 + dt * wt0 + dt * dt * ((1 - 2 * beta) / 2 * wtt0 + beta * wtt1), atol=1e-13
    )
    assert np.allclose(wt1, wt0 + dt * ((1 - gam) * wtt0 + gam * wtt1), atol=1e-13)


def test_undamped_energy_conservation(annulus):
    # free solid vibration at the lowest linear mode: the trapezoidal-rule
    # integrator keeps the quadratic energy to within 0.1% over 100 periods
    problem, _ = annulus
    lin = make_material(LIN, 1.0, 1.0)
    ss = problem.sspace
    M = problem.M_solid.tocsc()
    K = (stiffness_matrix(lin, ss) + problem.M_solid).tocsc()
    vals, vecs = spla.eigsh(K, k=1, M=M, sigma=0, which="LM")
    omega = np.sqrt(vals[0])
    period = 2 * np.pi / omega
    dt = period / 40
    w = 1e-4 * vecs[:, 0] / np.abs(vecs[:, 0]).max()
    wt = np.zeros_like(w)
    wtt = spla.spsolve(M, -(K @ w))
    beta, gam = NEWMARK_BETA, NEWMARK_GAMMA
    lhs = spla.factorized((M + beta * dt * dt * K).tocsc())

    def energy(w, wt):
        return 0.5 * (wt @ (M @ wt) + w @ (K @ w))

    E0 = energy(w, wt)
    nsteps = int(round(100 * period / dt))
    for _ in range(nsteps):
        pred_w = w + dt * wt + dt * dt * (0.5 - beta) * wtt
        pred_wt = wt + dt * (1 - gam) * wtt
        rhs = -(K @ pred_w)
        wtt_new = lhs(rhs)
        w = pred_w + beta * dt * dt * wtt_new
        wt = pred_wt + gam * dt * wtt_new
        wtt = wtt_new
    drift = abs(energy(w, wt) - E0) / E0
    assert drift <= 1e-3
