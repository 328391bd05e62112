"""Fluid operator assembly and initial pressure."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from lagfsi.coupling import CoupledProblem
from lagfsi.errors import MeshDegenerationError
from lagfsi.fluid import assemble_fluid_operator, solve_initial_pressure
from lagfsi.kinematics import KinematicState, _min_eig_sym, advance_flow_map
from lagfsi.material import make_material
from lagfsi.mesh import build_annular_mesh

from oracle_fem import DenseStep, eta, make_tiny_mesh


def fluid_blocks(problem, kin, dt, viscosity=1.0):
    """The free-dof blocks of the coupled tangent at the flow map `kin`: the
    implicit-Euler velocity block M/dt + viscosity K, the divergence B and the
    pressure column -B^T."""
    elements = assemble_fluid_operator(kin, problem.vspace, problem.pspace)
    P = problem.tangent.step_matrix(elements, viscosity, dt, 1.0).tocsr()
    nf, nq = problem.tangent.sizes[:2]
    return P[:nf, :nf], P[nf:nf + nq, :nf], P[:nf, nf:nf + nq]


def viscous_block(problem, kin, dt):
    """The viscous K on the free velocity dofs: the velocity block at
    viscosity 1 less M/dt."""
    free = problem.free_fluid
    return fluid_blocks(problem, kin, dt)[0] - problem.M_fluid.tocsr()[free][:, free] / dt


@pytest.fixture(scope="module")
def tiny():
    mesh = make_tiny_mesh()
    model = make_material("saint-venant-kirchhoff", 1.0, 1.0)
    problem = CoupledProblem(mesh, model)
    return problem, model


@pytest.fixture(scope="module")
def annulus():
    mesh = build_annular_mesh(2, 0.4, 1.0, 6)
    model = make_material("saint-venant-kirchhoff", 1.0, 1.0)
    return CoupledProblem(mesh, model), model


def test_identity_coefficients_match_dense_oracle(tiny):
    problem, model = tiny
    kin = KinematicState.initial(problem.vspace, problem.interface)
    A, B, Bt = fluid_blocks(problem, kin, 0.1)
    oracle = DenseStep(problem, model)
    Mo, Ao, Bo = oracle.fluid_matrices(eta(kin), 0.1, 1.0)
    free = problem.free_fluid
    assert np.abs(A.toarray() - Ao[np.ix_(free, free)]).max() < 1e-12
    assert np.abs(B.toarray() - Bo[:, free]).max() < 1e-12
    assert abs(Bt + B.T).max() == 0
    assert np.abs(problem.M_fluid.toarray() - Mo).max() < 1e-12


def test_variable_coefficients_match_dense_oracle(tiny):
    problem, model = tiny
    kin0 = KinematicState.initial(problem.vspace, problem.interface)
    v = problem.vspace.interpolate(
        lambda x: 0.05 * np.array([np.sin(x[0] + x[1]), x[0] * x[1]])
    )
    kin = advance_flow_map(kin0, v, 0.5)
    A, B, Bt = fluid_blocks(problem, kin, 0.1)
    oracle = DenseStep(problem, model)
    _, Ao, Bo = oracle.fluid_matrices(eta(kin), 0.1, 1.0)
    free = problem.free_fluid
    assert np.abs(A.toarray() - Ao[np.ix_(free, free)]).max() < 1e-11
    assert np.abs(B.toarray() - Bo[:, free]).max() < 1e-11
    assert abs(Bt + B.T).max() == 0


def test_viscous_block_symmetric_psd(annulus):
    problem, _ = annulus
    kin0 = KinematicState.initial(problem.vspace, problem.interface)
    v = problem.vspace.interpolate(lambda x: 0.1 * np.array([x[1] ** 2, -x[0]]))
    kin = advance_flow_map(kin0, v, 0.4)
    # the viscous block on the free dofs
    K = viscous_block(problem, kin, 1.0).toarray()
    assert np.abs(K - K.T).max() < 1e-12
    w = np.linalg.eigvalsh(0.5 * (K + K.T))
    assert w.min() > -1e-10
    # strict positivity on the constrained subspace (free dofs, ker B)
    Bf = fluid_blocks(problem, kin, 1.0)[1].toarray()
    _, s, Vt = np.linalg.svd(Bf)
    null = Vt[(s > 1e-10 * s.max()).sum():].T
    proj = null.T @ K @ null
    assert np.linalg.eigvalsh(0.5 * (proj + proj.T)).min() > 0


def test_constraint_on_divergence_free_field(tiny):
    problem, model = tiny
    kin = KinematicState.initial(problem.vspace, problem.interface)
    B = fluid_blocks(problem, kin, 1.0)[1]
    oracle = DenseStep(problem, model)
    _, _, Bo = oracle.fluid_matrices(eta(kin), 1.0, 1.0)
    # build a discretely divergence-free field from the oracle's nullspace on
    # the free dofs
    _, s, Vt = np.linalg.svd(Bo[:, problem.free_fluid])
    null = Vt[(s > 1e-10 * s.max()).sum():].T
    rng = np.random.default_rng(0)
    v = null @ rng.standard_normal(null.shape[1])
    assert np.abs(B @ v).max() <= 1e-12


def test_ellipticity_precondition():
    # the guard fires on the coefficient field before any space is touched
    class FakeKin:
        aaT = np.array([[1.0, 0.0], [0.0, -0.5]])[:, :, None, None]
        min_ellip = _min_eig_sym(aaT).min()

    with pytest.raises(MeshDegenerationError):
        assemble_fluid_operator(FakeKin(), None, None)


def test_initial_pressure_zero_data(annulus):
    problem, _ = annulus
    q0 = solve_initial_pressure(problem, problem.vspace.zeros(), problem.sspace.zeros())
    assert np.abs(q0).max() == 0.0


def test_initial_pressure_harmonic_oracle(annulus):
    # v0 = 0, small radial displacement: the pressure is the harmonic
    # extension of the interface datum with zero outer Neumann flux,
    # checked against an independently assembled P1 Laplace solve
    problem, model = annulus
    ss, ps = problem.sspace, problem.pspace
    mesh = problem.mesh
    w0 = ss.interpolate(lambda x: 1e-3 * x * (1 - (x @ x) / 0.16))
    q0 = solve_initial_pressure(problem, problem.vspace.zeros(), w0)

    # oracle stiffness: P1 cotangent-free direct assembly with hand formulas
    n = ps.nscalar
    A = np.zeros((n, n))
    for cl, cell in enumerate(ps.cells):
        verts = mesh.vertices[mesh.cells[cell]]
        J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        detJ = abs(np.linalg.det(J))
        g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) @ np.linalg.inv(J)
        dofs = ps.cell_dofs[cl]
        for a in range(3):
            for b in range(3):
                A[dofs[a], dofs[b]] += 0.5 * detJ * (g[a] @ g[b])
    # same Dirichlet data as the package (nodal values on the interface)
    from lagfsi.fluid import _vertex_datum

    iface = problem.interface
    dirich = {}
    for k in range(iface.nfac):
        nu = iface.normal[k]
        for v in mesh.facets[iface.facets[k]]:
            dof = ps.g2l[v]
            dirich.setdefault(dof, []).append(
                _vertex_datum(iface, k, mesh.vertices[v], nu, problem.vspace.zeros(), w0, model)
            )
    dirich = {dof: np.mean(vals) for dof, vals in dirich.items()}
    fixed = np.array(sorted(dirich))
    gvals = np.array([dirich[i] for i in fixed])
    free = np.setdiff1d(np.arange(n), fixed)
    qf = np.linalg.solve(A[np.ix_(free, free)], -A[np.ix_(free, fixed)] @ gvals)
    oracle = np.zeros(n)
    oracle[fixed] = gvals
    oracle[free] = qf
    assert np.abs(q0 - oracle).max() < 1e-10


def test_initial_pressure_rotation_rhs(annulus):
    # for a rigid rotation the quadratic source is exactly 2 omega^2
    problem, _ = annulus
    omega = 0.7
    v0 = problem.vspace.interpolate(lambda x: omega * np.array([-x[1], x[0]]))
    Dv = problem.vspace.gradients([v0])[:, :, 0]
    f = -np.einsum("ik...,ki...->...", Dv, Dv)
    assert np.abs(f - 2 * omega**2).max() < 1e-12


def test_discrete_energy_inequality(annulus):
    # uncoupled implicit-Euler fluid step with homogeneous interface traction
    problem, _ = annulus
    vs, ps = problem.vspace, problem.pspace
    kin0 = KinematicState.initial(vs, problem.interface)
    shift = vs.interpolate(lambda x: 0.05 * np.array([np.sin(2 * x[1]), np.cos(2 * x[0])]))
    kin = advance_flow_map(kin0, shift, 1.0)
    dt = 0.05
    free = problem.free_fluid
    bump = lambda x: (x @ x - 0.16) * (1.0 - x @ x)
    v0 = vs.interpolate(lambda x: 0.1 * np.array([bump(x) * x[1], -bump(x) * x[0]]))
    import scipy.sparse as sp

    A, B, Bt = fluid_blocks(problem, kin, dt)
    nq = ps.nscalar
    J = sp.bmat([[A, Bt], [B, None]], format="csc")
    M = problem.M_fluid
    rhs = np.concatenate([(M @ v0)[free] / dt, np.zeros(nq)])
    sol = spla.spsolve(J, rhs)
    v1 = np.zeros(vs.ndof)
    v1[free] = sol[: free.sum()]
    K = viscous_block(problem, kin, dt)
    lhs = v1 @ M @ v1 + 2 * dt * (v1[free] @ K @ v1[free])
    rhs_e = v0 @ M @ v0
    assert lhs <= rhs_e + 1e-14 * rhs_e


def pressure_schur_condition(problem, dt=1.0, viscosity=1.0):
    """Condition number of the pressure Schur complement at a = I
    (tracked as an inf-sup health indicator, not gated)."""
    kin = KinematicState.initial(problem.vspace, problem.interface)
    A, B, _ = fluid_blocks(problem, kin, dt, viscosity)
    Ainv = spla.splu(A.tocsc())
    S = np.array([B @ Ainv.solve(col) for col in B.toarray()])
    S = 0.5 * (S + S.T)
    w = np.linalg.eigvalsh(S)
    w = w[np.abs(w) > 1e-12 * np.abs(w).max()]
    return float(w.max() / w.min())


def test_pressure_schur_condition(annulus):
    problem, _ = annulus
    cond = pressure_schur_condition(problem)
    assert np.isfinite(cond) and cond > 1
