"""Monolithic coupled stepping: equilibrium, transmission conditions,
dense-oracle equivalence and the dissipation ordering in gamma."""

import gc
import logging

import numpy as np
import pytest
import scipy.sparse as sp

from lagfsi import coupling, fluid, kernels
from lagfsi.config import RunConfig
from lagfsi.coupling import (
    CoupledProblem, coupled_step, initial_state, run_simulation,
)
from lagfsi.diagnostics import interface_residual_values
from lagfsi.errors import PreconditionError, SolverError
from lagfsi.material import Pairs, make_material
from lagfsi.mesh import build_annular_mesh
from lagfsi.spaces import basis_values

from oracle_fem import DenseStep, make_tiny_mesh
from test_kernels import ref_stiffness

SVK = "saint-venant-kirchhoff"
LIN = "linear-isotropic"


def _small_run(gamma=1.0, dt=1e-2, t_end=0.1, kind=SVK, amplitude=1e-3, res=5,
               mode="radial", **kw):
    cfg = RunConfig(resolution=res, dt=dt, t_end=t_end, gamma=gamma,
                    material_kind=kind, init_amplitude=amplitude, init_mode=mode)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    return run_simulation(cfg.coupling_config(**kw), cfg.make_initial_data(), model, mesh)


def interface_residuals(state, model, gamma):
    """`interface_residual_values` of `state`, with the interface gradient of
    w and the facet values of v that the report passes it."""
    iface = state.problem.interface
    surf = Pairs([iface.gradients("solid", [state.w])[:, :, 0]])
    return interface_residual_values(state, model, gamma, surf,
                                     iface.values("fluid", [state.v])[:, 0])


def test_zero_data_stays_zero():
    reports, state = _small_run(amplitude=0.0, t_end=0.3)
    assert state.newton_info["iterations"] == 0
    for rep in reports:
        for col in ("V0e", "V0", "V1e", "D0", "Q", "X", "iface_vel", "iface_stress"):
            val = getattr(rep, col)
            if not np.isnan(val):
                assert abs(val) <= 1e-14


def test_gamma_zero_matches_velocities():
    reports, state = _small_run(gamma=0.0, kind=LIN, t_end=0.05)
    iface = state.problem.interface
    wt = iface.values("solid", [state.wt])[:, 0]
    v = iface.values("fluid", [state.v])[:, 0]
    assert np.sqrt(iface.l2_norm_sq(wt - v)) <= 1e-12


def test_linear_single_newton_iteration():
    _, state = _small_run(kind=LIN, t_end=0.05)
    assert state.newton_info["iterations"] == 1


def test_step_factors_its_tangent_once():
    _, state = _small_run(dt=5e-3, t_end=5e-3)
    info = state.newton_info
    assert info["iterations"] == 2
    assert info["factorizations"] == 1
    assert info["krylov_its"] >= 2


def test_steps_leave_no_cyclic_garbage():
    # each step's tangent, factor and closures are freed by reference
    # counting alone: a reference cycle would keep every step's assembled
    # matrix alive until the collector ran
    gc.collect()
    gc.disable()
    try:
        _, state = _small_run(res=4, t_end=0.04)
        found = gc.collect()
    finally:
        gc.enable()
    assert state.time == pytest.approx(0.04)
    assert found == 0


def test_identity_state_factor_serves_a_large_amplitude_run(monkeypatch):
    # SVK at amplitude 9e-3 moves the tangent furthest from the factored
    # K(0), yet the first step's factor serves every correction of 50 steps
    from lagfsi import solid as solidmod

    step, solve = coupling.coupled_step, solidmod._krylov_solve
    infos, its = [], []

    def counted_step(*args, **kwargs):
        new = step(*args, **kwargs)
        infos.append(new.newton_info)
        return new

    def counted_solve(*args):
        x, k = solve(*args)
        its.append(k)
        return x, k

    monkeypatch.setattr(coupling, "coupled_step", counted_step)
    monkeypatch.setattr(solidmod, "_krylov_solve", counted_solve)
    _small_run(amplitude=9e-3, t_end=0.5)
    assert len(infos) == 50
    assert sum(info["factorizations"] for info in infos) == 1
    assert not any(info["retried"] for info in infos)
    assert len(its) == sum(info["iterations"] for info in infos)
    assert max(its) <= solidmod.KRYLOV_MAXIT


def _manufactured_state(problem, model, cfg):
    vs, ss = problem.vspace, problem.sspace
    from lagfsi.kinematics import KinematicState, advance_flow_map

    kin0 = KinematicState.initial(vs, problem.interface)
    shift = vs.interpolate(lambda x: 0.03 * np.array([np.sin(x[0]), x[0] * x[1] ** 2]))
    kin = advance_flow_map(kin0, shift, 1.0)
    v = vs.interpolate(lambda x: 1e-3 * np.array([x[1] ** 2, np.cos(x[0])]))
    v[~problem.free_fluid] = 0.0
    w = ss.interpolate(lambda x: 1e-3 * np.array([x[0] * x[1], x[0] ** 2]))
    wt = ss.interpolate(lambda x: 1e-3 * np.array([np.sin(x[1]), x[0]]))
    wtt = ss.interpolate(lambda x: 1e-3 * np.array([x[1], -x[0]]))
    q = 1e-3 * np.linspace(-1, 1, problem.pspace.nscalar)
    lam = 1e-3 * np.sin(np.arange(problem.interface.nlam))
    from lagfsi.coupling import CoupledState

    return CoupledState(problem, v, q, w, wt, wtt, lam, kin, 0.0)


@pytest.mark.parametrize("kind", [LIN, SVK])
def test_coupled_step_matches_dense_oracle(kind):
    mesh = make_tiny_mesh()
    model = make_material(kind, 1.0, 1.0)
    problem = CoupledProblem(mesh, model)
    cfg = RunConfig(gamma=0.7, dt=0.01, newton_tol=1e-13)
    state = _manufactured_state(problem, model, cfg)
    new = coupled_step(state, cfg, model)
    oracle = DenseStep(problem, model)
    v, q, w, wt, wtt, lam = oracle.step(state, cfg)
    assert np.abs(new.v - v).max() <= 1e-10
    assert np.abs(new.q - q).max() <= 1e-10
    assert np.abs(new.w - w).max() <= 1e-10
    assert np.abs(new.lam - lam).max() <= 1e-10
    assert np.abs(new.wt - wt).max() <= 1e-10


def test_interface_residuals_equilibrium_and_perturbation():
    mesh = build_annular_mesh(2, 0.4, 1.0, 5)
    model = make_material(LIN, 1.0, 1.0)
    problem = CoupledProblem(mesh, model)
    cfg = RunConfig(gamma=0.0, dt=1e-2)
    z = initial_state(problem, cfg, model, problem.vspace.zeros(),
                      problem.sspace.zeros(), problem.sspace.zeros())
    assert interface_residuals(z, model, 0.0) == (0.0, 0.0)
    # baseline with matching traces, then perturb v on the interface by delta
    iface = problem.interface
    fun = lambda x: 1e-3 * np.array([x[1], -x[0]])
    z.v = problem.vspace.interpolate(fun)
    z.wt = problem.sspace.interpolate(fun)
    vel0, _ = interface_residuals(z, model, 0.0)
    assert vel0 <= 1e-14
    delta = problem.vspace.zeros()
    tr_dofs = iface.trace_to_fluid
    rng = np.random.default_rng(0)
    vals = 1e-3 * rng.standard_normal((len(tr_dofs), 2))
    for i, dof in enumerate(tr_dofs):
        delta[2 * dof:2 * dof + 2] = vals[i]
    z.v = z.v + delta
    vel1, _ = interface_residuals(z, model, 0.0)
    norm_delta = np.sqrt(iface.l2_norm_sq(iface.values("fluid", [delta])[:, 0]))
    assert vel1 == pytest.approx(norm_delta, rel=1e-12)


def test_interface_residuals_small_after_step():
    reports, state = _small_run(t_end=0.1, res=6)
    rep = reports[-1]
    assert rep.iface_vel <= 1e-3
    assert rep.iface_stress <= 1e-3


def test_default_run_logs_no_warning(caplog):
    # the interface gaps at t = 0 and t = dt are projection gaps, not failures
    with caplog.at_level(logging.WARNING, logger="lagfsi"):
        _small_run(dt=1e-3, t_end=3e-3)
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_interface_projection_gap_shrinks_with_h():
    # at t = 0, v = w_t = 0 and iface_vel is gamma times the pointwise elastic
    # traction, which the projected multiplier only matches as h -> 0
    gaps = []
    for res in (4, 8):
        cfg = RunConfig(resolution=res)
        model = cfg.make_material()
        problem = CoupledProblem(cfg.make_mesh(), model)
        state = initial_state(problem, cfg.coupling_config(), model,
                              *cfg.make_initial_data().build(problem))
        gaps.append(interface_residuals(state, model, cfg.gamma)[0])
    assert 0 < gaps[1] < gaps[0]


def test_library_run_writes_no_files(tmp_path, monkeypatch):
    # only `lagfsi run` defaults the CSV path; a RunConfig built in code does not
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig(resolution=4, dt=1e-2, t_end=1e-2)
    reports, _ = run_simulation(cfg.coupling_config(), cfg.make_initial_data(),
                                cfg.make_material(), cfg.make_mesh())
    assert len(reports) == 2
    assert list(tmp_path.iterdir()) == []


def test_run_t_end_zero():
    reports, _ = _small_run(t_end=0.0)
    assert len(reports) == 1


def test_smallness_screen():
    cfg = RunConfig(resolution=5, init_amplitude=0.5, t_end=0.01)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    with pytest.raises(PreconditionError):
        run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model, mesh)
    # identical data passes with the override
    run_simulation(cfg.coupling_config(allow_large=True, dt=1e-3, t_end=1e-3),
                   cfg.make_initial_data(), model, mesh)


def test_newton_failure_propagates():
    cfg = RunConfig(resolution=5, t_end=0.02, dt=1e-2, newton_maxit=1,
                    newton_tol=1e-14, init_amplitude=5e-3)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    with pytest.raises(SolverError):
        run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model, mesh)


def test_monotone_decay_after_transient():
    reports, _ = _small_run(kind=LIN, t_end=1.0, dt=1e-2, res=5)
    vals = [(r.t, r.V0) for r in reports if r.t >= 0.2]
    for (t0, a), (t1, b) in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-12)


@pytest.fixture(scope="module")
def gamma_sweep_averages():
    avgs = {}
    for gamma in (0.0, 0.5, 1.0, 2.0):
        reports, _ = _small_run(gamma=gamma, t_end=2.0, dt=1e-2, res=5)
        avgs[gamma] = np.mean([r.V0e for r in reports if r.t >= 1.0])
    return avgs


def test_boundary_damping_reduces_averaged_energy(gamma_sweep_averages):
    # any damping beats none on the time-averaged solid energy
    avgs = gamma_sweep_averages
    for gamma in (0.5, 1.0, 2.0):
        assert avgs[gamma] < avgs[0.0]


@pytest.mark.xfail(
    reason="boundary damping overdamps: past gamma ~ 0.5 the interface "
    "traction is suppressed and the averaged solid energy grows again, so "
    "the sweep is not monotone across {0, 0.5, 1, 2}",
    strict=True,
)
def test_gamma_monotonicity_of_averaged_energy(gamma_sweep_averages):
    avgs = gamma_sweep_averages
    seq = [avgs[g] for g in (0.0, 0.5, 1.0, 2.0)]
    for a, b in zip(seq, seq[1:]):
        assert b <= a * (1 + 1e-8)


def test_history_ring_depth():
    reports, state = _small_run(t_end=0.2, dt=1e-2)
    assert len(state.history) == 5
    assert state.past()[-1] is state
    # the ring holds history-free snapshots: no earlier ring stays reachable
    seen, todo = {id(state)}, [state]
    while todo:
        for prev in todo.pop().history:
            if id(prev) not in seen:
                seen.add(id(prev))
                todo.append(prev)
    assert len(seen) <= 6
    snap = state.snapshot()
    assert not snap.history and snap.w is state.w and snap.q_qp() is state.q_qp()


def test_retry_keeps_history_spaced_by_dt(monkeypatch):
    # one injected solver failure at step 10: after the two dt/2 steps the
    # ring must still hold the states dt apart that the diagnostics difference
    uniform, _ = _small_run(t_end=0.15)
    step = coupling.coupled_step
    failed = []
    infos = []

    def fail_once_at_step_10(state, cfg, model, step_index=0):
        if step_index == 10 and not failed:
            failed.append(cfg.dt)
            raise SolverError("injected failure")
        new = step(state, cfg, model, step_index)
        infos.append((step_index, cfg.dt, new.newton_info))
        return new

    monkeypatch.setattr(coupling, "coupled_step", fail_once_at_step_10)
    retried, _ = _small_run(t_end=0.15)
    assert failed == [1e-2]
    assert retried[10].t == pytest.approx(0.1)
    assert retried[10].D1 == pytest.approx(uniform[10].D1, rel=0.05)
    assert retried[10].V2 == pytest.approx(uniform[10].V2, rel=0.05)
    assert retried[-1].res_j1 == pytest.approx(uniform[-1].res_j1, rel=0.01)
    # the half steps factor at once instead of trying the factor kept for dt,
    # and the step after them factors again at dt
    (_, dt1, first), (_, dt2, second) = [i for i in infos if i[0] in ("10_half1", "10_half2")]
    (_, dt3, after), = [i for i in infos if i[0] == 11]
    assert (dt1, dt2, dt3) == (5e-3, 5e-3, 1e-2)
    assert first["factorizations"] == 1
    assert after["factorizations"] == 1
    # the retried step is flagged and counts the work of both half steps,
    # which share one factor
    assert second["retried"] and not first["retried"] and not after["retried"]
    assert second["factorizations"] == 1
    assert second["krylov_its"] > first["krylov_its"]


def test_factor_kept_across_steps_matches_fresh_factors(monkeypatch):
    # 60 steps share one LU of the tangent; dropping the stored factor
    # before every step gives the per-step LU run, matched to round-off
    step = coupling.coupled_step
    finals, counts = [], []
    for fresh in (False, True):
        infos = []

        def counted_step(state, cfg, model, step_index=0):
            if fresh:
                state.problem.factor.lu = None
            new = step(state, cfg, model, step_index)
            infos.append(new.newton_info)
            return new

        monkeypatch.setattr(coupling, "coupled_step", counted_step)
        _, state = _small_run(gamma=0.0, dt=5e-3, t_end=0.3)
        assert len(infos) == 60
        finals.append(state)
        counts.append(sum(info["factorizations"] for info in infos))
    assert counts == [1, 60]
    kept, ref = finals
    for name in ("v", "q", "w", "lam"):
        a, b = getattr(kept, name), getattr(ref, name)
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), name


def test_three_dimensional_step():
    # the whole pipeline is dimension-generic; one coarse ball-in-ball step
    cfg = RunConfig(dimension=3, resolution=4, dt=1e-2, t_end=1e-2)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    from lagfsi.coupling import initial_state

    problem = CoupledProblem(mesh, model)
    ccfg = cfg.coupling_config()
    state = initial_state(problem, ccfg, model, *cfg.make_initial_data().build(problem))
    new = coupled_step(state, ccfg, model)
    assert np.abs(new.w).max() > 0
    assert np.isfinite(new.v).all()


def test_vtk_and_system_dumps(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = RunConfig(resolution=5, dt=1e-2, t_end=0.02)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    ccfg = cfg.coupling_config(output_vtk_every=1, vtk_prefix=str(tmp_path / "snap"),
                               dump_systems=True, dump_prefix=str(tmp_path / "sys"))
    run_simulation(ccfg, cfg.make_initial_data(), model, mesh)
    vtks = sorted(tmp_path.glob("snap_*.vtk"))
    assert len(vtks) == 2
    text = vtks[0].read_text()
    assert "VECTORS velocity" in text and "VECTORS displacement" in text
    dumps = sorted(tmp_path.glob("sys_*.txt"))
    assert len(dumps) == 4  # two Newton iterates in each step
    # the first dump is the assembled J and the residual at the initial
    # state, against the block assembly with the reference solid stiffness
    lines = (tmp_path / "sys_step1_it0.txt").read_text().splitlines()
    n = int(lines[0].split()[1])
    split = lines.index("# rhs")
    r, c, v = np.loadtxt(lines[1:split], ndmin=2).T
    J = sp.csc_matrix((v, (r.astype(int), c.astype(int))), shape=(n, n))
    rhs = np.loadtxt(lines[split + 1:], ndmin=2)[:, 1]
    problem = CoupledProblem(mesh, model)
    state = initial_state(problem, ccfg, model, *cfg.make_initial_data().build(problem))
    tangent, residual = _block_step(problem, state, ccfg, model)
    u0 = np.concatenate([state.v[problem.free_fluid], state.q, state.w, state.lam])
    ref = tangent(state.w)
    assert abs(J - ref).max() <= 1e-14 * np.abs(ref.data).max()
    assert np.abs(rhs - residual(u0)).max() <= 1e-12 * np.abs(rhs).max()


def test_system_dumps_keep_every_iterate_of_a_retried_step(tmp_path, monkeypatch):
    # an injected failure at step 2: the two dt/2 steps dump under their own
    # names, so there is one file per Newton iterate of the run
    from lagfsi import solid as solidmod

    step, solve = coupling.coupled_step, solidmod.newton_solve
    failed, iterations = [], []

    def fail_once_at_step_2(state, cfg, model, step_index=0):
        if step_index == 2 and not failed:
            failed.append(step_index)
            raise SolverError("injected failure")
        return step(state, cfg, model, step_index)

    def counted(*args, **kwargs):
        u, info = solve(*args, **kwargs)
        iterations.append(info["iterations"])
        return u, info

    monkeypatch.setattr(coupling, "coupled_step", fail_once_at_step_2)
    monkeypatch.setattr(solidmod, "newton_solve", counted)
    cfg = RunConfig(resolution=4, dt=1e-2, t_end=0.03)
    ccfg = cfg.coupling_config(dump_systems=True, dump_prefix=str(tmp_path / "sys"))
    run_simulation(ccfg, cfg.make_initial_data(), cfg.make_material(), cfg.make_mesh())
    dumps = {p.name for p in tmp_path.glob("sys_*.txt")}
    assert failed == [2] and len(iterations) == 4
    assert len(dumps) == sum(iterations)
    assert {"sys_step2_half1_it0.txt", "sys_step2_half2_it0.txt"} <= dumps


def fluid_matrices(problem, kin):
    """The viscous K and the divergence B on the full fluid spaces at the flow
    map `kin`, assembled from the element kernels by the spaces' fixed-pattern
    assemblies (scatter_matrix for K)."""
    vs, ps = problem.vspace, problem.pspace
    K = vs.scatter_matrix(kernels.visc_elements(kin.aaT, vs.gradt, vs.wdet))
    valp = basis_values(vs.dim, ps.degree, vs.qp)
    B = kernels.div_elements(kin.a, vs.gradt, valp, vs.wdet)
    return K, ps.assembly(vs).matrix(B)


def _block_step(problem, state, cfg, model):
    """The coupled tangent (as a function of w) and residual of one step,
    assembled block by block with sp.bmat and [free][:, free] slicing, with
    the fluid matrices of `fluid_matrices` and the solid stiffness from the
    einsum reference element matrices."""
    from lagfsi import solid as solidmod

    vs, ps, ss, iface = problem.vspace, problem.pspace, problem.sspace, problem.interface
    dt, free = cfg.dt, problem.free_fluid
    K, B = fluid_matrices(problem, state.kin)
    A_ff = (problem.M_fluid / dt + cfg.viscosity * K).tocsr()[free][:, free]
    B_f = B.tocsc()[:, free]
    C_f = iface.C_fluid.tocsr()[free]
    C_s, M_s, Mg = iface.C_solid, problem.M_solid, iface.M_vec
    rate = solidmod.newmark_rate_factor(dt)
    nf, nq, nw = free.sum(), ps.nscalar, ss.ndof

    def tangent(w):
        A_ww = (1.0 / (solidmod.NEWMARK_BETA * dt * dt) + 1.0) * M_s + ref_stiffness(model, ss, w)
        return sp.bmat([[A_ff, -B_f.T, None, C_f], [B_f, None, None, None],
                        [None, None, A_ww, -C_s], [C_f.T, None, -rate * C_s.T, -cfg.gamma * Mg]],
                       format="csc")

    def residual(u):
        vf, q, w, lam = np.split(u, np.cumsum([nf, nq, nw]))
        wt, wtt = solidmod.newmark_update(w, state.w, state.wt, state.wtt, dt)
        v = np.zeros(vs.ndof)
        v[free] = vf
        return np.concatenate([
            A_ff @ vf - B_f.T @ q + C_f @ lam - (problem.M_fluid @ state.v)[free] / dt,
            B_f @ vf,
            solidmod.solid_residual(model, ss, M_s, w, wtt, C_s @ lam),
            iface.C_fluid.T @ v - C_s.T @ wt - cfg.gamma * (Mg @ lam),
        ])

    return tangent, residual


def _record_newton(monkeypatch):
    """Record (tangent, residual, u0) of every coupled Newton solve."""
    from lagfsi import solid as solidmod

    solve = solidmod.newton_solve
    calls = []

    def recording(residual, tangent, u0, *args, **kwargs):
        calls.append((tangent, residual, np.array(u0)))
        return solve(residual, tangent, u0, *args, **kwargs)

    monkeypatch.setattr(solidmod, "newton_solve", recording)
    return calls


@pytest.mark.parametrize("dim,res,gamma", [(2, 5, 0.0), (2, 5, 1.0), (3, 4, 1.0)])
def test_pattern_tangent_matches_block_assembly(monkeypatch, dim, res, gamma):
    # the tangent operator (the fixed-pattern matrix plus the matrix-free
    # solid remainder), its assembled form and the affine residual rows
    # against the sp.bmat assembly of the block matrices, at t = 0 and after
    # 3 steps
    cfg = RunConfig(dimension=dim, resolution=res, dt=1e-2, gamma=gamma)
    model = cfg.make_material()
    problem = CoupledProblem(cfg.make_mesh(), model)
    ccfg = cfg.coupling_config()
    state = initial_state(problem, ccfg, model, *cfg.make_initial_data().build(problem))
    calls = _record_newton(monkeypatch)
    nf, nq, nw, _ = problem.tangent.sizes
    for k in range(4):
        tangent, residual = _block_step(problem, state, ccfg, model)
        new = coupled_step(state, ccfg, model, k + 1)
        J_fn, R_fn, u0 = calls[-1]
        rng = np.random.default_rng(k)
        for u in (u0, u0 + 1e-3 * rng.standard_normal(len(u0))):
            J, ref = J_fn(u), tangent(u[nf + nq:nf + nq + nw])
            assert J.shape == ref.shape
            for z in rng.standard_normal((2, len(u0))):
                assert np.linalg.norm(J @ z - ref @ z) <= 1e-13 * np.linalg.norm(ref @ z)
            assert abs(J.assembled() - ref).max() <= 1e-14 * np.abs(ref.data).max()
            R, R_ref = R_fn(u), residual(u)
            assert np.abs(R - R_ref).max() <= 1e-12 * np.abs(R_ref).max()
        if k in (0, 3):
            assert J.nnz == (35478 if dim == 2 else 390027)
        state = new


@pytest.mark.parametrize("dim,res", [(2, 5), (3, 4)])
def test_fluid_blocks_match_scattered_matrices_bit_for_bit(dim, res):
    # the step tangent's velocity and pressure blocks against M_f/dt + nu K
    # and +-B assembled by the spaces' assemblies and sliced to the free dofs,
    # bit for bit, one step away from the identity flow map; its structure
    # against the block matrix of the block patterns
    cfg = RunConfig(dimension=dim, resolution=res, dt=1e-2, gamma=1.0)
    model = cfg.make_material()
    problem = CoupledProblem(cfg.make_mesh(), model)
    ccfg = cfg.coupling_config()
    state = initial_state(problem, ccfg, model, *cfg.make_initial_data().build(problem))
    state = coupled_step(state, ccfg, model, 1)
    vs, ps, ss, iface = problem.vspace, problem.pspace, problem.sspace, problem.interface
    free = problem.free_fluid
    nf, nq = problem.tangent.sizes[:2]
    K, B = fluid_matrices(problem, state.kin)
    B_f = B.tocsr()[:, free]
    elements = fluid.assemble_fluid_operator(state.kin, vs, ps)
    for viscosity in (1.0, 0.37):
        P = problem.tangent.step_matrix(elements, viscosity, ccfg.dt, ccfg.gamma)
        Pr = P.tocsr()
        A_ff = (problem.M_fluid / ccfg.dt + viscosity * K).tocsr()[free][:, free]
        assert (Pr[:nf, :nf] != A_ff).nnz == 0
        assert (Pr[nf:nf + nq, :nf] != B_f).nnz == 0
        assert (Pr[:nf, nf:nf + nq] != -B_f.T).nnz == 0

    def ones(A):
        A = sp.csr_matrix(A, copy=True)
        A.data[:] = 1.0
        return A

    n = ss.nloc * ss.ncomp
    elastic = ones(ss.scatter_matrix(np.ones((len(ss.cells), n, n))))
    C_f = ones(iface.C_fluid)[free]
    C_s = ones(iface.C_solid)
    ref = sp.bmat([[ones(K)[free][:, free], ones(B_f).T, None, C_f],
                   [ones(B_f), None, None, None],
                   [None, None, elastic, C_s],
                   [C_f.T, None, C_s.T, ones(iface.M_vec)]], format="csc")
    ref.sort_indices()
    assert np.array_equal(P.indptr, ref.indptr)
    assert np.array_equal(P.indices, ref.indices)


def test_tangents_share_one_pattern(monkeypatch):
    # every tangent of a run wraps its data on the same index arrays, and the
    # Newton iterates of one step share its assembled matrix
    calls = _record_newton(monkeypatch)
    tangents = []
    from lagfsi import solid as solidmod

    recording = solidmod.newton_solve

    def keep_tangents(residual, tangent, u0, *args, **kwargs):
        def kept(u):
            J = tangent(u)
            tangents.append(J)
            return J

        return recording(residual, kept, u0, *args, **kwargs)

    monkeypatch.setattr(solidmod, "newton_solve", keep_tangents)
    _small_run(gamma=0.0, dt=5e-3, t_end=0.1)
    assert len(calls) == 20 and len(tangents) == 40
    first = tangents[0].matrix
    assert first.nnz == 35478
    for J in tangents[1:]:
        assert J.nnz == first.nnz
        assert np.shares_memory(J.matrix.indptr, first.indptr)
        assert np.shares_memory(J.matrix.indices, first.indices)
    for J, J_next in zip(tangents[::2], tangents[1::2]):
        assert J.matrix is J_next.matrix


def test_half_step_after_full_steps_matches_fresh_problem():
    # the constant blocks are kept per (dt, gamma): a dt/2 step after steps at
    # dt must not reuse the dt ones
    from lagfsi.coupling import CoupledState

    cfg = RunConfig(resolution=5, dt=1e-2, gamma=1.0)
    model = cfg.make_material()
    mesh = cfg.make_mesh()
    problem = CoupledProblem(mesh, model)
    ccfg = cfg.coupling_config()
    state = initial_state(problem, ccfg, model, *cfg.make_initial_data().build(problem))
    for n in range(3):
        state = coupled_step(state, ccfg, model, n + 1)
    half = ccfg.coupling_config(dt=ccfg.dt / 2)
    reused = coupled_step(state, half, model, 4)
    fresh_problem = CoupledProblem(mesh, model)
    copy = CoupledState(fresh_problem, state.v, state.q, state.w, state.wt, state.wtt,
                        state.lam, state.kin, state.time)
    fresh = coupled_step(copy, half, model, 4)
    for name in ("v", "q", "w", "lam"):
        a, b = getattr(reused, name), getattr(fresh, name)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b), name
