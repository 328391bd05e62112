"""Energies, identity residuals, multiplier identities, decay fits, CSV."""

import numpy as np
import pytest

from lagfsi import spaces
from lagfsi.config import RunConfig
from lagfsi.coupling import CoupledProblem, CoupledState, run_simulation
from lagfsi.diagnostics import (
    CSV_COLUMNS, LEVEL_ENERGIES, RESIDUAL_COLUMNS, EnergyReport, RadialMultiplier, ScalarField,
    TrajectoryRecorder, _level_integrand, _RunningBalance, backward_difference,
    coefficient_rate_terms, compute_report, energy_identity_residual, fit_decay_rate,
    ledger_remainder, multiplier_identity_residual, remainder, write_csv,
)
from lagfsi.errors import FitDomainError
from lagfsi.kinematics import KinematicState
from lagfsi.manufactured import constant_displacement, sin_quadratic_displacement
from lagfsi.material import Pairs, make_material
from lagfsi.mesh import SOLID, build_annular_mesh
from lagfsi.pointwise import cm
from lagfsi.solid import NEWMARK_BETA, NEWMARK_GAMMA, stiffness_matrix

from test_material import energy_density, piola_stress, pm, secant_form

SVK = "saint-venant-kirchhoff"
LIN = "linear-isotropic"


def grad_norm_sq(space, dofs):
    """||D u||^2 over `space` of the field with dofs `dofs`."""
    g = space.gradients([dofs])[:, :, 0]
    return space.integrate(np.einsum("ki...,ki...->...", g, g))


def perturbation_integral_R1(reports, window=None):
    """Time integral of the coefficient-rate perturbation pairing
    (trapezoidal over reports): -<d_t(a a^T) Dv, Dv_t> + <a_t q, Dv_t>
    - <a_t q_t, Dv>, accumulated over the window."""
    ts = np.array([r.t for r in reports])
    gs = np.array([r.integrands.get("r1_term", np.nan) for r in reports], dtype=float)
    valid = ~np.isnan(gs)
    if window is not None:
        valid &= (ts >= window[0] - 1e-12) & (ts <= window[1] + 1e-12)
    idx = np.flatnonzero(valid)
    if len(idx) < 2:
        return np.nan
    sl = slice(idx[0], idx[-1] + 1)
    return float(np.trapezoid(gs[sl], ts[sl]))


@pytest.fixture(scope="module")
def problem():
    mesh = build_annular_mesh(2, 0.4, 1.0, 5)
    model = make_material(SVK, 1.0, 1.0)
    return CoupledProblem(mesh, model), model


@pytest.fixture(scope="module")
def linear_problem(problem):
    # the same mesh with the linear law
    return CoupledProblem(problem[0].mesh, make_material(LIN, 1.0, 1.0))


@pytest.fixture(scope="module")
def run60():
    # 2-D res 5, gamma = 1, 60 steps: every level's balance is defined
    cfg = RunConfig(resolution=5, dt=5e-3, t_end=0.3, gamma=1.0)
    model = cfg.make_material()
    reports, final = run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model,
                                    cfg.make_mesh())
    return cfg, model, reports, final


def _zero_state(problem):
    from lagfsi.coupling import initial_state

    cfg = RunConfig(dt=1e-2)
    return initial_state(problem, cfg, problem.vspace.zeros(),
                         problem.sspace.zeros(), problem.sspace.zeros())


def remainder_pairs(problem, fields):
    """The Pairs tables of the gradients of `fields` (w^(0..j+1)) at the solid
    and at the interface quadrature points, as `remainder` takes them."""
    grads = problem.sspace.gradients(fields), problem.interface.gradients("solid", fields)
    return tuple(Pairs(np.moveaxis(g, 2, 0)) for g in grads)


def _report(states, gamma=1.0):
    return compute_report(RunConfig(gamma=gamma, dt=1e-2), states)


def test_backward_difference_polynomial_exactness():
    dt = 0.1
    ts = np.arange(6) * dt
    for j in (1, 2, 3, 4):
        vals = [t**j + 2 * t ** max(0, j - 1) for t in ts]
        bd = backward_difference(vals, j, dt)
        from math import factorial

        assert bd == pytest.approx(factorial(j), rel=1e-9)
    assert backward_difference([1.0], 1, dt) is None


def test_level_energy_zero_state(problem):
    prob, _ = problem
    state = _zero_state(prob)
    rep = _report([state] * 5)
    for j in range(4):
        assert getattr(rep, f"V{j}e") == 0.0 and getattr(rep, f"V{j}") == 0.0
    # insufficient history yields the not-available marker
    rep = _report([state])
    assert np.isnan(rep.V3e) and np.isnan(rep.V3)


def test_level_energy_rigid_translation(problem):
    # constant displacement: only the zeroth-order mass term survives
    prob, _ = problem
    state = _zero_state(prob)
    c = np.array([0.02, -0.01])
    state.w = prob.sspace.interpolate(lambda x: c)
    rep = _report([state])
    area = prob.mesh.region_volume(SOLID)
    assert rep.V0e == pytest.approx(0.5 * (c @ c) * area, rel=1e-12)
    assert rep.V0 == pytest.approx(rep.V0e, rel=1e-12)


def test_level_energy_secant_oracle(problem):
    # the secant quadratic form integrates to <DW(I+Dw), Dw>, and matches
    # twice the stored-energy increment only to cubic order
    prob, model = problem
    ss = prob.sspace
    state = _zero_state(prob)
    state.w = ss.interpolate(
        lambda x: 1e-2 * np.array([np.sin(3 * x[0]) + x[1] ** 2, x[0] * x[1]])
    )
    Dw = pm(ss.gradients([state.w])[:, :, 0])
    quad = ss.integrate(secant_form(model, Dw, Dw, Dw))
    ftc = ss.integrate(np.einsum("cqib,cqib->cq", piola_stress(model, Dw + np.eye(2)), Dw))
    assert quad == pytest.approx(ftc, rel=1e-12)
    two_dw = 2 * ss.integrate(energy_density(model, Dw + np.eye(2)))
    assert abs(quad - two_dw) < 0.1 * abs(quad)
    assert abs(quad - two_dw) > 0  # the forms differ beyond quadratic order


def test_dissipation_structure(problem):
    prob, _ = problem
    state = _zero_state(prob)
    assert _report([state]).D0 == 0.0
    rng = np.random.default_rng(1)
    state.v = 1e-3 * rng.standard_normal(prob.vspace.ndof)
    state.lam = 1e-3 * rng.standard_normal(prob.interface.nlam)
    # at a = I the fluid part is the plain gradient norm
    d0 = _report([state], gamma=0.0).D0
    assert d0 == pytest.approx(grad_norm_sq(prob.vspace, state.v), rel=1e-12)
    d1 = _report([state], gamma=1.0).D0
    d2 = _report([state], gamma=2.0).D0
    assert d2 - d1 == pytest.approx(d1 - d0, rel=1e-10)  # linear in gamma


def test_ledger_remainder_values():
    assert ledger_remainder(0.0) == 0.0
    assert ledger_remainder(1.0) == 6.0
    assert ledger_remainder(4.0) == 8 + 16 + 32 + 64 + 128 + 256


def test_newmark_free_vibration_balance(linear_problem):
    # decoupled linear solid: the j=0 balance reduces to the integrator's
    # exact energy bookkeeping, so the residual is roundoff-sized
    prob = linear_problem
    lin = prob.model
    ss = prob.sspace
    import scipy.sparse.linalg as spla

    M = prob.M_solid.tocsc()
    K = (stiffness_matrix(lin, ss) + prob.M_solid).tocsc()
    dt = 5e-3
    beta, gam = NEWMARK_BETA, NEWMARK_GAMMA
    w = ss.interpolate(lambda x: 1e-3 * np.array([x[1] ** 2, x[0] ** 2]))
    wt = np.zeros_like(w)
    wtt = spla.spsolve(M, -(K @ w))
    lhs = spla.factorized((M + beta * dt * dt * K).tocsc())
    cfg = RunConfig(gamma=0.0, dt=dt)
    recorder = TrajectoryRecorder(cfg)
    kin = KinematicState.initial(prob.vspace, prob.interface)
    state = CoupledState(prob, prob.vspace.zeros(), np.zeros(prob.pspace.nscalar),
                         w, wt, wtt, np.zeros(prob.interface.nlam), kin, 0.0)
    recorder.add(state)
    from collections import deque

    for n in range(1, 30):
        pred_w = w + dt * wt + dt * dt * (0.5 - beta) * wtt
        pred_wt = wt + dt * (1 - gam) * wtt
        wtt = lhs(-(K @ pred_w))
        w = pred_w + beta * dt * dt * wtt
        wt = pred_wt + gam * dt * wtt
        hist = deque(state.past(), maxlen=5)
        state = CoupledState(prob, prob.vspace.zeros(), np.zeros(prob.pspace.nscalar),
                             w, wt, wtt, np.zeros(prob.interface.nlam), kin, n * dt,
                             hist)
        rep = recorder.add(state)
        assert abs(rep.res_j0) <= 1e-12 * max(1.0, rep.V0)


def test_energy_identity_zero_trajectory():
    cfg = RunConfig(resolution=5, dt=1e-2, t_end=0.1, init_amplitude=0.0)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    reports, _ = run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model, mesh)
    assert reports[-1].res_j0 == 0.0
    assert reports[-1].res_j1 == 0.0
    # rigid fluid (a constant in time) kills every perturbation pairing
    assert perturbation_integral_R1(reports) == 0.0


def test_coefficient_rate_terms_symbolic(problem):
    # prescribed analytic coefficient fields against hand-computed pairings
    prob, _ = problem
    vs = prob.vspace
    nc, nq = vs.xq.shape[:2]
    x = vs.xq
    aaT_t = np.zeros((nc, nq, 2, 2))
    aaT_t[..., 0, 1] = x[..., 0]
    aaT_t[..., 1, 0] = x[..., 0]
    a_t = np.zeros((nc, nq, 2, 2))
    a_t[..., 0, 0] = 1.0
    q = x[..., 1]
    q_t = np.ones((nc, nq))
    Dv = np.zeros((nc, nq, 2, 2))
    Dv[..., 0, 0] = 2.0      # d_x v_x = 2
    Dv1 = np.zeros((nc, nq, 2, 2))
    Dv1[..., 0, 1] = 3.0     # d_y (v_t)_x = 3
    ra, rb, rc = coefficient_rate_terms(vs, cm(aaT_t), cm(a_t), q, q_t, cm(Dv), cm(Dv1))
    # ra = int x * (aaT_t[j=1,k=0] Dv[x,0] Dv1[x,1]) = int 6x dx
    x_int = vs.integrate(x[..., 0])
    y_int = vs.integrate(x[..., 1])
    assert ra == pytest.approx(6 * x_int, rel=1e-12)
    # rb = int q a_t[0,0] Dv1[0,0] = 0 since Dv1[x,x] = 0
    assert rb == 0.0
    # rc = int q_t a_t[0,0] Dv[0,0] = 2 |Omega_f|
    assert rc == pytest.approx(2 * vs.integrate(np.ones((nc, nq))), rel=1e-12)
    assert y_int == pytest.approx(0.0, abs=1e-12)


def test_remainder_linear_model_zero(problem, linear_problem):
    prob, _ = problem
    state = _zero_state(linear_problem)
    rng = np.random.default_rng(2)
    state.wt = 1e-2 * rng.standard_normal(prob.sspace.ndof)
    state.wtt = 1e-2 * rng.standard_normal(prob.sspace.ndof)
    pairs = remainder_pairs(prob, [state.w, state.wt, state.wtt])
    rvec, rsurf = remainder(linear_problem, 1, pairs)
    assert np.abs(rvec).max() == 0.0 and np.abs(rsurf).max() == 0.0
    rvec, rsurf = remainder(prob, 1, pairs)  # SVK, lambda = mu = 1
    assert np.abs(rvec).max() > 0


def test_multiplier_identity_constant(problem):
    prob, model = problem
    mesh = prob.mesh
    H = RadialMultiplier([0.0, 0.0])
    xi = ScalarField(lambda x: np.ones(x.shape[:-1]), lambda x: np.zeros_like(x))
    const = constant_displacement([0.3, 0.1])
    r36, r37 = multiplier_identity_residual(mesh, model, const, H, 1.5, xi, (0.0, 1.0))
    assert abs(r36) <= 1e-10 and abs(r37) <= 1e-10


def test_multiplier_identity_quadrature_refinement(problem):
    prob, model = problem
    mesh = prob.mesh
    H = RadialMultiplier([0.0, 0.0])
    xi = ScalarField(
        lambda x: 1.0 + x[..., 0] + x[..., 1] ** 2,
        lambda x: np.stack([np.ones(x.shape[:-1]), 2 * x[..., 1]], axis=-1))
    poly = sin_quadratic_displacement(2, scale=0.5)
    res = []
    for deg in (1, 2, 3, 5):
        r36, r37 = multiplier_identity_residual(
            mesh, model, poly, H, 1.5, xi, (0.0, 1.0), quad_degree=deg)
        res.append(max(abs(r36), abs(r37)))
    assert res[-1] <= 1e-8
    assert res[0] > res[-1]


def test_fit_decay_rate_exact():
    t = np.linspace(0, 5, 50)
    C, sigma, r2 = fit_decay_rate(list(zip(t, np.exp(-2 * t))))
    assert sigma == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    C, sigma, r2 = fit_decay_rate(list(zip(t, 3 * np.exp(-0.5 * t))))
    assert C == pytest.approx(3.0, rel=1e-10)
    assert sigma == pytest.approx(0.5, abs=1e-12)


def test_fit_decay_rate_oscillatory():
    t = np.linspace(0, 10, 200)
    x = np.exp(-t) * (2 + np.cos(t))
    C, sigma, r2 = fit_decay_rate(list(zip(t, x)), window=(0, 10))
    assert 0.8 <= sigma <= 1.2
    assert r2 >= 0.9


def test_fit_decay_rate_errors():
    t = np.linspace(0, 5, 50)
    with pytest.raises(FitDomainError):
        fit_decay_rate(list(zip(t, np.linspace(1, -1, 50))), window=(0, 5))
    with pytest.raises(FitDomainError):
        fit_decay_rate([(0.1 * k, 1.0) for k in range(5)], window=(0, 1))


def test_x_assembly_identity():
    cfg = RunConfig(resolution=5, dt=1e-2, t_end=0.08)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    reports, _ = run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model, mesh)
    checked = 0
    for r in reports:
        if np.isnan(r.X):
            continue
        g = r.integrands
        expect = r.Q + cfg.epsilon1 * (g["gradsq0"] + g["gradsq1"] + g["gradsq2"])
        assert abs(r.X - expect) <= 1e-14 * max(1.0, abs(expect))
        assert r.Q == r.V0 + r.V1 + r.V2 + r.V3
        checked += 1
    assert checked > 0


def test_level_energies_nonnegative_when_elliptic():
    cfg = RunConfig(resolution=5, dt=1e-2, t_end=0.15)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    reports, _ = run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model, mesh)
    for r in reports:
        assert r.min_ellip > 0
        for col in ("V0e", "V0", "V1e", "V1", "V2e", "V2", "V3e", "V3"):
            v = getattr(r, col)
            if not np.isnan(v):
                assert v >= -1e-15


def test_low_levels_converge_in_dt():
    # 2-D res 5, gamma = 1, default data, read at t = 0.1.  Measured:
    #   dt       V0           V1           V2       V3     Ee
    #   1e-2     3.31090e-7   1.49962e-4   0.12374  357.4  487.7
    #   5e-3     3.30303e-7   1.51581e-4   0.13835  406.7  578.0
    #   2.5e-3   3.29952e-7   1.52885e-4   0.14296  508.8  786.5
    #   1.25e-3  3.29777e-7   1.53569e-4   0.14589  551.0  848.8
    # The differences of V0 and V1 halve with dt (2.00x, 1.91x between the
    # last two pairs).  Those of V3 (49, 102, 42) are not monotone, and
    # V2, X and Ee are not shown to converge either: nothing is pinned on them.
    values = []
    for dt in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        cfg = RunConfig(resolution=5, gamma=1.0, dt=dt, t_end=0.1)
        reports, _ = run_simulation(cfg.coupling_config(), cfg.make_initial_data(),
                                    cfg.make_material(), cfg.make_mesh())
        assert reports[-1].t == pytest.approx(0.1, abs=1e-12)
        values.append([reports[-1].V0, reports[-1].V1])
    diffs = np.abs(np.diff(values, axis=0))
    assert np.all(diffs[1] >= 1.5 * diffs[2]), diffs


def test_csv_roundtrip(tmp_path):
    cfg = RunConfig(resolution=5, dt=1e-2, t_end=0.05)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    reports, _ = run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model, mesh)
    path = tmp_path / "out.csv"
    with open(path, "w") as fh:
        write_csv(fh, reports)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == len(reports) + 1
    row = lines[1].split(",")
    assert len(row) == len(CSV_COLUMNS)
    assert float(row[0]) == 0.0


def trapezoid_residual(reports, gamma, j, window=None):
    """Reference level-j balance residual [V_j]_s^t + int_s^t g_j dtau by
    np.trapezoid over the reports, from the first report (in `window`) with
    all level-j pieces available to the last."""
    ts = np.array([r.t for r in reports])
    Vs = np.array([getattr(r, LEVEL_ENERGIES[j]) for r in reports], dtype=float)
    gs = np.array([_level_integrand(r, gamma, j) for r in reports], dtype=float)
    valid = ~(np.isnan(Vs) | np.isnan(gs))
    if window is not None:
        valid &= (ts >= window[0] - 1e-12) & (ts <= window[1] + 1e-12)
    idx = np.flatnonzero(valid)
    if len(idx) < 2:
        return np.nan
    sl = slice(idx[0], idx[-1] + 1)
    integral = float(np.trapezoid(gs[sl], ts[sl]))
    return (Vs[idx[-1]] - Vs[idx[0]]) + integral


def test_running_balances_match_trapezoid_reference(run60):
    # the recorder's O(1) running residuals, and energy_identity_residual over
    # a window, against the full trapezoid over the same reports; they sum
    # the same terms in another order, so they differ by round-off: at most
    # 64 eps times the sum of |V_j| at both ends and the |trapezoid terms|
    # (61 reports)
    cfg, _, reports, _ = run60
    eps = np.finfo(float).eps

    def check(reps, j, value):
        """Assert that `value` is the reference residual over `reps` to
        round-off, or NaN where the reference is; whether it is defined."""
        ref = trapezoid_residual(reps, cfg.gamma, j)
        if np.isnan(ref):
            assert np.isnan(value), (j, len(reps), value)
            return False
        ts = np.array([r.t for r in reps])
        gs = np.array([_level_integrand(r, cfg.gamma, j) for r in reps])
        Vs = np.array([getattr(r, LEVEL_ENERGIES[j]) for r in reps])
        valid = np.flatnonzero(~np.isnan(gs + Vs))
        sl = slice(valid[0], valid[-1] + 1)
        scale = (abs(Vs[valid[0]]) + abs(Vs[valid[-1]])
                 + np.sum(np.abs(np.diff(ts[sl]) * (gs[sl][1:] + gs[sl][:-1]) / 2)))
        assert abs(value - ref) <= 64 * eps * scale, (j, len(reps), value, ref)
        return True

    window = (0.1, cfg.t_end)
    inside = [r for r in reports if r.t >= window[0] - 1e-12]
    for j, name in enumerate(RESIDUAL_COLUMNS):
        defined = 0
        for k, rep in enumerate(reports):
            value = getattr(rep, name)
            folded = energy_identity_residual(reports[:k + 1], cfg.gamma, j)
            assert folded == value or np.isnan(folded) and np.isnan(value), (name, k)
            defined += check(reports[:k + 1], j, value)
        assert defined >= 55 - j
        assert check(inside, j, energy_identity_residual(reports, cfg.gamma, j, window))


def test_running_balance_matches_reference_across_a_gap():
    # a report missing a level-0 piece between valid ones: the running value
    # repeats the last residual there and then, like the trapezoid reference
    # over the stored reports, integrates through the missing integrand
    def report(t, V0, nw2):
        rep = EnergyReport(t)
        rep.V0 = V0
        rep.integrands.update(d0_visc=1.0, d0_bnd=0.5, nw2=nw2)
        return rep

    for gap_V0, gap_nw2 in ((np.nan, 0.25), (2.0, np.nan)):
        reports = [report(0.0, np.nan, 0.0), report(0.1, 3.0, 0.0), report(0.2, 2.5, 0.5),
                   report(0.3, gap_V0, gap_nw2), report(0.4, 1.5, 0.75), report(0.5, 1.0, 0.5)]
        balance = _RunningBalance(0)
        for k, rep in enumerate(reports):
            ref = trapezoid_residual(reports[:k + 1], 1.0, 0)
            value = balance.add(rep, 1.0)
            assert (np.isnan(value) and np.isnan(ref)) or abs(value - ref) <= 1e-15, (k, value, ref)


def test_report_contractions_match_einsum(problem, run60):
    # the elementwise contractions of the report against their einsum forms
    prob, _ = problem
    vs = prob.vspace
    rng = np.random.default_rng(3)
    nc, nq = vs.xq.shape[:2]
    aaT_t, a_t, Dv, Dv1 = rng.standard_normal((4, nc, nq, 2, 2))
    q, q_t = rng.standard_normal((2, nc, nq))
    ra, rb, rc = coefficient_rate_terms(vs, cm(aaT_t), cm(a_t), q, q_t, cm(Dv), cm(Dv1))
    assert rb == pytest.approx(vs.integrate(q * np.einsum("cqki,cqik->cq", a_t, Dv1)),
                               rel=1e-13, abs=0)
    assert rc == pytest.approx(vs.integrate(q_t * np.einsum("cqki,cqik->cq", a_t, Dv)),
                               rel=1e-13, abs=0)

    cfg, model, _, final = run60
    states = final.past()
    st, dt = states[-1], cfg.dt
    iface = st.problem.interface
    g = compute_report(cfg.coupling_config(), states).integrands
    w3 = backward_difference([s.wtt for s in states], 1, dt)
    for j, w_top in ((1, st.wtt), (2, w3)):
        _, r_nu = remainder(st.problem, j,
                            remainder_pairs(st.problem, [st.w, st.wt, st.wtt, w3][:j + 2]))
        v_top = backward_difference([s.v for s in states], j + 1, dt)
        surf = Pairs(np.moveaxis(iface.gradients("solid", [st.w, w_top]), 2, 0))
        trac = model.linearized_traction(surf, 1, iface.nu)
        v_f = iface.values("fluid", [v_top])[:, 0]
        for key, other in ((f"r{j}_surf_v", v_f), (f"r{j}_surf_lam", trac)):
            ref = iface.integrate(np.einsum("ikq,ikq->kq", r_nu, other))
            assert g[key] == pytest.approx(ref, rel=1e-12, abs=0), key


def test_report_evaluates_each_derivative_once(run60, monkeypatch):
    # a full ring: each space and point set evaluates its stacked levels with
    # one values call and one gradients call of the batched evaluators (the
    # pressure at the quadrature points is cached on the states)
    cfg, _, _, final = run60
    states = final.past()
    assert len(states) == 6
    calls = []
    for name in ("_values", "_gradients"):
        def counted(table, U, ncomp, _original=getattr(spaces, name), _name=name):
            calls.append((_name, id(table)))
            return _original(table, U, ncomp)

        monkeypatch.setattr(spaces, name, counted)
    rep = compute_report(cfg.coupling_config(), states)
    assert not np.isnan(rep.V3) and not np.isnan(rep.Ee) and not np.isnan(rep.X)
    assert len(set(calls)) == len(calls), calls
    # values: solid, fluid; on the interface fluid, solid, trace and pressure
    # gradients: solid, fluid; on the interface solid and fluid
    kinds = [name for name, _ in calls]
    assert (kinds.count("_values"), kinds.count("_gradients")) == (6, 4), calls
    assert len(kinds) == 10, calls


def test_reports_share_integrand_keys(run60):
    # a run keeps every report, so each integrand name is one string object
    # across them, not one per report (300 reports: about 0.3 MB of keys)
    reports = run60[2]
    keys = [k for rep in reports for k in rep.integrands]
    assert len({id(k) for k in keys}) == len(set(keys))
