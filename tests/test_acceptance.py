"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The standard small-data scenario is the shipped radial mode at amplitude
1e-3 with gamma = 1 on the resolution-5 annulus (desk scale); the balance
studies use dt in {1e-2, 5e-3, 2.5e-3} with window [0.1, 1.0], the decay
study runs to t_end = 5 at dt = 5e-3 with a tightened Newton tolerance.
"""

import os

import numpy as np
import pytest

from lagfsi import cli
from lagfsi.config import RunConfig, parse_config
from lagfsi.coupling import CoupledProblem, coupled_step, run_simulation
from lagfsi.diagnostics import (
    RadialMultiplier, ScalarField, energy_identity_residual, fit_decay_rate,
    multiplier_identity_residual, remainder,
)
from lagfsi.manufactured import constant_displacement, sin_quadratic_displacement
from lagfsi.material import make_material
from lagfsi.mesh import build_annular_mesh

from oracle_fem import DenseStep, make_tiny_mesh
from test_diagnostics import remainder_pairs
from test_material import (
    d2_contract, d3_contract, d4_contract, energy_density, piola_stress, pm, stress_rates,
)

SVK = "saint-venant-kirchhoff"
LIN = "linear-isotropic"
RES = 5  # standard-scenario resolution (desk scale)


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _standard_run(gamma, dt, t_end, **kw):
    base = dict(resolution=RES, dt=dt, t_end=t_end, gamma=gamma,
                init_amplitude=1e-3, init_mode="radial")
    base.update(kw)
    cfg = RunConfig(**base)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    return run_simulation(cfg.coupling_config(), cfg.make_initial_data(), model, mesh)


@pytest.fixture(scope="module")
def identity_runs():
    runs = {}
    for dt in (1e-2, 5e-3, 2.5e-3):
        runs[dt] = _standard_run(1.0, dt, 1.0)[0]
    return runs


@pytest.fixture(scope="module")
def decay_runs():
    runs = {}
    for gamma in (1.0, 0.0):
        runs[gamma] = _standard_run(gamma, 5e-3, 5.0, newton_tol=1e-12)[0]
    return runs


def test_criterion_1_material_calculus():
    details = []
    ok = True
    rng = np.random.default_rng(2024)
    for kind in (SVK, LIN):
        mdl = make_material(kind, 1.0, 1.0)
        h1 = mdl.h1_residual(3)
        margin = mdl.ellipticity_margin(dim=3, nsamples=10000,
                                        rng=np.random.default_rng(0))
        ok &= h1 <= 1e-12 and margin >= mdl.mu - 1e-9
        # independent finite-difference chain over random states near I
        errs = np.zeros(4)
        for _ in range(100):
            F = np.eye(2) + 0.05 * rng.standard_normal((2, 2))
            G = rng.standard_normal((2, 2))
            G /= np.linalg.norm(G)
            h = 1e-5
            fd = (energy_density(mdl, F + h * G) - energy_density(mdl, F - h * G)) / (2 * h)
            ex = np.sum(piola_stress(mdl, F) * G)
            errs[0] = max(errs[0], abs(fd - ex) / max(abs(ex), 1e-10))
            for k, (lo, hi) in enumerate([
                (lambda M: piola_stress(mdl, M), lambda M: d2_contract(mdl, M, G)),
                (lambda M: d2_contract(mdl, M, G), lambda M: d3_contract(mdl, M, G, G)),
                (lambda M: d3_contract(mdl, M, G, G), lambda M: d4_contract(mdl, G, G, G)),
            ], start=1):
                fd = (lo(F + h * G) - lo(F - h * G)) / (2 * h)
                ex = hi(F)
                scale = max(np.linalg.norm(ex), 1e-10)
                errs[k] = max(errs[k], np.linalg.norm(fd - ex) / scale)
        ok &= errs.max() <= 1e-6
        details.append(f"{kind}: |DW(I)|={h1:.1e}, margin-mu={margin - mdl.mu:+.2e}, "
                       f"chain max={errs.max():.2e}")
    _report(1, ok, "; ".join(details))


def test_criterion_2_kinematic_exactness():
    cfg = RunConfig(resolution=RES, dt=5e-3, t_end=0.0, init_amplitude=1e-3)
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    from lagfsi.coupling import initial_state
    from lagfsi.kinematics import kinematic_bounds_report

    ccfg = cfg.coupling_config(dt=5e-3)
    init = cfg.make_initial_data()
    problem = CoupledProblem(mesh, model)
    state = initial_state(problem, ccfg, model, *init.build(problem))
    rep0 = kinematic_bounds_report(state.kin)
    ok = (rep0.sup_dist_a_identity == 0.0 and rep0.sup_dist_aaT_identity == 0.0
          and rep0.min_ellipticity == 1.0)
    worst = 0.0
    for n in range(40):
        state = coupled_step(state, ccfg, model, step_index=n + 1)
        kin = state.kin
        err = np.einsum("cqij,cqjl->cqil", pm(kin.a), pm(kin.grad_eta)) - np.eye(2)
        errf = np.einsum("fqij,fqjl->fqil", pm(kin.a_facet), pm(kin.grad_eta_facet)) - np.eye(2)
        worst = max(worst, np.abs(err).max(), np.abs(errf).max())
    ok &= worst <= 1e-12
    _report(2, ok, f"t=0 report exact; max |a D eta - I| over 40 steps = {worst:.2e}")


def test_criterion_3_stress_rate_orders():
    rng = np.random.default_rng(7)
    mdl = make_material(SVK, 1.0, 1.0)
    d = 2
    A = 0.05 * rng.standard_normal((d, d))
    B = 0.05 * rng.standard_normal((d, d))
    C0 = 0.05 * rng.standard_normal((d, d))

    def Dw(t):
        return A * np.sin(t) + B * np.cos(2 * t) + C0 * t * t / 2

    def rates(t):
        return [A * np.cos(t) - 2 * B * np.sin(2 * t) + C0 * t,
                -A * np.sin(t) - 4 * B * np.cos(2 * t) + C0,
                -A * np.cos(t) + 8 * B * np.sin(2 * t),
                A * np.sin(t) + 16 * B * np.cos(2 * t)]

    t0 = 0.3
    I = np.eye(d)

    def C(t):
        return piola_stress(mdl, Dw(t) + I)

    bundle = stress_rates(mdl, Dw(t0), rates(t0))
    exact = (bundle.Cdot, bundle.Cddot, bundle.C3, bundle.C4)
    errs = {}
    for h in (0.05, 0.025):
        fds = (
            (C(t0 + h) - C(t0 - h)) / (2 * h),
            (C(t0 + h) - 2 * C(t0) + C(t0 - h)) / h**2,
            (C(t0 + 2 * h) - 2 * C(t0 + h) + 2 * C(t0 - h) - C(t0 - 2 * h)) / (2 * h**3),
            (C(t0 + 2 * h) - 4 * C(t0 + h) + 6 * C(t0) - 4 * C(t0 - h) + C(t0 - 2 * h)) / h**4,
        )
        errs[h] = [np.abs(fd - ex).max() for fd, ex in zip(fds, exact)]
    orders = [np.log2(errs[0.05][j] / errs[0.025][j]) for j in range(4)]
    ok = all(o >= 1.8 for o in orders)
    _report(3, ok, "observed path-oracle orders j=1..4: "
            + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_4_multiplier_identities():
    cfg = parse_config("")  # the 2-D default mesh
    mesh = cfg.make_mesh()
    model = cfg.make_material()
    d = 2
    H = RadialMultiplier(np.zeros(d))
    xi = ScalarField(
        lambda x: 1.0 + x[..., 0] + x[..., 1] ** 2,
        lambda x: np.stack([np.ones(x.shape[:-1]), 2 * x[..., 1]], axis=-1))
    rho = d - 0.5
    r36, r37 = multiplier_identity_residual(
        mesh, model, constant_displacement([0.3, 0.1]), H, rho, xi, (0.0, 1.0))
    worst_const = max(abs(r36), abs(r37))
    poly = sin_quadratic_displacement(d, scale=0.5)
    seq = []
    for deg in (1, 2, 3, 5):
        r36, r37 = multiplier_identity_residual(
            mesh, model, poly, H, rho, xi, (0.0, 1.0), quad_degree=deg)
        seq.append(max(abs(r36), abs(r37)))
    ok = worst_const <= 1e-10 and seq[-1] <= 1e-8 and seq[0] > seq[-1]
    _report(4, ok, f"constant-field residual {worst_const:.2e} (<= 1e-10); "
            f"polynomial under refinement {seq[0]:.1e} -> {seq[-1]:.1e} (<= 1e-8)")


def test_criterion_5_energy_identity_j0(identity_runs):
    window = (0.1, 1.0)
    res = {dt: abs(energy_identity_residual(reps, 1.0, 0, window))
           for dt, reps in identity_runs.items()}
    dts = sorted(res, reverse=True)
    orders = [np.log(res[a] / res[b]) / np.log(a / b) for a, b in zip(dts, dts[1:])]
    ok = all(o >= 0.9 for o in orders) and res[2.5e-3] <= 1e-6
    _report(5, ok, "res_j0: " + ", ".join(f"dt={dt:g}: {res[dt]:.2e}" for dt in dts)
            + f"; orders {orders[0]:.2f}, {orders[1]:.2f} (>= 0.9); "
            f"residual at dt=2.5e-3 <= 1e-6")


def test_criterion_6_energy_identity_j1(identity_runs):
    window = (0.1, 1.0)
    res = {dt: abs(energy_identity_residual(reps, 1.0, 1, window))
           for dt, reps in identity_runs.items()}
    dts = sorted(res, reverse=True)
    orders = [np.log(res[a] / res[b]) / np.log(a / b) for a, b in zip(dts, dts[1:])]
    monotone = all(res[a] > res[b] for a, b in zip(dts, dts[1:]))
    ok = all(o >= 0.8 for o in orders) and monotone
    _report(6, ok, "res_j1: " + ", ".join(f"dt={dt:g}: {res[dt]:.2e}" for dt in dts)
            + f"; orders {orders[0]:.2f}, {orders[1]:.2f} (>= 0.8); monotone={monotone}")


def test_criterion_7_decay_study(decay_runs):
    reps = decay_runs[1.0]
    C, sigma, r2 = fit_decay_rate([(r.t, r.X) for r in reps], window=(2.5, 5.0))
    xs = [r.X for r in reps if not np.isnan(r.X)]
    ratio = xs[-1] / xs[0]
    sig_v0 = {}
    for gamma, rlist in decay_runs.items():
        _, s, _ = fit_decay_rate([(r.t, r.V0e) for r in rlist], window=(2.5, 5.0))
        sig_v0[gamma] = s
    ok = (sigma > 0 and r2 >= 0.95 and ratio <= 0.2
          and sig_v0[1.0] > sig_v0[0.0])
    _report(7, ok, f"X fit: sigma={sigma:.3f} (> 0), R2={r2:.4f} (>= 0.95), "
            f"X(5)/X(0)={ratio:.2e} (<= 0.2); "
            f"sigma_V0e: gamma=1: {sig_v0[1.0]:.3f} > gamma=0: {sig_v0[0.0]:.4f}")


def test_criterion_8_equilibrium_and_degenerate():
    reports, state = _standard_run(1.0, 5e-3, 1.0, init_amplitude=0.0)
    assert len(reports) == 201
    worst = 0.0
    cols = ("V0e", "V0", "V1e", "V1", "V2e", "V2", "V3e", "V3",
            "D0", "D1", "D2", "D3", "Q", "Ee", "L", "X",
            "res_j0", "res_j1", "res_j2_soft", "res_j3_soft")
    for rep in reports:
        for col in cols:
            v = getattr(rep, col)
            if not np.isnan(v):
                worst = max(worst, abs(v))
    ok = worst <= 1e-14

    rep_lin, state_lin = _standard_run(1.0, 1e-2, 0.05, material_kind=LIN)
    ok &= state_lin.newton_info["iterations"] == 1
    lin = make_material(LIN, 1.0, 1.0)
    rvec, rsurf = remainder(state_lin.problem, lin, 1, remainder_pairs(
        state_lin.problem, [state_lin.w, state_lin.wt, state_lin.wtt]))
    r1_zero = max(np.abs(rvec).max(), np.abs(rsurf).max())
    ok &= r1_zero == 0.0
    _report(8, ok, f"zero data: 200 steps, max |column| = {worst:.1e} (<= 1e-14); "
            f"linear Newton iterations = {state_lin.newton_info['iterations']} (= 1); "
            f"linear remainder r1 = {r1_zero:.1e} (= 0)")


def test_criterion_9_small_mesh_oracle():
    worst = 0.0
    for kind in (LIN, SVK):
        mesh = make_tiny_mesh()
        model = make_material(kind, 1.0, 1.0)
        problem = CoupledProblem(mesh, model)
        cfg = RunConfig(gamma=0.7, dt=0.01, newton_tol=1e-13)
        vs, ss = problem.vspace, problem.sspace
        from lagfsi.coupling import CoupledState
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
        state = CoupledState(problem, v, q, w, wt, wtt, lam, kin, 0.0)
        new = coupled_step(state, cfg, model)
        vo, qo, wo, wto, wtto, lamo = DenseStep(problem, model).step(state, cfg)
        gap = max(np.abs(new.v - vo).max(), np.abs(new.q - qo).max(),
                  np.abs(new.w - wo).max(), np.abs(new.lam - lamo).max())
        worst = max(worst, gap)
    ok = worst <= 1e-10
    _report(9, ok, f"coupled step vs dense brute-force assembly: "
            f"max solution gap = {worst:.2e} (<= 1e-10)")


def test_criterion_10_reproducibility(tmp_path):
    text = (
        f"resolution = {RES}\ndt = 0.005\nt_end = 0.05\nseed = 3\n"
        "output.csv = {csv}\n"
    )
    paths = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.cfg"
        csv_path = tmp_path / f"{tag}.csv"
        cfg_path.write_text(text.format(csv=csv_path))
        assert cli.main(["run", str(cfg_path)]) == 0
        paths.append(csv_path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    code = cli.main(["run", str(bad)])
    ok = identical and code == 1
    _report(10, ok, f"identical config+seed -> identical CSV bytes: {identical}; "
            f"unknown key exit code = {code} (= 1)")
