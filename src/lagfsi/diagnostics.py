"""Energies, dissipation, energy-balance residuals and decay-rate fits.

Level-j quantities use the time-differentiated system: w^(0..2) come from
the integrator states, w^(3), w^(4) and all v^(j), lambda^(j) from backward
differences over the state history ring.  The j = 0 and j = 1 balance
residuals use the scheme's own interface traction (and its differences),
which makes them pure time-discretization errors; the j = 2, 3 residuals
are soft diagnostics: they carry the computable commutator remainders but
omit the third-order coefficient-rate couplings, so they are expected to
floor at cubic order in the data rather than vanish.
"""

from math import comb, nan
from sys import intern

import numpy as np

from . import kernels, mesh as meshmod
from .errors import FitDomainError
from .material import Pairs, remainder_bracket
from .pointwise import aat_pairing, cm, frob, matvec, mul, mul_t, sym
from .spaces import FieldSpace

CSV_COLUMNS = [
    "t", "V0e", "V0", "V1e", "V1", "V2e", "V2", "V3e", "V3",
    "D0", "D1", "D2", "D3", "Q", "Ee", "L", "X",
    "res_j0", "res_j1", "res_j2_soft", "res_j3_soft",
    "iface_vel", "iface_stress", "min_ellip", "dist_aaT", "det_min",
]
LEVEL_ENERGIES = ("V0", "V1", "V2", "V3")
RESIDUAL_COLUMNS = ("res_j0", "res_j1", "res_j2_soft", "res_j3_soft")


def backward_difference(values, j, dt):
    """j-th backward difference of a dof-vector history (oldest first);
    exact for polynomials in time of degree <= j.  None if too short."""
    if j == 0:
        return np.asarray(values[-1])
    if len(values) < j + 1:
        return None
    out = 0.0
    for k in range(j + 1):
        out = out + (-1) ** k * comb(j, k) * np.asarray(values[-1 - k])
    return out / dt**j


class EnergyReport:
    """All diagnostic quantities at one time instant (CSV row + integrands)."""

    def __init__(self, t):
        self.t = t
        for name in CSV_COLUMNS[1:]:
            setattr(self, name, nan)
        self.integrands = {}

    def row(self):
        return [getattr(self, c) if c != "t" else self.t for c in CSV_COLUMNS]


def _integrals(wdet, u):
    """Integrals of each level of samples u (K, n, nq) with weights wdet (n, nq)."""
    return list((u * wdet).sum(axis=(-2, -1)))


def _sq(wdet, u):
    """Integrals of |u|^2 of each level of u, (components..., K, n, nq)."""
    u = u.reshape(-1, *u.shape[-3:])
    return _integrals(wdet, np.einsum("c...,c...->...", u, u))


def _levels(grads):
    """The Pairs of gradients (d, d, K, n, nq), one field per level."""
    return Pairs(np.moveaxis(grads, 2, 0))


def coefficient_rate_terms(space, aaT_t, a_t, q, q_t, Dv, Dv1):
    """The three volume pairings of the coefficient-rate perturbation:
    <d_t(a a^T) Dv, Dv_t>, <a_t q, Dv_t> and <a_t q_t, Dv>; the matrix fields
    are component-major, (d, d, nc, nq)."""
    a_tT = a_t.swapaxes(0, 1)
    ra = space.integrate(aat_pairing(Dv, aaT_t, Dv1))
    rb = space.integrate(q * frob(a_tT, Dv1))
    rc = space.integrate(q_t * frob(a_tT, Dv))
    return ra, rb, rc


def compute_report(cfg, states):
    """Build the EnergyReport for the newest state in `states` (oldest first).

    Each time derivative the ring supports, w^(0..4), v^(0..3) and
    lambda^(0..1), is built once.  Each point set evaluates them once: one
    values and one gradients call for the stacked levels.  The material
    forms then share one table of symmetric pairs per point set, and one
    loop over the levels j forms V_j, D_j and the pieces of the level-j
    balance integrand.
    """
    st = states[-1]
    problem = st.problem
    model = problem.model
    dt = cfg.dt
    gamma = cfg.gamma
    vs, ss = problem.vspace, problem.sspace
    iface = problem.interface
    rep = EnergyReport(st.time)
    g = rep.integrands

    # looked up at call time, so that a patched kinematics function is called
    from .kinematics import kinematic_bounds_report

    bounds = kinematic_bounds_report(st.kin)
    rep.min_ellip = bounds.min_ellipticity
    rep.dist_aaT = bounds.sup_dist_aaT_identity
    rep.det_min = bounds.det_min

    # -- the time derivatives, each evaluated once per point set -----------------
    wtt = [s.wtt for s in states]
    w = [st.w, st.wt, st.wtt] + [backward_difference(wtt, k, dt) for k in (1, 2)]
    w = [f for f in w if f is not None]       # w^(k) for k < len(w)
    v = [backward_difference([s.v for s in states], j, dt) for j in range(4)]
    v = [f for f in v if f is not None]       # v^(j) for j < len(v)
    lam = [backward_difference([s.lam for s in states], j, dt) for j in range(min(2, len(v)))]
    nw = _sq(ss.wdet, ss.values(w))
    nv = _sq(vs.wdet, vs.values(v))
    Dw = ss.gradients(w[:4])
    Dv = vs.gradients(v)
    vol, surf = _levels(Dw), _levels(iface.gradients("solid", w[:4]))
    v_f = iface.values("fluid", v)
    trac = list(np.moveaxis(iface.values("trace", lam), 1, 0))
    visc = _integrals(vs.wdet, aat_pairing(Dv, st.kin.aaT[:, :, None], Dv))
    gradsq = _sq(vs.wdet, Dv)

    # -- one pass over the levels ------------------------------------------------
    for j in range(4):
        if j + 1 < len(w):
            A = model.secant(vol, 0, 0) if j == 0 else model.form2(vol, j, j)
            Ve = 0.5 * (nw[j + 1] + nw[j] + ss.integrate(A))
            setattr(rep, f"V{j}e", Ve)
            setattr(rep, f"V{j}", Ve + 0.5 * nv[j] if j < len(v) else nan)
        if j >= len(v):
            break
        if j >= 2:
            trac.append(model.linearized_traction(surf, j, iface.nu))
        g[f"d{j}_visc"] = visc[j]
        g[f"d{j}_bnd"] = iface.l2_norm_sq(trac[j])
        setattr(rep, f"D{j}", g[f"d{j}_visc"] + gamma * g[f"d{j}_bnd"])
        if j == 0:
            g["nw2"] = 0.5 * ss.integrate(model.nprime(vol, 1, 0, 0))
        else:
            g[f"d3w{j}"] = 0.5 * ss.integrate(model.form3(vol, j, j, 1))
        if j == 1:
            # coefficient-rate couplings of the differentiated momentum balance
            aaT_t = backward_difference([s.kin.aaT for s in states[-2:]], 1, dt)
            a_t = backward_difference([s.kin.a for s in states[-2:]], 1, dt)
            q_t = backward_difference([s.q_qp() for s in states[-2:]], 1, dt)
            ra, rb, rc = coefficient_rate_terms(vs, aaT_t, a_t, st.q_qp(), q_t,
                                                Dv[:, :, 0], Dv[:, :, 1])
            g["r1_term"] = -ra + rb - rc
        if j >= 2:
            # commutator remainder couplings r_{j-1}
            r = j - 1
            rvec, r_nu = remainder(problem, r, (vol, surf))
            g[f"r{r}_vol_w{j + 1}"] = float(rvec @ w[j + 1])
            g[f"r{r}_surf_v"] = iface.integrate((r_nu * v_f[:, j]).sum(axis=0))
            g[f"r{r}_surf_lam"] = iface.integrate((r_nu * trac[j]).sum(axis=0))

    # -- totals ------------------------------------------------------------------
    rep.Q = rep.V0 + rep.V1 + rep.V2 + rep.V3
    if len(w) == 5:
        # E^e: broken Sobolev norms of w^(k) of order 4 - k, truncated at the
        # derivatives a P2 field represents (its Hessian is constant per cell)
        H = ss.hess_cells(w[:3])
        vols = ss.wdet.sum(axis=1)
        hsq = vols @ (H * H).reshape(len(vols), 3, -1).sum(axis=-1)
        dsq = _sq(ss.wdet, Dw)
        Ee = 0.0
        for k in range(5):
            Ee += nw[k] + (dsq[k] if k < 4 else 0.0) + (hsq[k] if k < 3 else 0.0)
        rep.Ee, rep.L = Ee, ledger_remainder(Ee)
    g["gradsq0"] = gradsq[0]
    if len(v) >= 3:
        g["gradsq1"], g["gradsq2"] = gradsq[1], gradsq[2]
        rep.X = rep.Q + cfg.epsilon1 * (gradsq[0] + gradsq[1] + gradsq[2])

    rep.iface_vel, rep.iface_stress = interface_residual_values(st, gamma, surf, v_f[:, 0])
    # one copy of each formatted key for all the reports a run keeps
    rep.integrands = {intern(k): x for k, x in g.items()}
    return rep


def _div_functional(space, iface, delta_vol, delta_nu_facet):
    """Weak functional of div(delta): -<delta, D phi> + <delta nu, phi>_Gc, of
    the component-major delta (d, d, nc, nq) and delta nu (d, nfac, nqf)."""
    elem = kernels.elem_residual(delta_vol, space.gradt, space.wdet)
    surf = np.swapaxes(iface.wq[..., None] * iface.sval_cell, 1, 2) @ np.moveaxis(
        delta_nu_facet, 0, -1)
    dofs = np.concatenate([space.cell_vdofs.ravel(), space.cell_vdofs[iface.solid_cell].ravel()])
    return np.bincount(dofs, np.concatenate([-elem.ravel(), surf.ravel()]),
                       minlength=space.ndof)


def remainder(problem, j, pairs):
    """Weak commutator remainder r_j and its interface trace r_{j,Gc}.

    `pairs` holds the Pairs tables of the gradients of w^(0..j+1) at the
    solid and at the interface quadrature points.  Returns the functional
    over solid test functions and the facet-point values of the bracketed
    tensor times nu, component-major (d, nfac, nqf).
    """
    ss, iface = problem.sspace, problem.interface
    vol, surf = pairs
    delta = remainder_bracket(problem.model, vol, j)
    r_nu = matvec(remainder_bracket(problem.model, surf, j), iface.nu)
    return _div_functional(ss, iface, delta, r_nu), r_nu


def ledger_remainder(Ee):
    """Power-sum remainder sum_{k=3}^{8} Ee^{k/2}."""
    return sum(Ee ** (k / 2) for k in range(3, 9))


def interface_residual_values(state, gamma, surf, v_f):
    """Velocity-matching L2 residual and stress-matching dual-norm residual
    of the transmission conditions, with the elastic traction from w.

    `surf` is a Pairs table whose field 0 is the interface gradient of w,
    and `v_f` holds the facet values (d, nfac, nqf) of v.
    """
    iface = state.problem.interface
    nu = iface.nu
    trac = matvec(state.problem.model.pk1(surf), nu)
    vel = np.sqrt(iface.l2_norm_sq(iface.values("solid", [state.wt])[:, 0] - v_f + gamma * trac))
    Dv_f = iface.gradients("fluid", [state.v])[:, :, 0]
    q_f = iface.values("pressure", [state.q])[0, 0]
    # fluid traction Dv (a a^T)^T nu - q a^T nu at the facet points
    kin = state.kin
    T_f = matvec(mul_t(Dv_f, kin.aaT_facet), nu) - q_f * matvec(kin.a_facet.swapaxes(0, 1), nu)
    stress = iface.dual_norm(iface.functional(trac - T_f))
    return float(vel), float(stress)


class _RunningBalance:
    """The level-j balance residual of the reports added so far, updated in
    O(1) a report: [V_j] from the first report with every level-j piece to
    the latest such report, plus the trapezoid of g_j between them."""

    def __init__(self, j):
        self.j = j
        self.V_first = None     # V_j of the first report with every level-j piece
        self.t = self.g = None  # time and integrand of the latest report since then
        self.integral = 0.0     # trapezoid from the first valid report to the latest
        self.value = nan        # the residual at the latest valid report

    def add(self, rep, gamma):
        V = getattr(rep, LEVEL_ENERGIES[self.j])
        g = _level_integrand(rep, gamma, self.j)
        valid = not (np.isnan(V) or np.isnan(g))
        if self.V_first is None:
            if valid:
                self.V_first, self.t, self.g = V, rep.t, g
            return self.value
        self.integral += (rep.t - self.t) * (g + self.g) / 2.0
        self.t, self.g = rep.t, g
        if valid:
            self.value = (V - self.V_first) + self.integral
        return self.value


class TrajectoryRecorder:
    """Per-step reports plus running trapezoidal balance residuals."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.reports = []
        self._balances = [_RunningBalance(j) for j in range(4)]

    def add(self, state):
        rep = compute_report(self.cfg, state.past())
        self.reports.append(rep)
        for name, balance in zip(RESIDUAL_COLUMNS, self._balances):
            setattr(rep, name, balance.add(rep, self.cfg.gamma))
        return rep


def _level_integrand(rep, gamma, j):
    """Signed balance integrand g_j(t); NaN when pieces are unavailable."""
    g = rep.integrands
    try:
        if j == 0:
            return g["d0_visc"] + gamma * g["d0_bnd"] - g["nw2"]
        if j == 1:
            return g["d1_visc"] + gamma * g["d1_bnd"] - g["r1_term"] - g["d3w1"]
        if j == 2:
            return (
                g["d2_visc"] + gamma * g["d2_bnd"] + g["r1_surf_v"]
                + gamma * g["r1_surf_lam"] - g["r1_vol_w3"] - g["d3w2"]
            )
        return (
            g["d3_visc"] + gamma * g["d3_bnd"] + g["r2_surf_v"]
            + gamma * g["r2_surf_lam"] - g["r2_vol_w4"] - g["d3w3"]
        )
    except KeyError:
        return nan


def energy_identity_residual(reports, gamma, j, window=None):
    """Integrated level-j balance residual  [V_j]_s^t + int_s^t g_j dtau:
    the running balance folded over the reports inside `window` (default:
    all of them), from the first report with all level-j pieces available to
    the last such report."""
    balance = _RunningBalance(j)
    for rep in reports:
        if window is None or window[0] - 1e-12 <= rep.t <= window[1] + 1e-12:
            balance.add(rep, gamma)
    return balance.value


# decay fits drop samples below this many machine epsilons of the first one
FIT_FLOOR_FACTOR = 100.0


def fit_decay_rate(series, window=None):
    """Least-squares fit of log X(t) = log C - sigma t.

    Returns (C, sigma, R^2).  Samples at the floor (below FIT_FLOOR_FACTOR *
    machine epsilon relative to the first sample) are excluded; nonpositive
    samples or fewer than 10 usable points raise FitDomainError.
    """
    arr = np.asarray([(t, x) for t, x in series], dtype=float)
    arr = arr[~np.isnan(arr[:, 1])]
    if len(arr) == 0:
        raise FitDomainError("no samples")
    x0 = arr[0, 1]
    if window is None:
        tmax = arr[-1, 0]
        window = (tmax / 2, tmax)
    sel = (arr[:, 0] >= window[0] - 1e-12) & (arr[:, 0] <= window[1] + 1e-12)
    arr = arr[sel]
    floor = FIT_FLOOR_FACTOR * np.finfo(float).eps * abs(x0)
    arr = arr[np.abs(arr[:, 1]) > floor]
    if len(arr) and np.any(arr[:, 1] <= 0):
        raise FitDomainError("nonpositive samples in fit window (floor reached)")
    if len(arr) < 10:
        raise FitDomainError(f"only {len(arr)} usable samples in fit window")
    t, y = arr[:, 0], np.log(arr[:, 1])
    A = np.column_stack([t, np.ones_like(t)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    yhat = A @ coef
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(np.exp(coef[1])), float(-coef[0]), r2


# -- multiplier identities -------------------------------------------------------


class RadialMultiplier:
    """H(x) = x - x0, the star-shape multiplier field."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=float)

    def value(self, x):
        return x - self.x0

    def grad(self, x):
        d = len(self.x0)
        return np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).copy()

    def div(self, x):
        return np.full(x.shape[:-1], float(len(self.x0)))


class ScalarField:
    """C^1 scalar multiplier with closed-form gradient."""

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad


# Gauss-Legendre points of the multiplier identities' time integrals
IDENTITY_TIME_POINTS = 20


def multiplier_identity_residual(mesh, model, hat, H, rho, xi, interval, quad_degree=5):
    """Residuals of the two integration-by-parts multiplier identities.

    `hat` is a manufactured displacement with vectorized callables
    value/dt1/dt2/grad/hess of (x, t); its equation remainder r is defined
    from the field itself, so both identities must vanish to quadrature
    accuracy.  The energy form is the one at zero base displacement,
    A(G, K) = D^2W(I)(G, K) = psi''(sym G, sym K), with l_G A = c(sym G).
    Returns (residual of the vector-multiplier identity, residual of the
    scalar-multiplier identity).
    """
    d = mesh.dimension
    space = FieldSpace(mesh, meshmod.SOLID, 2, d, quad_degree=quad_degree)
    X = space.xq.reshape(-1, d)
    W = space.wdet.reshape(-1)
    idx = mesh.facet_indices(meshmod.INTERFACE)
    fq, fw = mesh.facet_quadrature(idx, quad_degree)
    fnu = np.repeat(mesh.facet_normal[idx], fq.shape[1], axis=0).T
    fq, fw = fq.reshape(-1, d), fw.reshape(-1)

    s_t, t_t = interval
    tn, tw = np.polynomial.legendre.leggauss(IDENTITY_TIME_POINTS)
    tn = 0.5 * (tn + 1) * (t_t - s_t) + s_t
    tw = 0.5 * tw * (t_t - s_t)

    # component-major from here on: vectors (d, n), matrices (d, d, n)
    Hx, DHx, divHx = H.value(X).T, cm(H.grad(X)), H.div(X)
    Hf = H.value(fq).T
    xix, dxix = xi.value(X), xi.grad(X).T
    xif = xi.value(fq)
    A = lambda G, K: model.psi2(sym(G), sym(K))
    dot = lambda u, v: (u * v).sum(axis=0)

    def field(x, t):
        """w, w_t and Dw of the manufactured field at the points x."""
        return hat.value(x, t).T, hat.dt1(x, t).T, cm(hat.grad(x, t))

    def r_field(x, t):
        """w_tt - div(l_{Dw} A) + w; hess[..., b] is the matrix d_b Dw."""
        hw = hat.hess(x, t)
        div = sum(model.c(sym(cm(hw[..., b])))[:, b] for b in range(d))
        return (hat.dt2(x, t) + hat.value(x, t)).T - div

    def endpoint36(t):
        w, wt, gw = field(X, t)
        return float(np.sum(W * dot(wt, 2 * matvec(gw, Hx) + rho * w)))

    def endpoint37(t):
        w, wt, _ = field(X, t)
        return float(np.sum(W * xix * dot(wt, w)))

    lhs36 = rhs36 = 0.0
    lhs37 = rhs37 = 0.0
    for t, wgt in zip(tn, tw):
        w_v, wt_v, gw_v = field(X, t)
        Aww = A(gw_v, gw_v)
        quad_v = dot(wt_v, wt_v) - Aww - dot(w_v, w_v)
        mult_v = 2 * matvec(gw_v, Hx) + rho * w_v
        r_v = r_field(X, t)
        vol36 = (
            np.sum(W * quad_v * (divHx - rho))
            + 2 * np.sum(W * A(gw_v, mul(gw_v, DHx)))
            - np.sum(W * dot(r_v, mult_v))
        )
        rhs36 += wgt * vol36

        w_f, wt_f, gw_f = field(fq, t)
        quad_f = dot(wt_f, wt_f) - A(gw_f, gw_f) - dot(w_f, w_f)
        tracA = matvec(model.c(sym(gw_f)), fnu)
        mult_f = 2 * matvec(gw_f, Hf) + rho * w_f
        lhs36 += wgt * (
            np.sum(fw * quad_f * dot(Hf, fnu))
            + np.sum(fw * dot(tracA, mult_f))
        )

        # scalar-multiplier identity, accumulated as (LHS - RHS) pieces
        lhs37 += wgt * np.sum(fw * xif * dot(tracA, w_f))
        rhs37 += wgt * (
            -np.sum(W * xix * dot(r_v, w_v))
            + np.sum(W * xix * (dot(w_v, w_v) - dot(wt_v, wt_v)))
            + np.sum(W * xix * Aww)
            + np.sum(W * A(gw_v, w_v[:, None] * dxix[None, :]))
        )

    rhs36 += endpoint36(t_t) - endpoint36(s_t)
    rhs37_end = endpoint37(t_t) - endpoint37(s_t)
    res36 = lhs36 - rhs36
    res37 = (rhs37_end + rhs37) - lhs37
    return float(res36), float(res37)


def write_csv(fh, reports):
    """Write reports to the open text file `fh` in the canonical column order;
    floats use shortest round-trip formatting so identical runs emit
    identical bytes."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for rep in reports:
        fh.write(",".join(repr(float(x)) for x in rep.row()) + "\n")
