"""Nonlinear elastodynamics of the enclosed body, Newmark-in-time.

Weak residual of  w_tt - div DW(Dw + I) + w = 0  with an interface traction
on the enclosing surface; the Newton tangent pairs the mass terms with the
stiffness built from the energy Hessian at the current gradient.
"""

import logging

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from . import kernels
from .errors import SolverError
from .material import KINDS

log = logging.getLogger(__name__)

NEWMARK_BETA = 0.25
NEWMARK_GAMMA = 0.5


def internal_force(model, space, w):
    """Assembled <DW(Dw + I), D phi> over the solid."""
    Dw = space.gradients([w])[:, :, 0]
    P = kernels.pk1(Dw, model.lam, model.mu, KINDS[model.kind])
    elem = kernels.elem_residual(P, space.gradt, space.wdet)
    return space.scatter_vector(elem.reshape(len(space.cells), -1))


def stiffness_matrix(model, space, w):
    """Assembled Hessian form <l_{D phi} D^2W(Dw + I), D psi>."""
    Dw = space.gradients([w])[:, :, 0]
    K = kernels.elem_tangent(Dw, space.gradt, space.wdet, model.lam, model.mu, KINDS[model.kind])
    n = space.nloc * space.dim
    return space.scatter_matrix(K.reshape(len(space.cells), n, n))


def solid_residual(model, space, mass, w, w_tt, load=None):
    """Weak residual: M w_tt + F_int(w) + M w - load, where `load` is the
    assembled interface traction functional (e.g. C_s @ lambda)."""
    R = mass @ (np.asarray(w_tt) + np.asarray(w)) + internal_force(model, space, w)
    if load is not None:
        R -= load
    return R


def newmark_rate_factor(dt):
    """d(w_t)/d(w) of the Newmark closure, gamma / (beta dt)."""
    return NEWMARK_GAMMA / (NEWMARK_BETA * dt)


def newmark_update(w_new, w_old, wt_old, wtt_old, dt):
    """Closure giving (w_t, w_tt) at the end of the step from the new w."""
    pred_w = w_old + dt * wt_old + dt * dt * (0.5 - NEWMARK_BETA) * wtt_old
    pred_wt = wt_old + dt * (1 - NEWMARK_GAMMA) * wtt_old
    wt_new = pred_wt + newmark_rate_factor(dt) * (w_new - pred_w)
    wtt_new = 1.0 / (NEWMARK_BETA * dt * dt) * (w_new - pred_w)
    return wt_new, wtt_new


# Minimum degree on the pattern of J + J^T: the coupled tangent is
# structurally symmetric, and on 3-D res 4 this cuts the LU fill of COLAMD
# from 13.8 M to 4.2 M entries and the factor time from 3.4 s to 0.75 s
# (one core).
LU_ORDERING = "MMD_AT_PLUS_A"
# Keep the diagonal pivot unless it is 100x below its column maximum: with
# SuperLU's default of 1.0 row swaps undo the ordering (fill 5.2 M on 3-D).
LU_PIVOT_THRESHOLD = 0.01
# Fundamental supernodes only: SuperLU's default relaxation merges small
# elimination subtrees into relaxed supernodes, and on the saddle-point
# tangent that is what makes the factorization slow, not the fill.  On the
# 3-D res 4 first-step tangent relax=1 factors in 426 ms instead of 771 ms
# and solves in 6.8 ms instead of 9.2 ms (one core), for a fill 9 entries
# above the default's 4.16 M; on 2-D res 5 and res 8 the factor is 11-13 %
# faster.
# Leave panel_size at its default: in SciPy 1.17.1 panel_size=32 corrupts
# the heap (the process segfaults under glibc's malloc check), while both
# benchmark workloads run clean under that check with relax=1 and the
# default panel.
LU_RELAX = 1
# Relative residual of each Newton correction: the corrections then agree
# with a fresh direct solve to about 1e-14.
KRYLOV_RTOL = 1e-13
# Iterations of one correction.  On the float32 factor carried over from
# earlier steps at the same dt a correction takes at most 5 (2-D res 8,
# dt 1e-2, gamma 0 over 200 steps; 4 on 2-D res 5, gamma 0 over 300 steps
# and on 3-D res 4 over 6 steps); more than this means it is stale.
KRYLOV_MAXIT = 10


def lu_factor(A, history=None):
    """SuperLU factor of the sparse matrix A on the step's ordering, pivot
    threshold and supernode relaxation; raises SolverError (with `history`
    attached) if A is singular."""
    try:
        return spla.splu(A.tocsc(), permc_spec=LU_ORDERING, diag_pivot_thresh=LU_PIVOT_THRESHOLD,
                         relax=LU_RELAX)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"LU factorization failed: {exc}", history=history) from exc


class FactorStore:
    """At most one LU factor of a Newton tangent, kept between solves with
    the key it was built for (for the coupled step, the time step)."""

    def __init__(self):
        self.lu = None
        self.key = None

    def take(self, key):
        """Empty the store; return its factor if it was built for `key`."""
        lu = self.lu if self.key == key else None
        self.lu = self.key = None
        return lu

    def put(self, lu, key):
        self.lu, self.key = lu, key


def _krylov_solve(J, lu, b):
    """Solve J x = b by flexible GMRES, right-preconditioned with the factor
    `lu` applied in single precision: each Arnoldi vector v_k is solved once,
    z_k = lu^{-1} v_k, and x = Z y, so the factor may be inexact while the
    residual stays the float64 one of J.  The true residual of x is checked
    before it is returned.  Returns (x, iterations), x None if KRYLOV_RTOL is
    not met within KRYLOV_MAXIT iterations."""
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    m = KRYLOV_MAXIT
    V = np.empty((m + 1, len(b)))
    Z = []
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    V[0], g[0] = b / beta, beta
    k = 0
    while k < m:
        Z.append(lu.solve(V[k].astype(np.float32)))
        w = J @ Z[k]
        # classical Gram-Schmidt with one reorthogonalization pass
        for _ in range(2):
            h = V[:k + 1] @ w
            w -= h @ V[:k + 1]
            H[:k + 1, k] += h
        hnext = np.linalg.norm(w)
        for i in range(k):  # the earlier Givens rotations, then a new one
            H[i, k], H[i + 1, k] = (cs[i] * H[i, k] + sn[i] * H[i + 1, k],
                                    -sn[i] * H[i, k] + cs[i] * H[i + 1, k])
        r = np.hypot(H[k, k], hnext)
        cs[k], sn[k] = H[k, k] / r, hnext / r
        H[k, k], g[k + 1], g[k] = r, -sn[k] * g[k], cs[k] * g[k]
        k += 1
        if abs(g[k]) <= KRYLOV_RTOL * beta:
            break
        V[k] = w / hnext
    x = solve_triangular(H[:k, :k], g[:k]) @ np.asarray(Z)
    if not np.linalg.norm(b - J @ x) <= KRYLOV_RTOL * beta:  # also catches NaN
        return None, k
    return x, k


def newton_solve(residual, tangent, u0, tol=1e-10, maxit=25, store=None, key=None):
    """Newton iteration with an absolute residual-norm stop.

    Every correction is solved on the current tangent by flexible GMRES
    preconditioned with a single-precision LU factor of an earlier tangent
    (the tangent rounded to float32 and factored; the GMRES residual is the
    float64 one, so the tolerance is that of a float64 solve).  The factor is
    taken from `store` if it holds one built for `key` (so a run factors
    once and carries the factor from step to step), else the first tangent
    is factored; it is rebuilt at the current tangent only when GMRES
    misses KRYLOV_RTOL, and the old factor is released first.  A converged
    solve leaves its factor in `store` under `key`; a failed one leaves the
    store empty.  Returns (u, info) where info carries the iteration count,
    the residual-norm history and the counts of factorizations and GMRES
    iterations; raises SolverError (with the history attached) if maxit is
    exhausted or a tangent cannot be factored or solved.
    """
    u = np.array(u0, dtype=float)
    history = []
    info = {"iterations": 0, "residuals": history, "factorizations": 0, "krylov_its": 0}
    store = store if store is not None else FactorStore()
    lu = store.take(key)
    for it in range(maxit + 1):
        R = residual(u)
        nrm = float(np.linalg.norm(R))
        history.append(nrm)
        if nrm <= tol:
            info["iterations"] = it
            store.put(lu, key)
            return u, info
        if it == maxit:
            break
        J = tangent(u).tocsc()
        reused = lu is not None
        if not reused:
            lu = lu_factor(J.astype(np.float32), history)
            info["factorizations"] += 1
        du, its = _krylov_solve(J, lu, -R)
        info["krylov_its"] += its
        if du is None and reused:
            lu = None  # release the stale factor before building its successor
            lu = lu_factor(J.astype(np.float32), history)
            info["factorizations"] += 1
            du, its = _krylov_solve(J, lu, -R)
            info["krylov_its"] += its
        if du is None:
            raise SolverError(
                f"GMRES missed {KRYLOV_RTOL:.0e} in {KRYLOV_MAXIT} iterations on a "
                f"freshly factored tangent at Newton iteration {it}",
                history=history,
            )
        u = u + du
    raise SolverError(
        f"Newton failed to reach {tol:.1e} in {maxit} iterations "
        f"(last residual {history[-1]:.3e})",
        history=history,
    )
