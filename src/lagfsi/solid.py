"""Nonlinear elastodynamics of the enclosed body, Newmark-in-time.

Weak residual of  w_tt - div DW(Dw + I) + w = 0  with an interface traction
on the enclosing surface; the Newton tangent pairs the mass terms with the
stiffness of the energy Hessian at the current gradient, assembled at the
identity state and applied matrix-free beyond it.
"""

import logging

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from . import kernels
from .errors import SolverError
from .material import Pairs

log = logging.getLogger(__name__)

NEWMARK_BETA = 0.25
NEWMARK_GAMMA = 0.5


def internal_force(model, space, w):
    """Assembled <DW(Dw + I), D phi> over the solid."""
    Dw = space.gradients([w])[:, :, 0]
    P = kernels.pk1(Dw, model)
    elem = kernels.elem_residual(P, space.gradt, space.wdet)
    return space.scatter_vector(elem.reshape(len(space.cells), -1))


def stiffness_matrix(model, space):
    """Assembled identity-state Hessian form <l_{D phi} D^2W(I), D psi>: the
    stiffness K(0), the same for both material kinds."""
    K = kernels.elem_tangent(space.gradt, space.wdet, model.lam, model.mu)
    n = space.nloc * space.dim
    return space.scatter_matrix(K.reshape(len(space.cells), n, n))


class StiffnessRemainder:
    """z -> (K(w) - K(0)) z, the stiffness beyond the identity state, never
    assembled: <l_{Dz}(D^2W(Dw + I) - D^2W(I)), D phi> by the pointwise law,
    with Dw and S(Dw + I) formed once."""

    def __init__(self, model, space, w):
        self.model, self.space = model, space
        self.Dw = space.gradients([w])[:, :, 0]
        self.S = model.stress(Pairs([self.Dw]))

    def _elements(self, H):
        """Element vectors (nc, nloc d) of the remainder along gradient fields H."""
        dP = self.model.tangent_remainder(Pairs([self.Dw, H]), 1, self.S)
        elem = kernels.elem_residual(dP, self.space.gradt, self.space.wdet)
        return elem.reshape(len(elem), -1)

    def __matmul__(self, z):
        return self.space.scatter_vector(self._elements(self.space.gradients([z])[:, :, 0]))

    def assembled(self):
        """K(w) - K(0) as a sparse matrix: element column (b, j) is the action
        along the gradient of local basis function b in component j."""
        G = self.space.gradt
        nc, na, d, nq = G.shape
        K = np.empty((nc, na * d, na * d))
        for b, j in np.ndindex(na, d):
            H = np.zeros((d, d, nc, nq))
            H[j] = G[:, b].swapaxes(0, 1)
            K[:, :, b * d + j] = self._elements(H)
        return self.space.scatter_matrix(K)


def stiffness_remainder(model, space, w):
    """StiffnessRemainder at w; None for the linear model, whose stiffness is
    K(0) at every w."""
    return StiffnessRemainder(model, space, w) if model.svk else None


def solid_residual(model, space, mass, w, w_tt, load):
    """Weak residual: M w_tt + F_int(w) + M w - load, where `load` is the
    assembled interface traction functional (e.g. C_s @ lambda)."""
    return mass @ (np.asarray(w_tt) + np.asarray(w)) + internal_force(model, space, w) - load


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
# 3-D res 4 first-step matrix the float32 factor takes 180 ms instead of
# 314 ms and a solve 2.75 ms instead of 4.31 ms, for the same 4.16 M fill
# (one core; in float64 410 ms against 764 ms).
# Leave panel_size at its default: in SciPy 1.17.1 panel_size=32 corrupts
# the heap (the process segfaults under glibc's malloc check), while both
# benchmark workloads run clean under that check with relax=1 and the
# default panel.
LU_RELAX = 1
# Relative residual of each Newton correction: the corrections then agree
# with a fresh direct solve to about 1e-14.
KRYLOV_RTOL = 1e-13
# Iterations of one correction.  On the float32 factor of the identity-
# state matrix carried over from earlier steps at the same dt a correction
# takes at most 5 (2-D res 8, dt 1e-2, gamma 0 over 200 steps, and 2-D
# res 5 at amplitude 9e-3 over 50 steps; 4 on 2-D res 5, gamma 0 over 300
# steps and on 3-D res 4 over 6 steps); more than this means it is stale.
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


class TangentOperator:
    """A Newton tangent J as an operator: the assembled sparse `matrix`, which
    is what the preconditioner factors, plus a matrix-free `remainder` acting
    on the unknowns `rows` (None: J is the matrix).  `shape` and `nnz` are
    the matrix's."""

    def __init__(self, matrix, remainder=None, rows=slice(None)):
        self.matrix, self.remainder, self.rows = matrix, remainder, rows
        self.shape, self.nnz = matrix.shape, matrix.nnz

    def __matmul__(self, z):
        out = self.matrix @ z
        if self.remainder is not None:
            out[self.rows] += self.remainder @ z[self.rows]
        return out

    def assembled(self):
        """J as one sparse matrix."""
        if self.remainder is None:
            return self.matrix
        R = self.remainder.assembled().tocoo()
        start = self.rows.start or 0
        return self.matrix + sp.csc_matrix((R.data, (R.row + start, R.col + start)),
                                           shape=self.shape)


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

    `tangent(u)` returns the exact tangent at u as a TangentOperator.  Every
    correction is solved on it by flexible GMRES preconditioned with a
    single-precision LU factor of an earlier tangent's assembled matrix (the
    matrix rounded to float32 and factored; the GMRES residual is the
    float64 one of the operator, so the tolerance is that of a float64
    solve).  The factor is taken from `store` if it holds one built for `key`
    (so a run factors once and carries the factor from step to step), else
    the first tangent's matrix is factored; it is rebuilt at the current
    tangent's matrix only when GMRES misses KRYLOV_RTOL, and the old factor
    is released first.  A converged solve leaves its factor in `store` under
    `key`; a failed one leaves the store empty.  Returns (u, info) where
    info carries the iteration count, the residual-norm history and the
    counts of factorizations and GMRES iterations; raises SolverError (with
    the history attached) if maxit is exhausted or a tangent cannot be
    factored or solved.
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
        J = tangent(u)
        du = None
        if lu is not None:  # the kept factor
            du, its = _krylov_solve(J, lu, -R)
            info["krylov_its"] += its
        if du is None:  # no factor kept, or GMRES missed on it: factor J's matrix
            lu = None  # release the stale factor before building its successor
            lu = lu_factor(J.matrix.astype(np.float32), history)
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
