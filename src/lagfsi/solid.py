"""Nonlinear elastodynamics of the enclosed body, Newmark-in-time.

Weak residual of  w_tt - div DW(Dw + I) + w = 0  with an interface traction
on the enclosing surface; the Newton tangent pairs the mass terms with the
stiffness built from the energy Hessian at the current gradient.
"""

import logging

import numpy as np

from . import kernels
from .errors import SolverError
from .material import KINDS

log = logging.getLogger(__name__)

NEWMARK_BETA = 0.25
NEWMARK_GAMMA = 0.5


def internal_force(model, space, w):
    """Assembled <DW(Dw + I), D phi> over the solid."""
    d = space.dim
    F = space.grad_qp(w) + np.eye(d)
    P = kernels.pk1(np.ascontiguousarray(F), model.lam, model.mu, KINDS[model.kind])
    elem = kernels.elem_residual(P, np.ascontiguousarray(space.gradq), space.wdet)
    return space.scatter_vector(elem.reshape(len(space.cells), -1))


def stiffness_matrix(model, space, w):
    """Assembled Hessian form <l_{D phi} D^2W(Dw + I), D psi>."""
    d = space.dim
    F = space.grad_qp(w) + np.eye(d)
    K = kernels.elem_tangent(
        np.ascontiguousarray(F),
        np.ascontiguousarray(space.gradq),
        space.wdet,
        model.lam,
        model.mu,
        KINDS[model.kind],
    )
    nc = len(space.cells)
    nloc = space.nloc
    return space.scatter_matrix(K.reshape(nc, nloc * d, nloc * d))


def solid_residual(model, space, mass, w, w_tt, load=None):
    """Weak residual: M w_tt + F_int(w) + M w - load, where `load` is the
    assembled interface traction functional (e.g. C_s @ lambda)."""
    R = mass @ (np.asarray(w_tt) + np.asarray(w)) + internal_force(model, space, w)
    if load is not None:
        R -= load
    return R


def solid_tangent(model, space, mass, w, dt, beta=NEWMARK_BETA):
    """Newton matrix (1/(beta dt^2)) M + K(D^2W at Dw + I) + M."""
    return (1.0 / (beta * dt * dt) + 1.0) * mass + stiffness_matrix(model, space, w)


def newmark_rate_factor(dt, beta=NEWMARK_BETA, gamma=NEWMARK_GAMMA):
    """d(w_t)/d(w) of the Newmark closure, gamma / (beta dt)."""
    return gamma / (beta * dt)


def newmark_update(w_new, w_old, wt_old, wtt_old, dt, beta=NEWMARK_BETA, gamma=NEWMARK_GAMMA):
    """Closure giving (w_t, w_tt) at the end of the step from the new w."""
    pred_w = w_old + dt * wt_old + dt * dt * (0.5 - beta) * wtt_old
    pred_wt = wt_old + dt * (1 - gamma) * wtt_old
    wt_new = pred_wt + newmark_rate_factor(dt, beta, gamma) * (w_new - pred_w)
    wtt_new = 1.0 / (beta * dt * dt) * (w_new - pred_w)
    return wt_new, wtt_new


def newton_solve(residual, tangent, u0, tol=1e-10, maxit=25):
    """Plain Newton iteration with an absolute residual-norm stop.

    Returns (u, info) where info carries the iteration count and the
    residual-norm history; raises SolverError (with the history attached)
    if maxit is exhausted.
    """
    import scipy.sparse.linalg as spla

    u = np.array(u0, dtype=float)
    history = []
    for it in range(maxit + 1):
        R = residual(u)
        nrm = float(np.linalg.norm(R))
        history.append(nrm)
        if nrm <= tol:
            return u, {"iterations": it, "residuals": history}
        if it == maxit:
            break
        J = tangent(u)
        du = spla.spsolve(J.tocsc(), -R)
        u = u + du
    raise SolverError(
        f"Newton failed to reach {tol:.1e} in {maxit} iterations "
        f"(last residual {history[-1]:.3e})",
        history=history,
    )
