"""Flow map on the fluid reference domain and its inverse-gradient field.

The position map eta lives in the fluid velocity space; its gradient is
differentiated exactly from the piecewise-quadratic field, and the matrix
field a = (D eta)^{-1} is inverted pointwise at every volume and interface
quadrature point (never projected).  The evolution law a_t = -a Dv a is
kept as a diagnostic cross-check only.
"""

import logging

import numpy as np

from . import kernels
from .errors import MeshDegenerationError

log = logging.getLogger(__name__)


class BoundsReport:
    """Pointwise-sup distances of a from the identity and the ellipticity
    floor of the coefficient a a^T."""

    def __init__(self, sup_dist_a_identity, sup_dist_aaT_identity, min_ellipticity, det_min):
        self.sup_dist_a_identity = float(sup_dist_a_identity)
        self.sup_dist_aaT_identity = float(sup_dist_aaT_identity)
        self.min_ellipticity = float(min_ellipticity)
        self.det_min = float(det_min)
        # eigenvalue perturbation bound; holds for every report
        assert self.min_ellipticity >= 1 - self.sup_dist_aaT_identity - 1e-12


class KinematicState:
    """Snapshot of (eta, D eta, a) at one time, sampled at quadrature points.

    Immutable after construction; `advance` returns a new state.
    """

    def __init__(self, space, interface, eta, time):
        self.space = space
        self.interface = interface
        self.eta = np.asarray(eta, dtype=float)
        self.time = float(time)
        d = space.dim
        grad = space.grad_qp(self.eta)                      # (nc, nq, d, d)
        a, det = kernels.inv_det(np.ascontiguousarray(grad))
        if det.min() <= 0:
            raise MeshDegenerationError(
                f"det(D eta) <= 0 at t={time}: min {det.min():.3e}"
            )
        self.grad_eta = grad
        self.a = a
        self.det = det
        self.aaT = a @ np.swapaxes(a, -1, -2)
        gf = interface.fluid_grad_qp(self.eta)              # (nfac, nqf, d, d)
        af, detf = kernels.inv_det(np.ascontiguousarray(gf))
        if detf.min() <= 0:
            raise MeshDegenerationError(
                f"det(D eta) <= 0 on the interface at t={time}"
            )
        self.grad_eta_facet = gf
        self.a_facet = af
        self.det_facet = detf
        self.aaT_facet = af @ np.swapaxes(af, -1, -2)

    @classmethod
    def initial(cls, space, interface):
        """Identity map: a = I and eta(x) = x hold exactly, so the cached
        point values are set to their exact initial values rather than
        differenced from the interpolant."""
        eta = space.interpolate(lambda x: x)
        state = cls(space, interface, eta, 0.0)
        d = space.dim
        I = np.eye(d)
        for name in ("grad_eta", "a", "aaT"):
            getattr(state, name)[:] = I
        for name in ("grad_eta_facet", "a_facet", "aaT_facet"):
            getattr(state, name)[:] = I
        state.det[:] = 1.0
        state.det_facet[:] = 1.0
        return state

    def displacement(self):
        return self.eta - self.space.interpolate(lambda x: x)


def advance_flow_map(state, v, dt):
    """One implicit-Euler-consistent update eta' = eta + dt v with v the
    end-of-step velocity; a is recomputed by exact pointwise inversion."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return KinematicState(state.space, state.interface, state.eta + dt * np.asarray(v), state.time + dt)


def _min_eig_sym(M):
    d = M.shape[-1]
    if d == 2:
        # cancellation-safe form: radius from the deviatoric part directly
        mean = 0.5 * (M[..., 0, 0] + M[..., 1, 1])
        half_gap = 0.5 * (M[..., 0, 0] - M[..., 1, 1])
        radius = np.sqrt(half_gap**2 + M[..., 0, 1] * M[..., 1, 0])
        return mean - radius
    return np.linalg.eigvalsh(M)[..., 0]


def kinematic_bounds_report(state, epsilon=0.25):
    """Scan all quadrature points for the near-identity bounds; logs a
    warning when the coefficient distance exceeds `epsilon`."""
    d = state.space.dim
    I = np.eye(d)

    def stats(a, aaT, det):
        da = np.linalg.norm(a - I, axis=(-2, -1)).max()
        daaT = np.linalg.norm(aaT - I, axis=(-2, -1)).max()
        ell = _min_eig_sym(aaT).min()
        return da, daaT, ell, det.min()

    da1, daaT1, ell1, det1 = stats(state.a, state.aaT, state.det)
    da2, daaT2, ell2, det2 = stats(state.a_facet, state.aaT_facet, state.det_facet)
    rep = BoundsReport(
        max(da1, da2), max(daaT1, daaT2), min(ell1, ell2), min(det1, det2)
    )
    if rep.sup_dist_aaT_identity > epsilon:
        log.warning(
            "near-identity bound exceeded at t=%.4g: |I - a a^T| = %.3e > %.3e",
            state.time, rep.sup_dist_aaT_identity, epsilon,
        )
    return rep
