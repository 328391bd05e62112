"""Flow map on the fluid reference domain and its inverse-gradient field.

The position map eta is kept as its displacement eta - x in the fluid
velocity space; D eta is I plus the exact gradient of that
piecewise-quadratic field, and the matrix field a = (D eta)^{-1} is
inverted pointwise at every volume and interface quadrature point (never
projected).  The evolution law a_t = -a Dv a is kept as a diagnostic
cross-check only.
"""

import logging

import numpy as np

from . import kernels
from .errors import MeshDegenerationError
from .spaces import _grad_at

log = logging.getLogger(__name__)

# the bounds report warns when |I - a a^T| exceeds this anywhere
NEAR_IDENTITY_EPSILON = 0.25


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


def _grad_map(grads, disp_cells):
    """D eta = I + D(eta - x) at the points of `grads` (n, nq, nloc, d) from
    the displacement's element values (n, nloc, d).  The basis gradients sum
    to zero, so each element's values are taken relative to its first node:
    a translation then has D(eta - x) = 0 exactly."""
    rel = disp_cells - disp_cells[:, :1]
    return _grad_at(grads, rel) + np.eye(rel.shape[-1])


class KinematicState:
    """Snapshot of (eta, D eta, a) at one time, sampled at quadrature points.

    The state is the displacement eta - x; D eta is I plus its gradient, so
    no O(1) identity part is differentiated and cancelled.  Immutable after
    construction; `advance_flow_map` returns a new state.
    """

    def __init__(self, space, interface, displacement, time):
        self.space = space
        self.interface = interface
        self.displacement = np.asarray(displacement, dtype=float)
        self.time = float(time)
        nodal = self.displacement.reshape(space.nscalar, space.dim)
        grad = _grad_map(space.gradq, nodal[space.cell_dofs])      # (nc, nq, d, d)
        a, det = kernels.inv_det(grad)
        if det.min() <= 0:
            raise MeshDegenerationError(
                f"det(D eta) <= 0 at t={time}: min {det.min():.3e}"
            )
        self.grad_eta = grad
        self.a = a
        self.det = det
        self.aaT = a @ np.swapaxes(a, -1, -2)
        gf = _grad_map(interface.fgrad, nodal[interface.fluid_cell_dofs])  # (nfac, nqf, d, d)
        af, detf = kernels.inv_det(gf)
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
        """Identity map: zero displacement, so D eta = a = a a^T = I and
        det = 1 exactly."""
        return cls(space, interface, space.zeros(), 0.0)


def advance_flow_map(state, v, dt):
    """One implicit-Euler-consistent update eta' = eta + dt v with v the
    end-of-step velocity; a is recomputed by exact pointwise inversion."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return KinematicState(state.space, state.interface,
                          state.displacement + dt * np.asarray(v), state.time + dt)


def _min_eig_sym(M):
    d = M.shape[-1]
    if d == 2:
        # cancellation-safe form: radius from the deviatoric part directly
        mean = 0.5 * (M[..., 0, 0] + M[..., 1, 1])
        half_gap = 0.5 * (M[..., 0, 0] - M[..., 1, 1])
        radius = np.sqrt(half_gap**2 + M[..., 0, 1] * M[..., 1, 0])
        return mean - radius
    return np.linalg.eigvalsh(M)[..., 0]


def kinematic_bounds_report(state):
    """Scan all quadrature points for the near-identity bounds; logs a
    warning when the coefficient distance exceeds NEAR_IDENTITY_EPSILON."""
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
    if rep.sup_dist_aaT_identity > NEAR_IDENTITY_EPSILON:
        log.warning(
            "near-identity bound exceeded at t=%.4g: |I - a a^T| = %.3e > %.3e",
            state.time, rep.sup_dist_aaT_identity, NEAR_IDENTITY_EPSILON,
        )
    return rep
