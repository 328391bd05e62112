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
from .pointwise import cofactor3, mul_t
from .spaces import _gradients

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


def _grad_map(table, disp_cells):
    """D eta = I + D(eta - x), component-major (d, d, n, nq), at the points
    of the basis-gradient table (n, nloc, d, nq) from the displacement's
    element values (n, nloc, d).  The basis gradients sum to zero, so each
    element's values are taken relative to its first node: a translation then
    has D(eta - x) = 0 exactly."""
    rel = disp_cells - disp_cells[:, :1]
    grad = _gradients(table, rel, rel.shape[-1])[:, :, 0]
    for i in range(len(grad)):
        grad[i, i] += 1.0
    return grad


class KinematicState:
    """Snapshot of (eta, D eta, a) at one time, sampled at quadrature points.

    The state is the displacement eta - x; D eta is I plus its gradient, so
    no O(1) identity part is differentiated and cancelled.  The matrix
    fields are component-major, (d, d, n, nq); a a^T is formed entry by
    entry, and so is the ellipticity floor, its least eigenvalue, once per
    state.
    Immutable after construction; `advance_flow_map` returns a new state.
    """

    def __init__(self, space, interface, displacement, time):
        self.space = space
        self.interface = interface
        self.displacement = np.asarray(displacement, dtype=float)
        self.time = float(time)
        nodal = self.displacement.reshape(space.nscalar, space.dim)
        self.grad_eta, self.a, self.det, self.aaT, self.min_ellip = self._sample(
            space.gradt, nodal[space.cell_dofs], "")
        (self.grad_eta_facet, self.a_facet, self.det_facet, self.aaT_facet,
         self.min_ellip_facet) = self._sample(
            interface.fgrad, nodal[interface.fluid_cell_dofs], " on the interface")

    def _sample(self, table, disp_cells, where):
        grad = _grad_map(table, disp_cells)
        a, det = kernels.inv_det(grad)
        if det.min() <= 0:
            raise MeshDegenerationError(
                f"det(D eta) <= 0{where} at t={self.time}: min {det.min():.3e}"
            )
        aaT = mul_t(a, a)
        return grad, a, det, aaT, _min_eig_sym(aaT).min()

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
    """Least eigenvalue of symmetric 2x2 / 3x3 matrices, component-major
    (d, d, ...), in closed form.  The spread is taken from the deviatoric
    part, its diagonal formed from differences of diagonal entries, so
    near-identity input loses no digits to cancellation."""
    m = lambda i, j: M[i, j]
    if len(M) == 2:
        mean = 0.5 * (m(0, 0) + m(1, 1))
        half_gap = 0.5 * (m(0, 0) - m(1, 1))
        return mean - np.sqrt(half_gap**2 + m(0, 1) * m(1, 0))
    # B = M - tr(M)/3 I has the eigenvalues 2p cos(phi + 2k pi/3), k = 0, 1, 2
    B = [[m(i, j) if i != j else ((m(i, i) - m(i - 1, i - 1)) + (m(i, i) - m(i - 2, i - 2))) / 3
          for j in range(3)] for i in range(3)]
    p = np.sqrt(sum(B[i][j] ** 2 for i in range(3) for j in range(3)) / 6)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = sum(B[0][j] * cofactor3(B, 0, j) for j in range(3))
        phi = np.arccos(np.clip(np.where(p > 0, det / (2 * p**3), 0.0), -1.0, 1.0)) / 3
        top = 2 * p * np.cos(phi)
        # Where the least two nearly coincide (phi < pi/6) phi loses half its
        # digits.  The top eigenvalue is isolated there: with P = v v^T its
        # projector, adj(B - top I) / tr adj(B - top I), the least one is
        # -top/2 - |B + top/2 I - 3/2 top P| / sqrt(2).
        C = [[B[i][j] - top * (i == j) for j in range(3)] for i in range(3)]
        scale = 1.5 * top / sum(cofactor3(C, i, i) for i in range(3))
        spread = np.sqrt(sum((B[i][j] + 0.5 * top * (i == j) - scale * cofactor3(C, j, i)) ** 2
                             for i in range(3) for j in range(3)) / 2)
        least = np.where(phi < np.pi / 6, -0.5 * top - spread, 2 * p * np.cos(phi + 2 * np.pi / 3))
    return (m(0, 0) + m(1, 1) + m(2, 2)) / 3 + least


def kinematic_bounds_report(state):
    """Scan all quadrature points for the near-identity bounds; logs a
    warning when the coefficient distance exceeds NEAR_IDENTITY_EPSILON."""
    I = np.eye(state.space.dim)[:, :, None, None]
    dist = lambda X: np.linalg.norm(X - I, axis=(0, 1)).max()
    rep = BoundsReport(
        max(dist(state.a), dist(state.a_facet)), max(dist(state.aaT), dist(state.aaT_facet)),
        min(state.min_ellip, state.min_ellip_facet), min(state.det.min(), state.det_facet.min()),
    )
    if rep.sup_dist_aaT_identity > NEAR_IDENTITY_EPSILON:
        log.warning(
            "near-identity bound exceeded at t=%.4g: |I - a a^T| = %.3e > %.3e",
            state.time, rep.sup_dist_aaT_identity, NEAR_IDENTITY_EPSILON,
        )
    return rep
