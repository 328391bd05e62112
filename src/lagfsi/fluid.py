"""Variable-coefficient incompressible fluid on the fixed reference annulus.

The momentum operator carries the coefficient a a^T formed at quadrature
points from the exact pointwise inverse deformation gradient, which keeps
its Gram (ellipticity) structure intact; the constraint row uses the same
a, so the pressure blocks are exact transposes of each other.
"""

import numpy as np

from . import kernels, mesh as meshmod
from .errors import MeshDegenerationError
from .material import Pairs
from .pointwise import frob, matvec
from .solid import lu_factor
from .spaces import basis_values


def assemble_fluid_operator(kin, vspace, pspace):
    """Element arrays of the implicit-Euler fluid step at the current flow map:
    the viscous K[c, a, b] with coefficient a a^T, acting on each velocity
    component alike, and the weak divergence B[c, p, a, i] of the constraint
    row tr(a Dv); the momentum equation carries -B^T on the pressure.  The
    coupled tangent scatters them straight into its data."""
    margin = kin.min_ellip
    if margin <= 0:
        raise MeshDegenerationError(
            f"coefficient a a^T lost ellipticity (min eigenvalue {margin:.3e})"
        )
    valp = basis_values(vspace.dim, pspace.degree, vspace.qp)
    return (kernels.visc_elements(kin.aaT, vspace.gradt, vspace.wdet),
            kernels.div_elements(kin.a, vspace.gradt, valp, vspace.wdet))


def solve_initial_pressure(problem, v0, w0, model):
    """Pressure at t = 0 from the elliptic problem driven by the initial
    velocity gradients, with the stress-matching Dirichlet datum on the
    interface and the weak normal-Laplacian datum on the outer boundary.
    """
    vspace, pspace = problem.vspace, problem.pspace
    iface = problem.interface
    mesh = problem.mesh
    d = mesh.dimension

    # stiffness and volume load -grad v0 : grad v0 (transposed pairing)
    elems = np.einsum("cq,caiq,cbiq->cab", pspace.wdet, pspace.gradt, pspace.gradt)
    A = pspace.scatter_matrix(elems)
    Dv = vspace.gradients([v0])[:, :, 0]
    f = -frob(Dv, Dv.swapaxes(0, 1))
    valp = basis_values(d, pspace.degree, vspace.qp)
    load = np.einsum("cq,qp,cq->cp", vspace.wdet, valp, f)

    # outer boundary: weak Neumann datum  Dq . nu = (div D v0) . nu, with the
    # Laplacian taken cellwise (piecewise constant for P2), on each outer
    # facet's fluid cell ci
    idx = mesh.facet_indices(meshmod.OUTER)
    ci = np.searchsorted(pspace.cells, [mesh.facet_cells[fi][0][0] for fi in idx])
    xq, wq = mesh.facet_quadrature(idx)
    pvals, _ = pspace.basis_at(ci, xq)
    nu = mesh.facet_normal[idx]
    lap = np.einsum("ckii->ck", vspace.hess_cells([v0])[:, 0])  # (nc, d)
    g = (lap[ci][:, None, :] @ nu[:, :, None])[:, 0, 0]
    outer = np.einsum("fq,fqp->fp", wq * g[:, None], pvals)
    b = np.bincount(np.concatenate([pspace.cell_dofs.ravel(), pspace.cell_dofs[ci].ravel()]),
                    np.concatenate([load.ravel(), outer.ravel()]), minlength=pspace.nscalar)

    # interface Dirichlet datum at every facet vertex, averaged over the
    # facets that share the vertex
    k = np.repeat(np.arange(iface.nfac), d)
    verts = mesh.facets[iface.facets].ravel()
    vals = _vertex_datum(iface, k, mesh.vertices[verts], iface.normal[k], v0, w0, model)
    dofs = pspace.g2l[verts]
    count = np.bincount(dofs, minlength=pspace.nscalar)
    fixed = np.flatnonzero(count)
    gvals = np.bincount(dofs, vals, minlength=pspace.nscalar)[fixed] / count[fixed]
    free = np.setdiff1d(np.arange(pspace.nscalar), fixed)
    A = A.tocsc()
    rhs = b[free] - A[free][:, fixed] @ gvals
    qf = lu_factor(A[free][:, free]).solve(rhs)
    q0 = np.zeros(pspace.nscalar)
    q0[fixed] = gvals
    q0[free] = qf
    return q0


def _vertex_datum(iface, k, x, nu, v0, w0, model):
    """Interface Dirichlet value q0 = nu^T Dv0 nu - <DW(Dw0 + I) nu, nu> at a
    point x of interface facet k with normal nu; k, x and nu may also be
    arrays over points, (n,), (n, d) and (n, d)."""

    def grad_at(space, ci, dofs, u):
        """Gradient of u at x, component-major (d, d, ...)."""
        _, g = space.basis_at(ci, x[..., None, :])
        return np.einsum("...ai,...ac->ci...", g[..., 0, :, :], space._as_nodal(u)[dofs])

    Dv = grad_at(iface.fluid_space, iface.fluid_cell[k], iface.fluid_cell_dofs[k], v0)
    Dw = grad_at(iface.solid_space, iface.solid_cell[k], iface.solid_cell_dofs[k], w0)
    n = np.moveaxis(nu, -1, 0)
    return ((matvec(Dv, n) - matvec(model.pk1(Pairs([Dw])), n)) * n).sum(axis=0)
