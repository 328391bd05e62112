"""Scalar/vector Lagrange spaces (P1, P2) on a region of the reference mesh.

Global P2 nodes are mesh vertices followed by edge midpoints; each space
keeps its own compact scalar-dof numbering over the nodes its cells touch.
Vector dofs interleave components node-major: dof = scalar_dof * ncomp + comp.
"""

import numpy as np

from . import mesh as meshmod
from .quadrature import facet_rule, simplex_rule
from .solid import lu_factor
from .sparsity import Assembly, element_pattern, expand, expand_diagonal


def _bary(dim, pts):
    pts = np.asarray(pts, dtype=float)
    lam0 = 1.0 - pts.sum(axis=1)
    return np.column_stack([lam0, pts])


def _grad_bary(dim):
    g = np.zeros((dim + 1, dim))
    g[0] = -1.0
    g[1:] = np.eye(dim)
    return g


def _local_edges(dim):
    if dim == 2:
        return [(0, 1), (0, 2), (1, 2)]
    return [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


# The batched evaluators below return component-major arrays (see
# `pointwise`): K fields cost one gather and one product per point set.

def _gather(fields, nnodes, cell_dofs):
    """Cell nodal values (n, nloc, K*ncomp) of K dof vectors over `nnodes`
    nodes, field-major along the last axis."""
    X = np.stack([np.reshape(f, (nnodes, -1)) for f in fields], axis=1)
    return X.reshape(nnodes, -1)[cell_dofs]


def _values(val, U, ncomp):
    """Values (ncomp, K, n, nq) from the basis values `val`, (nq, nloc) or
    (n, nq, nloc), and the cell values U (n, nloc, K*ncomp)."""
    out = val @ U                                              # (n, nq, K*ncomp)
    n, nq = out.shape[:2]
    return np.ascontiguousarray(out.reshape(n, nq, -1, ncomp).transpose(3, 2, 0, 1))


def _gradients(table, U, ncomp):
    """Gradients (ncomp, d, K, n, nq) from the basis gradients as the table
    (n, nloc, d, nq) and the cell values U (n, nloc, K*ncomp)."""
    n, nloc, d, nq = table.shape
    out = np.swapaxes(U, 1, 2) @ table.reshape(n, nloc, d * nq)   # (n, K*ncomp, d*nq)
    return np.ascontiguousarray(out.reshape(n, -1, ncomp, d, nq).transpose(2, 3, 1, 0, 4))


def basis_values(dim, degree, pts):
    """Reference basis values, shape (npts, nloc)."""
    lam = _bary(dim, pts)
    if degree == 1:
        return lam
    vals = [lam[:, i] * (2 * lam[:, i] - 1) for i in range(dim + 1)]
    vals += [4 * lam[:, a] * lam[:, b] for a, b in _local_edges(dim)]
    return np.column_stack(vals)


def basis_grads(dim, degree, pts):
    """Reference basis gradients, shape (npts, nloc, dim)."""
    lam = _bary(dim, pts)
    g = _grad_bary(dim)
    npts = lam.shape[0]
    if degree == 1:
        return np.broadcast_to(g, (npts, dim + 1, dim)).copy()
    out = np.zeros((npts, (dim + 1) + len(_local_edges(dim)), dim))
    for i in range(dim + 1):
        out[:, i] = (4 * lam[:, i] - 1)[:, None] * g[i]
    for k, (a, b) in enumerate(_local_edges(dim)):
        out[:, dim + 1 + k] = 4 * (lam[:, b][:, None] * g[a] + lam[:, a][:, None] * g[b])
    return out


def basis_hessians(dim, degree):
    """Constant reference Hessians of the basis, shape (nloc, dim, dim)."""
    g = _grad_bary(dim)
    if degree == 1:
        return np.zeros((dim + 1, dim, dim))
    nloc = (dim + 1) + len(_local_edges(dim))
    H = np.zeros((nloc, dim, dim))
    for i in range(dim + 1):
        H[i] = 4 * np.outer(g[i], g[i])
    for k, (a, b) in enumerate(_local_edges(dim)):
        H[dim + 1 + k] = 4 * (np.outer(g[a], g[b]) + np.outer(g[b], g[a]))
    return H


class FieldSpace:
    """Lagrange space on the cells of one region.

    Parameters
    ----------
    mesh : ReferenceMesh
    region : int
        mesh.FLUID or mesh.SOLID.
    degree : int, 1 or 2
    ncomp : int
        1 for scalar fields, mesh.dimension for vector fields.
    quad_degree : int
        Cell quadrature exactness (default 2*degree + 1).
    """

    def __init__(self, mesh, region, degree, ncomp, quad_degree=None):
        self.mesh = mesh
        self.region = region
        self.degree = degree
        self.ncomp = ncomp
        d = mesh.dimension
        self.dim = d
        if quad_degree is None:
            quad_degree = 2 * degree + 1
        self.quad_degree = quad_degree

        self.cells = np.flatnonzero(mesh.region == region)
        nv = len(mesh.vertices)
        if degree == 1:
            cell_nodes = mesh.cells[self.cells]
        else:
            cell_nodes = np.hstack(
                [mesh.cells[self.cells], nv + mesh.cell_edges[self.cells]]
            )
        self.cell_nodes = cell_nodes
        nodes = np.unique(cell_nodes)
        self.nodes = nodes
        self.nscalar = len(nodes)
        self.ndof = self.nscalar * ncomp
        n_glob = nv + (len(mesh.edges) if degree == 2 else 0)
        g2l = np.full(n_glob, -1, dtype=np.int64)
        g2l[nodes] = np.arange(self.nscalar)
        self.g2l = g2l
        self.cell_dofs = g2l[cell_nodes]  # (ncr, nloc) scalar dofs

        coords = np.empty((self.nscalar, d))
        vert_mask = nodes < nv
        coords[vert_mask] = mesh.vertices[nodes[vert_mask]]
        if degree == 2:
            em = ~vert_mask
            epairs = mesh.edges[nodes[em] - nv]
            coords[em] = 0.5 * (mesh.vertices[epairs[:, 0]] + mesh.vertices[epairs[:, 1]])
        self.node_coords = coords

        self._build_tables()
        self._assemblies = {}

    def _build_tables(self):
        d = self.dim
        qp, qw = simplex_rule(d, self.quad_degree)
        self.qp, self.qw = qp, qw
        self.nq = len(qw)
        self.val = basis_values(d, self.degree, qp)           # (nq, nloc)
        gref = basis_grads(d, self.degree, qp)                # (nq, nloc, d)
        verts = self.mesh.vertices[self.mesh.cells[self.cells]]
        J = np.transpose(verts[:, 1:] - verts[:, :1], (0, 2, 1))  # (ncr, d, d)
        detJ = np.abs(np.linalg.det(J))
        Jinv = np.linalg.inv(J)
        self.detJ = detJ
        self.Jinv = Jinv
        # physical gradients grad phi = Jinv^T grad_ref phi, as the table
        # (ncr, nloc, d, nq) that every gradient evaluation and kernel reads
        self.gradt = np.ascontiguousarray((gref @ Jinv[:, None]).transpose(0, 2, 3, 1))
        self.wdet = qw[None, :] * detJ[:, None]               # (ncr, nq)
        self.xq = verts[:, 0][:, None, :] + qp @ np.swapaxes(J, 1, 2)
        Href = basis_hessians(d, self.degree)                 # (nloc, d, d)
        self.hessq = np.swapaxes(Jinv, 1, 2)[:, None] @ Href @ Jinv[:, None]
        self.nloc = self.val.shape[1]
        comp = np.arange(self.ncomp)
        self.cell_vdofs = (
            self.cell_dofs[:, :, None] * self.ncomp + comp[None, None, :]
        ).reshape(len(self.cells), self.nloc * self.ncomp)

    def basis_at(self, ci, x):
        """Basis values (..., m, nloc) and physical gradients (..., m, nloc, d)
        at physical points x (..., m, d) of the cells with local indices ci
        (...), pulled back through the cells' stored Jinv."""
        Jinv = self.Jinv[ci]
        v0 = self.mesh.vertices[self.mesh.cells[self.cells[ci], 0]]
        ref = (x - v0[..., None, :]) @ np.swapaxes(Jinv, -1, -2)
        flat = ref.reshape(-1, self.dim)
        val = basis_values(self.dim, self.degree, flat)
        gref = basis_grads(self.dim, self.degree, flat)
        val = val.reshape(ref.shape[:-1] + val.shape[-1:])
        gref = gref.reshape(ref.shape[:-1] + gref.shape[-2:])
        return val, gref @ Jinv[..., None, :, :]

    # -- field operations ------------------------------------------------------

    def zeros(self):
        return np.zeros(self.ndof)

    def interpolate(self, fn):
        """Nodal interpolation of a callable fn(x) -> scalar or (ncomp,)."""
        out = np.zeros((self.nscalar, self.ncomp))
        for i, x in enumerate(self.node_coords):
            out[i] = fn(x)
        return out.reshape(-1)

    def _as_nodal(self, dofs):
        return np.asarray(dofs).reshape(self.nscalar, self.ncomp)

    def values(self, fields):
        """Values (ncomp, K, ncr, nq) of K fields at the quadrature points."""
        return _values(self.val, _gather(fields, self.nscalar, self.cell_dofs), self.ncomp)

    def gradients(self, fields):
        """Gradients (ncomp, d, K, ncr, nq) of K fields at the quadrature points."""
        return _gradients(self.gradt, _gather(fields, self.nscalar, self.cell_dofs), self.ncomp)

    def hess_cells(self, fields):
        """Second derivatives of K fields, constant per cell: (ncr, K, ncomp, d, d)."""
        u = _gather(fields, self.nscalar, self.cell_dofs)
        nc, d = len(self.cells), self.dim
        return (np.swapaxes(u, 1, 2) @ self.hessq.reshape(nc, self.nloc, d * d)).reshape(
            nc, len(fields), self.ncomp, d, d)

    def integrate(self, values_qp):
        """Integrate scalar values sampled at quadrature points."""
        return float(np.sum(self.wdet * values_qp))

    def l2_norm_sq(self, dofs):
        u = self.values([dofs])[:, 0]
        return self.integrate((u * u).sum(axis=0))

    # -- assembly helpers ------------------------------------------------------

    def assembly(self, trial=None, components=False):
        """The fixed-pattern Assembly of matrices with rows in this space's
        dofs and columns in those of `trial` (default: this space), a space on
        the same cells; built once per (trial, components).  With components
        set, scalar element matrices act on each of the ncomp components alike
        (pattern: scalar graph (x) I_ncomp)."""
        trial = self if trial is None else trial
        key = (None if trial is self else trial, components)  # no reference cycle
        if key not in self._assemblies:
            pattern, slot = element_pattern(self.cell_dofs, trial.cell_dofs,
                                            (self.nscalar, trial.nscalar))
            if components:
                asm = Assembly(pattern, slot, *expand_diagonal(pattern, self.ncomp))
            else:
                asm = Assembly(*expand(pattern, slot, self.ncomp, trial.ncomp))
            self._assemblies[key] = asm
        return self._assemblies[key]

    def scatter_matrix(self, elem):
        """Assemble element matrices into a CSC matrix on this space's fixed
        pattern.  elem is (ncr, nloc*ncomp, nloc*ncomp), or (ncr, nloc, nloc)
        for scalar element matrices acting on each component alike."""
        components = self.ncomp > 1 and elem.shape[1:] == (self.nloc, self.nloc)
        return self.assembly(components=components).matrix(elem)

    def scatter_vector(self, elem):
        """Assemble element vectors (ncr, nloc*ncomp) into a global vector."""
        return np.bincount(self.cell_vdofs.ravel(), elem.ravel(), minlength=self.ndof)

    def _mass_elements(self):
        return np.swapaxes(self.wdet[:, :, None] * self.val, 1, 2) @ self.val

    def mass_matrix(self):
        return self.scatter_matrix(self._mass_elements())

    def scalar_mass_matrix(self):
        """The scalar mass M; the vector mass is M (x) I_ncomp."""
        return self.assembly(components=True).base_matrix(self._mass_elements())

    def boundary_scalar_dofs(self, facet_tag):
        """Scalar dofs of all nodes lying on facets with the given tag."""
        mesh = self.mesh
        nodes = mesh.facet_nodes(mesh.facet_indices(facet_tag))
        if self.degree == 1:
            nodes = nodes[:, :self.dim]  # the facet's vertices
        dofs = self.g2l[np.unique(nodes)]
        return dofs[dofs >= 0]

    def free_mask(self, dirichlet_tag):
        """Boolean mask of unconstrained vector dofs."""
        mask = np.ones(self.ndof, dtype=bool)
        fixed = self.boundary_scalar_dofs(dirichlet_tag)
        for c in range(self.ncomp):
            mask[fixed * self.ncomp + c] = False
        return mask


class InterfaceData:
    """Quadrature and trace structures on the solid/fluid interface.

    The fluid-velocity and solid-displacement traces share the interface
    nodes, so interface integrals are single-surface sums and the trace
    space is the interface restriction of either volume space.
    """

    def __init__(self, mesh, fluid_space, solid_space, pressure_space):
        self.mesh = mesh
        self.dim = mesh.dimension
        self.fluid_space = fluid_space
        self.solid_space = solid_space
        self.pressure_space = pressure_space
        self.ncomp = fluid_space.ncomp
        self.facets = mesh.facet_indices(meshmod.INTERFACE)
        self.nfac = len(self.facets)
        assert fluid_space.degree == solid_space.degree == 2

        facet_nodes = mesh.facet_nodes(self.facets)
        self.nlocf = facet_nodes.shape[1]
        self.trace_nodes = np.unique(facet_nodes)
        self.ntr = len(self.trace_nodes)
        self.nlam = self.ntr * self.ncomp
        self.facet_trace = np.searchsorted(self.trace_nodes, facet_nodes)
        self.trace_to_fluid = fluid_space.g2l[self.trace_nodes]
        self.trace_to_solid = solid_space.g2l[self.trace_nodes]
        assert np.all(self.trace_to_fluid >= 0) and np.all(self.trace_to_solid >= 0)

        self._build_quadrature()
        self._build_side_tables()
        self._build_mass()

    def _build_quadrature(self):
        mesh = self.mesh
        self.xq, self.wq = mesh.facet_quadrature(self.facets)
        self.nqf = self.wq.shape[1]
        self.normal = mesh.facet_normal[self.facets]
        self.nu = np.ascontiguousarray(self.normal.T)[:, :, None]  # (d, nfac, 1)

        # facet-intrinsic P2 basis at the quadrature points
        qp, _ = facet_rule(self.dim, meshmod.FACET_QUAD_DEGREE)
        if self.dim == 2:
            s = qp[:, 0]
            self.fval = np.column_stack(
                [(1 - s) * (1 - 2 * s), s * (2 * s - 1), 4 * s * (1 - s)]
            )
        else:
            self.fval = basis_values(2, 2, qp)

    def _build_side_tables(self):
        pairs = [self.mesh.interface_pairing[int(fi)] for fi in self.facets]
        fc, sc = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        fs, ss, ps = self.fluid_space, self.solid_space, self.pressure_space
        self.fluid_cell = np.searchsorted(fs.cells, fc)
        self.solid_cell = np.searchsorted(ss.cells, sc)
        self.fluid_cell_dofs = fs.cell_dofs[self.fluid_cell]
        self.solid_cell_dofs = ss.cell_dofs[self.solid_cell]
        self.fval_cell, fgrad = fs.basis_at(self.fluid_cell, self.xq)
        self.sval_cell, sgrad = ss.basis_at(self.solid_cell, self.xq)
        self.fgrad = np.ascontiguousarray(fgrad.transpose(0, 2, 3, 1))
        # the pressure space lives on the fluid cells, in the same local order
        pval_cell, _ = ps.basis_at(self.fluid_cell, self.xq)
        # side -> (nodes, cell dofs, basis values, basis-gradient table) of the
        # fields evaluated at the facet points
        self._sides = {
            "fluid": (fs.nscalar, self.fluid_cell_dofs, self.fval_cell, self.fgrad),
            "solid": (ss.nscalar, self.solid_cell_dofs, self.sval_cell,
                      np.ascontiguousarray(sgrad.transpose(0, 2, 3, 1))),
            "pressure": (ps.nscalar, ps.cell_dofs[self.fluid_cell], pval_cell, None),
            "trace": (self.ntr, self.facet_trace, self.fval, None),
        }

    def _build_mass(self):
        elem = np.swapaxes(self.wq[:, :, None] * self.fval, 1, 2) @ self.fval

        def assembly(row_nodes, nrow):
            pattern, slot = element_pattern(row_nodes, self.facet_trace, (nrow, self.ntr))
            return Assembly(pattern, slot, *expand_diagonal(pattern, self.ncomp))

        mass = assembly(self.facet_trace, self.ntr)
        self.M_vec = mass.matrix(elem)
        # M_vec = M (x) I: solve its components as columns of one factor of M
        self._M_lu = lu_factor(mass.base_matrix(elem))

        # coupling blocks: rows in volume vector dofs, cols in trace vector dofs
        self.C_fluid = assembly(self.trace_to_fluid[self.facet_trace],
                                self.fluid_space.nscalar).matrix(elem)
        self.C_solid = assembly(self.trace_to_solid[self.facet_trace],
                                self.solid_space.nscalar).matrix(elem)

    def _M_vec_solve(self, b):
        return self._M_lu.solve(b.reshape(self.ntr, self.ncomp)).ravel()

    # -- evaluation ------------------------------------------------------------

    def values(self, side, fields):
        """Values (ncomp, K, nfac, nqf) at the facet points of K fields of the
        `side` space: 'fluid', 'solid', 'pressure' or 'trace'."""
        nodes, dofs, val, _ = self._sides[side]
        U = _gather(fields, nodes, dofs)
        return _values(val, U, U.shape[-1] // len(fields))

    def gradients(self, side, fields):
        """Gradients (ncomp, d, K, nfac, nqf) of K fields of the 'fluid' or
        'solid' space at the facet points."""
        nodes, dofs, _, table = self._sides[side]
        U = _gather(fields, nodes, dofs)
        return _gradients(table, U, U.shape[-1] // len(fields))

    def integrate(self, values_qp):
        """Integrate scalar samples (nfac, nqf) over the interface."""
        return float(np.sum(self.wq * values_qp))

    def l2_norm_sq(self, values_qp):
        """Integral of |u|^2 of samples (ncomp, nfac, nqf)."""
        return self.integrate((values_qp * values_qp).sum(axis=0))

    def functional(self, values_qp):
        """Trace-space dual vector of samples (ncomp, nfac, nqf)."""
        elem = np.moveaxis((self.wq * values_qp) @ self.fval, 0, -1)   # (nfac, nloc, ncomp)
        vdofs = self.facet_trace[:, :, None] * self.ncomp + np.arange(self.ncomp)
        return np.bincount(vdofs.ravel(), elem.ravel(), minlength=self.nlam)

    def project(self, values_qp):
        """L2(interface) projection of qp samples onto the trace space."""
        return self._M_vec_solve(self.functional(values_qp))

    def dual_norm(self, functional_vec):
        """Norm of a trace functional in the discrete dual pairing."""
        return float(np.sqrt(functional_vec @ self._M_vec_solve(functional_vec)))
