"""Fixed reference geometry: elastic body enclosed by a fluid annulus.

The solid occupies the inner disk/ball, the fluid the surrounding
annulus/shell; the two share the interface surface, and the outer surface
carries the no-slip condition.  All simulation happens on this fixed mesh.

Region tags: FLUID = 0, SOLID = 1.
Facet tags: INTERNAL = 0, INTERFACE = 1 (solid/fluid), OUTER = 2.
"""

import numpy as np

from .errors import ConfigError, PreconditionError, UnsupportedDimensionError
from .quadrature import facet_rule

FLUID = 0
SOLID = 1

INTERNAL = 0
INTERFACE = 1
OUTER = 2

# polynomial exactness of `facet_quadrature`, which every interface and
# boundary table uses
FACET_QUAD_DEGREE = 5


class ReferenceMesh:
    """Conforming simplex mesh with fluid/solid region tags.

    Parameters
    ----------
    vertices : (nv, dim) array
    cells : (nc, dim+1) int array
        Simplex connectivity, positively oriented.
    region : (nc,) int array
        FLUID or SOLID per cell.
    """

    def __init__(self, vertices, cells, region):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        self.region = np.asarray(region, dtype=np.int64)
        self.dimension = self.vertices.shape[1]
        if self.dimension not in (2, 3):
            raise UnsupportedDimensionError(f"dimension {self.dimension} not supported")
        self._orient_cells()
        self._build_edges()
        self._classify_facets()
        self._check_invariants()

    # -- construction helpers -------------------------------------------------

    def _orient_cells(self):
        v = self.vertices
        c = self.cells
        e = v[c[:, 1:]] - v[c[:, :1]]
        if self.dimension == 2:
            det = e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]
        else:
            det = np.einsum("ci,ci->c", e[:, 0], np.cross(e[:, 1], e[:, 2]))
        flip = det < 0
        if np.any(flip):
            self.cells[flip, -2], self.cells[flip, -1] = (
                self.cells[flip, -1].copy(),
                self.cells[flip, -2].copy(),
            )
        if np.any(det == 0):
            raise ConfigError("degenerate cell in mesh")

    def _build_edges(self):
        # unique vertex pairs; P2 midside nodes hang off this table
        pairs = []
        nloc = self.cells.shape[1]
        for a in range(nloc):
            for b in range(a + 1, nloc):
                pairs.append(np.sort(self.cells[:, [a, b]], axis=1))
        allp = np.vstack(pairs)
        self.edges, inv = np.unique(allp, axis=0, return_inverse=True)
        self.cell_edges = inv.reshape(len(pairs), -1).T  # (nc, n_cell_edges)

    def _facet_local_vertices(self):
        if self.dimension == 2:
            return [(0, 1), (1, 2), (2, 0)]
        return [(1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)]

    def _classify_facets(self):
        """Unique facets in lexicographic vertex order, with their tags,
        owners [(cell, local facet), ...] in cell order and, on the
        interface, the (fluid cell, solid cell) pairing."""
        locs = np.array(self._facet_local_vertices())
        nloc = len(locs)
        # row ci * nloc + li holds the sorted vertices of local facet li of cell ci
        rows = np.sort(self.cells[:, locs], axis=2).reshape(-1, self.dimension)
        self.facets, inv, counts = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
        ci, li = np.divmod(np.argsort(inv.ravel(), kind="stable"), nloc)
        start = np.cumsum(counts) - counts
        c0 = ci[start]
        c1 = ci[np.where(counts > 1, start + 1, start)]
        r0, r1 = self.region[c0], self.region[c1]
        self.facet_tags = np.where(
            counts == 1, OUTER, np.where(r0 != r1, INTERFACE, INTERNAL)
        ).astype(np.int64)
        pairs = list(zip(ci.tolist(), li.tolist()))
        self.facet_cells = [pairs[a:a + n] for a, n in zip(start.tolist(), counts.tolist())]
        iface = np.flatnonzero(self.facet_tags == INTERFACE)
        fluid_first = r0[iface] == FLUID
        fluid_cell = np.where(fluid_first, c0[iface], c1[iface])
        solid_cell = np.where(fluid_first, c1[iface], c0[iface])
        self.interface_pairing = dict(
            zip(iface.tolist(), zip(fluid_cell.tolist(), solid_cell.tolist()))
        )
        # normals point out of the solid on the interface, else out of the first owner
        outward_from = c0.copy()
        outward_from[iface] = solid_cell
        self._compute_facet_geometry(outward_from)

    def _compute_facet_geometry(self, outward_from):
        """Normals and measures; each normal points away from the centroid
        of the cell outward_from[facet]."""
        def norms(x):
            # a dot product per row, rounded as np.linalg.norm of each row is
            return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])

        pts = self.vertices[self.facets]                     # (nf, d, d)
        if self.dimension == 2:
            t = pts[:, 1] - pts[:, 0]
            n = np.column_stack([t[:, 1], -t[:, 0]])
            meas = norms(t)
        else:
            n = np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0])
            meas = 0.5 * norms(n)
        n /= norms(n)[:, None]
        centroids = self.vertices[self.cells[outward_from]].mean(axis=1)
        inward = np.sum(n * (pts.mean(axis=1) - centroids), axis=1) < 0
        n[inward] *= -1
        self.facet_normal = n
        self.facet_measure = meas

    def _check_invariants(self):
        for fi in np.flatnonzero(self.facet_tags == INTERFACE):
            regions = sorted(self.region[c] for c, _ in self.facet_cells[fi])
            if regions != [FLUID, SOLID]:
                raise ConfigError("interface facet without fluid/solid pair")
        for fi in np.flatnonzero(self.facet_tags == OUTER):
            (cell, _), = self.facet_cells[fi]
            if self.region[cell] != FLUID:
                raise ConfigError("outer boundary facet touches a solid cell")

    # -- queries ---------------------------------------------------------------

    def cell_volumes(self):
        v = self.vertices
        e = v[self.cells[:, 1:]] - v[self.cells[:, :1]]
        if self.dimension == 2:
            return 0.5 * np.abs(e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0])
        return np.abs(np.einsum("ci,ci->c", e[:, 0], np.cross(e[:, 1], e[:, 2]))) / 6.0

    def region_volume(self, region):
        return float(self.cell_volumes()[self.region == region].sum())

    def facet_indices(self, tag):
        return np.flatnonzero(self.facet_tags == tag)

    def facet_quadrature(self, facets, degree=None):
        """Physical quadrature points and weights on one facet or an index
        array of facets: points (..., nq, d), weights (..., nq).  `degree`
        defaults to FACET_QUAD_DEGREE."""
        d = self.dimension
        qp, qw = facet_rule(d, FACET_QUAD_DEGREE if degree is None else degree)
        pts = self.vertices[self.facets[facets]]            # (..., d, d)
        x = pts[..., None, 0, :]
        for j in range(1, d):
            x = x + qp[:, j - 1:j] * (pts[..., None, j, :] - pts[..., None, 0, :])
        # facet_rule's weights sum to the reference facet measure: 1 or 1/2
        scale = self.facet_measure[facets] / (1.0 if d == 2 else 0.5)
        return x, qw * np.asarray(scale)[..., None]

    def facet_nodes(self, facets):
        """Global P2 node ids of the given facets, (n, nlocf): the facet's
        vertices, then the midpoints of its edges (0,1) [, (0,2), (1,2)] as
        len(vertices) + edge index."""
        fv = self.facets[facets]
        pairs = [(0, 1)] if self.dimension == 2 else [(0, 1), (0, 2), (1, 2)]
        # edges are unique and lexicographically sorted, so a*nv + b is increasing
        nv = len(self.vertices)
        keys = self.edges[:, 0] * nv + self.edges[:, 1]
        ends = np.stack([np.sort(fv[:, [a, b]], axis=1) for a, b in pairs], axis=1)
        mids = nv + np.searchsorted(keys, ends[..., 0] * nv + ends[..., 1])
        return np.hstack([fv, mids])

    def contains_point_solid(self, x0):
        x0 = np.asarray(x0, dtype=float)
        for ci in np.flatnonzero(self.region == SOLID):
            verts = self.vertices[self.cells[ci]]
            T = (verts[1:] - verts[0]).T
            try:
                lam = np.linalg.solve(T, x0 - verts[0])
            except np.linalg.LinAlgError:
                continue
            if np.all(lam >= -1e-12) and lam.sum() <= 1 + 1e-12:
                return True
        return False


def star_shape_margin(mesh, x0):
    """Minimum of <x - x0, nu> over interface quadrature points.

    Positive exactly when the discrete solid is star-shaped about x0.
    """
    x0 = np.asarray(x0, dtype=float)
    if not mesh.contains_point_solid(x0):
        raise PreconditionError(f"x0={x0.tolist()} lies outside the solid region")
    idx = mesh.facet_indices(INTERFACE)
    x, _ = mesh.facet_quadrature(idx)
    margin = ((x - x0) @ mesh.facet_normal[idx][:, :, None]).min(initial=np.inf)
    return float(margin)


# -- annular mesh generation ---------------------------------------------------


def _ring_counts(radii, target_h):
    counts = [max(6, int(round(2 * np.pi * r / target_h))) for r in radii]
    return counts


def _zip_rings(inner_ids, inner_angles, outer_ids, outer_angles):
    """Triangulate the band between two concentric vertex rings by merging
    the two angular sequences."""
    tris = []
    ni, no = len(inner_ids), len(outer_ids)
    i = j = 0
    # advance around both rings once
    while i < ni or j < no:
        ang_i = inner_angles[(i + 1) % ni] + (2 * np.pi if i + 1 >= ni else 0)
        ang_j = outer_angles[(j + 1) % no] + (2 * np.pi if j + 1 >= no else 0)
        if j >= no or (i < ni and ang_i <= ang_j):
            tris.append((inner_ids[i % ni], outer_ids[j % no], inner_ids[(i + 1) % ni]))
            i += 1
        else:
            tris.append((inner_ids[i % ni], outer_ids[j % no], outer_ids[(j + 1) % no]))
            j += 1
    return tris


def _build_annulus_2d(inner_radius, outer_radius, resolution):
    dr = (outer_radius - inner_radius) / resolution
    n_solid = max(1, int(round(inner_radius / dr)))
    radii = [inner_radius * k / n_solid for k in range(1, n_solid + 1)]
    radii += [inner_radius + dr * k for k in range(1, resolution + 1)]
    counts = _ring_counts(radii, dr)

    verts = [np.zeros(2)]
    rings = []
    for r, m in zip(radii, counts):
        ids = list(range(len(verts), len(verts) + m))
        ang = 2 * np.pi * np.arange(m) / m
        verts.extend(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
        rings.append((ids, ang))
    verts = np.array(verts)

    cells = []
    region = []
    ids0, _ = rings[0]
    for k in range(len(ids0)):
        cells.append((0, ids0[k], ids0[(k + 1) % len(ids0)]))
        region.append(SOLID)
    for level in range(len(rings) - 1):
        inner_ids, inner_ang = rings[level]
        outer_ids, outer_ang = rings[level + 1]
        tris = _zip_rings(inner_ids, inner_ang, outer_ids, outer_ang)
        tag = SOLID if radii[level + 1] <= inner_radius + 1e-12 else FLUID
        cells.extend(tris)
        region.extend([tag] * len(tris))
    return verts, np.array(cells), np.array(region)


def _icosphere(subdiv):
    phi = (1 + np.sqrt(5)) / 2
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ]
    )
    for _ in range(subdiv):
        cache = {}
        verts = list(verts)

        def midpoint(a, b):
            key = (min(a, b), max(a, b))
            if key not in cache:
                m = verts[a] + verts[b]
                m = m / np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts)
        faces = np.array(new_faces)
    return verts, faces


def _split_prism(bottom, top):
    """Split a triangular prism into three tetrahedra with globally
    consistent quad-face diagonals (through the smallest vertex id)."""
    a = list(bottom)
    b = list(top)
    # rotate so that the smallest id among all six sits at position 0
    ids = a + b
    k = int(np.argmin(ids))
    if k >= 3:
        a, b = b, a
        k -= 3
    a = a[k:] + a[:k]
    b = b[k:] + b[:k]
    # quad face (a1, a2, b2, b1): diagonal through min(a1, b2) vs min(a2, b1)
    if min(a[1], b[2]) < min(a[2], b[1]):
        return [(a[0], a[1], a[2], b[2]), (a[0], a[1], b[2], b[1]), (a[0], b[1], b[2], b[0])]
    return [(a[0], a[1], a[2], b[1]), (a[0], b[1], a[2], b[2]), (a[0], b[1], b[2], b[0])]


def _build_annulus_3d(inner_radius, outer_radius, resolution):
    dr = (outer_radius - inner_radius) / resolution
    subdiv = max(1, int(round(np.log2(max(2.0, 2 * inner_radius / dr)))) - 1)
    sphere_v, sphere_f = _icosphere(subdiv)

    n_solid = max(1, int(round(inner_radius / dr)))
    radii = [inner_radius * k / n_solid for k in range(1, n_solid + 1)]
    radii += [inner_radius + dr * k for k in range(1, resolution + 1)]

    nsv = len(sphere_v)
    verts = [np.zeros(3)]
    layer_ids = []
    for r in radii:
        ids = np.arange(len(verts), len(verts) + nsv)
        verts.extend(r * sphere_v)
        layer_ids.append(ids)
    verts = np.array(verts)

    cells = []
    region = []
    ids0 = layer_ids[0]
    for f in sphere_f:
        cells.append((0, ids0[f[0]], ids0[f[1]], ids0[f[2]]))
        region.append(SOLID)
    for level in range(len(radii) - 1):
        inner_ids = layer_ids[level]
        outer_ids = layer_ids[level + 1]
        tag = SOLID if radii[level + 1] <= inner_radius + 1e-12 else FLUID
        for f in sphere_f:
            bottom = [int(inner_ids[v]) for v in f]
            top = [int(outer_ids[v]) for v in f]
            for tet in _split_prism(bottom, top):
                cells.append(tet)
                region.append(tag)
    return verts, np.array(cells), np.array(region)


def build_annular_mesh(dimension, inner_radius, outer_radius, resolution):
    """Concentric solid-in-fluid mesh: disk in disk (2-D) or ball in ball (3-D).

    Boundary vertices sit exactly on the circles/spheres of radius
    `inner_radius` and `outer_radius`; the interface is polygonal between
    them.  `resolution` counts radial subdivisions of the fluid annulus.
    """
    if dimension not in (2, 3):
        raise UnsupportedDimensionError(f"dimension {dimension} not supported")
    if not (0 < inner_radius < outer_radius):
        raise ConfigError("radii must satisfy 0 < inner_radius < outer_radius")
    if resolution < 4:
        raise ConfigError("resolution must be at least 4")
    if dimension == 2:
        verts, cells, region = _build_annulus_2d(inner_radius, outer_radius, resolution)
    else:
        verts, cells, region = _build_annulus_3d(inner_radius, outer_radius, resolution)
    return ReferenceMesh(verts, cells, region)


def export_vtk(mesh, path, point_data=None):
    """Write the mesh in legacy ASCII VTK unstructured-grid format, with the
    region tag as cell data."""
    nv, d = mesh.vertices.shape
    nc, nloc = mesh.cells.shape
    vtk_type = 5 if d == 2 else 10
    lines = [
        "# vtk DataFile Version 3.0",
        "lagfsi mesh",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    for p in mesh.vertices:
        coords = list(p) + [0.0] * (3 - d)
        lines.append(" ".join(repr(float(c)) for c in coords))
    lines.append(f"CELLS {nc} {nc * (nloc + 1)}")
    for c in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in (nloc, *c)))
    lines.append(f"CELL_TYPES {nc}")
    lines.extend([str(vtk_type)] * nc)
    lines.append(f"CELL_DATA {nc}")
    lines.append("SCALARS region double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(repr(float(x)) for x in mesh.region)
    if point_data:
        lines.append(f"POINT_DATA {nv}")
        for name, data in point_data.items():
            data = np.asarray(data, dtype=float)
            if data.ndim == 1:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(repr(float(x)) for x in data)
            else:
                lines.append(f"VECTORS {name} double")
                for row in data:
                    coords = list(row) + [0.0] * (3 - data.shape[1])
                    lines.append(" ".join(repr(float(c)) for c in coords))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
