"""Geometry, quadrature and surface-integral checks."""

import numpy as np
import pytest

from lagfsi.errors import ConfigError, PreconditionError, UnsupportedDimensionError
from lagfsi.mesh import (
    FLUID, INTERFACE, OUTER, SOLID,
    build_annular_mesh, export_vtk,
    star_shape_margin,
)
from lagfsi.quadrature import facet_rule, simplex_rule
from lagfsi.spaces import FieldSpace

RI, RO = 0.4, 1.0


def surface_integral(mesh, facet_set, integrand):
    """Quadrature of `integrand(x, nu)` over the facets tagged `facet_set`;
    `integrand` maps (points (nq, d), normal (d,)) to values (nq,)."""
    if facet_set not in (INTERFACE, OUTER):
        raise ConfigError(f"unknown facet set {facet_set!r}")
    total = 0.0
    idx = mesh.facet_indices(facet_set)
    for x, w, nu in zip(*mesh.facet_quadrature(idx), mesh.facet_normal[idx]):
        total += float(np.dot(w, np.asarray(integrand(x, nu), dtype=float)))
    return total


def max_facet_length(mesh, tag=INTERFACE):
    idx = mesh.facet_indices(tag)
    lengths = []
    for fi in idx:
        pts = mesh.vertices[mesh.facets[fi]]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                lengths.append(np.linalg.norm(pts[a] - pts[b]))
    return max(lengths)


def interface_euler_characteristic(mesh):
    """V - E + F of the closed interface surface (3-D meshes)."""
    idx = mesh.facet_indices(INTERFACE)
    faces = mesh.facets[idx]
    verts = np.unique(faces)
    edges = set()
    for f in faces:
        for a in range(len(f)):
            for b in range(a + 1, len(f)):
                edges.add((min(f[a], f[b]), max(f[a], f[b])))
    return len(verts) - len(edges) + len(faces)


@pytest.fixture(scope="module")
def mesh2d():
    return build_annular_mesh(2, RI, RO, 8)


def _interface_vertex_count(mesh):
    return len(np.unique(mesh.facets[mesh.facet_indices(INTERFACE)]))


def test_quadrature_exactness():
    # monomial integrals over the unit simplex: a! b! (c!) / (a+b+(c)+d)!
    from math import factorial

    for dim in (2, 3):
        for degree in (1, 2, 3, 5):
            pts, wts = simplex_rule(dim, degree)
            for powers in np.ndindex(*(degree + 1,) * dim):
                if sum(powers) > degree:
                    continue
                approx = np.sum(wts * np.prod(pts**np.array(powers), axis=1))
                num = np.prod([factorial(p) for p in powers])
                exact = num / factorial(sum(powers) + dim)
                assert abs(approx - exact) < 1e-14, (dim, degree, powers)


def test_facet_rule_exactness():
    pts, wts = facet_rule(2, 5)
    for p in range(6):
        assert abs(np.sum(wts * pts[:, 0] ** p) - 1 / (p + 1)) < 1e-14


def test_region_areas(mesh2d):
    m = _interface_vertex_count(mesh2d)
    polygon_deficit = np.pi * RI**2 - 0.5 * m * RI**2 * np.sin(2 * np.pi / m)
    assert abs(mesh2d.region_volume(SOLID) - np.pi * RI**2) <= polygon_deficit + 1e-12
    mo = len(np.unique(mesh2d.facets[mesh2d.facet_indices(OUTER)]))
    outer_deficit = np.pi * RO**2 - 0.5 * mo * RO**2 * np.sin(2 * np.pi / mo)
    total_deficit = polygon_deficit + outer_deficit
    assert abs(mesh2d.region_volume(FLUID) - np.pi * (RO**2 - RI**2)) <= total_deficit + 1e-12


def test_interface_midpoints_on_circle(mesh2d):
    h = max_facet_length(mesh2d, INTERFACE)
    for fi in mesh2d.facet_indices(INTERFACE):
        mid = mesh2d.vertices[mesh2d.facets[fi]].mean(axis=0)
        assert abs(np.linalg.norm(mid) - RI) <= h * h


def test_euler_characteristic_3d():
    mesh = build_annular_mesh(3, RI, RO, 6)
    assert interface_euler_characteristic(mesh) == 2


def test_star_shape_margin_center(mesh2d):
    h = max_facet_length(mesh2d, INTERFACE)
    margin = star_shape_margin(mesh2d, [0.0, 0.0])
    assert abs(margin - RI) <= h * h


def test_star_shape_margin_off_center(mesh2d):
    margin = star_shape_margin(mesh2d, [0.39, 0.0])
    # brute-force oracle: direct minimum over all boundary quadrature points
    x0 = np.array([0.39, 0.0])
    brute = np.inf
    for fi in mesh2d.facet_indices(INTERFACE):
        x, _ = mesh2d.facet_quadrature(fi)
        brute = min(brute, ((x - x0) @ mesh2d.facet_normal[fi]).min())
    assert margin == pytest.approx(brute, abs=1e-15)
    assert 0 < margin < 0.02


def test_star_shape_margin_outside_raises(mesh2d):
    with pytest.raises(PreconditionError):
        star_shape_margin(mesh2d, [0.5, 0.0])


def test_surface_integral_perimeter(mesh2d):
    m = _interface_vertex_count(mesh2d)
    per = surface_integral(mesh2d, INTERFACE, lambda x, nu: np.ones(len(x)))
    exact_polygon = 2 * m * RI * np.sin(np.pi / m)
    assert per == pytest.approx(exact_polygon, rel=1e-12)
    assert abs(per - 2 * np.pi * RI) < 2 * np.pi * RI - exact_polygon + 1e-12


def test_surface_integral_divergence(mesh2d):
    val = surface_integral(mesh2d, INTERFACE, lambda x, nu: x @ nu)
    assert val == pytest.approx(2 * mesh2d.region_volume(SOLID), rel=1e-12)


def test_surface_integral_zero(mesh2d):
    assert surface_integral(mesh2d, INTERFACE, lambda x, nu: np.zeros(len(x))) == 0.0


def test_surface_integral_bad_tag(mesh2d):
    with pytest.raises(ConfigError):
        surface_integral(mesh2d, 99, lambda x, nu: np.ones(len(x)))


def test_divergence_theorem_closure(mesh2d):
    # random polynomial vector field, degree 3 per component
    rng = np.random.default_rng(42)
    powers = [(i, j) for i in range(4) for j in range(4) if i + j <= 3]
    coef = rng.standard_normal((2, len(powers)))

    def F(x):
        mono = np.stack([x[:, 0] ** i * x[:, 1] ** j for i, j in powers], axis=1)
        return mono @ coef.T

    def divF(x):
        out = np.zeros(len(x))
        for k, (i, j) in enumerate(powers):
            if i > 0:
                out += coef[0, k] * i * x[:, 0] ** (i - 1) * x[:, 1] ** j
            if j > 0:
                out += coef[1, k] * j * x[:, 0] ** i * x[:, 1] ** (j - 1)
        return out

    surf = surface_integral(mesh2d, INTERFACE, lambda x, nu: F(x) @ nu)
    space = FieldSpace(mesh2d, SOLID, 2, 1)
    vol = space.integrate(divF(space.xq.reshape(-1, 2)).reshape(space.xq.shape[:2]))
    assert surf == pytest.approx(vol, rel=1e-12)


def test_normal_consistency(mesh2d):
    # solid-side outward normal is the negation of the fluid-side one,
    # recomputed independently from facet geometry and cell centroids
    for fi in mesh2d.facet_indices(INTERFACE):
        fluid_cell, solid_cell = mesh2d.interface_pairing[int(fi)]
        pts = mesh2d.vertices[mesh2d.facets[fi]]
        t = pts[1] - pts[0]
        n = np.array([t[1], -t[0]])
        n /= np.linalg.norm(n)
        mid = pts.mean(axis=0)
        c_solid = mesh2d.vertices[mesh2d.cells[solid_cell]].mean(axis=0)
        c_fluid = mesh2d.vertices[mesh2d.cells[fluid_cell]].mean(axis=0)
        n_solid_out = n if np.dot(n, mid - c_solid) > 0 else -n
        n_fluid_out = n if np.dot(n, mid - c_fluid) > 0 else -n
        assert np.allclose(n_solid_out, -n_fluid_out)
        assert np.allclose(mesh2d.facet_normal[fi], n_solid_out)


def test_margin_refinement_second_order():
    errs = []
    for res in (6, 12, 24):
        mesh = build_annular_mesh(2, RI, RO, res)
        errs.append(RI - star_shape_margin(mesh, [0.0, 0.0]))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 1.6 and order2 > 1.6


def test_invalid_configs():
    with pytest.raises(ConfigError):
        build_annular_mesh(2, 1.0, 0.4, 8)
    with pytest.raises(ConfigError):
        build_annular_mesh(2, 0.4, 1.0, 3)
    with pytest.raises(UnsupportedDimensionError):
        build_annular_mesh(4, 0.4, 1.0, 8)


def test_interface_pairing_invariants(mesh2d):
    for fi, (fc, sc) in mesh2d.interface_pairing.items():
        assert mesh2d.region[fc] == FLUID
        assert mesh2d.region[sc] == SOLID
    for fi in mesh2d.facet_indices(OUTER):
        (cell, _), = mesh2d.facet_cells[fi]
        assert mesh2d.region[cell] == FLUID


def test_vtk_export(tmp_path, mesh2d):
    path = tmp_path / "mesh.vtk"
    export_vtk(mesh2d, path, point_data={"r": np.linalg.norm(mesh2d.vertices, axis=1)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert f"POINTS {len(mesh2d.vertices)} double" in text
    assert f"CELL_DATA {len(mesh2d.cells)}" in text


def test_3d_mesh_volumes():
    mesh = build_annular_mesh(3, RI, RO, 6)
    # polyhedral volumes undershoot the balls; stay within 5%
    assert abs(mesh.region_volume(SOLID) - 4 / 3 * np.pi * RI**3) < 0.05 * RI**3 * 4
    assert mesh.region_volume(SOLID) < 4 / 3 * np.pi * RI**3
    margin = star_shape_margin(mesh, np.zeros(3))
    assert 0 < margin <= RI


def _per_facet_tables(mesh):
    """Facet tables built one facet at a time: a dict of sorted vertex
    tuples, then one normal per facet, oriented away from the solid cell on
    the interface and away from the first owner elsewhere."""
    fdict = {}
    for ci, cell in enumerate(mesh.cells):
        for li, loc in enumerate(mesh._facet_local_vertices()):
            fdict.setdefault(tuple(sorted(cell[list(loc)])), []).append((ci, li))
    facets, tags, owners, pairing = [], [], [], {}
    for fi, (verts, adj) in enumerate(sorted(fdict.items())):
        regions = [mesh.region[c] for c, _ in adj]
        if len(adj) == 1:
            tags.append(OUTER)
        elif regions[0] != regions[1]:
            tags.append(INTERFACE)
            cells = [c for c, _ in adj]
            pairing[fi] = (cells[regions.index(FLUID)], cells[regions.index(SOLID)])
        else:
            tags.append(0)
        facets.append(verts)
        owners.append(adj)
    normals, measures = [], []
    for fi, verts in enumerate(facets):
        pts = mesh.vertices[list(verts)]
        if mesh.dimension == 2:
            t = pts[1] - pts[0]
            n = np.array([t[1], -t[0]])
            meas = np.linalg.norm(t)
        else:
            n = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            meas = 0.5 * np.linalg.norm(n)
        n = n / np.linalg.norm(n)
        cell = pairing[fi][1] if tags[fi] == INTERFACE else owners[fi][0][0]
        if np.dot(n, pts.mean(axis=0) - mesh.vertices[mesh.cells[cell]].mean(axis=0)) < 0:
            n = -n
        normals.append(n)
        measures.append(meas)
    return np.array(facets), np.array(tags), owners, pairing, np.array(normals), np.array(measures)


@pytest.mark.parametrize("dim, res", [(2, 5), (3, 4)])
def test_facet_tables_match_per_facet_reference(dim, res):
    mesh = build_annular_mesh(dim, RI, RO, res)
    facets, tags, owners, pairing, normals, measures = _per_facet_tables(mesh)
    assert np.array_equal(mesh.facets, facets)
    assert np.array_equal(mesh.facet_tags, tags)
    assert mesh.facet_cells == owners
    assert mesh.interface_pairing == pairing
    assert np.abs(mesh.facet_normal - normals).max() <= 1e-15
    assert np.abs(mesh.facet_measure - measures).max() <= 1e-15
