"""Assembly kernels on random 2-D (6-node) and 3-D (10-node) inputs.

The kernels, the quadrature-point evaluators, the pointwise d x d algebra
and the material contractions are each checked against their einsum
definition, kept here as the reference.  The references are point-major,
(nc, nq, ...); the library is component-major, so inputs go in through
`cm` and outputs come back through `pm`.  After editing a kernel, also
compare its cost:

    python3 perfbench/run.py --workload long2d-r5-g0 --trace 1

prints one `kernels.<name>.self_s` line per kernel; compare them with the
same run on the previous commit.
"""

import functools

import numpy as np
import pytest

from lagfsi import kernels, pointwise
from lagfsi.coupling import CoupledProblem
from lagfsi.material import KINDS, Pairs, make_material
from lagfsi.mesh import FLUID, SOLID, build_annular_mesh
from lagfsi.pointwise import cm
from lagfsi.solid import (
    StiffnessRemainder, TangentOperator, stiffness_matrix, stiffness_remainder,
)
from lagfsi.spaces import FieldSpace, basis_grads

from test_material import d2_contract, d2_form, d3_contract, d3_form, d4_contract, pm

RTOL = 1e-13


def _inputs(d, seed=0):
    rng = np.random.default_rng(seed)
    nc, nq, na = 13, 7, 6 if d == 2 else 10
    F = np.eye(d) + 0.15 * rng.standard_normal((nc, nq, d, d))
    G = rng.standard_normal((nc, nq, na, d))
    w = rng.random((nc, nq))
    aaT = np.einsum("...ij,...kj->...ik", F, F)
    valp = rng.random((nq, d + 1))
    return F, G, w, aaT, valp


def table(G):
    """The kernels' basis-gradient table (nc, na, d, nq) of point-major G."""
    return np.ascontiguousarray(G.transpose(0, 2, 3, 1))


def grad(F):
    """Component-major Dw = F - I of point-major F."""
    return cm(F - np.eye(F.shape[-1]))


def test_inv_det_roundtrip():
    for d in (2, 3):
        F, *_ = _inputs(d, seed=3)
        inv, det = kernels.inv_det(cm(F))
        assert np.abs(np.einsum("...ij,...jk->...ik", F, pm(inv)) - np.eye(d)).max() < 1e-12
        assert np.abs(det - np.linalg.det(F)).max() < 1e-12


def _model(kind):
    """The material of kind 0 (linear-isotropic) or 1 (Saint Venant-Kirchhoff)
    at lam = 1.3, mu = 0.8."""
    return make_material(("linear-isotropic", "saint-venant-kirchhoff")[kind], 1.3, 0.8)


def _product(F, G, w, U, kind):
    """The element tangent of material `kind` at F applied to nodal values U
    (nc, na, d): the identity-state elem_tangent contracted with U, plus the
    pointwise remainder of the law along the gradient U moves F by."""
    law = _model(kind)
    Dw = grad(F)
    K0 = kernels.elem_tangent(table(G), w, 1.3, 0.8)
    H = cm(np.einsum("cbj,cqbe->cqje", U, G))
    dP = law.tangent_remainder(Pairs([Dw, H]), 1, law.stress(Pairs([Dw])))
    return np.einsum("caibj,cbj->cai", K0, U) + kernels.elem_residual(dP, table(G), w)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", [0, 1])
def test_tangent_is_residual_derivative(d, kind):
    # perturbing the nodal values by U moves F by sum_b U[b] (x) G[b]; the
    # tangent product along U is the derivative of the residual
    F, G, w, _, _ = _inputs(d, seed=5)
    U = np.random.default_rng(6).standard_normal((G.shape[0], G.shape[2], d))
    dF = np.einsum("cbj,cqbe->cqje", U, G)
    KU = _product(F, G, w, U, kind)

    def central(h):
        Rp = kernels.elem_residual(kernels.pk1(grad(F + h * dF), _model(kind)), table(G), w)
        Rm = kernels.elem_residual(kernels.pk1(grad(F - h * dF), _model(kind)), table(G), w)
        return np.abs((Rp - Rm) / (2 * h) - KU).max() / np.abs(KU).max()

    if kind == 0:  # linear stress: the difference quotient is exact
        assert central(1e-2) < 1e-12
    else:  # cubic stress: the error is h^2/6 times the third derivative
        e1, e2 = central(1e-4), central(5e-5)
        assert e1 < 1e-5
        assert e2 == pytest.approx(e1 / 4, rel=0.01)


@pytest.mark.parametrize("d", [2, 3])
def test_visc_elements_symmetric(d):
    _, G, w, aaT, _ = _inputs(d, seed=7)
    K = kernels.visc_elements(cm(aaT), table(G), w)
    assert np.abs(K - np.swapaxes(K, 1, 2)).max() < 1e-12 * np.abs(K).max()


# -- einsum references ------------------------------------------------------------


def _ref_elem_residual(P, G, w):
    return np.einsum("cq,cqib,cqab->cai", w, P, G)


def _ref_elem_tangent(F, G, w, lam, mu, kind):
    d = G.shape[-1]
    gg = np.einsum("cqna,cqma->cqnm", G, G)
    if kind == 0:
        K = lam * np.einsum("cq,cqni,cqmj->cnimj", w, G, G)
        K += mu * np.einsum("cq,cqnm,ij->cnimj", w, gg, np.eye(d))
        K += mu * np.einsum("cq,cqnj,cqmi->cnimj", w, G, G)
        return K
    I = np.eye(d)
    E = 0.5 * (np.einsum("cqai,cqaj->cqij", F, F) - I)
    tr = np.trace(E, axis1=-2, axis2=-1)
    S = lam * tr[..., None, None] * I + 2 * mu * E
    FG = np.einsum("cqia,cqna->cqni", F, G)
    FFt = np.einsum("cqia,cqja->cqij", F, F)
    K = lam * np.einsum("cq,cqni,cqmj->cnimj", w, FG, FG)
    K += mu * np.einsum("cq,cqij,cqnm->cnimj", w, FFt, gg)
    K += mu * np.einsum("cq,cqmi,cqnj->cnimj", w, FG, FG)
    gSg = np.einsum("cqna,cqab,cqmb->cqnm", G, S, G)
    K += np.einsum("cq,cqnm,ij->cnimj", w, gSg, I)
    return K


def _ref_pk1(F, lam, mu, kind):
    d = F.shape[-1]
    I = np.eye(d)
    if kind == 1:
        E = 0.5 * (np.einsum("...ai,...aj->...ij", F, F) - I)
    else:
        E = 0.5 * ((F - I) + np.swapaxes(F - I, -1, -2))
    S = lam * np.trace(E, axis1=-2, axis2=-1)[..., None, None] * I + 2 * mu * E
    return np.einsum("...ia,...ab->...ib", F, S) if kind == 1 else S


def _ref_visc_elements(aaT, G, w):
    return np.einsum("cq,cqjk,cqaj,cqbk->cab", w, aaT, G, G)


def _ref_div_elements(a, G, valp, w):
    return np.einsum("cq,qp,cqki,cqak->cpai", w, valp, a, G)


def _ref_m(A, B):
    return np.einsum("...ai,...aj->...ij", A, B)


def _ref_mul(A, B):
    return np.einsum("...ia,...ab->...ib", A, B)


def _ref_c(mdl, A):
    """lam tr(A) I + 2 mu sym(A)."""
    d = A.shape[-1]
    tr = np.einsum("...ii->...", A)[..., None, None]
    return mdl.lam * tr * np.eye(d) + mdl.mu * (A + np.swapaxes(A, -1, -2))


def _ref_d2_contract(mdl, F, G):
    if mdl.kind == "linear-isotropic":
        return _ref_c(mdl, G)
    S = _ref_c(mdl, 0.5 * (_ref_m(F, F) - np.eye(F.shape[-1])))
    return _ref_mul(F, _ref_c(mdl, _ref_m(F, G))) + _ref_mul(G, S)


def _ref_d3_contract(mdl, F, G, H):
    return (_ref_mul(H, _ref_c(mdl, _ref_m(F, G))) + _ref_mul(F, _ref_c(mdl, _ref_m(H, G)))
            + _ref_mul(G, _ref_c(mdl, _ref_m(F, H))))


def _ref_d4_contract(mdl, G, H, K):
    return (_ref_mul(H, _ref_c(mdl, _ref_m(K, G))) + _ref_mul(K, _ref_c(mdl, _ref_m(H, G)))
            + _ref_mul(G, _ref_c(mdl, _ref_m(K, H))))


def _close(new, ref):
    assert new.shape == ref.shape
    return np.abs(new - ref).max() <= RTOL * np.abs(ref).max()


# -- kernels against their references ---------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
def test_assembly_kernels_match_einsum(d):
    F, G, w, aaT, valp = _inputs(d, seed=11)
    a, _ = kernels.inv_det(cm(F))
    assert _close(kernels.visc_elements(cm(aaT), table(G), w), _ref_visc_elements(aaT, G, w))
    assert _close(kernels.div_elements(a, table(G), valp, w),
                  _ref_div_elements(pm(a), G, valp, w))
    for kind in (0, 1):
        P = kernels.pk1(grad(F), _model(kind))
        assert _close(pm(P), _ref_pk1(F, 1.3, 0.8, kind))
        assert _close(kernels.elem_residual(P, table(G), w), _ref_elem_residual(pm(P), G, w))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", [0, 1])
def test_elem_tangent_matches_einsum(d, kind):
    # elem_tangent is the tangent of either kind at F = I; with the pointwise
    # remainder of the law it is the tangent of `kind` at F
    F, G, w, _, _ = _inputs(d, seed=12)
    I = np.broadcast_to(np.eye(d), F.shape)
    K = kernels.elem_tangent(table(G), w, 1.3, 0.8)
    assert _close(K, _ref_elem_tangent(I, G, w, 1.3, 0.8, kind))
    U = np.random.default_rng(17).standard_normal((G.shape[0], G.shape[2], d))
    ref = np.einsum("caibj,cbj->cai", _ref_elem_tangent(F, G, w, 1.3, 0.8, kind), U)
    assert _close(_product(F, G, w, U, kind), ref)


def ref_stiffness(model, space, w):
    """The stiffness K(w) of `model` on `space`, assembled from the einsum
    reference element matrices."""
    d = space.dim
    F = pm(space.gradients([w])[:, :, 0]) + np.eye(d)
    G = space.gradt.transpose(0, 3, 1, 2)
    K = _ref_elem_tangent(F, G, space.wdet, model.lam, model.mu, KINDS[model.kind])
    n = space.nloc * d
    return space.scatter_matrix(K.reshape(len(space.cells), n, n))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["linear-isotropic", "saint-venant-kirchhoff"])
@pytest.mark.parametrize("size", [0.0, 1e-6, 1e-2])
def test_matrix_free_product_matches_assembled_reference(d, kind, size):
    # K(0) assembled plus the matrix-free remainder, applied to random
    # vectors and assembled for the system dumps, against the reference K(w)
    # at displacement gradients of max size |Dw|
    model = make_material(kind, 1.3, 0.8)
    ss = _solid_space(d)
    rng = np.random.default_rng(18)
    w = rng.standard_normal(ss.ndof)
    w *= size / max(np.abs(ss.gradients([w])).max(), 1e-300)
    ref = ref_stiffness(model, ss, w)
    remainder = StiffnessRemainder(model, ss, w)
    J = TangentOperator(stiffness_matrix(model, ss), stiffness_remainder(model, ss, w))
    for z in rng.standard_normal((3, ss.ndof)):
        assert np.linalg.norm(J @ z - ref @ z) <= RTOL * np.linalg.norm(ref @ z)
        if kind == "linear-isotropic" or size == 0.0:
            assert not (remainder @ z).any()
    A = J.assembled()
    assert abs(A - ref).max() <= RTOL * abs(ref).max()
    assert (stiffness_remainder(model, ss, w) is None) == (kind == "linear-isotropic")


@functools.lru_cache(maxsize=None)
def _solid_space(d):
    return FieldSpace(build_annular_mesh(d, 0.4, 1.0, 4), SOLID, 2, d)


@pytest.mark.parametrize("d", [2, 3])
def test_field_evaluators_match_einsum(d):
    mesh = build_annular_mesh(d, 0.4, 1.0, 4)
    rng = np.random.default_rng(13)
    for region, ncomp in ((FLUID, d), (SOLID, d), (FLUID, 1)):
        space = FieldSpace(mesh, region, 2, ncomp)
        dofs = rng.standard_normal((3, space.ndof))
        u = dofs.reshape(3, space.nscalar, ncomp)[:, space.cell_dofs]
        # physical basis gradients from the reference ones and each cell's Jinv
        grads = np.einsum("qaj,cji->cqai", basis_grads(d, 2, space.qp), space.Jinv)
        # the batched evaluators: component-major, one level per field
        assert _close(space.values(dofs), np.einsum("qa,lcak->klcq", space.val, u))
        assert _close(space.gradients(dofs), np.einsum("cqai,lcak->kilcq", grads, u))
        assert _close(space.hess_cells(dofs), np.einsum("caij,lcak->clkij", space.hessq, u))


def test_interface_evaluators_match_einsum():
    mesh = build_annular_mesh(2, 0.4, 1.0, 4)
    problem = CoupledProblem(mesh, make_material("saint-venant-kirchhoff"))
    iface = problem.interface
    rng = np.random.default_rng(15)
    for side, space, dofs_of_cells in (
            ("fluid", problem.vspace, iface.fluid_cell_dofs),
            ("solid", problem.sspace, iface.solid_cell_dofs)):
        dofs = rng.standard_normal((3, space.ndof))
        u = dofs.reshape(3, space.nscalar, 2)[:, dofs_of_cells]
        _, grads = space.basis_at(iface.fluid_cell if side == "fluid" else iface.solid_cell,
                                  iface.xq)
        vals = iface.fval_cell if side == "fluid" else iface.sval_cell
        assert _close(iface.values(side, dofs), np.einsum("fqa,lfak->klfq", vals, u))
        assert _close(iface.gradients(side, dofs), np.einsum("fqai,lfak->kilfq", grads, u))
    lam = rng.standard_normal((2, iface.nlam))
    u = lam.reshape(2, iface.ntr, 2)[:, iface.facet_trace]
    assert _close(iface.values("trace", lam), np.einsum("qa,lfak->klfq", iface.fval, u))


@pytest.mark.parametrize("d", [2, 3])
def test_pointwise_algebra_matches_einsum(d):
    rng = np.random.default_rng(16)
    A, B, C = (rng.standard_normal((13, 7, d, d)) for _ in range(3))
    a, b, c = (cm(X) for X in (A, B, C))
    assert _close(pm(pointwise.mul(a, b)), np.einsum("...ik,...kj->...ij", A, B))
    assert _close(pm(pointwise.mul_t(a, b)), np.einsum("...ik,...jk->...ij", A, B))
    AtB = np.einsum("...ki,...kj->...ij", A, B)
    assert _close(pm(pointwise.pair(a, b)), 0.5 * (AtB + np.swapaxes(AtB, -1, -2)))
    assert _close(pointwise.tr(a), np.einsum("...ii->...", A))
    assert _close(pointwise.frob(a, b), np.einsum("...ij,...ij->...", A, B))
    assert _close(pointwise.aat_pairing(a, c, b), np.einsum("...ik,...jk,...ij->...", A, C, B))
    v = rng.standard_normal((13, 7, d))
    assert _close(np.moveaxis(pointwise.matvec(a, np.moveaxis(v, -1, 0)), 0, -1),
                  np.einsum("...ij,...j->...i", A, v))


@pytest.mark.parametrize("d", [2, 3])
def test_material_contractions_match_einsum(d):
    rng = np.random.default_rng(14)
    F = np.eye(d) + 0.15 * rng.standard_normal((13, 7, d, d))
    G, H, K = (rng.standard_normal((13, 7, d, d)) for _ in range(3))
    pairing = lambda X, Y: np.einsum("...ij,...ij->...", X, Y)
    for kind in ("saint-venant-kirchhoff", "linear-isotropic"):
        mdl = make_material(kind, 1.3, 0.8)
        svk = kind == "saint-venant-kirchhoff"
        zero = np.zeros_like(G)
        assert _close(d2_contract(mdl, F, G), _ref_d2_contract(mdl, F, G))
        assert _close(d3_contract(mdl, F, G, H), _ref_d3_contract(mdl, F, G, H) if svk else zero)
        assert _close(d4_contract(mdl, G, H, K), _ref_d4_contract(mdl, G, H, K) if svk else zero)
        # the scalar forms are the contracted matrices paired with the last slot
        assert _close(d2_form(mdl, F, G, H), pairing(_ref_d2_contract(mdl, F, G), H))
        if svk:
            assert _close(d3_form(mdl, F, G, H, K), pairing(_ref_d3_contract(mdl, F, G, H), K))
        # one unbatched operand broadcasts as in the einsum "..." form
        assert _close(d2_contract(mdl, np.eye(d), G), _ref_d2_contract(mdl, np.eye(d), G))
