"""Assembly kernels on random 2-D (6-node) and 3-D (10-node) inputs."""

import numpy as np
import pytest

from lagfsi import kernels


def _inputs(d, seed=0):
    rng = np.random.default_rng(seed)
    nc, nq, na = 13, 7, 6 if d == 2 else 10
    F = np.eye(d) + 0.15 * rng.standard_normal((nc, nq, d, d))
    G = rng.standard_normal((nc, nq, na, d))
    w = rng.random((nc, nq))
    aaT = np.einsum("...ij,...kj->...ik", F, F)
    valp = rng.random((nq, d + 1))
    return F, G, w, aaT, valp


def test_inv_det_roundtrip():
    for d in (2, 3):
        F, *_ = _inputs(d, seed=3)
        inv, det = kernels.inv_det(F)
        assert np.abs(np.einsum("...ij,...jk->...ik", F, inv) - np.eye(d)).max() < 1e-12
        assert np.abs(det - np.linalg.det(F)).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", [0, 1])
def test_tangent_is_residual_derivative(d, kind):
    # perturbing the nodal values by U moves F by sum_b U[b] (x) G[b]; the
    # element tangent contracted with U is the derivative of the residual
    F, G, w, _, _ = _inputs(d, seed=5)
    U = np.random.default_rng(6).standard_normal((G.shape[0], G.shape[2], d))
    dF = np.einsum("cbj,cqbe->cqje", U, G)
    K = kernels.elem_tangent(F, G, w, 1.3, 0.8, kind)
    KU = np.einsum("caibj,cbj->cai", K, U)

    def central(h):
        Rp = kernels.elem_residual(kernels.pk1(F + h * dF, 1.3, 0.8, kind), G, w)
        Rm = kernels.elem_residual(kernels.pk1(F - h * dF, 1.3, 0.8, kind), G, w)
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
    K = kernels.visc_elements(aaT, G, w)
    assert np.abs(K - np.swapaxes(K, 1, 2)).max() < 1e-12 * np.abs(K).max()
