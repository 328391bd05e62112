"""Numpy implementations of the hot assembly kernels.  Shapes:

    F      (nc, nq, d, d)    deformation gradients at quadrature points
    G      (nc, nq, na, d)   physical basis gradients
    wdet   (nc, nq)          quadrature weights times |det J|
    aaT    (nc, nq, d, d)    coefficient a a^T of the pulled-back viscosity
    a      (nc, nq, d, d)    inverse deformation gradient
    valp   (nq, np_)         pressure basis values

Material kinds: 0 = linear-isotropic, 1 = Saint Venant-Kirchhoff.  The
stress law is `material.StressLaw`, evaluated on the component-major F - I.
"""

import numpy as np

from .material import Pairs, StressLaw
from .pointwise import cm, cofactor3, mul_t, pm

BACKEND = "python"  # reported as lagfsi.kernel_backend


def inv_det(F):
    """Batched inverse and determinant of 2x2 / 3x3 matrices (..., d, d),
    entry by entry: the inverse keeps F's memory layout, so a point-major
    view of component-major data gives one back."""
    F = np.asarray(F)
    d = F.shape[-1]
    inv = np.empty_like(F)
    if d == 2:
        a, b = F[..., 0, 0], F[..., 0, 1]
        c, e = F[..., 1, 0], F[..., 1, 1]
        det = a * e - b * c
        inv[..., 0, 0] = e
        inv[..., 0, 1] = -b
        inv[..., 1, 0] = -c
        inv[..., 1, 1] = a
    else:
        X = cm(F)
        for i in range(3):
            for j in range(3):
                inv[..., j, i] = cofactor3(X, i, j)
        det = F[..., 0, 0] * inv[..., 0, 0] + F[..., 0, 1] * inv[..., 1, 0] + F[..., 0, 2] * inv[..., 2, 0]
    inv /= det[..., None, None]
    return inv, det


def _pairs(F):
    """The Pairs table of the component-major F - I, from point-major F."""
    Dw = np.ascontiguousarray(cm(np.asarray(F)))
    for i in range(len(Dw)):
        Dw[i, i] -= 1.0
    return Pairs([Dw])


def pk1(F, lam, mu, kind):
    """First derivative of the stored energy with respect to F."""
    return np.ascontiguousarray(pm(StressLaw(lam, mu, kind).pk1(_pairs(F))))


def _qsum(A, B):
    """out[c,x,y] = sum_q sum_k A[c,q,x,k] B[c,q,y,k], as one
    (nx, nq*k) @ (nq*k, ny) product per cell."""
    nc, nq, nx, k = A.shape
    At = np.swapaxes(A, 1, 2).reshape(nc, nx, nq * k)
    Bt = np.swapaxes(B, 2, 3).reshape(nc, nq * k, B.shape[2])
    return At @ Bt


def _outer_qsum(A, B):
    """out[c,x,y] = sum_q A[c,q,x] B[c,q,y], x and y running over the
    flattened trailing axes: one (nx, nq) @ (nq, ny) product per cell."""
    nc, nq = A.shape[:2]
    return np.swapaxes(A.reshape(nc, nq, -1), 1, 2) @ B.reshape(nc, nq, -1)


def elem_residual(P, G, wdet):
    """R[c,a,i] = sum_q wdet * P[i,b] * G[a,b]."""
    return ((wdet[..., None, None] * G) @ np.swapaxes(P, -1, -2)).sum(axis=1)


def elem_tangent(F, G, wdet, lam, mu, kind):
    """K[c,a,i,b,j] = sum_q wdet * D2W_{i alpha j beta}(F) G[a,alpha] G[b,beta].

    With FG = G F^T (G itself for kind 0) the tangent is
    lam FG[a,i] FG[b,j] + mu FG[a,j] FG[b,i] + diag_ij Q[a,b], plus
    mu (F F^T)[i,j] (G G^T)[a,b] for kind 1; Q is mu G G^T for kind 0 and
    the geometric term G S G^T for kind 1."""
    nc, nq, na, d = G.shape
    w = wdet[..., None, None]
    if kind == 0:
        FG = G
        Q = mu * _qsum(w * G, G)
    else:
        FG = G @ np.swapaxes(F, -1, -2)
        p = _pairs(F)
        Q = _qsum((w * G) @ np.ascontiguousarray(pm(StressLaw(lam, mu, 1).stress(p))), G)
    M = _outer_qsum(w * FG, FG).reshape(nc, na, d, na, d)
    K = lam * M + mu * M.transpose(0, 1, 4, 3, 2)
    if kind == 1:
        gg = G @ np.swapaxes(G, -1, -2)                    # (nc, nq, na, na)
        Fc = p.X[0].copy()
        for i in range(d):
            Fc[i, i] += 1.0
        FFt = w * np.ascontiguousarray(pm(mul_t(Fc, Fc)))
        K += mu * _outer_qsum(gg, FFt).reshape(nc, na, na, d, d).transpose(0, 1, 3, 2, 4)
    for i in range(d):
        K[:, :, i, :, i] += Q
    return K


def visc_elements(aaT, G, wdet):
    """K[c,a,b] = sum_q wdet * aaT[j,k] * G[b,k] * G[a,j]."""
    return _qsum((wdet[..., None, None] * G) @ aaT, G)


def div_elements(a, G, valp, wdet):
    """B[c,p,a,i] = sum_q wdet * psi[p] * a[k,i] * G[a,k]."""
    nc, nq, na, d = G.shape
    wpsi = wdet[..., None] * valp                          # (nc, nq, np)
    return _outer_qsum(wpsi, G @ a).reshape(nc, -1, na, d)
