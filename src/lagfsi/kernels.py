"""Numpy implementations of the hot assembly kernels.  Matrix fields are
component-major (see `pointwise`); shapes:

    Dw     (d, d, nc, nq)    displacement gradients at quadrature points
    P      (d, d, nc, nq)    first Piola-Kirchhoff stress DW(Dw + I)
    G      (nc, na, d, nq)   physical basis gradients (a space's `gradt`)
    wdet   (nc, nq)          quadrature weights times |det J|
    aaT    (d, d, nc, nq)    coefficient a a^T of the pulled-back viscosity
    a      (d, d, nc, nq)    inverse deformation gradient
    valp   (nq, np_)         pressure basis values

The stress is the `material.MaterialModel`'s own law, evaluated on Dw
itself, so no identity is added to the gradient and subtracted again.
"""

import numpy as np

from .material import Pairs
from .pointwise import cofactor3

BACKEND = "python"  # reported as lagfsi.kernel_backend


def inv_det(F):
    """Batched inverse and determinant of 2x2 / 3x3 matrices, component-major
    (d, d, ...), entry by entry."""
    d = len(F)
    inv = np.empty_like(F)
    if d == 2:
        a, b = F[0, 0], F[0, 1]
        c, e = F[1, 0], F[1, 1]
        det = a * e - b * c
        inv[0, 0] = e
        inv[0, 1] = -b
        inv[1, 0] = -c
        inv[1, 1] = a
    else:
        for i in range(3):
            for j in range(3):
                inv[j, i] = cofactor3(F, i, j)
        det = F[0, 0] * inv[0, 0] + F[0, 1] * inv[1, 0] + F[0, 2] * inv[2, 0]
    inv /= det
    return inv, det


def pk1(Dw, model):
    """First derivative of the stored energy of `model` at F = I + Dw."""
    return model.pk1(Pairs([Dw]))


# The d x d products at the points batch over the point axes (cell, point),
# so the table and the fields enter them as views with those axes first.

def _gmul(G, A):
    """(G A)[c,q,a,i] = sum_k G[c,a,k,q] A[k,i,c,q]: at each point, the rows
    of the basis-gradient table times the matrix field A."""
    return G.transpose(0, 3, 1, 2) @ A.transpose(2, 3, 0, 1)


def _table_sum(A, G):
    """out[c,a,b] = sum_{k,q} A[c,q,a,k] G[c,b,k,q]: one product per cell."""
    nc, na = G.shape[:2]
    return A.transpose(0, 2, 3, 1).reshape(nc, na, -1) @ G.reshape(nc, na, -1).swapaxes(1, 2)


def elem_residual(P, G, wdet):
    """R[c,a,i] = sum_q wdet * P[i,b] * G[a,b]."""
    nc, na, d, nq = G.shape
    wG = (wdet[:, None, None, :] * G).reshape(nc, na, d * nq)
    return wG @ P.transpose(2, 1, 3, 0).reshape(nc, d * nq, d)


def elem_tangent(G, wdet, lam, mu):
    """K[c,a,i,b,j] = sum_q wdet * D2W_{i alpha j beta}(I) G[a,alpha] G[b,beta].

    D2W(I) is the same for both material kinds.  With M[c,a,i,b,j] =
    sum_q wdet G[a,i] G[b,j] the tangent is lam M + mu M^T(i<->j), plus
    diag_ij mu (G G^T)[a,b], the trace of M over i = j."""
    nc, na, d, nq = G.shape
    Gf = G.reshape(nc, na * d, nq)
    M = ((wdet[:, None, :] * Gf) @ Gf.swapaxes(1, 2)).reshape(nc, na, d, na, d)
    K = lam * M + mu * M.transpose(0, 1, 4, 3, 2)
    Q = mu * np.trace(M, axis1=2, axis2=4)
    for i in range(d):
        K[:, :, i, :, i] += Q
    return K


def visc_elements(aaT, G, wdet):
    """K[c,a,b] = sum_q wdet * aaT[j,k] * G[b,k] * G[a,j]."""
    return _table_sum(_gmul(G, wdet * aaT), G)


def div_elements(a, G, valp, wdet):
    """B[c,p,a,i] = sum_q wdet * psi[p] * a[k,i] * G[a,k]."""
    nc, na, d, nq = G.shape
    wpsi = wdet[:, None, :] * valp.T                        # (nc, np, nq)
    return (wpsi @ _gmul(G, a).reshape(nc, nq, na * d)).reshape(nc, -1, na, d)
