"""Numpy implementations of the hot assembly kernels.  Shapes:

    F      (nc, nq, d, d)    deformation gradients at quadrature points
    G      (nc, nq, na, d)   physical basis gradients
    wdet   (nc, nq)          quadrature weights times |det J|
    aaT    (nc, nq, d, d)    coefficient a a^T of the pulled-back viscosity
    a      (nc, nq, d, d)    inverse deformation gradient
    valp   (nq, np_)         pressure basis values

Material kinds: 0 = linear-isotropic, 1 = Saint Venant-Kirchhoff.
"""

import numpy as np

BACKEND = "python"  # reported as lagfsi.kernel_backend


def inv_det(F):
    """Batched inverse and determinant of 2x2 / 3x3 matrices (..., d, d)."""
    F = np.asarray(F)
    d = F.shape[-1]
    if d == 2:
        a, b = F[..., 0, 0], F[..., 0, 1]
        c, e = F[..., 1, 0], F[..., 1, 1]
        det = a * e - b * c
        inv = np.empty_like(F)
        inv[..., 0, 0] = e
        inv[..., 0, 1] = -b
        inv[..., 1, 0] = -c
        inv[..., 1, 1] = a
        inv /= det[..., None, None]
        return inv, det
    cof = np.empty_like(F)
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != i]
            c = [k for k in range(3) if k != j]
            minor = F[..., r, :][..., :, c]
            cof[..., i, j] = (-1) ** (i + j) * (
                minor[..., 0, 0] * minor[..., 1, 1] - minor[..., 0, 1] * minor[..., 1, 0]
            )
    det = np.einsum("...ij,...ij->...", F[..., 0:1, :], cof[..., 0:1, :])
    inv = np.swapaxes(cof, -1, -2) / det[..., None, None]
    return inv, det


def _strain(F, kind):
    d = F.shape[-1]
    I = np.eye(d)
    if kind == 1:
        return 0.5 * (np.einsum("...ai,...aj->...ij", F, F) - I)
    Fm = F - I
    return 0.5 * (Fm + np.swapaxes(Fm, -1, -2))


def pk1(F, lam, mu, kind):
    """First derivative of the stored energy with respect to F."""
    F = np.asarray(F)
    d = F.shape[-1]
    I = np.eye(d)
    E = _strain(F, kind)
    tr = np.trace(E, axis1=-2, axis2=-1)
    S = lam * tr[..., None, None] * I + 2 * mu * E
    if kind == 1:
        return np.einsum("...ia,...ab->...ib", F, S)
    return S


def elem_residual(P, G, wdet):
    """R[c,a,i] = sum_q wdet * P[i,b] * G[a,b]."""
    return np.einsum("cq,cqib,cqab->cai", wdet, P, G)


def elem_tangent(F, G, wdet, lam, mu, kind):
    """K[c,a,i,b,j] = sum_q wdet * D2W_{i alpha j beta}(F) G[a,alpha] G[b,beta]."""
    nc, nq, na, d = G.shape
    gg = np.einsum("cqna,cqma->cqnm", G, G)
    if kind == 0:
        K = lam * np.einsum("cq,cqni,cqmj->cnimj", wdet, G, G)
        K += mu * np.einsum("cq,cqnm,ij->cnimj", wdet, gg, np.eye(d))
        K += mu * np.einsum("cq,cqnj,cqmi->cnimj", wdet, G, G)
        return K
    I = np.eye(d)
    E = 0.5 * (np.einsum("cqai,cqaj->cqij", F, F) - I)
    tr = np.trace(E, axis1=-2, axis2=-1)
    S = lam * tr[..., None, None] * I + 2 * mu * E
    FG = np.einsum("cqia,cqna->cqni", F, G)
    FFt = np.einsum("cqia,cqja->cqij", F, F)
    K = lam * np.einsum("cq,cqni,cqmj->cnimj", wdet, FG, FG)
    K += mu * np.einsum("cq,cqij,cqnm->cnimj", wdet, FFt, gg)
    K += mu * np.einsum("cq,cqmi,cqnj->cnimj", wdet, FG, FG)
    gSg = np.einsum("cqna,cqab,cqmb->cqnm", G, S, G)
    K += np.einsum("cq,cqnm,ij->cnimj", wdet, gSg, I)
    return K


def visc_elements(aaT, G, wdet):
    """K[c,a,b] = sum_q wdet * aaT[j,k] * G[b,k] * G[a,j]."""
    return np.einsum("cq,cqjk,cqaj,cqbk->cab", wdet, aaT, G, G)


def div_elements(a, G, valp, wdet):
    """B[c,p,a,i] = sum_q wdet * psi[p] * a[k,i] * G[a,k]."""
    return np.einsum("cq,qp,cqki,cqak->cpai", wdet, valp, a, G)
