"""Pointwise d x d algebra on component-major arrays.

A matrix field X is (d, d, *points), X[i, j] the (i, j) entry at every
point, and a vector field is (d, *points).  Each operation is one pass over
whole point arrays: on 2x2 and 3x3 matrices several times faster than
numpy's batched matmul on point-major (*points, d, d) arrays, which is
dispatch-bound.  The point axes broadcast, so one (d, d) matrix pairs with
a field of them.
"""

import numpy as np


def cm(X):
    """Component-major view (d, d, ...) of a point-major array (..., d, d),
    such as the gradients of manufactured fields."""
    return np.moveaxis(X, (-2, -1), (0, 1))


def tr(X):
    t = X[0, 0] + X[1, 1]
    return t + X[2, 2] if len(X) == 3 else t


def frob(X, Y):
    """X : Y."""
    return np.einsum("ij...,ij...->...", X, Y)


def mul(X, Y):
    """X Y."""
    return np.einsum("ik...,kj...->ij...", X, Y)


def mul_t(X, Y):
    """X Y^T."""
    return np.einsum("ik...,jk...->ij...", X, Y)


def matvec(X, v):
    """X v."""
    return np.einsum("ij...,j...->i...", X, v)


def sym(X):
    return 0.5 * (X + X.swapaxes(0, 1))


def pair(X, Y):
    """s(X, Y) = sym(X^T Y); symmetric in X and Y."""
    return sym(np.einsum("ki...,kj...->ij...", X, Y))


def cofactor3(X, i, j):
    """Cofactor (i, j) of 3x3 matrices X, indexed X[i][j] (component-major
    arrays or nested lists of entries)."""
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    return X[i1][j1] * X[i2][j2] - X[i1][j2] * X[i2][j1]


def aat_pairing(A, C, B):
    """<A C^T, B> = sum_ijk A[i,k] C[j,k] B[i,j]."""
    return frob(mul_t(A, C), B)
