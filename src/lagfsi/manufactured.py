"""Manufactured displacement fields with closed-form derivatives.

Used by the multiplier-identity verification: given any such field, its
equation remainder is defined from the field itself, so the identities must
balance to quadrature accuracy.  All callables are vectorized over (n, d)
point arrays.
"""

import numpy as np


class ManufacturedDisplacement:
    """Bundle of value/dt1/dt2/grad/hess callables of (x, t).

    grad(x,t)[n,i,a] = d_a w_i;  hess(x,t)[n,i,a,b] = d_a d_b w_i.
    """

    def __init__(self, value, dt1, dt2, grad, hess):
        self.value = value
        self.dt1 = dt1
        self.dt2 = dt2
        self.grad = grad
        self.hess = hess


def constant_displacement(c):
    c = np.asarray(c, dtype=float)
    d = len(c)

    def val(x, t):
        return np.broadcast_to(c, x.shape[:-1] + (d,)).copy()

    def zval(x, t):
        return np.zeros(x.shape[:-1] + (d,))

    def zgrad(x, t):
        return np.zeros(x.shape[:-1] + (d, d))

    def zhess(x, t):
        return np.zeros(x.shape[:-1] + (d, d, d))

    return ManufacturedDisplacement(val, zval, zval, zgrad, zhess)


def separable(time_fn, time_d1, time_d2, space_fn, space_grad, space_hess, d):
    """w(x,t) = phi(t) p(x) from a scalar time factor and spatial callables."""

    def val(x, t):
        return time_fn(t) * space_fn(x)

    def dt1(x, t):
        return time_d1(t) * space_fn(x)

    def dt2(x, t):
        return time_d2(t) * space_fn(x)

    def grad(x, t):
        return time_fn(t) * space_grad(x)

    def hess(x, t):
        return time_fn(t) * space_hess(x)

    return ManufacturedDisplacement(val, dt1, dt2, grad, hess)


def sin_quadratic_displacement(d, scale=1.0):
    """w(x,t) = scale sin(t) (x_1^2, 0[, 0]) - the polynomial test field."""

    def p(x):
        out = np.zeros(x.shape[:-1] + (d,))
        out[..., 0] = scale * x[..., 0] ** 2
        return out

    def pg(x):
        out = np.zeros(x.shape[:-1] + (d, d))
        out[..., 0, 0] = 2 * scale * x[..., 0]
        return out

    def ph(x):
        out = np.zeros(x.shape[:-1] + (d, d, d))
        out[..., 0, 0, 0] = 2 * scale
        return out

    return separable(np.sin, np.cos, lambda t: -np.sin(t), p, pg, ph, d)

