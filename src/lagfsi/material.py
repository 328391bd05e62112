"""Hyperelastic stored-energy models and their derivative calculus.

Two models ship:

* ``saint-venant-kirchhoff``: W(F) = lam/2 tr(E)^2 + mu |E|^2 with the
  Green strain E = (F^T F - I)/2.  Quartic in F, so the fifth derivative
  vanishes and every lower derivative has a closed form.
* ``linear-isotropic``: same quadratic form in the symmetrized displacement
  gradient sym(F - I); all derivatives above the second vanish.

Both satisfy the equilibrium condition DW(I) = 0 and strong ellipticity
at the identity with margin mu (checked at construction).

Every derivative is a pairing psi''(X, Y) = lam tr X tr Y + 2 mu X : Y of
symmetric pairs s(X, Y) = sym(X^T Y), or a product with c(s) = lam tr(s) I
+ 2 mu s, evaluated on component-major fields (see `pointwise`).  A `Pairs`
table forms each pair of its fields once, so the energy report shares them
across all its forms; the point-major methods (``d2_form`` ...) wrap the
same forms for single arrays.  Contraction slot order never matters: all
derivative tensors of a scalar function are fully symmetric in their
matrix slots.
"""

import numpy as np

from .errors import ConfigError
from .pointwise import cm, frob, matvec, mul, pair, pm, sym, tr

# 2-point Gauss-Legendre rule on [0, 1]: exact for cubics in s
GAUSS2_NODES = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
GAUSS2_WEIGHTS = np.array([0.5, 0.5])

KINDS = {"linear-isotropic": 0, "saint-venant-kirchhoff": 1}


class Pairs:
    """A base displacement gradient X_0 = Dw and directions X_1, X_2, ...
    (component-major), with their symmetric pairs s(X_a, X_b) = sym(X_a^T X_b)
    and parts sym X_a, each formed once on first use.

    Every form below is a psi'' pairing of these: with F = I + Dw,
    s(F, X) = sym X + s(Dw, X) and E(F) = sym Dw + s(Dw, Dw) / 2.
    """

    def __init__(self, grads):
        self.X = list(grads)
        self._s = {}

    @classmethod
    def of(cls, *grads):
        """Pairs of point-major arrays (..., d, d), broadcast against each other."""
        return cls(cm(X) for X in np.broadcast_arrays(*(np.asarray(X, dtype=float) for X in grads)))

    def sym(self, a):
        if ("sym", a) not in self._s:
            self._s["sym", a] = sym(self.X[a])
        return self._s["sym", a]

    def s(self, a, b):
        key = (min(a, b), max(a, b))
        if key not in self._s:
            self._s[key] = pair(self.X[key[0]], self.X[key[1]])
        return self._s[key]


class StressLaw:
    """The isotropic law of one model on `Pairs` tables: psi'', the tensor c,
    the strain, the stress S = c(E) and DW = F S; F = I + scale Dw with Dw
    the table's field 0.  The assembly kernels use it with their own Lame
    parameters, `MaterialModel` adds the higher derivatives."""

    def __init__(self, lam, mu, svk):
        self.lam = float(lam)
        self.mu = float(mu)
        self._svk = svk

    def psi2(self, X, Y):
        """psi''(X, Y) = lam tr X tr Y + 2 mu X : Y."""
        return self.lam * tr(X) * tr(Y) + 2 * self.mu * frob(X, Y)

    def c(self, X):
        """The isotropic tensor on a symmetric X: lam tr(X) I + 2 mu X."""
        out = 2 * self.mu * X
        t = self.lam * tr(X)
        for i in range(len(X)):
            out[i, i] += t
        return out

    def _sF(self, p, a, scale):
        """s(F, X_a); sym X_a for the linear model."""
        return p.sym(a) + scale * p.s(0, a) if self._svk else p.sym(a)

    def strain(self, p, scale=1.0):
        """E(F): sym Dw + s(Dw, Dw) / 2, or sym Dw for the linear model."""
        E = scale * p.sym(0)
        return E + 0.5 * scale**2 * p.s(0, 0) if self._svk else E

    def stress(self, p, scale=1.0):
        """S(F) = c(E(F))."""
        return self.c(self.strain(p, scale))

    def pk1(self, p):
        """DW(F) = F S(F); S for the linear model."""
        S = self.stress(p)
        return S + mul(p.X[0], S) if self._svk else S


class MaterialModel(StressLaw):
    """Stored-energy function with derivative evaluators up to order 4.

    The forms act on `Pairs` tables: index 0 is the base displacement
    gradient, F = I + scale Dw, and the other indices are the directions.
    The point-major methods (``d2_form`` ...) wrap them for single arrays.

    Parameters
    ----------
    kind : str
        'saint-venant-kirchhoff' or 'linear-isotropic'.
    lam, mu : float
        Lame parameters; lam >= 0 and mu > 0 keep the identity elliptic.
    """

    def __init__(self, kind, lam=1.0, mu=1.0):
        if kind not in KINDS:
            raise ConfigError(f"unknown material kind {kind!r}")
        if mu <= 0 or lam < 0:
            raise ConfigError("material requires mu > 0 and lambda >= 0")
        super().__init__(lam, mu, KINDS[kind])
        self.kind = kind
        # equilibrium at the identity, checked numerically
        for d in (2, 3):
            res = np.linalg.norm(self.piola_stress(np.eye(d)))
            if res > 1e-12:
                raise ConfigError(f"model violates DW(I)=0, residual {res}")

    # -- the derivative forms on pairs (component-major) -------------------------

    def form2(self, p, a, b, scale=1.0):
        """D^2W(F)(X_a, X_b) = psi''(s(F,X_a), s(F,X_b)) + S(F) : s(X_a, X_b)."""
        out = self.psi2(self._sF(p, a, scale), self._sF(p, b, scale))
        if self._svk:
            out = out + self.psi2(self.strain(p, scale), p.s(a, b))
        return out

    def form3(self, p, a, b, c, scale=1.0):
        """D^3W(F)(X_a, X_b, X_c), a sum of psi'' over the three pairings."""
        if not self._svk:
            return np.zeros(p.X[0].shape[2:])
        psi, s = self.psi2, p.s
        return (psi(s(a, b), self._sF(p, c, scale)) + psi(s(a, c), self._sF(p, b, scale))
                + psi(s(b, c), self._sF(p, a, scale)))

    def contract2(self, p, a, scale=1.0):
        """Matrix l_{X_a} D^2W(F) = F c(s(F, X_a)) + X_a S(F)."""
        C = self.c(self._sF(p, a, scale))
        if not self._svk:
            return C
        return C + scale * mul(p.X[0], C) + mul(p.X[a], self.stress(p, scale))

    def contract3(self, p, a, b, scale=1.0):
        """Matrix l_{X_b} l_{X_a} D^3W(F)."""
        if not self._svk:
            return np.zeros(p.X[0].shape)
        Cab = self.c(p.s(a, b))
        return (mul(p.X[b], self.c(self._sF(p, a, scale))) + Cab + scale * mul(p.X[0], Cab)
                + mul(p.X[a], self.c(self._sF(p, b, scale))))

    def contract4(self, p, a, b, c):
        """Matrix l_{X_c} l_{X_b} l_{X_a} D^4W (independent of F)."""
        if not self._svk:
            return np.zeros(p.X[0].shape)
        X, s = p.X, p.s
        return mul(X[b], self.c(s(c, a))) + mul(X[c], self.c(s(b, a))) + mul(X[a], self.c(s(c, b)))

    # D^2W is at most quadratic and D^3W affine in F for both models, so the
    # s-integrals below are exact: 2-point Gauss for the secant forms, and
    # int_0^1 s D^3W(I + s Dw) ds = 1/2 D^3W(I + 2/3 Dw) for the rates.

    def secant(self, p, a, b):
        """int_0^1 D^2W(I + s Dw)(X_a, X_b) ds."""
        return sum(w * self.form2(p, a, b, s) for s, w in zip(GAUSS2_NODES, GAUSS2_WEIGHTS))

    def nprime(self, p, a, b, c):
        """s-weighted secant rate: int_0^1 s D^3W(I + s Dw)(X_a, X_b, X_c) ds."""
        return 0.5 * self.form3(p, a, b, c, 2.0 / 3.0)

    def linearized_traction(self, p, a, nu):
        """(l_{X_a} D^2W(F)) nu, nu a component-major vector field."""
        return matvec(self.contract2(p, a), nu)

    # -- the same forms on point-major arrays (..., d, d): F = I + Dw --------------

    def energy_density(self, F):
        E = self.strain(Pairs.of(_minus_identity(F)))
        return 0.5 * self.psi2(E, E)

    def piola_stress(self, F):
        return pm(self.pk1(Pairs.of(_minus_identity(F))))

    def d2_contract(self, F, G):
        return pm(self.contract2(Pairs.of(_minus_identity(F), G), 1))

    def d3_contract(self, F, G, H):
        return pm(self.contract3(Pairs.of(_minus_identity(F), G, H), 1, 2))

    def d4_contract(self, G, H, K):
        return pm(self.contract4(Pairs.of(G, G, H, K), 1, 2, 3))

    def d2_form(self, F, G, H):
        return self.form2(Pairs.of(_minus_identity(F), G, H), 1, 2)

    def d3_form(self, F, A, B, C):
        return self.form3(Pairs.of(_minus_identity(F), A, B, C), 1, 2, 3)

    def secant_form(self, Dw, G, H):
        return self.secant(Pairs.of(Dw, G, H), 1, 2)

    def secant_contract(self, Dw, G):
        """Matrix l_G N_w; reproduces DW(I + Dw) at G = Dw."""
        p = Pairs.of(Dw, G)
        return pm(sum(w * self.contract2(p, 1, s) for s, w in zip(GAUSS2_NODES, GAUSS2_WEIGHTS)))

    def nprime_form(self, Dw, A, B, C):
        return self.nprime(Pairs.of(Dw, A, B, C), 1, 2, 3)

    def nprime_contract(self, Dw, G, H):
        """int_0^1 s l_H l_G D^3W(I + s Dw) ds."""
        return pm(0.5 * self.contract3(Pairs.of(Dw, G, H), 1, 2, 2.0 / 3.0))

    def traction(self, Dw, nu):
        """Interface traction DW(Dw + I) nu."""
        P = self.pk1(Pairs.of(Dw))
        return np.moveaxis(matvec(P, np.moveaxis(np.asarray(nu, dtype=float), -1, 0)), 0, -1)

    # -- hypothesis checks ---------------------------------------------------------

    def h1_residual(self, dim=3):
        return float(np.linalg.norm(self.piola_stress(np.eye(dim))))

    def ellipticity_margin(self, F=None, dim=3, nsamples=10000, rng=None):
        """Sampled min of D^2W(F)(b1 x b2, b1 x b2) over random unit pairs."""
        rng = rng or np.random.default_rng(0)
        if F is None:
            F = np.eye(dim)
        F = np.asarray(F, dtype=float)
        d = F.shape[-1]
        b1 = rng.standard_normal((nsamples, d))
        b2 = rng.standard_normal((nsamples, d))
        b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
        b2 /= np.linalg.norm(b2, axis=1, keepdims=True)
        G = np.einsum("ni,nj->nij", b1, b2)
        vals = self.d2_form(F, G, G)
        return float(vals.min())

    def derivative_chain_errors(self, dim=2, n=100, step=1e-5, seed=1234):
        """Max relative error of each D^kW against central differences of
        D^{k-1}W along random directions near the identity."""
        rng = np.random.default_rng(seed)
        I = np.eye(dim)
        errs = np.zeros(4)
        for _ in range(n):
            F = I + 0.05 * rng.standard_normal((dim, dim))
            G = rng.standard_normal((dim, dim))
            G /= np.linalg.norm(G)
            fd = (self.energy_density(F + step * G) - self.energy_density(F - step * G)) / (2 * step)
            ex = np.einsum("ia,ia->", self.piola_stress(F), G)
            errs[0] = max(errs[0], abs(fd - ex) / max(1e-30, abs(ex) + 1e-12))
            fd = (self.piola_stress(F + step * G) - self.piola_stress(F - step * G)) / (2 * step)
            ex = self.d2_contract(F, G)
            errs[1] = max(errs[1], _relerr(fd, ex))
            fd = (self.d2_contract(F + step * G, G) - self.d2_contract(F - step * G, G)) / (2 * step)
            ex = self.d3_contract(F, G, G)
            errs[2] = max(errs[2], _relerr(fd, ex))
            fd = (self.d3_contract(F + step * G, G, G) - self.d3_contract(F - step * G, G, G)) / (2 * step)
            ex = self.d4_contract(G, G, G)
            errs[3] = max(errs[3], _relerr(fd, ex))
        return errs


def _relerr(a, b):
    scale = max(np.linalg.norm(b), 1e-10)
    return float(np.linalg.norm(a - b) / scale)


def make_material(kind, lam=1.0, mu=1.0):
    return MaterialModel(kind, lam, mu)


def _minus_identity(F):
    F = np.asarray(F, dtype=float)
    return F - np.eye(F.shape[-1])


def remainder_bracket(model, pairs, j):
    """Pointwise matrix C^(j+1) - l_{Dw^(j+1)} D^2W(Dw + I) for j in {1, 2},
    with Dw and the rate gradients Dw^(1..j+1) as the fields of `pairs`.

    This is the commutator between time-differentiating the nonlinear
    stress and the frozen-coefficient linearized operator; only derivative
    terms of order >= 3 survive, so it vanishes identically for the
    linear-isotropic model.
    """
    if j not in (1, 2):
        raise ConfigError("remainder defined for j in {1, 2}")
    if len(pairs.X) < j + 2:
        raise ConfigError(f"remainder at j={j} needs {j + 1} rate fields")
    if j == 1:
        return model.contract3(pairs, 1, 1)
    return 3 * model.contract3(pairs, 1, 2) + model.contract4(pairs, 1, 1, 1)
