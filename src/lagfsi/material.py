"""Hyperelastic stored-energy models and their derivative calculus.

Two models ship:

* ``saint-venant-kirchhoff``: W(F) = lam/2 tr(E)^2 + mu |E|^2 with the
  Green strain E = (F^T F - I)/2.  Quartic in F, so the fifth derivative
  vanishes and every lower derivative has a closed form.
* ``linear-isotropic``: same quadratic form in the symmetrized displacement
  gradient sym(F - I); all derivatives above the second vanish.

Both satisfy the equilibrium condition DW(I) = 0 exactly, since every
term of DW is a multiple of Dw, and strong ellipticity at the identity with
margin mu, which lam >= 0 and mu > 0 (checked at construction) ensure.

Every derivative is a pairing psi''(X, Y) = lam tr X tr Y + 2 mu X : Y of
symmetric pairs s(X, Y) = sym(X^T Y), or a product with c(s) = lam tr(s) I
+ 2 mu s, evaluated on component-major fields (see `pointwise`).  A `Pairs`
table forms each pair of its fields once, so the energy report shares them
across all its forms; the kernels, the report and the checks all call
these forms.  Contraction slot order never matters: all derivative tensors
of a scalar function are fully symmetric in their matrix slots.
"""

import numpy as np

from .errors import ConfigError
from .pointwise import frob, matvec, mul, pair, sym, tr

# 2-point Gauss-Legendre rule on [0, 1]: exact for cubics in s
GAUSS2_NODES = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
GAUSS2_WEIGHTS = np.array([0.5, 0.5])

# kind name -> whether its strain is the Green strain E = (F^T F - I)/2
# (otherwise sym Dw)
KINDS = {"linear-isotropic": False, "saint-venant-kirchhoff": True}

# the derivative chain check: random states near the identity, their seed,
# and the central-difference step
CHAIN_SAMPLES = 100
CHAIN_SEED = 1234
CHAIN_STEP = 1e-5


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

    def sym(self, a):
        if ("sym", a) not in self._s:
            self._s["sym", a] = sym(self.X[a])
        return self._s["sym", a]

    def s(self, a, b):
        key = (min(a, b), max(a, b))
        if key not in self._s:
            self._s[key] = pair(self.X[key[0]], self.X[key[1]])
        return self._s[key]


class MaterialModel:
    """Stored-energy function of one isotropic law with derivative evaluators
    up to order 4: psi'', the tensor c, the strain, the stress S = c(E),
    DW = F S and the higher derivatives.

    The forms act on `Pairs` tables: index 0 is the base displacement
    gradient, F = I + scale Dw, and the other indices are the directions.

    Parameters
    ----------
    kind : str
        A name of `KINDS`: 'saint-venant-kirchhoff' or 'linear-isotropic'.
    lam, mu : float
        Lame parameters; lam >= 0 and mu > 0 keep the identity elliptic.
    """

    def __init__(self, kind, lam=1.0, mu=1.0):
        if kind not in KINDS:
            raise ConfigError(f"unknown material kind {kind!r}")
        if mu <= 0 or lam < 0:
            raise ConfigError("material requires mu > 0 and lambda >= 0")
        self.kind = kind
        self.lam = float(lam)
        self.mu = float(mu)
        self.svk = KINDS[kind]

    # -- the law on pairs (component-major) ----------------------------------------

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
        return p.sym(a) + scale * p.s(0, a) if self.svk else p.sym(a)

    def strain(self, p, scale=1.0):
        """E(F): sym Dw + s(Dw, Dw) / 2, or sym Dw for the linear model."""
        E = scale * p.sym(0)
        return E + 0.5 * scale**2 * p.s(0, 0) if self.svk else E

    def stress(self, p):
        """S(F) = c(E(F))."""
        return self.c(self.strain(p))

    def pk1(self, p):
        """DW(F) = F S(F); S for the linear model."""
        S = self.stress(p)
        return S + mul(p.X[0], S) if self.svk else S

    def tangent_remainder(self, p, a, S):
        """l_{X_a} (D^2W(F) - D^2W(I)) at F = I + Dw with S = S(F): the
        derivative F c(s(F, X_a)) + X_a S of DW along X_a less its
        identity-state part c(sym X_a), formed as c(s(Dw, X_a)) +
        Dw c(s(F, X_a)) + X_a S so that nothing cancels.  Exactly zero at
        Dw = 0, and for the linear model."""
        if not self.svk:
            return np.zeros_like(p.X[a])
        C = self.c(p.s(0, a))
        return C + mul(p.X[0], C + self.c(p.sym(a))) + mul(p.X[a], S)

    # -- the derivative forms on pairs (component-major) -------------------------

    def form2(self, p, a, b, scale=1.0):
        """D^2W(F)(X_a, X_b) = psi''(s(F,X_a), s(F,X_b)) + S(F) : s(X_a, X_b)."""
        out = self.psi2(self._sF(p, a, scale), self._sF(p, b, scale))
        if self.svk:
            out = out + self.psi2(self.strain(p, scale), p.s(a, b))
        return out

    def form3(self, p, a, b, c, scale=1.0):
        """D^3W(F)(X_a, X_b, X_c), a sum of psi'' over the three pairings."""
        if not self.svk:
            return np.zeros(p.X[0].shape[2:])
        psi, s = self.psi2, p.s
        return (psi(s(a, b), self._sF(p, c, scale)) + psi(s(a, c), self._sF(p, b, scale))
                + psi(s(b, c), self._sF(p, a, scale)))

    def contract2(self, p, a):
        """Matrix l_{X_a} D^2W(F) = F c(s(F, X_a)) + X_a S(F), F = I + Dw."""
        C = self.c(p.sym(a))
        return C + self.tangent_remainder(p, a, self.stress(p)) if self.svk else C

    def contract3(self, p, a, b):
        """Matrix l_{X_b} l_{X_a} D^3W(F), F = I + Dw."""
        if not self.svk:
            return np.zeros(p.X[0].shape)
        Cab = self.c(p.s(a, b))
        return (mul(p.X[b], self.c(self._sF(p, a, 1.0))) + Cab + mul(p.X[0], Cab)
                + mul(p.X[a], self.c(self._sF(p, b, 1.0))))

    def contract4(self, p, a, b, c):
        """Matrix l_{X_c} l_{X_b} l_{X_a} D^4W (independent of F)."""
        if not self.svk:
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

    # -- hypothesis checks ---------------------------------------------------------

    def h1_residual(self, dim=3):
        """|DW(I)|, which equilibrium at the identity makes zero."""
        return float(np.linalg.norm(self.pk1(Pairs([np.zeros((dim, dim))]))))

    def ellipticity_margin(self, dim=3, nsamples=10000, rng=None):
        """Sampled min of D^2W(I)(b1 x b2, b1 x b2) over random unit pairs."""
        rng = rng or np.random.default_rng(0)
        b1 = rng.standard_normal((nsamples, dim))
        b2 = rng.standard_normal((nsamples, dim))
        b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
        b2 /= np.linalg.norm(b2, axis=1, keepdims=True)
        G = b1.T[:, None] * b2.T[None, :]
        return float(self.form2(Pairs([np.zeros_like(G), G]), 1, 1).min())

    def derivative_chain_errors(self, dim=2):
        """Max relative error of each D^kW against central differences of
        D^{k-1}W along random directions G near the identity."""
        rng = np.random.default_rng(CHAIN_SEED)
        h = CHAIN_STEP
        energy = lambda q: 0.5 * self.psi2(self.strain(q), self.strain(q))
        # DW, then D^kW with k - 1 slots filled by the direction G (field 1)
        chain = [self.pk1, lambda q: self.contract2(q, 1),
                 lambda q: self.contract3(q, 1, 1), lambda q: self.contract4(q, 1, 1, 1)]
        errs = np.zeros(4)
        for _ in range(CHAIN_SAMPLES):
            Dw = 0.05 * rng.standard_normal((dim, dim))
            G = rng.standard_normal((dim, dim))
            G /= np.linalg.norm(G)
            # tables at Dw - h G, Dw and Dw + h G, each with the direction G
            lo, p, hi = (Pairs([Dw + s * h * G, G]) for s in (-1, 0, 1))
            fd = (energy(hi) - energy(lo)) / (2 * h)
            ex = frob(self.pk1(p), G)
            errs[0] = max(errs[0], abs(fd - ex) / max(1e-30, abs(ex) + 1e-12))
            for k in range(1, 4):
                fd = (chain[k - 1](hi) - chain[k - 1](lo)) / (2 * h)
                errs[k] = max(errs[k], _relerr(fd, chain[k](p)))
        return errs


def _relerr(a, b):
    scale = max(np.linalg.norm(b), 1e-10)
    return float(np.linalg.norm(a - b) / scale)


def make_material(kind, lam=1.0, mu=1.0):
    return MaterialModel(kind, lam, mu)


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
