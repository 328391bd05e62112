"""Hyperelastic stored-energy models and their derivative calculus.

Two models ship:

* ``saint-venant-kirchhoff``: W(F) = lam/2 tr(E)^2 + mu |E|^2 with the
  Green strain E = (F^T F - I)/2.  Quartic in F, so the fifth derivative
  vanishes and every lower derivative has a closed form.
* ``linear-isotropic``: same quadratic form in the symmetrized displacement
  gradient sym(F - I); all derivatives above the second vanish.

Both satisfy the equilibrium condition DW(I) = 0 and strong ellipticity
at the identity with margin mu (checked at construction).

Derivatives are exposed as contracted matrix and scalar forms
(``d2_contract`` ...), which assembly and the energy report use.
Contraction slot order never matters: all derivative tensors of a scalar
function are fully symmetric in their matrix slots.
"""

import numpy as np

from .errors import ConfigError
from .kernels import _strain, _stress, pk1

# 2-point Gauss-Legendre rule on [0, 1]: exact for cubics in s
GAUSS2_NODES = 0.5 + np.array([-0.5, 0.5]) / np.sqrt(3.0)
GAUSS2_WEIGHTS = np.array([0.5, 0.5])

KINDS = {"linear-isotropic": 0, "saint-venant-kirchhoff": 1}


def _sym(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def _tr(M):
    return np.trace(M, axis1=-2, axis2=-1)


def _tmul(A, B):
    """A^T B over the last two axes."""
    return np.swapaxes(A, -1, -2) @ B


class MaterialModel:
    """Stored-energy function with derivative evaluators up to order 4.

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
        self.kind = kind
        self._svk = KINDS[kind]
        self.lam = float(lam)
        self.mu = float(mu)
        # equilibrium at the identity, checked numerically
        for d in (2, 3):
            res = np.linalg.norm(self.piola_stress(np.eye(d)))
            if res > 1e-12:
                raise ConfigError(f"model violates DW(I)=0, residual {res}")

    # -- scalar and first derivative -------------------------------------------

    def _cmul(self, A):
        """Apply the isotropic tensor: lam tr(A) I + 2 mu sym(A)."""
        d = A.shape[-1]
        I = np.eye(d)
        return self.lam * _tr(A)[..., None, None] * I + 2 * self.mu * _sym(A)

    def energy_density(self, F):
        E = _strain(np.asarray(F, dtype=float), self._svk)
        return 0.5 * self.lam * _tr(E) ** 2 + self.mu * np.einsum("...ij,...ij->...", E, E)

    def piola_stress(self, F):
        """DW(F); equals F S(F) for the quadratic-strain model."""
        return pk1(np.asarray(F, dtype=float), self.lam, self.mu, self._svk)

    def second_pk(self, F):
        return _stress(F, self.lam, self.mu, self._svk)

    # -- contracted higher derivatives ------------------------------------------

    def d2_contract(self, F, G):
        """Matrix l_G D^2W(F)."""
        F = np.asarray(F, dtype=float)
        G = np.asarray(G, dtype=float)
        if not self._svk:
            return self._cmul(G)
        S = self.second_pk(F)
        return F @ self._cmul(_tmul(F, G)) + G @ S

    def d3_contract(self, F, G, H):
        """Matrix l_H l_G D^3W(F)."""
        if not self._svk:
            return np.zeros(np.broadcast(np.asarray(G), np.asarray(H)).shape)
        F, G, H = (np.asarray(M, dtype=float) for M in (F, G, H))
        c = self._cmul
        return H @ c(_tmul(F, G)) + F @ c(_tmul(H, G)) + G @ c(_tmul(F, H))

    def d4_contract(self, G, H, K):
        """Matrix l_K l_H l_G D^4W (independent of F)."""
        if not self._svk:
            return np.zeros(np.broadcast(np.asarray(G), np.asarray(H)).shape)
        G, H, K = (np.asarray(M, dtype=float) for M in (G, H, K))
        c = self._cmul
        return H @ c(_tmul(K, G)) + K @ c(_tmul(H, G)) + G @ c(_tmul(K, H))

    def d2_form(self, F, G, H):
        """Scalar D^2W(F)(G, H)."""
        return np.einsum("...ib,...ib->...", self.d2_contract(F, G), np.asarray(H, dtype=float))

    def d3_form(self, F, A, B, C):
        """Scalar D^3W(F)(A, B, C)."""
        return np.einsum("...ib,...ib->...", self.d3_contract(F, A, B), np.asarray(C, dtype=float))

    # -- secant (averaged Hessian) forms ----------------------------------------
    # D^2W is at most quadratic and D^3W affine in F for both models, so the
    # s-integrals below are exact: 2-point Gauss for the secant forms, and
    # int_0^1 s D^3W(I + s Dw) ds = 1/2 D^3W(I + 2/3 Dw) for the rates.

    def secant_form(self, Dw, G, H):
        """int_0^1 D^2W(I + s Dw)(G, H) ds."""
        Dw = np.asarray(Dw, dtype=float)
        I = np.eye(Dw.shape[-1])
        return sum(w * self.d2_form(I + s * Dw, G, H) for s, w in zip(GAUSS2_NODES, GAUSS2_WEIGHTS))

    def secant_contract(self, Dw, G):
        """Matrix l_G N_w; reproduces DW(I + Dw) at G = Dw."""
        Dw = np.asarray(Dw, dtype=float)
        I = np.eye(Dw.shape[-1])
        return sum(w * self.d2_contract(I + s * Dw, G) for s, w in zip(GAUSS2_NODES, GAUSS2_WEIGHTS))

    def nprime_form(self, Dw, A, B, C):
        """s-weighted secant rate: int_0^1 s D^3W(I + s Dw)(A, B, C) ds."""
        if not self._svk:
            return np.zeros(np.asarray(A, dtype=float).shape[:-2])
        Dw = np.asarray(Dw, dtype=float)
        return 0.5 * self.d3_form(np.eye(Dw.shape[-1]) + (2.0 / 3.0) * Dw, A, B, C)

    def nprime_contract(self, Dw, G, H):
        """Matrix-valued s-weighted secant rate int_0^1 s l_H l_G D^3W(I + s Dw) ds."""
        if not self._svk:
            return np.zeros(np.asarray(G, dtype=float).shape)
        Dw = np.asarray(Dw, dtype=float)
        return 0.5 * self.d3_contract(np.eye(Dw.shape[-1]) + (2.0 / 3.0) * Dw, G, H)

    # -- tractions ---------------------------------------------------------------

    def traction(self, Dw, nu):
        """Interface traction DW(Dw + I) nu."""
        Dw = np.asarray(Dw, dtype=float)
        d = Dw.shape[-1]
        P = self.piola_stress(Dw + np.eye(d))
        return np.einsum("...ia,...a->...i", P, np.asarray(nu, dtype=float))

    def linearized_traction(self, Dw_base, Dphi, nu):
        """(l_{Dphi} D^2W(Dw_base + I)) nu."""
        Dw_base = np.asarray(Dw_base, dtype=float)
        d = Dw_base.shape[-1]
        M = self.d2_contract(Dw_base + np.eye(d), Dphi)
        return np.einsum("...ia,...a->...i", M, np.asarray(nu, dtype=float))

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


def remainder_bracket(model, Dw, rates, j):
    """Pointwise matrix C^(j+1) - l_{Dw^(j+1)} D^2W(Dw + I) for j in {1, 2}.

    This is the commutator between time-differentiating the nonlinear
    stress and the frozen-coefficient linearized operator; only derivative
    terms of order >= 3 survive, so it vanishes identically for the
    linear-isotropic model.
    """
    if j not in (1, 2):
        raise ConfigError("remainder defined for j in {1, 2}")
    if len(rates) < j + 1:
        raise ConfigError(f"remainder at j={j} needs {j + 1} rate fields")
    Dw = np.asarray(Dw, dtype=float)
    d = Dw.shape[-1]
    F = Dw + np.eye(d)
    G = [np.asarray(r, dtype=float) for r in rates]
    if j == 1:
        return model.d3_contract(F, G[0], G[0])
    return 3 * model.d3_contract(F, G[0], G[1]) + model.d4_contract(G[0], G[0], G[0])
