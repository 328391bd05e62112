"""Stored-energy models: frozen values, finite-difference oracles,
multilinearity and the commutator remainders.

The full derivative tensors and the stress rates along a path are built
here from the model's contracted forms and Lame parameters, as references
for those forms; criterion 3 of the acceptance suite imports
`stress_rates` from this module.  The library's forms act on component-major
`Pairs` tables; the one-line adapters below give them point-major
arrays (..., d, d) in and out, with F = I + Dw, for the tests here and in
the other modules.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from lagfsi.errors import ConfigError
from lagfsi.material import (
    GAUSS2_NODES, GAUSS2_WEIGHTS, KINDS, Pairs, make_material, remainder_bracket,
)
from lagfsi.pointwise import cm

SVK = "saint-venant-kirchhoff"
LIN = "linear-isotropic"

# 5-point Gauss-Legendre on [0, 1]: the reference s-quadrature of the
# secant forms, exact beyond their polynomial degree in s
GAUSS5_NODES, GAUSS5_WEIGHTS = np.polynomial.legendre.leggauss(5)
GAUSS5_NODES = (GAUSS5_NODES + 1) / 2
GAUSS5_WEIGHTS = GAUSS5_WEIGHTS / 2


def pm(X):
    """Point-major view (..., d, d) of a component-major array (d, d, ...)."""
    return np.moveaxis(X, (0, 1), (-2, -1))


def pairs(*grads):
    """The Pairs table of point-major arrays, broadcast against each other."""
    return Pairs([cm(X) for X in np.broadcast_arrays(*(np.asarray(X, float) for X in grads))])


def minus_identity(F):
    return np.asarray(F, dtype=float) - np.eye(np.shape(F)[-1])


def energy_density(mdl, F):
    E = mdl.strain(pairs(minus_identity(F)))
    return 0.5 * mdl.psi2(E, E)


def piola_stress(mdl, F):
    return pm(mdl.pk1(pairs(minus_identity(F))))


def d2_contract(mdl, F, G):
    return pm(mdl.contract2(pairs(minus_identity(F), G), 1))


def d3_contract(mdl, F, G, H):
    return pm(mdl.contract3(pairs(minus_identity(F), G, H), 1, 2))


def d4_contract(mdl, G, H, K):
    return pm(mdl.contract4(pairs(G, G, H, K), 1, 2, 3))


def d2_form(mdl, F, G, H):
    return mdl.form2(pairs(minus_identity(F), G, H), 1, 2)


def d3_form(mdl, F, A, B, C):
    return mdl.form3(pairs(minus_identity(F), A, B, C), 1, 2, 3)


def secant_form(mdl, Dw, G, H):
    return mdl.secant(pairs(Dw, G, H), 1, 2)


def secant_contract(mdl, Dw, G):
    """Matrix l_G N_w by the 2-point rule; reproduces DW(I + Dw) at G = Dw."""
    return sum(w * pm(mdl.contract2(pairs(s * Dw, G), 1))
               for s, w in zip(GAUSS2_NODES, GAUSS2_WEIGHTS))


def nprime_form(mdl, Dw, A, B, C):
    return mdl.nprime(pairs(Dw, A, B, C), 1, 2, 3)


def nprime_contract(mdl, Dw, G, H):
    """int_0^1 s l_H l_G D^3W(I + s Dw) ds = 1/2 l_H l_G D^3W(I + 2/3 Dw)."""
    return 0.5 * pm(mdl.contract3(pairs(2.0 / 3.0 * Dw, G, H), 1, 2))


def traction(mdl, Dw, nu):
    """Interface traction DW(Dw + I) nu."""
    return np.einsum("...ij,...j->...i", pm(mdl.pk1(pairs(Dw))), nu)


def gauss5(f):
    """int_0^1 f(s) ds by the 5-point rule."""
    out = 0.0
    for s, w in zip(GAUSS5_NODES, GAUSS5_WEIGHTS):
        out = out + w * f(s)
    return out


def isotropic_tensor(dim, lam, mu):
    """lam I(x)I + 2 mu sym-projector, as a (d,d,d,d) array with slot pairs
    (i,a),(j,b)."""
    I = np.eye(dim)
    C = lam * np.einsum("ia,jb->iajb", I, I)
    C += mu * (np.einsum("ij,ab->iajb", I, I) + np.einsum("ib,aj->iajb", I, I))
    return C


def second_pk(mdl, F):
    """S(F) = lam tr(E) I + 2 mu E of the model's strain E."""
    d = F.shape[-1]
    if mdl.kind == SVK:
        E = 0.5 * (np.einsum("...ai,...aj->...ij", F, F) - np.eye(d))
    else:
        E = 0.5 * ((F - np.eye(d)) + np.swapaxes(F - np.eye(d), -1, -2))
    return mdl.lam * np.einsum("...ii->...", E)[..., None, None] * np.eye(d) + 2 * mdl.mu * E


def hessian(mdl, F):
    """Full D^2W(F) with slot pairs (i,a),(j,b); major-symmetric."""
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    C = isotropic_tensor(d, mdl.lam, mdl.mu)
    if mdl.kind != SVK:
        shape = F.shape[:-2] + (d, d, d, d)
        return np.broadcast_to(C, shape).copy()
    S = second_pk(mdl, F)
    I = np.eye(d)
    out = np.einsum("...iA,AaBb,...jB->...iajb", F, C, F)
    out += np.einsum("ij,...ab->...iajb", I, S)
    # exact major symmetry (the einsum is symmetric only to roundoff)
    nb = out.ndim - 4
    swap = tuple(range(nb)) + (nb + 2, nb + 3, nb, nb + 1)
    return 0.5 * (out + np.transpose(out, swap))


def higher_derivative(mdl, F, order):
    """Full D^kW(F) for k in {3, 4, 5}."""
    F = np.asarray(F, dtype=float)
    d = F.shape[-1]
    if order not in (3, 4, 5):
        raise ConfigError(f"unsupported derivative order {order}")
    shape = F.shape[:-2] + (d, d) * order
    if mdl.kind != SVK or order == 5:
        return np.zeros(shape)
    C = isotropic_tensor(d, mdl.lam, mdl.mu)
    I = np.eye(d)
    if order == 3:
        out = np.einsum("ik,gaBb,...jB->...iajbkg", I, C, F)
        out += np.einsum("jk,AagB,...iA->...iajBkg", I, C, F)
        out += np.einsum("ij,bagD,...kD->...iajbkg", I, C, F)
        return out
    out = np.einsum("ik,gadb,jl->iajbkgld", I, C, I)
    out += np.einsum("jk,dagb,il->iajbkgld", I, C, I)
    out += np.einsum("ij,bagd,kl->iajbkgld", I, C, I)
    return np.broadcast_to(out, shape).copy()


def stress_rates(model, Dw, rates):
    """Time derivatives C, Cdot, Cddot, C3, C4 of C(t) = DW(Dw + I) along a
    deformation path.

    `rates` lists the gradients of the time derivatives of the displacement,
    [Dw_t, Dw_tt, ...]; as many orders are produced as supplied (max 4).
    D^5W vanishes for both models, so C4 has no fifth-derivative term.
    """
    Dw = np.asarray(Dw, dtype=float)
    d = Dw.shape[-1]
    F = Dw + np.eye(d)
    n = len(rates)
    if n < 1:
        raise ConfigError("stress_rates needs at least the first rate Dw_t")
    G = [np.asarray(r, dtype=float) for r in rates]
    out = SimpleNamespace(C=piola_stress(model, F), Cdot=d2_contract(model, F, G[0]),
                          Cddot=None, C3=None, C4=None)
    if n >= 2:
        out.Cddot = d2_contract(model, F, G[1]) + d3_contract(model, F, G[0], G[0])
    if n >= 3:
        out.C3 = (
            d2_contract(model, F, G[2])
            + 3 * d3_contract(model, F, G[0], G[1])
            + d4_contract(model, G[0], G[0], G[0])
        )
    if n >= 4:
        out.C4 = (
            d2_contract(model, F, G[3])
            + 4 * d3_contract(model, F, G[0], G[2])
            + 3 * d3_contract(model, F, G[1], G[1])
            + 6 * d4_contract(model, G[0], G[0], G[1])
        )
    return out


def secant_tensor(mdl, Dw):
    """N_w = int_0^1 D^2W(I + s Dw) ds by 5-point Gauss (exact here)."""
    I = np.eye(Dw.shape[-1])
    return gauss5(lambda s: hessian(mdl, I + s * Dw))


def test_energy_density_values():
    mdl = make_material(SVK, 1.0, 1.0)
    assert energy_density(mdl, np.eye(2)) == 0.0
    # diag(1.1, 1): E = diag(0.105, 0), W = 1.5 * 0.105^2
    F = np.diag([1.1, 1.0])
    assert energy_density(mdl, F) == pytest.approx(0.0165375, abs=1e-15)
    th = 0.3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    assert abs(energy_density(mdl, R)) < 1e-15


def test_piola_stress_equilibrium_and_fd():
    rng = np.random.default_rng(0)
    for kind in (SVK, LIN):
        mdl = make_material(kind, 1.2, 0.7)
        for d in (2, 3):
            assert np.linalg.norm(piola_stress(mdl, np.eye(d))) <= 1e-12
            for _ in range(20):
                F = np.eye(d) + 0.1 * rng.standard_normal((d, d))
                G = rng.standard_normal((d, d))
                h = 1e-5
                fd = (energy_density(mdl, F + h * G) - energy_density(mdl, F - h * G)) / (2 * h)
                ex = np.sum(piola_stress(mdl, F) * G)
                assert abs(fd - ex) <= 1e-6 * max(1e-8, abs(ex))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("d", [2, 3])
def test_stress_law_is_exactly_zero_at_the_identity(kind, d):
    # equilibrium DW(I) = 0 holds in floating point, not only to round-off:
    # every term of the law is a multiple of Dw
    rng = np.random.default_rng(d)
    for lam, mu in zip(rng.exponential(size=5) * [0, 1, 1, 1, 1], rng.uniform(1e-3, 1e3, 5)):
        P = make_material(kind, lam, mu).pk1(Pairs([np.zeros((d, d, 7))]))
        assert P.shape == (d, d, 7) and not P.any()


def test_piola_stress_closed_form():
    mdl = make_material(SVK, 1.0, 1.0)
    F = np.diag([1.1, 1.0])
    E = 0.5 * (F.T @ F - np.eye(2))
    expect = F @ (np.trace(E) * np.eye(2) + 2 * E)
    assert np.allclose(piola_stress(mdl, F), expect, atol=1e-15)


def test_hessian_contraction_value():
    mdl = make_material(SVK, 1.0, 1.0)
    b = np.array([1.0, 0.0, 0.0])
    G = np.outer(b, b)
    val = np.einsum("iajb,ia,jb->", hessian(mdl, np.eye(3)), G, G)
    assert val == pytest.approx(3.0, abs=1e-14)  # lambda + 2 mu


def test_hessian_ellipticity_sampled():
    for kind in (SVK, LIN):
        mdl = make_material(kind, 1.0, 1.0)
        margin = mdl.ellipticity_margin(dim=3, nsamples=10000, rng=np.random.default_rng(5))
        assert margin >= mdl.mu - 1e-9


def test_hessian_major_symmetry():
    rng = np.random.default_rng(1)
    mdl = make_material(SVK, 1.3, 0.6)
    F = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    H = hessian(mdl, F)
    assert np.abs(H - np.transpose(H, (2, 3, 0, 1))).max() == 0.0


def test_higher_derivative_structure():
    rng = np.random.default_rng(2)
    mdl = make_material(SVK, 1.0, 1.0)
    F1 = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    F2 = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    assert np.abs(higher_derivative(mdl, F1, 5)).max() == 0.0
    assert np.allclose(higher_derivative(mdl, F1, 4), higher_derivative(mdl, F2, 4), atol=0)
    # order-3 contraction against finite differences of the hessian
    G = rng.standard_normal((2, 2))
    K = rng.standard_normal((2, 2))
    h = 1e-5
    fd = (d2_contract(mdl, F1 + h * K, G) - d2_contract(mdl, F1 - h * K, G)) / (2 * h)
    ex = np.einsum("iajbkg,jb,kg->ia", higher_derivative(mdl, F1, 3), G, K)
    assert np.abs(fd - ex).max() <= 1e-6
    with pytest.raises(ConfigError):
        higher_derivative(mdl, F1, 6)


def test_secant_tensor():
    rng = np.random.default_rng(3)
    mdl = make_material(SVK, 1.1, 0.9)
    assert np.allclose(secant_tensor(mdl, np.zeros((2, 2))), hessian(mdl, np.eye(2)), atol=1e-14)
    Dw = 0.2 * rng.standard_normal((2, 2))
    # independent s-integration: Simpson is exact for the quadratic integrand
    simpson = (
        hessian(mdl, np.eye(2))
        + 4 * hessian(mdl, np.eye(2) + 0.5 * Dw)
        + hessian(mdl, np.eye(2) + Dw)
    ) / 6
    assert np.abs(secant_tensor(mdl, Dw) - simpson).max() <= 1e-12


def test_secant_fundamental_theorem():
    # l_{Dw} N_w contracted with Dw reproduces <DW(I + Dw), Dw> exactly
    rng = np.random.default_rng(4)
    for kind in (SVK, LIN):
        mdl = make_material(kind, 1.0, 1.0)
        for d in (2, 3):
            Dw = 0.1 * rng.standard_normal((d, d))
            lhs = secant_form(mdl, Dw, Dw, Dw)
            rhs = np.sum(piola_stress(mdl, np.eye(d) + Dw) * Dw)
            assert lhs == pytest.approx(rhs, abs=1e-14)


def test_secant_energy_split():
    # for the linear model the secant form equals twice the stored energy;
    # for the quartic model the two differ at cubic order only
    rng = np.random.default_rng(5)
    Dw = rng.standard_normal((2, 2))
    lin = make_material(LIN, 1.0, 1.0)
    for s in (0.1, 0.05):
        q = secant_form(lin, s * Dw, s * Dw, s * Dw)
        e2 = 2 * (energy_density(lin, np.eye(2) + s * Dw) - energy_density(lin, np.eye(2)))
        assert q == pytest.approx(e2, rel=1e-12)
    svk = make_material(SVK, 1.0, 1.0)
    gaps = []
    for s in (0.1, 0.05):
        q = secant_form(svk, s * Dw, s * Dw, s * Dw)
        e2 = 2 * energy_density(svk, np.eye(2) + s * Dw)
        gaps.append(abs(q - e2))
    ratio = gaps[0] / gaps[1]
    assert 6.0 < ratio < 10.0  # cubic-order discrepancy halves thrice


def test_nprime_form_quadrature_oracle():
    rng = np.random.default_rng(6)
    mdl = make_material(SVK, 1.4, 0.8)
    Dw = 0.2 * rng.standard_normal((2, 2))
    A, B, C = (rng.standard_normal((2, 2)) for _ in range(3))
    s_dense = np.linspace(0, 1, 2001)
    vals = np.array([s * d3_form(mdl, np.eye(2) + s * Dw, A, B, C) for s in s_dense])
    dense = np.trapezoid(vals, s_dense)
    assert nprime_form(mdl, Dw, A, B, C) == pytest.approx(dense, rel=1e-6)


def test_traction():
    rng = np.random.default_rng(7)
    nu = np.array([0.6, 0.8])
    for kind in (SVK, LIN):
        mdl = make_material(kind, 1.0, 1.0)
        assert np.linalg.norm(traction(mdl, np.zeros((2, 2)), nu)) <= 1e-14
    lin0 = make_material(LIN, 0.0, 1.0)
    E = rng.standard_normal((2, 2))
    E = 0.5 * (E + E.T)
    assert np.allclose(traction(lin0, E, nu), 2 * 1.0 * E @ nu, atol=1e-14)
    svk = make_material(SVK, 1.0, 1.0)
    Dw = rng.standard_normal((2, 2))
    norms = [np.linalg.norm(traction(svk, s * Dw, nu)) / s for s in (1e-3, 1e-4, 1e-5)]
    assert max(norms) < 10 * np.linalg.norm(Dw) * 10  # O(|Dw|) scaling


def test_linearized_traction():
    rng = np.random.default_rng(8)
    mdl = make_material(SVK, 1.0, 1.0)
    nu = np.array([0.0, 1.0])
    assert np.linalg.norm(mdl.linearized_traction(
        pairs(0.1 * rng.standard_normal((2, 2)), np.zeros((2, 2))), 1, nu)) == 0.0
    # at zero base it reduces to the hessian-at-identity contraction
    Dphi = rng.standard_normal((2, 2))
    got = mdl.linearized_traction(pairs(np.zeros((2, 2)), Dphi), 1, nu)
    H = hessian(mdl, np.eye(2))
    for X in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        expect = np.einsum("iajb,ia,jb->", H, Dphi, np.outer(X, nu))
        assert got @ X == pytest.approx(expect, abs=1e-14)
    # directional-derivative consistency, first order in h
    Dw = 0.05 * rng.standard_normal((2, 2))
    errs = []
    for h in (1e-3, 5e-4):
        fd = (traction(mdl, Dw + h * Dphi, nu) - traction(mdl, Dw, nu)) / h
        errs.append(np.linalg.norm(fd - mdl.linearized_traction(pairs(Dw, Dphi), 1, nu)))
    assert errs[1] < 0.7 * errs[0]


def _path(rng, d):
    A = 0.05 * rng.standard_normal((d, d))
    B = 0.05 * rng.standard_normal((d, d))
    C = 0.05 * rng.standard_normal((d, d))

    def Dw(t):
        return A * np.sin(t) + B * np.cos(2 * t) + C * t * t / 2

    def rates(t):
        return [
            A * np.cos(t) - 2 * B * np.sin(2 * t) + C * t,
            -A * np.sin(t) - 4 * B * np.cos(2 * t) + C,
            -A * np.cos(t) + 8 * B * np.sin(2 * t),
            A * np.sin(t) + 16 * B * np.cos(2 * t),
        ]

    return Dw, rates


def test_stress_rates_zero_and_fd_path():
    rng = np.random.default_rng(9)
    mdl = make_material(SVK, 1.0, 1.0)
    d = 2
    z = np.zeros((d, d))
    bundle = stress_rates(mdl, 0.1 * rng.standard_normal((d, d)), [z, z, z, z])
    for M in (bundle.Cdot, bundle.Cddot, bundle.C3, bundle.C4):
        assert np.abs(M).max() == 0.0

    Dw, rates = _path(rng, d)
    t0 = 0.3
    I = np.eye(d)

    def C(t):
        return piola_stress(mdl, Dw(t) + I)

    bundle = stress_rates(mdl, Dw(t0), rates(t0))
    errs = {}
    for h in (0.05, 0.025):
        fd1 = (C(t0 + h) - C(t0 - h)) / (2 * h)
        fd2 = (C(t0 + h) - 2 * C(t0) + C(t0 - h)) / h**2
        fd3 = (C(t0 + 2 * h) - 2 * C(t0 + h) + 2 * C(t0 - h) - C(t0 - 2 * h)) / (2 * h**3)
        fd4 = (C(t0 + 2 * h) - 4 * C(t0 + h) + 6 * C(t0) - 4 * C(t0 - h) + C(t0 - 2 * h)) / h**4
        errs[h] = [
            np.abs(fd - ex).max()
            for fd, ex in zip((fd1, fd2, fd3, fd4),
                              (bundle.Cdot, bundle.Cddot, bundle.C3, bundle.C4))
        ]
    for j in range(4):
        order = np.log2(errs[0.05][j] / errs[0.025][j])
        assert order > 1.8, (j, order)


def test_stress_rates_fourth_order_coefficients():
    # Dw_t = Dw_tt = G, higher rates zero: the fourth rate collapses to
    # 3 l_G l_G D3W + 6 l_G l_G l_G D4W; checked against the same path oracle
    rng = np.random.default_rng(10)
    mdl = make_material(SVK, 1.0, 1.0)
    d = 2
    G = 0.05 * rng.standard_normal((d, d))
    Dw0 = 0.05 * rng.standard_normal((d, d))
    z = np.zeros((d, d))
    bundle = stress_rates(mdl, Dw0, [G, G, z, z])
    direct = 3 * d3_contract(mdl, Dw0 + np.eye(d), G, G) + 6 * d4_contract(mdl, G, G, G)
    assert np.allclose(bundle.C4, direct, atol=1e-14)

    def Dw(t):
        return Dw0 + t * G + t * t * G / 2

    def C(t):
        return piola_stress(mdl, Dw(t) + np.eye(d))

    errs = []
    for h in (0.04, 0.02):
        fd4 = (C(2 * h) - 4 * C(h) + 6 * C(0) - 4 * C(-h) + C(2 * -h)) / h**4
        errs.append(np.abs(fd4 - bundle.C4).max())
    assert np.log2(errs[0] / errs[1]) > 1.5


def test_stress_rates_multilinearity():
    rng = np.random.default_rng(11)
    mdl = make_material(SVK, 1.0, 1.0)
    d = 2
    Dw = 0.1 * rng.standard_normal((d, d))
    G = rng.standard_normal((d, d))
    z = np.zeros((d, d))
    # doubling Dw_t doubles the first rate
    b1 = stress_rates(mdl, Dw, [G])
    b2 = stress_rates(mdl, Dw, [2 * G])
    assert np.allclose(b2.Cdot, 2 * b1.Cdot, atol=1e-13)
    # third rate with only Dw_ttt: linear in it
    b1 = stress_rates(mdl, Dw, [z, z, G])
    b2 = stress_rates(mdl, Dw, [z, z, 3 * G])
    assert np.allclose(b2.C3, 3 * b1.C3, atol=1e-13)
    # D3W double term: quadratic under scaling of Dw_t with Dw_tt = 0
    F = Dw + np.eye(d)
    for s in (1.0, 2.0):
        term = stress_rates(mdl, Dw, [s * G, z]).Cddot
        assert np.allclose(term, s * s * d3_contract(mdl, F, G, G), atol=1e-12)


def test_stress_rates_arity():
    mdl = make_material(SVK, 1.0, 1.0)
    with pytest.raises(ConfigError):
        stress_rates(mdl, np.zeros((2, 2)), [])


def test_remainder_bracket():
    rng = np.random.default_rng(12)
    d = 2
    Dw = 0.1 * rng.standard_normal((d, d))
    G1 = rng.standard_normal((d, d))
    G2 = rng.standard_normal((d, d))
    lin = make_material(LIN, 1.0, 1.0)
    assert np.abs(remainder_bracket(lin, pairs(Dw, G1, G2), 1)).max() == 0.0
    svk = make_material(SVK, 1.0, 1.0)
    z = np.zeros((d, d))
    assert np.abs(remainder_bracket(svk, pairs(Dw, z, z), 1)).max() == 0.0
    # term-by-term: the bracket is the second stress rate minus its
    # frozen-coefficient part, assembled here from the full tensors
    F = Dw + np.eye(d)
    D3 = higher_derivative(svk, F, 3)
    expect = np.einsum("iajbkg,jb,kg->ia", D3, G1, G1)
    got = remainder_bracket(svk, pairs(Dw, G1, G2), 1)
    assert np.allclose(got, expect, atol=1e-13)
    with pytest.raises(ConfigError):
        remainder_bracket(svk, pairs(Dw, G1), 1)
    with pytest.raises(ConfigError):
        remainder_bracket(svk, pairs(Dw, G1, G2), 3)


def test_ellipticity_persistence():
    # within the configured smallness radius the sampled margin keeps
    # at least half the identity margin
    rng = np.random.default_rng(13)
    mdl = make_material(SVK, 1.0, 1.0)
    for _ in range(20):
        Dw = rng.standard_normal((2, 2))
        Dw *= 0.1 / max(1e-12, np.abs(Dw).max())
        # D^2W(I + Dw)(b1 x b2, b1 x b2) over 2000 random unit pairs
        b1, b2 = (rng.standard_normal((2000, 2)) for _ in range(2))
        b1 /= np.linalg.norm(b1, axis=1, keepdims=True)
        b2 /= np.linalg.norm(b2, axis=1, keepdims=True)
        G = b1.T[:, None] * b2.T[None, :]
        margin = mdl.form2(Pairs([Dw[:, :, None], G]), 1, 1).min()
        assert margin >= mdl.mu / 2


def test_derivative_chain_report():
    for kind in (SVK, LIN):
        errs = make_material(kind, 1.0, 1.0).derivative_chain_errors(dim=2)
        assert max(errs) <= 1e-6


def test_model_validation():
    with pytest.raises(ConfigError):
        make_material("rubber")
    with pytest.raises(ConfigError):
        make_material(SVK, 1.0, -1.0)


def test_gauss5_nodes_cover_unit_interval():
    assert GAUSS5_NODES.min() > 0 and GAUSS5_NODES.max() < 1
    assert GAUSS2_NODES.min() > 0 and GAUSS2_NODES.max() < 1


@pytest.mark.parametrize("kind", [SVK, LIN])
@pytest.mark.parametrize("d", [2, 3])
def test_exact_s_quadrature_matches_five_point_loops(kind, d):
    # the 2-point secant forms and the closed-form s-weighted rates against
    # the 5-point loops they replace, on a batch of quadrature-point data
    rng = np.random.default_rng(8)
    mdl = make_material(kind, 1.3, 0.7)
    I = np.eye(d)
    Dw, A, B, C = (0.3 * rng.standard_normal((40, d, d)) for _ in range(4))
    pairs = [
        (secant_form(mdl, Dw, A, B), gauss5(lambda s: d2_form(mdl, I + s * Dw, A, B))),
        (secant_contract(mdl, Dw, A), gauss5(lambda s: d2_contract(mdl, I + s * Dw, A))),
        (nprime_form(mdl, Dw, A, B, C), gauss5(lambda s: s * d3_form(mdl, I + s * Dw, A, B, C))),
        (nprime_contract(mdl, Dw, A, B), gauss5(lambda s: s * d3_contract(mdl, I + s * Dw, A, B))),
    ]
    for new, ref in pairs:
        assert np.shape(new) == np.shape(ref)
        assert np.abs(new - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize("kind", [SVK, LIN])
@pytest.mark.parametrize("d", [2, 3])
def test_pair_forms_match_full_tensors(kind, d):
    # every form of the pairs layer against the full derivative tensors, on a
    # batch of quadrature-point data (the point-major methods and the report
    # share these forms)
    rng = np.random.default_rng(9)
    mdl = make_material(kind, 1.3, 0.7)
    I = np.eye(d)
    Dw, A, B, C = (0.3 * rng.standard_normal((40, d, d)) for _ in range(4))
    F = I + Dw
    D2, D3, D4 = hessian(mdl, F), higher_derivative(mdl, F, 3), higher_derivative(mdl, F, 4)
    pairs = [
        (d2_form(mdl, F, A, B), np.einsum("niajb,nia,njb->n", D2, A, B)),
        (d2_contract(mdl, F, A), np.einsum("niajb,nia->njb", D2, A)),
        (d3_form(mdl, F, A, B, C), np.einsum("niajbkg,nia,njb,nkg->n", D3, A, B, C)),
        (d3_contract(mdl, F, A, B), np.einsum("niajbkg,nia,njb->nkg", D3, A, B)),
        (d4_contract(mdl, A, B, C), np.einsum("niajbkgld,nia,njb,nkg->nld", D4, A, B, C)),
        (piola_stress(mdl, F), np.einsum("nia,nab->nib", F, second_pk(mdl, F))
         if kind == SVK else second_pk(mdl, F)),
    ]
    for new, ref in pairs:
        assert np.shape(new) == np.shape(ref)
        assert np.abs(new - ref).max() <= 1e-13 * max(np.abs(ref).max(), 1e-300)
