"""Flow map, inverse-gradient field and near-identity bounds."""

import logging

import numpy as np
import pytest

from lagfsi import kinematics
from lagfsi.errors import MeshDegenerationError
from lagfsi.fluid import assemble_fluid_operator
from lagfsi.kinematics import (
    KinematicState, _min_eig_sym, advance_flow_map, kinematic_bounds_report,
)
from lagfsi.mesh import FLUID, SOLID, build_annular_mesh
from lagfsi.pointwise import cm
from lagfsi.spaces import FieldSpace, InterfaceData

from oracle_fem import eta
from test_material import pm


def a_time_derivative(a, grad_v):
    """Evolution-law right side -a Dv a (diagnostic cross-check)."""
    a = np.asarray(a, dtype=float)
    grad_v = np.asarray(grad_v, dtype=float)
    return -np.einsum("...ij,...jk,...kl->...il", a, grad_v, a)


@pytest.fixture(scope="module")
def setup():
    mesh = build_annular_mesh(2, 0.4, 1.0, 6)
    vs = FieldSpace(mesh, FLUID, 2, 2)
    ss = FieldSpace(mesh, SOLID, 2, 2)
    iface = InterfaceData(mesh, vs, ss, FieldSpace(mesh, FLUID, 1, 1))
    return mesh, vs, iface


def test_initial_state_exact(setup):
    _, vs, iface = setup
    kin = KinematicState.initial(vs, iface)
    rep = kinematic_bounds_report(kin)
    assert rep.sup_dist_a_identity == 0.0
    assert rep.sup_dist_aaT_identity == 0.0
    assert rep.min_ellipticity == 1.0
    assert rep.det_min == 1.0


@pytest.mark.parametrize("dim", [2, 3])
def test_translation_and_identity_are_exact(dim):
    # the general constructor differentiates the displacement eta - x, so the
    # identity map and a rigid translation give D eta = a = a a^T = I exactly
    mesh = build_annular_mesh(dim, 0.4, 1.0, 6 if dim == 2 else 4)
    vs = FieldSpace(mesh, FLUID, 2, dim)
    iface = InterfaceData(mesh, vs, FieldSpace(mesh, SOLID, 2, dim), FieldSpace(mesh, FLUID, 1, 1))
    c = np.array([0.3, -0.2, 0.1])[:dim]
    for disp in (vs.zeros(), vs.interpolate(lambda x: c)):
        kin = KinematicState(vs, iface, disp, 0.7)
        assert np.array_equal(eta(kin), vs.interpolate(lambda x: x) + disp)
        rep = kinematic_bounds_report(kin)
        assert rep.sup_dist_aaT_identity == 0.0
        assert rep.sup_dist_a_identity == 0.0
        assert rep.min_ellipticity == 1.0
        assert rep.det_min == 1.0


def test_advance_zero_velocity(setup):
    _, vs, iface = setup
    kin = KinematicState.initial(vs, iface)
    kin2 = advance_flow_map(kin, vs.zeros(), 0.1)
    assert np.array_equal(eta(kin2), eta(kin))
    assert np.abs(kin2.a - kin.a).max() < 1e-13


def test_advance_rigid_translation(setup):
    _, vs, iface = setup
    kin = KinematicState.initial(vs, iface)
    c = np.array([0.3, -0.2])
    kin2 = advance_flow_map(kin, vs.interpolate(lambda x: c), 0.1)
    assert np.abs(pm(kin2.grad_eta) - np.eye(2)).max() < 1e-13
    assert np.abs(pm(kin2.a) - np.eye(2)).max() < 1e-13


def test_advance_linear_stretch(setup):
    _, vs, iface = setup
    kin = KinematicState.initial(vs, iface)
    v = vs.interpolate(lambda x: np.array([x[0], -x[1]]))
    kin2 = advance_flow_map(kin, v, 0.1)
    # pointwise analytic inverse as the oracle
    assert np.abs(pm(kin2.grad_eta) - np.diag([1.1, 0.9])).max() < 1e-12
    assert np.abs(pm(kin2.a) - np.diag([1 / 1.1, 1 / 0.9])).max() < 1e-12
    rep = kinematic_bounds_report(kin2)
    expect = min(1 / 1.1**2, 1 / 0.9**2)
    assert rep.min_ellipticity == pytest.approx(expect, abs=1e-12)


def test_interface_determinant_is_kept(setup):
    _, vs, iface = setup
    kin = KinematicState.initial(vs, iface)
    assert np.all(kin.det_facet == 1.0)
    v = vs.interpolate(lambda x: np.array([0.2 * x[0] ** 2, -0.1 * x[0] * x[1]]))
    kin2 = advance_flow_map(kin, v, 0.5)
    assert np.abs(kin2.det_facet - np.linalg.det(pm(kin2.grad_eta_facet))).max() < 1e-14
    rep = kinematic_bounds_report(kin2)
    assert rep.det_min == min(kin2.det.min(), kin2.det_facet.min())


def test_a_time_derivative_values():
    assert np.abs(a_time_derivative(np.eye(2), np.zeros((2, 2)))).max() == 0.0
    M = np.array([[0.3, -1.2], [0.7, 0.1]])
    assert np.allclose(a_time_derivative(np.eye(2), M), -M, atol=0)
    a = np.diag([2.0, 1.0])
    Dv = np.array([[0.0, 1.0], [0.0, 0.0]])
    # direct triple-product oracle
    assert np.allclose(a_time_derivative(a, Dv), -a @ Dv @ a, atol=0)
    assert np.allclose(a_time_derivative(a, Dv), [[0.0, -2.0], [0.0, 0.0]], atol=0)


def test_inverse_consistency_along_steps(setup):
    _, vs, iface = setup
    rng = np.random.default_rng(0)
    coef = 0.05 * rng.standard_normal((2, 6))

    def v(x):
        basis = np.array([1.0, x[0], x[1], x[0] * x[1], x[0] ** 2, x[1] ** 2])
        return coef @ basis

    kin = KinematicState.initial(vs, iface)
    vd = vs.interpolate(v)
    for _ in range(5):
        kin = advance_flow_map(kin, vd, 0.02)
        err = np.einsum("cqij,cqjk->cqik", pm(kin.a), pm(kin.grad_eta)) - np.eye(2)
        assert np.abs(err).max() <= 1e-12


def test_evolution_law_first_order(setup):
    # (a(t+dt) - a(t))/dt approaches -a Dv a at first order in dt
    _, vs, iface = setup
    vd = vs.interpolate(lambda x: np.array([0.3 * x[0] ** 2, -0.2 * x[0] * x[1]]))
    kin0 = KinematicState.initial(vs, iface)
    base = advance_flow_map(kin0, vd, 0.3)
    Dv = pm(vs.gradients([vd])[:, :, 0])
    errs = []
    for dt in (0.02, 0.01, 0.005):
        kin1 = advance_flow_map(base, vd, dt)
        fd = pm(kin1.a - base.a) / dt
        rhs = a_time_derivative(pm(kin1.a), Dv)
        errs.append(np.abs(fd - rhs).max())
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert 0.7 < order1 < 1.3 and 0.7 < order2 < 1.3


def test_degeneration_raises(setup):
    _, vs, iface = setup
    kin = KinematicState.initial(vs, iface)
    # one coordinate collapses through zero: orientation reverses at dt = 1
    v = vs.interpolate(lambda x: np.array([-x[0], 0.0]))
    with pytest.raises(MeshDegenerationError):
        advance_flow_map(kin, v, 1.5)


def test_near_degenerate_warns(setup, caplog):
    _, vs, iface = setup
    v = vs.interpolate(lambda x: -x)
    kin = advance_flow_map(KinematicState.initial(vs, iface), v, 0.9)
    with caplog.at_level(logging.WARNING, logger="lagfsi.kinematics"):
        rep = kinematic_bounds_report(kin)
    assert rep.det_min == pytest.approx(0.01, abs=1e-12)
    assert any("near-identity" in r.message for r in caplog.records)


def test_bounds_invariant(setup):
    _, vs, iface = setup
    v = vs.interpolate(lambda x: np.array([0.2 * x[1], 0.1 * x[0]]))
    kin = advance_flow_map(KinematicState.initial(vs, iface), v, 0.5)
    rep = kinematic_bounds_report(kin)
    assert rep.min_ellipticity >= 1 - rep.sup_dist_aaT_identity - 1e-12


def _rotated(rng, eigenvalues):
    """Symmetric matrices Q diag(eigenvalues) Q^T with random rotations Q."""
    Q, _ = np.linalg.qr(rng.standard_normal(eigenvalues.shape + (3,)))
    M = np.einsum("nij,nj,nkj->nik", Q, eigenvalues, Q)
    return 0.5 * (M + np.swapaxes(M, 1, 2))


@pytest.mark.parametrize("case", ["random", "near-identity", "repeated-low", "repeated-high",
                                  "near-identity-repeated", "identity"])
def test_min_eig_closed_form_3d(case):
    # the closed form against eigvalsh; repeated eigenvalues are where the
    # angle of the trigonometric form loses half its digits
    rng = np.random.default_rng(21)
    n = 500
    one = np.ones((n, 3))
    eigenvalues = {
        "random": 3 + rng.standard_normal((n, 3)),
        "near-identity": 1 + 1e-5 * rng.standard_normal((n, 3)),
        "repeated-low": one * [1.0, 1.0, 2.0],
        "repeated-high": one * [1.0, 2.0, 2.0],
        "near-identity-repeated": 1 + 1e-6 * one * [1.0, 1.0, -2.0],
        "identity": one,
    }[case]
    M = np.broadcast_to(np.eye(3), (n, 3, 3)) if case == "identity" else _rotated(rng, eigenvalues)
    got = _min_eig_sym(cm(M))
    assert np.abs(got - np.linalg.eigvalsh(M)[:, 0]).max() <= 1e-14
    if case == "identity":
        assert np.all(got == 1.0)


def test_ellipticity_floor_computed_once_per_state(setup, monkeypatch):
    # the fluid guard and the bounds report read the floor the state keeps
    mesh, vs, iface = setup
    v = vs.interpolate(lambda x: np.array([0.2 * x[1], 0.1 * x[0]]))
    kin = advance_flow_map(KinematicState.initial(vs, iface), v, 0.1)
    calls = []
    monkeypatch.setattr(kinematics, "_min_eig_sym", lambda M: calls.append(M))
    assemble_fluid_operator(kin, vs, FieldSpace(mesh, FLUID, 1, 1, quad_degree=5))
    rep = kinematic_bounds_report(kin)
    assert calls == []
    assert rep.min_ellipticity == min(kin.min_ellip, kin.min_ellip_facet)
    assert kin.min_ellip == _min_eig_sym(kin.aaT).min()
