"""Pointwise chart maps: derivative consistency and inverses."""

from dataclasses import fields

import numpy as np
import pytest
import sympy as sp

from floerlab.charts import (
    DiffeoChart,
    chart_from_sympy,
    compose_charts,
    c1_only_chart,
    identity_chart,
    inversion_chart,
    linear_chart,
    rotation_field_chart,
    shear_chart,
)

CHARTS = {
    "identity": identity_chart(),
    "shear": shear_chart(),
    "rotation": rotation_field_chart(0.7),
    "inversion": inversion_chart(0.2),
    "linear": linear_chart(np.array([[2.0, 1.0], [0.5, 1.5]])),
}


def _points(seed=0, G=40, lo=0.4, hi=1.6):
    rng = np.random.default_rng(seed)
    r = rng.uniform(lo, hi, size=G)
    th = rng.uniform(0, 2 * np.pi, size=G)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def _fd_jacobian(chart, p, h=1e-6):
    G, n = p.shape
    out = np.zeros((G, n, n))
    for j in range(n):
        dp = np.zeros_like(p)
        dp[:, j] = h
        out[:, :, j] = (chart.value(p + dp) - chart.value(p - dp)) / (2 * h)
    return out


def _fd_hessian(chart, p, h=1e-5):
    G, n = p.shape
    out = np.zeros((G, n, n, n))
    for k in range(n):
        dp = np.zeros_like(p)
        dp[:, k] = h
        out[:, :, :, k] = (chart.jacobian(p + dp) - chart.jacobian(p - dp)) / (2 * h)
    return out


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_jacobian_matches_finite_differences(name):
    chart = CHARTS[name]
    p = _points(1)
    assert np.max(np.abs(chart.jacobian(p) - _fd_jacobian(chart, p))) < 5e-9


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_hessian_matches_finite_differences(name):
    chart = CHARTS[name]
    p = _points(2)
    assert np.max(np.abs(chart.hessian(p) - _fd_hessian(chart, p))) < 5e-7


@pytest.mark.parametrize("name", ["identity", "shear", "rotation", "inversion", "linear"])
def test_inverse_round_trip(name):
    chart = CHARTS[name]
    p = _points(4)
    q = chart.value(p)
    assert np.max(np.abs(chart.inverse.value(q) - p)) < 1e-10
    # chain rule: D(inv)(chart(p)) D(chart)(p) = Id
    prod = np.einsum("gij,gjk->gik", chart.inverse.jacobian(q), chart.jacobian(p))
    assert np.max(np.abs(prod - np.eye(2))) < 1e-10


@pytest.mark.parametrize("name", ["shear", "rotation", "inversion", "linear"])
def test_inverse_after_chart_is_the_identity_through_second_order(name):
    # the order-2 chain rule of compose_charts ties each inverse's hessian to
    # its chart's: inverse o chart has value p, jacobian Id and hessian 0
    chart = CHARTS[name]
    loop = compose_charts(chart.inverse, chart)
    p = _points(3, G=15)
    assert np.max(np.abs(loop.value(p) - p)) < 1e-10
    assert np.max(np.abs(loop.jacobian(p) - np.eye(2))) < 1e-10
    assert np.max(np.abs(loop.hessian(p))) < 1e-9


def test_charts_carry_derivatives_through_second_order_only():
    assert [f.name for f in fields(DiffeoChart)] == [
        "n", "name", "value", "jacobian", "hessian", "boundary_clearance", "inverse",
    ]


def test_inversion_chart_is_an_involution():
    chart = CHARTS["inversion"]
    assert chart.inverse is chart
    p = _points(9, lo=0.5)
    assert np.max(np.abs(chart.value(chart.value(p)) - p)) < 1e-12


def test_c1_chart_has_discontinuous_second_derivative():
    chart = c1_only_chart()
    p = _points(5)
    assert np.max(np.abs(chart.jacobian(p) - _fd_jacobian(chart, p))) < 5e-8
    left = chart.hessian(np.array([[-1e-6, 0.0]]))
    right = chart.hessian(np.array([[1e-6, 0.0]]))
    assert abs(left[0, 1, 0, 0] - right[0, 1, 0, 0]) > 0.5
    assert chart.inverse is None


def test_compose_charts_chain_rule():
    outer, inner = CHARTS["shear"], CHARTS["rotation"]
    comp = compose_charts(outer, inner)
    p = _points(6)
    assert np.max(np.abs(comp.value(p) - outer.value(inner.value(p)))) == 0.0
    assert np.max(np.abs(comp.jacobian(p) - _fd_jacobian(comp, p))) < 5e-9
    assert np.max(np.abs(comp.hessian(p) - _fd_hessian(comp, p))) < 5e-7


def test_compose_wires_inverse_when_available():
    comp = compose_charts(CHARTS["shear"], CHARTS["linear"])
    assert comp.inverse is not None
    p = _points(7)
    assert np.max(np.abs(comp.inverse.value(comp.value(p)) - p)) < 1e-10
    no_inv = compose_charts(CHARTS["shear"], c1_only_chart())
    assert no_inv.inverse is None


def test_contains_uses_clearance_margin():
    chart = inversion_chart(0.5)
    near = np.array([[0.52, 0.0]])
    far = np.array([[1.0, 0.0]])
    assert not chart.contains(near)
    assert chart.contains(far)


def test_chart_from_sympy_matches_hand_derivatives():
    x, y = sp.symbols("x y", real=True)
    chart = chart_from_sympy([x + y**2, x * y], (x, y), name="poly")
    p = _points(8)
    expected_jac = np.zeros((p.shape[0], 2, 2))
    expected_jac[:, 0, 0] = 1.0
    expected_jac[:, 0, 1] = 2.0 * p[:, 1]
    expected_jac[:, 1, 0] = p[:, 1]
    expected_jac[:, 1, 1] = p[:, 0]
    assert np.max(np.abs(chart.jacobian(p) - expected_jac)) < 1e-13
    hess = chart.hessian(p)
    assert np.allclose(hess[:, 0, 1, 1], 2.0)
    assert np.allclose(hess[:, 1, 0, 1], 1.0)
    assert np.allclose(hess[:, 0, 0, 0], 0.0)
