"""Closed-form charts against the symbolic construction they replaced.

Sphere transitions are Moebius maps of z or of conj z, the rotation field
is z exp(i lam z conj z) and the inversion is 1/conj z.  The values are
checked against the frames' own coordinate maps, and every tensor through
second order against sympy differentiating the original real expressions.
"""

import numpy as np
import pytest
import sympy as sp

from floerlab.charts import DEFAULT_MARGIN, chart_from_sympy, inversion_chart, rotation_field_chart
from floerlab.loop_atlas import rotated_sphere_atlas, sphere_small_loop_atlas

FRAMES = {
    c.name: c
    for atlas in (sphere_small_loop_atlas(), rotated_sphere_atlas(0.3), rotated_sphere_atlas(0.7, axis=1))
    for c in atlas.charts
}
TENSORS = ("value", "jacobian", "hessian")
x, y = sp.symbols("x y", real=True)


def _disk(seed, G=300, hi=3.0):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.0, hi, size=G)
    th = rng.uniform(0, 2 * np.pi, size=G)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def _in_domain(chart, pts):
    inside = pts[chart.boundary_clearance(pts) >= DEFAULT_MARGIN]
    assert len(inside) > len(pts) // 2
    return inside


def _assert_tensors_match(chart, oracle, pts, rtol=1e-12):
    for name in TENSORS:
        got, want = getattr(chart, name)(pts), getattr(oracle, name)(pts)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)), name


def _symbolic_stereo(a, b):
    """The stereographic transition as it used to be built, with sympy."""
    R = b.Q @ a.Q.T
    r2 = x**2 + y**2
    v = sp.Matrix(R) * sp.Matrix([2 * x, 2 * y, r2 - 1]) / (1 + r2)
    exprs = [sp.cancel(v[0] / (1 - v[2])), sp.cancel(v[1] / (1 - v[2]))]
    return chart_from_sympy(exprs, (x, y), "symbolic")


@pytest.mark.parametrize("a", sorted(FRAMES))
def test_transition_values_match_the_frames_coordinate_maps(a):
    pts = _disk(0)
    for b in FRAMES.values():
        t = FRAMES[a].transition_to(b)
        inside = _in_domain(t, pts)
        expected = b.to_coords(FRAMES[a].from_coords(inside))
        assert np.max(np.abs(t.value(inside) - expected)) < 1e-13, b.name


@pytest.mark.parametrize(
    "a, b",
    [
        ("north", "south"),  # reflection alone: 1/conj z
        ("north@0.3", "north"),  # rotation about the x axis
        ("south", "north@0.3"),  # reflection composed with a rotation
        ("north", "north@0.7"),  # rotation about the y axis: two quaternion components vanish
    ],
)
def test_transition_tensors_match_symbolic_oracle(a, b):
    t = FRAMES[a].transition_to(FRAMES[b])
    _assert_tensors_match(t, _symbolic_stereo(FRAMES[a], FRAMES[b]), _in_domain(t, _disk(1)))


@pytest.mark.parametrize("lam", [0.7, -0.7])
def test_rotation_field_matches_symbolic_oracle(lam):
    theta = lam * (x**2 + y**2)
    oracle = chart_from_sympy(
        [sp.cos(theta) * x - sp.sin(theta) * y, sp.sin(theta) * x + sp.cos(theta) * y], (x, y), "symbolic"
    )
    _assert_tensors_match(rotation_field_chart(lam), oracle, _disk(2, hi=1.6))


def test_inversion_matches_symbolic_oracle():
    r2 = x**2 + y**2
    chart = inversion_chart(0.2)
    oracle = chart_from_sympy([x / r2, y / r2], (x, y), "symbolic")
    _assert_tensors_match(chart, oracle, _in_domain(chart, _disk(3)))
