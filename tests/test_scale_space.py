"""Coefficient model: norms, duality, and the grid bridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floerlab.scale_space import (
    FourierLoop,
    LevelError,
    check_level,
    constant_loop,
    default_grid_points,
    dual_pair,
    from_grid,
    grid_times,
    inner,
    mode_numbers,
    multiplication_matrix,
    random_loop,
    to_grid,
    weights,
)

from oracles import min_grid_points

LEVELS = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])


def _loop(seed, n=2, N=8, **kw):
    return random_loop(np.random.default_rng(seed), n, N, **kw)


def test_weights_closed_form():
    N = 12
    k = mode_numbers(N)
    for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
        expected = (1.0 + 4.0 * np.pi**2 * k.astype(float) ** 2) ** s
        assert np.allclose(weights(N, s), expected, rtol=0, atol=0)


def test_level_domain():
    assert check_level(-1.0) == -1.0
    assert check_level(2) == 2.0
    for bad in (-0.5, -2.0, 2.1, 3.0):
        with pytest.raises(LevelError):
            check_level(bad)


def test_reality_constraint_enforced():
    c = np.zeros((5, 1), dtype=complex)
    c[3, 0] = 1.0 + 0.5j  # mode +1 without its conjugate partner
    with pytest.raises(ValueError):
        FourierLoop(c)
    # symmetric data passes through unchanged
    c[1, 0] = np.conj(c[3, 0])
    u = FourierLoop(c)
    assert np.allclose(u.coeffs, c)


def test_loop_is_real_on_grid():
    u = _loop(0, n=3, N=6)
    vals = to_grid(u, 64)
    assert vals.dtype == np.float64
    # direct Fourier sum as the oracle
    t = grid_times(64)
    k = mode_numbers(u.N)
    direct = np.real(np.exp(2j * np.pi * np.outer(t, k)) @ u.coeffs)
    assert np.max(np.abs(vals - direct)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), s=LEVELS, t=LEVELS)
def test_norm_monotone_in_level(seed, s, t):
    u = _loop(seed)
    lo, hi = min(s, t), max(s, t)
    if lo == -1.0 and hi >= 0.0:
        lo = 0.0  # -1 sits below the whole scale; compare within [0,2]
        assert u.norm(-1.0) <= u.norm(hi) + 1e-12
    assert u.norm(lo) <= u.norm(hi) + 1e-12 * u.norm(hi)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.floats(0.0, 1.0))
def test_norm_log_convex(seed, s):
    # interpolation identity: ||u||_s <= ||u||_0^(1-s) ||u||_1^s
    u = _loop(seed)
    bound = u.norm(0.0) ** (1.0 - s) * u.norm(1.0) ** s
    assert u.norm(s) <= bound * (1.0 + 1e-12)


def test_parseval_against_quadrature():
    u = _loop(3, n=2, N=10)
    G = default_grid_points(u.N)
    vals = to_grid(u, G)
    quad = np.sqrt(np.mean(np.sum(vals**2, axis=1)))
    assert abs(quad - u.norm(0.0)) <= 1e-10 * max(quad, 1.0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_duality_bound(seed):
    rng = np.random.default_rng(seed)
    f = random_loop(rng, 2, 8)
    h = random_loop(rng, 2, 8)
    assert abs(dual_pair(f, h)) <= f.norm(-1.0) * h.norm(1.0) * (1.0 + 1e-12)
    # the pairing itself is the plain L^2 form
    assert dual_pair(f, h) == pytest.approx(inner(f, h, 0.0), rel=1e-12, abs=1e-15)


def test_duality_bound_attained():
    # the Riesz candidate c_k / w_k(1) saturates the duality bound
    f = _loop(7)
    w = weights(f.N, 1.0)
    h = FourierLoop(f.coeffs / w[:, None])
    ratio = abs(dual_pair(f, h)) / h.norm(1.0)
    assert ratio == pytest.approx(f.norm(-1.0), rel=1e-12)


def test_resize_projection():
    u = _loop(11, N=12)
    up = u.resize(20)
    assert up.N == 20
    back = up.resize(12)
    assert np.allclose(back.coeffs, u.coeffs, rtol=0, atol=0)
    down = u.resize(5)
    assert down.norm(0.0) <= u.norm(0.0)


def test_grid_round_trip_exact():
    u = _loop(13, n=3, N=9)
    for G in (min_grid_points(u.N), default_grid_points(u.N), 64):
        v = from_grid(to_grid(u, G), u.N)
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-13


def test_product_matches_coefficient_convolution():
    # pointwise product on the default grid carries no aliasing up to band 2N
    rng = np.random.default_rng(17)
    N = 6
    g = random_loop(rng, 1, N)
    u = random_loop(rng, 1, N)
    G = default_grid_points(N)
    product = from_grid(to_grid(g, G) * to_grid(u, G), 2 * N)
    conv = np.convolve(g.coeffs[:, 0], u.coeffs[:, 0])
    assert np.max(np.abs(product.coeffs[:, 0] - conv)) < 1e-13


def test_multiplication_matrix_is_truncated_convolution():
    rng = np.random.default_rng(19)
    N = 7
    g = random_loop(rng, 1, N)
    u = random_loop(rng, 1, N)
    G = default_grid_points(N)
    M = multiplication_matrix(to_grid(g, G)[:, 0], N)
    lhs = M @ u.flat_coeffs()
    conv = np.convolve(g.coeffs[:, 0], u.coeffs[:, 0])[N : 3 * N + 1]
    assert np.max(np.abs(lhs - conv)) < 1e-13


def test_derivative_single_mode():
    N, k = 8, 3
    c = np.zeros((2 * N + 1, 1), dtype=complex)
    c[N + k] = 0.5
    c[N - k] = 0.5
    u = FourierLoop(c)  # cos(2 pi k t)
    du = u.derivative()
    assert du.norm(0.0) == pytest.approx(2 * np.pi * k * u.norm(0.0), rel=1e-14)


def test_constant_loop():
    x = np.array([1.0, -2.0])
    u = constant_loop(x, 6)
    assert np.allclose(to_grid(u, 16), np.broadcast_to(x, (16, 2)))


def test_vector_space_ops():
    u, v = _loop(23), _loop(29)
    w = 2.0 * u - v
    assert np.allclose(w.coeffs, 2.0 * u.coeffs - v.coeffs)
    assert np.allclose((-u).coeffs, -u.coeffs)
