"""Operators read between levels: norms, adjoints, interpolation, Fredholm sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floerlab.scale_operator import (
    LevelOperator,
    adjoint,
    band_indices,
    check_interpolation,
    fredholm_diagnostic,
    identity_operator,
    derivative_operator,
    inclusion_singular_values,
    op_norm,
    sweep_verdict,
    weighted_singular_values,
)
from floerlab.scale_space import inner, random_loop, weights
from floerlab.sobolev_evidence import mult_operator

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rotated_derivative(N):
    D = derivative_operator(N, 2).matrix
    return LevelOperator(np.kron(np.eye(2 * N + 1), J0) @ D, N, 2)


def test_derivative_norm_closed_form():
    # largest weighted singular value sits at the edge modes
    for N in (8, 16, 64):
        expected = 2 * np.pi * N / np.sqrt(1 + 4 * np.pi**2 * N**2)
        assert op_norm(derivative_operator(N, 2), 1.0, 0.0) == pytest.approx(expected, rel=1e-13)


def test_identity_insertion_smallest_singular_value():
    N = 32
    sv = weighted_singular_values(identity_operator(N, 2), 1.0, 0.0)
    assert sv[-1] == pytest.approx(1.0 / np.sqrt(weights(N, 1.0)[-1]), rel=1e-13)


def _reality_preserving(rng, N, n):
    # flipping both mode indices must conjugate the entry, or the operator
    # would map real loops out of the model
    d = (2 * N + 1) * n
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    blocks = m.reshape(2 * N + 1, n, 2 * N + 1, n)
    blocks = 0.5 * (blocks + np.conj(blocks[::-1, :, ::-1, :]))
    return LevelOperator(blocks.reshape(d, d) / 10.0, N, n)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_adjoint_pairing_identity(seed):
    rng = np.random.default_rng(seed)
    N, n = 6, 2
    T = _reality_preserving(rng, N, n)
    u = random_loop(rng, n, N)
    v = random_loop(rng, n, N)
    lhs = inner(T.apply(u), v, 0.0)
    rhs = inner(u, adjoint(T).apply(v), 0.0)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_adjoint_involution():
    rng = np.random.default_rng(5)
    T = _reality_preserving(rng, 5, 2)
    back = adjoint(adjoint(T))
    assert np.max(np.abs(back.matrix - T.matrix)) < 1e-12


def test_rotated_derivative_is_fredholm_with_two_dim_kernel():
    fam = {N: _rotated_derivative(N) for N in (16, 32, 64)}
    rep = fredholm_diagnostic(fam, 1.0, 0.0)
    assert rep["verdict"] == "fredholm"
    assert rep["index_estimate"] == 0
    gap = 2 * np.pi / np.sqrt(1 + 4 * np.pi**2)
    for entry in rep["sweep"]:
        assert entry["ker_dim"] == 2
        assert entry["coker_dim"] == 2
        assert entry["gap"] == pytest.approx(gap, rel=1e-12)


def test_inclusion_is_not_fredholm():
    fam = {N: identity_operator(N, 2) for N in (16, 32, 64, 128)}
    rep = fredholm_diagnostic(fam, 1.0, 0.0)
    assert rep["verdict"] == "non_fredholm"
    mins = [e["sigma_min"] for e in rep["sweep"]]
    assert all(a > b for a, b in zip(mins, mins[1:]))


def test_compactness_profile_of_inclusion_decays():
    prof = weighted_singular_values(identity_operator(24, 1), 1.0, 0.0)
    assert all(a >= b for a, b in zip(prof, prof[1:]))
    assert prof[0] == pytest.approx(1.0, rel=1e-13)  # the constant mode
    assert prof[-1] < 0.01


@pytest.mark.parametrize("N", [8, 64, 512])
def test_inclusion_singular_values_match_the_dense_identity(N):
    dense = weighted_singular_values(identity_operator(N, 2), 1.0, 0.0)
    assert np.array_equal(inclusion_singular_values(N, 2, 1.0, 0.0), dense)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.sampled_from([0.25, 0.5, 0.75]))
def test_interpolation_bound_multiplication(seed, s):
    g = random_loop(np.random.default_rng(seed), 1, 16, top_mode=5, amplitude=0.8)
    (rep,) = check_interpolation(mult_operator(g), (s,))
    assert rep["passed"], rep


def test_interpolation_rejects_outer_levels():
    T = identity_operator(8, 1)
    with pytest.raises(ValueError):
        check_interpolation(T, (0.5, 1.5))


def test_one_point_fredholm_sweep_is_insufficient():
    # the inclusion is the non-Fredholm control, but one truncation cannot show it
    rep = fredholm_diagnostic({32: identity_operator(32, 2)}, 1.0, 0.0)
    assert rep["verdict"] == "insufficient"


# rtol 1/4 and power-of-two values keep every comparison exact
BELOW_3 = float(np.nextafter(3.0, 0.0))
ABOVE_5 = float(np.nextafter(5.0, 6.0))


@pytest.mark.parametrize(
    "values, verdict",
    [
        ([], "insufficient"),
        ([4.0], "insufficient"),
        ([0.0], "insufficient"),
        ([4.0, 4.0], "stable"),
        ([1.0, 2.0], "growing"),  # a one-point window would call this stable
        ([2.0, 1.0], "unstable"),
        ([0.0, 0.0], "stable"),
        ([7.0, 0.0, 0.0], "stable"),
        ([0.0, 1e-300, 0.0], "unstable"),
        ([-4.0, -4.0], "stable"),
        ([3.0, 4.0], "stable"),  # exactly rtol below the final value
        ([5.0, 4.0], "stable"),  # exactly rtol above it
        ([BELOW_3, 4.0], "growing"),
        ([ABOVE_5, 4.0], "unstable"),
        ([1.0, 16.0, 16.0, 16.0], "stable"),  # early drift outside the trailing half
        ([1.0, 1.0, 2.0, 4.0, 4.0], "unstable"),  # the window is the last three of five
        ([1.0, 2.0, 4.0, 8.0], "growing"),
        ([1.0, 2.0, 2.0, 8.0], "unstable"),  # growth must be strict
        ([1.0, 4.0, 2.0, 8.0], "unstable"),  # non-monotone divergence
    ],
)
def test_sweep_verdict_table(values, verdict):
    assert sweep_verdict(values, 0.25) == verdict


def test_band_indices_selects_inner_modes():
    idx = band_indices(4, 2, 2)
    # modes -2..2, two components each, centered in the 18-slot layout
    assert idx.tolist() == [4, 5, 6, 7, 8, 9, 10, 11, 12, 13]



def test_readings_name_their_levels():
    # an operator carries no level pair: every norm or singular value names the one it reads
    T = derivative_operator(8, 2)
    with pytest.raises(TypeError):
        op_norm(T)
    with pytest.raises(TypeError):
        weighted_singular_values(T)
    for name in ("dom", "cod", "with_levels"):
        assert not hasattr(T, name), name
    with pytest.raises(TypeError):
        LevelOperator(None, 1.0, 0.0, 8, 2, blocks=T.blocks)  # the former dom, cod signature
