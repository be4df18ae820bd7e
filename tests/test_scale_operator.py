"""Annotated operators: norms, adjoints, interpolation, Fredholm sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floerlab.scale_operator import (
    LevelOperator,
    adjoint,
    band_indices,
    check_interpolation,
    extension_consistency,
    fredholm_diagnostic,
    identity_operator,
    derivative_operator,
    op_norm,
    weighted_singular_values,
)
from floerlab.scale_space import inner, random_loop, weights
from floerlab.sobolev_evidence import mult_operator, smooth_factor

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])


def _rotated_derivative(N):
    D = derivative_operator(N, 2).matrix
    return LevelOperator(np.kron(np.eye(2 * N + 1), J0) @ D, 1.0, 0.0, N, 2)


def test_derivative_norm_closed_form():
    # largest weighted singular value sits at the edge modes
    for N in (8, 16, 64):
        expected = 2 * np.pi * N / np.sqrt(1 + 4 * np.pi**2 * N**2)
        assert op_norm(derivative_operator(N, 2)) == pytest.approx(expected, rel=1e-13)


def test_identity_insertion_smallest_singular_value():
    N = 32
    sv = weighted_singular_values(identity_operator(N, 2, 1.0, 0.0))
    assert sv[-1] == pytest.approx(1.0 / np.sqrt(weights(N, 1.0)[-1]), rel=1e-13)


def _reality_preserving(rng, N, n):
    # flipping both mode indices must conjugate the entry, or the operator
    # would map real loops out of the model
    d = (2 * N + 1) * n
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    blocks = m.reshape(2 * N + 1, n, 2 * N + 1, n)
    blocks = 0.5 * (blocks + np.conj(blocks[::-1, :, ::-1, :]))
    return LevelOperator(blocks.reshape(d, d) / 10.0, 1.0, 0.0, N, n)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.sampled_from([0.0, 0.5, 1.0]))
def test_adjoint_pairing_identity(seed, s):
    rng = np.random.default_rng(seed)
    N, n = 6, 2
    T = _reality_preserving(rng, N, n)
    u = random_loop(rng, n, N)
    v = random_loop(rng, n, N)
    lhs = inner(T.apply(u), v, s)
    rhs = inner(u, adjoint(T, s).apply(v), s)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_adjoint_involution():
    rng = np.random.default_rng(5)
    N, n = 5, 2
    m = rng.normal(size=((2 * N + 1) * n,) * 2) + 1j * rng.normal(size=((2 * N + 1) * n,) * 2)
    T = LevelOperator(m, 1.0, 0.0, N, n)
    back = adjoint(adjoint(T, 0.5), 0.5)
    assert np.max(np.abs(back.matrix - T.matrix)) < 1e-12
    assert (back.dom, back.cod) == (T.dom, T.cod)


def test_rotated_derivative_is_fredholm_with_two_dim_kernel():
    fam = {N: _rotated_derivative(N) for N in (16, 32, 64)}
    rep = fredholm_diagnostic(fam, 1.0, 0.0)
    assert rep.verdict == "fredholm"
    assert rep.index_estimate == 0
    gap = 2 * np.pi / np.sqrt(1 + 4 * np.pi**2)
    for entry in rep.sweep:
        assert entry["ker_dim"] == 2
        assert entry["coker_dim"] == 2
        assert entry["gap"] == pytest.approx(gap, rel=1e-12)


def test_inclusion_is_not_fredholm():
    fam = {N: identity_operator(N, 2, 1.0, 0.0) for N in (16, 32, 64, 128)}
    rep = fredholm_diagnostic(fam, 1.0, 0.0)
    assert rep.verdict == "non_fredholm"
    mins = [e["sigma_min"] for e in rep.sweep]
    assert all(a > b for a, b in zip(mins, mins[1:]))


def test_compactness_profile_of_inclusion_decays():
    prof = weighted_singular_values(identity_operator(24, 1, 1.0, 0.0))
    assert all(a >= b for a, b in zip(prof, prof[1:]))
    assert prof[0] == pytest.approx(1.0, rel=1e-13)  # the constant mode
    assert prof[-1] < 0.01


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), s=st.sampled_from([0.25, 0.5, 0.75]))
def test_interpolation_bound_multiplication(seed, s):
    g = random_loop(np.random.default_rng(seed), 1, 16, top_mode=5, amplitude=0.8)
    rep = check_interpolation(mult_operator(g, "(1,1->1)"), s)
    assert rep["passed"], rep


def test_interpolation_rejects_outer_levels():
    T = identity_operator(8, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_interpolation(T, 1.5)


def test_extension_consistency_tabulates_levels():
    T = mult_operator(smooth_factor(16), "(1,1->1)")
    out = extension_consistency({16: T, 32: mult_operator(smooth_factor(32), "(1,1->1)")}, (0.0, 1.0))
    assert set(out["levels"]) == {0.0, 1.0}
    assert out["flagged"] == []


def test_band_indices_selects_inner_modes():
    idx = band_indices(4, 2, 2)
    # modes -2..2, two components each, centered in the 18-slot layout
    assert idx.tolist() == [4, 5, 6, 7, 8, 9, 10, 11, 12, 13]


def test_level_operator_composition_annotations():
    N = 6
    D = derivative_operator(N, 2, 1.0, 0.0)
    I10 = identity_operator(N, 2, 2.0, 1.0)
    comp = D @ I10
    assert (comp.dom, comp.cod) == (2.0, 0.0)
    with pytest.raises(ValueError):
        I10 @ D  # levels do not chain
