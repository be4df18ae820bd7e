"""Structured level operators: the Toeplitz build, the producers, their arithmetic, and the FFT-certified op_norm."""

import numpy as np
import pytest

from floerlab import cli, scale_operator
from floerlab.charts import rotation_field_chart, shear_chart
from floerlab.floer_function import (
    driven_hamiltonian,
    quadratic_hamiltonian,
    standard_symplectic_matrix,
    symplectic_action,
)
from floerlab.floer_map import SuperpositionMap, apply, dphi, leibniz_check, verify_floer_axioms
from floerlab.pullback import pull_back_gradient, riesz_correction
from floerlab.scale_operator import (
    LevelOperator,
    _certified_top_eigenvalue,
    _flat_weights,
    _gram_norm,
    _mode_blocks,
    _real_form,
    adjoint,
    derivative_operator,
    identity_operator,
    op_norm,
    weighted_singular_values,
)
from floerlab.scale_space import (
    default_grid_points,
    grid_times,
    half_spectrum,
    mode_numbers,
    multiplication_matrix,
    multiplication_symbol,
    random_loop,
    to_grid,
    toeplitz_rows,
)
from floerlab.sobolev_evidence import mult_operator, smooth_factor


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _fancy_index_reference(factor_values, N):
    # the former assembly: the mirrored symbol gathered through (k - l) % G
    factor_values = np.asarray(factor_values, dtype=float)
    G = factor_values.shape[0]
    if np.all(factor_values == factor_values[0]):
        fhat = np.zeros(factor_values.shape, dtype=complex)
        fhat[0] = factor_values[0]
    else:
        half = half_spectrum(factor_values, G // 2)
        fhat = np.concatenate([half, np.conj(half[1 : G - G // 2][::-1])])
    k = mode_numbers(N)
    idx = (k[:, None] - k[None, :]) % G
    if factor_values.ndim == 1:
        return fhat[idx]
    M, n = 2 * N + 1, factor_values.shape[1]
    out = np.empty((M, n, M, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[:, i, :, j] = fhat[:, i, j][idx]
    return out.reshape(M * n, M * n)


GRIDS = [default_grid_points, lambda N: 3 * N + 1 + N % 2, lambda N: 2 * N + 1]  # default, odd, minimum


@pytest.mark.parametrize("N", [3, 16, 37])
@pytest.mark.parametrize("grid", GRIDS, ids=["default", "odd", "minimum"])
@pytest.mark.parametrize("shape", [(), (2, 2), (3, 3)], ids=["scalar", "n2", "n3"])
def test_strided_toeplitz_build_matches_the_fancy_index(shape, grid, N):
    G = grid(N)
    rng = np.random.default_rng(N + len(shape))
    values = rng.normal(size=(G, *shape))  # the matrix factors are not symmetric
    constant = np.broadcast_to(rng.normal(size=shape), (G, *shape))
    for factor in (values, constant):
        new, old = multiplication_matrix(factor, N), _fancy_index_reference(factor, N)
        assert new.shape == old.shape
        assert np.array_equal(_bits(new), _bits(old))


def _old_hessian(H, N, q):
    # the parent's dense assembly: -well, then 2 pi i k J0 added on the mode blocks
    G = default_grid_points(N)
    k = mode_numbers(N).astype(float)
    J0 = standard_symplectic_matrix(H.dim)
    A = multiplication_matrix(H.hess_x(grid_times(G), to_grid(q, G)), N)
    np.negative(A, out=A)
    M = 2 * N + 1
    A.reshape(M, H.dim, M, H.dim)[np.arange(M), :, np.arange(M), :] += (2j * np.pi * k)[:, None, None] * J0
    return A


def _producers(N, seed):
    """(name, structured operator, the parent's dense matrix) for every producer."""
    rng = np.random.default_rng(seed)
    q = random_loop(rng, 2, N, amplitude=0.4)
    g = random_loop(rng, 1, N, top_mode=5, amplitude=0.8)
    phi = SuperpositionMap(shear_chart(), 0.75, N)
    F = symplectic_action(quadratic_hamiltonian(), N)
    G = phi.grid_points
    jac = phi.chart.jacobian(phi.sample_values(q))
    grad = to_grid(F.gradient(apply(phi, q)), G)
    V = np.einsum("gi,gijk->gjk", grad, phi.chart.hessian(phi.sample_values(q)))
    d = (2 * N + 1) * 2
    out = [
        ("mult", mult_operator(g, "(-1,1->-1)"), multiplication_matrix(to_grid(g, G)[:, 0], N)),
        ("dphi", dphi(phi, q), multiplication_matrix(jac, N)),
        ("riesz", riesz_correction(F, phi, q, 0.75), multiplication_matrix(V, N) / np.ones(d)[:, None]),
        ("identity", identity_operator(N, 2, 1.0, 0.0), np.eye(d, dtype=complex)),
        ("derivative", derivative_operator(N, 2), np.diag(np.repeat(2j * np.pi * mode_numbers(N).astype(float), 2))),
    ]
    for H in (quadratic_hamiltonian(), driven_hamiltonian()):
        out.append((f"hessian[{H.name}]", symplectic_action(H, N).hessian(q), _old_hessian(H, N, q)))
    return out


@pytest.mark.parametrize("N", [4, 16, 64])
def test_producers_build_the_parent_matrix_bit_for_bit(N):
    for name, T, old in _producers(N, N):
        assert "matrix" not in vars(T), name  # nothing dense until it is read
        assert np.array_equal(T.matrix, old), name
        if name.startswith("hessian"):
            # -(0) in the parent's negation: the two differ only in the sign of zero entries
            nonzero = old.view(float) != 0.0
            assert np.array_equal(T.matrix.view(np.uint64)[nonzero], old.view(np.uint64)[nonzero]), name
        else:
            assert np.array_equal(_bits(T.matrix), _bits(old)), name


def test_matrix_is_built_once_and_shared_by_with_levels(monkeypatch):
    built = []
    real = scale_operator.toeplitz_rows
    monkeypatch.setattr(
        scale_operator, "toeplitz_rows", lambda sym, N, start, stop: built.append(N) or real(sym, N, start, stop)
    )
    for name, T, _ in _producers(8, 1):
        before = len(built)
        lazy = T.with_levels(2.0, 1.0)  # taken before the matrix exists: keeps the structure only
        m = T.matrix
        assert T.matrix is m and T.with_levels(0.0, -1.0).matrix is m, name
        assert lazy.factor is T.factor and lazy.blocks is T.blocks, name
        if T.factor is not None:
            assert len(built) == before + 1, name
    # blocks-only operators never read a symbol
    assert built == [8] * 5


def test_structured_mode_blocks_agree_with_the_dense_test():
    N = 16
    for name, T, old in _producers(N, 2):
        dense = LevelOperator(old, T.dom, T.cod, N, T.n)
        blocks, expected = _mode_blocks(T), _mode_blocks(dense)
        assert (blocks is None) == (expected is None), name
        if blocks is not None:
            assert np.array_equal(blocks, expected), name


def test_one_point_sweep_builds_neither_the_action_hessian_nor_the_correction(monkeypatch):
    built = []
    materialize = LevelOperator.__getattr__

    def recording(self, name):
        if name == "matrix":
            built.append((self.n, self.blocks is not None))
        return materialize(self, name)

    monkeypatch.setattr(LevelOperator, "__getattr__", recording)
    rows = cli._sweep_rows(cli.RunConfig(N=[512], s=[0.75]))
    assert {r[3] for r in rows} >= {"action_gap", "correction_norm", "mult(1,0->0)", "mult(1,1->1)"}
    # not even the clustered level-0 and level-1 norms, whose dense Gram
    # reads the real form's rows from the symbol
    assert built == []


@pytest.mark.parametrize("N", [3, 16])
@pytest.mark.parametrize("shape", [(), (2, 2), (3, 3)], ids=["scalar", "n2", "n3"])
def test_toeplitz_rows_are_the_rows_of_the_matrix(shape, N):
    factor = np.random.default_rng(N).normal(size=(default_grid_points(N), *shape))
    full = multiplication_matrix(factor, N)
    symbol = multiplication_symbol(factor, N)
    n = shape[0] if shape else 1
    for start, stop in [(0, 2 * N + 1), (N, N + 1), (1, N), (N, 2 * N + 1)]:
        rows = toeplitz_rows(symbol, N, start, stop).reshape((stop - start) * n, -1)
        assert np.array_equal(_bits(rows), _bits(full[start * n : stop * n]))


def _random_structured(kind, N, n, seed, grid=default_grid_points):
    """A factor-only, blocks-only or factor+blocks operator with random entries, annotated 1 -> 0."""
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(grid(N), n, n)) if "factor" in kind else None
    blocks = None
    if "blocks" in kind:
        b = rng.normal(size=(2 * N + 1, n, n)) + 1j * rng.normal(size=(2 * N + 1, n, n))
        blocks = 0.5 * (b + np.conj(b[::-1]))  # mirrored bit for bit: block -k is conj(block k)
    return LevelOperator(None, 1.0, 0.0, N, n, factor=factor, blocks=blocks)


REAL_FORM_LEVELS = [(0.0, 0.0), (1.0, 1.0), (-1.0, -1.0), (1.0, 0.0), (0.75, 0.25)]


@pytest.mark.parametrize("kind", ["factor", "blocks", "factor+blocks"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("N", [16, 64])
def test_real_form_from_the_structure_is_the_matrix_rows_bit_for_bit(kind, n, N):
    T = _random_structured(kind, N, n, seed=10 * N + n)
    built = T.with_levels(T.dom, T.cod)
    built.matrix  # built on this copy only, so its real form reads the rows of .matrix
    for a, b in REAL_FORM_LEVELS:
        assert np.array_equal(_bits(_real_form(T, a, b)), _bits(_real_form(built, a, b))), (a, b)
    assert "matrix" not in vars(T)
    for a, b in REAL_FORM_LEVELS:
        assert op_norm(T, a, b) == op_norm(built, a, b), (a, b)
        sv = weighted_singular_values(T, a, b)
        assert np.array_equal(_bits(sv), _bits(weighted_singular_values(built, a, b))), (a, b)
    assert "matrix" not in vars(T)  # neither op_norm nor weighted_singular_values built it


def _assert_structured(*ops):
    for T in ops:
        assert T.factor is not None or T.blocks is not None, T
        assert "matrix" not in vars(T), T


@pytest.mark.parametrize("kind", ["factor", "blocks", "factor+blocks"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("grid", GRIDS, ids=["default", "odd", "minimum"])
@pytest.mark.parametrize("N", [4, 16, 64])
def test_apply_sums_and_level_zero_adjoint_keep_the_structure(kind, n, grid, N):
    T = _random_structured(kind, N, n, seed=10 * N + n, grid=grid)
    S = _random_structured(kind, N, n, seed=10 * N + n + 5, grid=grid)
    c = random_loop(np.random.default_rng(N), n, N, top_mode=N)
    y = T.apply(c).flat_coeffs()
    total, diff, adj = T + S, T - S, adjoint(T, 0.0)
    _assert_structured(T, S, total, diff, adj)  # none of them built .matrix
    assert (adj.dom, adj.cod) == (T.cod, T.dom)

    m, ms = T.matrix, S.matrix
    scale = max(float(np.max(np.abs(m))), float(np.max(np.abs(ms))))
    assert np.max(np.abs(y - m @ c.flat_coeffs())) <= 1e-14 * float(np.max(np.abs(m)))
    assert np.max(np.abs(total.matrix - (m + ms))) <= 4 * np.finfo(float).eps * scale
    assert np.max(np.abs(diff.matrix - (m - ms))) <= 4 * np.finfo(float).eps * scale
    # the dense level-0 adjoint; equal, but not bit for bit: the conjugation flips signs of zeros
    dense = adjoint(LevelOperator(m, T.dom, T.cod, N, n), 0.0)
    assert np.array_equal(adj.matrix, dense.matrix)


def test_dense_operands_other_grids_products_and_other_levels_stay_dense():
    N, n = 16, 2
    T = _random_structured("factor+blocks", N, n, seed=1)
    odd = _random_structured("factor", N, n, seed=2, grid=GRIDS[1])
    dense = LevelOperator(_random_structured("factor", N, n, seed=3).matrix, 1.0, 0.0, N, n)
    inclusion = identity_operator(N, n, 1.0, 1.0)
    w = _flat_weights(N, n, 1.0)
    cases = [
        (T + dense, lambda: T.matrix + dense.matrix),
        (T - odd, lambda: T.matrix - odd.matrix),
        (T @ inclusion, lambda: T.matrix @ inclusion.matrix),
        (adjoint(T, 1.0), lambda: (T.matrix.conj().T * w[None, :]) / w[:, None]),
    ]
    for op, parent in cases:
        assert op.factor is None and op.blocks is None
        ref = LevelOperator(parent(), op.dom, op.cod, N, n)
        assert np.array_equal(_bits(op.matrix), _bits(ref.matrix))


def test_axioms_leibniz_and_pulled_back_gradient_build_no_matrix(monkeypatch):
    built = []
    materialize = LevelOperator.__getattr__

    def recording(self, name):
        if name == "matrix":
            built.append(repr(self))
        return materialize(self, name)

    monkeypatch.setattr(LevelOperator, "__getattr__", recording)
    rng = np.random.default_rng(5)
    shear = SuperpositionMap(shear_chart(), 0.75, 32)
    rotation = SuperpositionMap(rotation_field_chart(0.5), 0.75, 32)
    q, xi, eta = (random_loop(rng, 2, 32, amplitude=0.4) for _ in range(3))
    reports = verify_floer_axioms(shear, [q, xi], (16, 32), hopm={"restarts": 1, "iters": 20})
    assert [r.axiom for r in reports] == ["(i)1", "(i)2", "(ii)1", "(ii)2"]
    rep = leibniz_check(rotation, shear, q, xi, eta)
    assert all(np.isfinite(rep["residuals"]))
    F = symplectic_action(quadratic_hamiltonian(), 32)
    grad = pull_back_gradient(F, shear, q)
    assert grad.N == 32
    assert built == []


def _kappa_correction(N, seed, s=0.75):
    F = symplectic_action(quadratic_hamiltonian(), N)
    phi = SuperpositionMap(shear_chart(), s, N)
    q = random_loop(np.random.default_rng(seed), 2, N, amplitude=0.4)
    return riesz_correction(F, phi, q, s).with_levels(1.0 + s, 1.0)


def _svd_top(T):
    return np.linalg.svd(_real_form(T, T.dom, T.cod), compute_uv=False)[0]


def _assert_certified_against_svd(T):
    top = _certified_top_eigenvalue(T, T.dom, T.cod)
    assert top is not None
    norm = op_norm(T)
    assert norm == float(np.sqrt(top))
    assert "matrix" not in vars(T)  # the certificate came from the symbol alone
    oracle = _svd_top(T)
    assert norm >= oracle * (1.0 - 1e-15)
    assert abs(norm - oracle) <= 1e-13 * oracle


# a dense SVD at N = 512 takes about 2 s, so that row keeps three seeds
@pytest.mark.parametrize("N, seeds", [(16, range(12)), (64, range(12)), (512, (0, 3, 8))])
def test_fft_certified_correction_norm_matches_the_dense_svd(N, seeds):
    for seed in seeds:
        K2 = _kappa_correction(N, seed)
        assert K2.factor is not None and K2.blocks is None
        _assert_certified_against_svd(K2)


@pytest.mark.parametrize("N", [16, 64, 512])
def test_fft_certified_multiplication_norm_at_the_dual_signature(N):
    _assert_certified_against_svd(mult_operator(smooth_factor(N), "(-1,1->-1)"))


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("levels", [(1.75, 1.0), (2.0, 1.0)])
def test_fft_adjoint_multiplies_by_the_transposed_factor(N, levels):
    # the shear Jacobian is not symmetric, so g(t) in place of g(t)^H breaks A^H
    q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.4)
    D = dphi(SuperpositionMap(shear_chart(), 0.75, N), q)
    assert np.max(np.abs(D.factor - D.factor.transpose(0, 2, 1))) > 0.5
    _assert_certified_against_svd(D.with_levels(*levels))


@pytest.mark.parametrize("N", [16, 64, 512])
def test_level_zero_multiplication_falls_through_to_the_dense_gram(monkeypatch, N):
    # a clustered top: both screens hand it to the Gram without a power step
    steps = []
    monkeypatch.setattr(scale_operator, "_kato_temple", lambda *args: steps.append(args))
    T = mult_operator(smooth_factor(N), "(1,0->0)")
    assert _certified_top_eigenvalue(T, T.dom, T.cod) is None
    assert op_norm(T) == _gram_norm(T, T.dom, T.cod)
    assert steps == []
