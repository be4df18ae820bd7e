"""Structured weighted SVDs and op_norm agree with the dense complex SVD they replace."""

import numpy as np
import pytest

from floerlab import scale_operator
from floerlab.charts import shear_chart
from floerlab.floer_function import (
    driven_hamiltonian,
    quadratic_hamiltonian,
    standard_symplectic_matrix,
    symplectic_action,
)
from floerlab.floer_map import apply, dphi
from floerlab.loop_atlas import loops_in_chart, sphere_small_loop_atlas, transition
from floerlab.pullback import riesz_correction
from floerlab.scale_operator import (
    LevelOperator,
    _dense_top,
    _gram_top,
    _kato_temple,
    _mode_blocks,
    adjoint,
    derivative_operator,
    identity_operator,
    op_norm,
    weighted_singular_values,
)
from floerlab.scale_space import (
    REALITY_RTOL,
    default_grid_points,
    grid_times,
    mode_numbers,
    multiplication_matrix,
    random_loop,
    to_grid,
    weights,
)
from floerlab.sobolev_evidence import mult_operator, rough_factor, smooth_factor
from oracles import _gram_norm, _matrix_free_alone, min_grid_points, weighted_matrix
from test_scale_operator import _reality_preserving

LEVEL_PAIRS = [(1.0, 0.0), (-1.0, 2.0), (2.0, -1.0), (0.5, 0.5)]


def _path(T):
    return "block" if _mode_blocks(T) is not None else "real"


def _mirror(N, n):
    return np.arange((2 * N + 1) * n).reshape(2 * N + 1, n)[::-1].ravel()


def _riesz(N, seed):
    F = symplectic_action(driven_hamiltonian())
    phi = shear_chart()
    q = random_loop(np.random.default_rng(seed), 2, N, amplitude=0.4)
    return riesz_correction(F, phi, q)


def _composed_factors(N, seed):
    # the pullback's conjugated term: products round differently at mirrored entries
    F = symplectic_action(driven_hamiltonian())
    phi = shear_chart()
    q = random_loop(np.random.default_rng(seed), 2, N, amplitude=0.4)
    D = dphi(phi, q)
    return adjoint(D), F.hessian(apply(phi, q)), D


def _composed(N, seed):
    left, middle, right = _composed_factors(N, seed)
    return left @ middle @ right


# kinds: block-diagonal, multiplication, and "complex", dense operators with
# complex entries; the last two are real by construction and take the real path
CASES = [
    ("block", lambda N: identity_operator(N, 1)),
    ("block", lambda N: identity_operator(N, 2)),
    ("block", lambda N: derivative_operator(N, 1)),
    ("block", lambda N: derivative_operator(N, 2)),
    ("real", lambda N: mult_operator(smooth_factor(N))),
    ("real", lambda N: mult_operator(rough_factor(N))),
    ("real", lambda N: _riesz(N, 3)),
    ("complex", lambda N: _reality_preserving(np.random.default_rng(4), N, 1)),
    ("complex", lambda N: _reality_preserving(np.random.default_rng(5), N, 2)),
    ("complex", lambda N: _composed(N, 6)),
]


@pytest.mark.parametrize("N", [4, 16, 48])
@pytest.mark.parametrize("kind, build", CASES)
def test_structured_paths_match_dense_svd(kind, build, N):
    T = build(N)
    for a, b in LEVEL_PAIRS:
        assert _path(T) == ("block" if kind == "block" else "real")
        sv = weighted_singular_values(T, a, b)
        oracle = np.linalg.svd(weighted_matrix(T, a, b), compute_uv=False)
        assert sv.shape == oracle.shape
        assert np.all(np.diff(sv) <= 0.0)
        assert np.max(np.abs(sv - oracle)) <= 1e-13 * oracle[0]


@pytest.mark.parametrize("N", [4, 16, 48])
@pytest.mark.parametrize("kind, build", CASES)
def test_op_norm_matches_dense_svd(kind, build, N):
    # (1.75, 1) are the levels the kappa check reads riesz_correction at, s = 0.75
    T = build(N)
    for a, b in LEVEL_PAIRS + [(1.75, 1.0)]:
        assert _path(T) == ("block" if kind == "block" else "real")
        oracle = np.linalg.svd(weighted_matrix(T, a, b), compute_uv=False)[0]
        assert abs(op_norm(T, a, b) - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("N", [4, 16, 48])
def test_composed_product_keeps_the_raw_singular_values(N):
    # mirroring the rounded product away moves its singular values at roundoff only
    left, middle, right = _composed_factors(N, 6)
    raw = left.matrix @ middle.matrix @ right.matrix
    rev = _mirror(N, 2)
    assert not np.array_equal(raw[np.ix_(rev, rev)], raw.conj())  # the raw product is not mirrored
    T = _composed(N, 6)
    wa, wb = (np.repeat(np.sqrt(weights(N, s)), 2) for s in (1.0, 0.0))
    oracle = np.linalg.svd(wb[:, None] * raw / wa[None, :], compute_uv=False)
    sv = weighted_singular_values(T, 1.0, 0.0)
    assert np.max(np.abs(sv - oracle)) <= 1e-13 * oracle[0]


@pytest.mark.parametrize("N, n", [(4, 1), (16, 2)])
def test_op_norm_of_zero_operator_is_exactly_zero(N, n):
    d = (2 * N + 1) * n
    zero = LevelOperator(np.zeros((d, d)), N, n)
    for a, b in LEVEL_PAIRS:
        assert op_norm(zero, a, b) == 0.0


# the levels H_{1+s} -> H_1, s = 0.75, at which the kappa check reads the Riesz correction
KAPPA_LEVELS = (1.75, 1.0)


def _kappa_correction(N, seed):
    F = symplectic_action(quadratic_hamiltonian())
    phi = shear_chart()
    q = random_loop(np.random.default_rng(seed), 2, N, amplitude=0.4)
    return riesz_correction(F, phi, q)


@pytest.mark.parametrize("N", [16, 64, 128])
def test_correction_is_certified_and_multiplication_is_not(N):
    K = _kappa_correction(N, 1)
    assert _matrix_free_alone(K, *KAPPA_LEVELS) is not None
    # the top of a multiplication operator's spectrum is a cluster near sup |g|;
    # at level 0 this one's symbol is degree one, and its norm is the closed
    # form of the tridiagonal Toeplitz matrix, 2 + cos(pi / (2N + 2))
    T = mult_operator(smooth_factor(N))
    assert _matrix_free_alone(T, 0.0, 0.0) is None
    exact = 2.0 + np.cos(np.pi / (2 * N + 2))
    assert abs(op_norm(T, 0.0, 0.0) - exact) <= 4 * np.finfo(float).eps * exact


def test_second_singular_value_does_not_pass_for_the_first():
    # sigma = (10, 9, small...) with the top right singular vector orthogonal
    # to the constant start: the iteration settles on 9, where 2 theta < F
    N, n = 8, 2
    d = (2 * N + 1) * n
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(np.column_stack([np.ones(d), rng.normal(size=(d, d - 1))]))
    V = Q.astype(complex)
    V[:, [0, 2]] = np.column_stack([Q[:, 0] + Q[:, 2], Q[:, 0] - Q[:, 2]]) / np.sqrt(2.0)
    V = V[:, [1, 0, 2, *range(3, d)]]  # v1 = Q[:, 1] is orthogonal to the constant vector
    U, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    sigma = np.concatenate([[10.0, 9.0], 1e-3 * rng.uniform(size=d - 2)])
    M = (U * sigma) @ V.conj().T
    assert abs(np.vdot(np.ones(d), V[:, 0])) < 1e-12
    mod = np.abs(M)
    frob = float(np.vdot(mod, mod).real)
    assert mod.sum(axis=1).max() * mod.sum(axis=0).max() > frob / 2  # not screened out
    start = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    assert _kato_temple(frob, np.inf, lambda x: M @ x, lambda y: M.conj().T @ y, start) is None

    # on a real form: R = 10 e_0 v^T + 9 e_1 e_2^T, with v = (e_0 - e_1)/sqrt(2)
    # orthogonal to the constant start, and F = 100 + 81.  Deleting row 0 or
    # column 2 leaves sigma = 9, so the one-deletion bound on lambda_2 is 81,
    # and the iteration, which settles on 81, certifies nothing; deleting
    # both would leave 0 and pass 9 off as the top
    R = np.zeros((d, d))
    R[0, :2] = 10.0 / np.sqrt(2.0), -10.0 / np.sqrt(2.0)
    R[1, 2] = 9.0
    assert _dense_top(R, 181.0, 81.0) is None
    assert _dense_top(R, 181.0, 0.0) == pytest.approx(81.0, rel=1e-13)
    assert _gram_top(R) == pytest.approx(10.0, rel=1e-15)


@pytest.mark.parametrize("N", [16, 32])
def test_stalled_power_iteration_gives_up_early(monkeypatch, N):
    # dphi of the north-south transition read at (-1, -1) passes the screen,
    # but its top is a cluster, so 2 theta > F never holds; theta settles
    # within three steps and the path must hand over then, not at the step cap
    atlas = sphere_small_loop_atlas(s=0.75)
    north, south = atlas.chart("north"), atlas.chart("south")
    q = loops_in_chart(atlas.corpus, north, N, also_in=(south,))[0]
    T = dphi(transition(atlas, "north", "south", N), q)
    matvecs = []
    kato_temple = scale_operator._kato_temple

    def counting(frob, second, forward, backward, x):
        return kato_temple(
            frob, second, lambda x: matvecs.append(x) or forward(x), lambda y: matvecs.append(y) or backward(y), x
        )

    monkeypatch.setattr(scale_operator, "_kato_temple", counting)
    monkeypatch.setattr(scale_operator, "_CERT_STEPS", 1000)
    assert _matrix_free_alone(T, -1.0, -1.0) is None
    assert 0 < len(matvecs) <= 8  # FFT matvecs, by A and by A^H
    assert "matrix" not in vars(T)
    assert op_norm(T, -1.0, -1.0) == _gram_norm(T, -1.0, -1.0)


@pytest.mark.parametrize("N", [16, 64, 128])
def test_certified_norm_is_never_below_the_dense_one(N):
    for seed in range(12):
        K = _kappa_correction(N, seed)
        norm = op_norm(K, *KAPPA_LEVELS)
        oracle = np.linalg.svd(weighted_matrix(K, *KAPPA_LEVELS), compute_uv=False)[0]
        for dense in (oracle, _gram_norm(K, *KAPPA_LEVELS)):
            assert norm >= dense * (1.0 - 1e-15)
            assert abs(norm - dense) <= 1e-13 * dense


def test_real_form_spans_several_row_blocks():
    # d = 1050 exceeds the fixed row block, so the blocked assembly is exercised
    T = mult_operator(rough_factor(262))
    sv = weighted_singular_values(T, 2.0, -1.0)
    oracle = np.linalg.svd(weighted_matrix(T, 2.0, -1.0), compute_uv=False)
    assert _path(T) == "real"
    assert np.max(np.abs(sv - oracle)) <= 1e-13 * oracle[0]


def test_broken_mirror_entry_is_mirrored_away_or_rejected():
    T = mult_operator(smooth_factor(8))
    # a matrix that is mirrored bit for bit comes back with the same bits
    same = LevelOperator(T.matrix, 8, 1).matrix
    assert np.array_equal(same.view(np.uint64), T.matrix.view(np.uint64))
    m = T.matrix.copy()
    m[3, 5] += 1e-15
    healed = LevelOperator(m, 8, 1).matrix
    rev = _mirror(8, 1)
    assert np.array_equal(healed[np.ix_(rev, rev)], healed.conj())
    assert np.max(np.abs(healed - T.matrix)) <= 1e-15
    # just inside the tolerance is mirrored too; beyond it the constructor refuses
    scale = max(float(np.max(np.abs(T.matrix))), 1.0)
    for step, accepted in ((0.5, True), (2.0, False)):
        broken = T.matrix.copy()
        broken[3, 5] += step * REALITY_RTOL * scale
        if accepted:
            LevelOperator(broken, 8, 1)
        else:
            with pytest.raises(ValueError, match="reality structure"):
                LevelOperator(broken, 8, 1)


@pytest.mark.parametrize("N", [5, 8, 33])
@pytest.mark.parametrize("grid", [default_grid_points, min_grid_points, lambda N: 2 * N + 1, lambda N: 2 * N + 2])
def test_multiplication_matrix_commutes_with_reality_structure(N, grid):
    G = grid(N)
    rng = np.random.default_rng(N)
    scalar = to_grid(random_loop(rng, 1, N, top_mode=N), G)[:, 0]
    matrix = rng.normal(size=(G, 2, 2))
    for values, n in ((scalar, 1), (matrix, 2)):
        M = multiplication_matrix(values, N)
        rev = _mirror(N, n)
        assert np.array_equal(M[np.ix_(rev, rev)], M.conj())


@pytest.mark.parametrize("N", [4, 16, 64])
def test_constant_factor_has_exact_symbol(N):
    G = default_grid_points(N)
    scalar = np.full(G, 0.1)
    matrix = np.broadcast_to(np.array([[0.3, -1.7], [2.9, 1.0 / 3.0]]), (G, 2, 2))
    modes = np.arange(2 * N + 1)
    for values, n in ((scalar, 1), (matrix, 2)):
        blocks = multiplication_matrix(values, N).reshape(2 * N + 1, n, 2 * N + 1, n).copy()
        # the mode blocks carry the value itself, without rfft roundoff
        diag = blocks[modes, :, modes, :]
        assert np.array_equal(diag, np.broadcast_to(values[0].reshape(n, n), diag.shape))
        blocks[modes, :, modes, :] = 0.0
        assert np.count_nonzero(blocks) == 0


def _gather_reference(values, N):
    # the former assembly: the full (M, M, n, n) gather, transposed and copied
    G, n = values.shape[0], values.shape[1]
    half = np.fft.rfft(values, axis=0) / G
    fhat = np.concatenate([half, np.conj(half[1 : G - G // 2][::-1])])
    k = mode_numbers(N)
    blocks = fhat[(k[:, None] - k[None, :]) % G]
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape((2 * N + 1) * n, (2 * N + 1) * n)


@pytest.mark.parametrize("N, n", [(5, 2), (16, 3)])
def test_blockwise_assembly_is_bit_identical_to_the_gather(N, n):
    values = np.random.default_rng(N).normal(size=(default_grid_points(N), n, n))
    new, old = multiplication_matrix(values, N), _gather_reference(values, N)
    assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


def _kron_assembly(H, N, q):
    J0 = standard_symplectic_matrix(H.dim)
    G = default_grid_points(N)
    k = mode_numbers(N).astype(float)
    well = multiplication_matrix(H.hess_x(grid_times(G), to_grid(q, G)), N)
    return np.kron(np.diag(2j * np.pi * k), J0) - well


@pytest.mark.parametrize("N", [16, 64])
@pytest.mark.parametrize("H", [quadratic_hamiltonian(), driven_hamiltonian()], ids=["quadratic", "driven"])
def test_action_hessian_is_exactly_block_diagonal(H, N):
    q = random_loop(np.random.default_rng(N), 2, N, amplitude=0.5)
    A = symplectic_action(H).hessian(q)
    assert _mode_blocks(A) is not None
    if N == 16:
        old = _kron_assembly(H, N, q)
        assert np.array_equal(A.matrix, old)
        # bit for bit wherever the entry is nonzero; 0 - 0 and -(0) differ only in the sign of zero
        nonzero = old.view(float) != 0.0
        assert np.array_equal(A.matrix.view(np.uint64)[nonzero], old.view(np.uint64)[nonzero])
