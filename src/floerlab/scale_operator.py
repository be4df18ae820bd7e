"""Operators on the truncated coefficient space, read between levels of the scale.

A LevelOperator is one linear map, as an sc-operator is one map that
restricts to every level (Hofer, Wysocki and Zehnder, Polyfold and
Fredholm Theory, 2021): every norm or singular value names the level
pair (a, b) it reads it at.  An operator acts on mode-major coefficient
vectors and commutes with the reality structure c_k -> conj(c_{-k}),
which the LevelOperator constructor enforces: its matrix is the
complexification of a real operator on real loops, real in the
cosine/sine basis, so its singular values, norms and kernel dimensions
are those of that real operator, which is what all diagnostics report.

A LevelOperator keeps the structure its producer knows, and all operator
arithmetic on it is here.  Multiplication operators
(sobolev_evidence.mult_operator, floer_map.dphi, the Riesz correction of
pullback) hold the real grid samples of their factor, shape (G, n, n),
and its symbol g(m), m = -2N..2N; mode-block operators (identity_operator,
derivative_operator) hold (2N+1, n, n) diagonal blocks; the action
Hessian holds both.  Which path reads what:

- apply and the matrix-free op_norm's matvecs: _matvec, the factor's
  samples on its own grid through the real grid bridge, plus the blocks;
- + and - of structured operators whose factors share a grid, and the
  level-0 adjoint: the factors and blocks, into a structured result;
- the mode-block test and a multiplication operator's op_norm bounds:
  symbol and blocks;
- the real form, so every SVD and Gram: rows from _mode_rows, the rows
  of .matrix bit for bit without building it;
- .matrix, the dense complex matrix built on first read and kept: @,
  + and - with a dense operand or factors on two grids, and the adjoint
  of a dense operator.  Their results are dense, mirrored by the
  constructor.

Norms between levels are weighted: op_norm(T, a, b) is the largest
singular value of W_b^{1/2} T W_a^{-1/2} with W_s the diagonal spectral
weight.  Because the weight family is exactly geometric in s, the
Stein-Weiss interpolation inequality holds for every matrix, and the
level-1/level-(-1) duality is an exact diagonal isometry.

weighted_singular_values takes one of two paths, each giving the
singular values of the dense weighted matrix:

1. Mode-block-diagonal (every entry outside the n x n blocks of equal
   mode is exactly 0: the inclusion, d/dt, the quadratic-well action
   Hessian).  The weighted matrix is then block diagonal, and its
   singular values are the union of those of the 2N+1 weighted blocks.
2. Any other operator.  Its matrix satisfies X[rev][:, rev] == conj(X),
   rev the flat permutation (k, i) -> (-k, i), so the unitary change to
   the cosine/sine basis makes it real, and that change commutes with
   the weights because they depend only on |k|; a unitary change of
   basis keeps the singular values, so a real SVD, at about half the
   cost of a complex one, gives them.

op_norms(T, pairs) reads one operator at several level pairs, and
op_norm(T, a, b) is its one-pair call.  It needs only sigma_max.
Mode-block-diagonal operators take the block path.  A (0, 0) pair of a
pure scalar multiplication operator (a factor, no blocks, n = 1) whose
symbol g is degree one up to roundoff takes a closed form
(_tridiagonal_top): the operator is then a Hermitian tridiagonal
Toeplitz matrix plus a tail E, the entries 2 <= |m| <= 2N, and

    sigma_max = |g(0)| + 2 |g(1)| cos(pi / (2N+2)),

within ||E|| + O(eps) sigma_max by Weyl's inequality, where ||E|| is at
most the sum of the tail's moduli; the path is taken only when that
sum is at most (2N+1) eps sigma_max, the error scale of an eigensolve
of the level-0 form.  The other pairs of the call take the paths that
follow.

A pair of a pure multiplication operator may be certified by a power
iteration on A^H A, A the weighted matrix, whose Rayleigh quotient
theta and residual r give the Kato-Temple bracket

    theta <= sigma_max^2 <= theta + |r|^2 / (theta - alpha),

valid as soon as theta > alpha, where alpha bounds every other
eigenvalue of A^H A (Parlett, The Symmetric Eigenvalue Problem, section
10.5): alpha = min(F - theta, second), F = ||A||_F^2 and second an upper
bound on sigma_2^2.  The path accepts a bracket a few ulps wide and
returns the square root of its upper end, so a check such as ||K|| <=
kappa stays evidence; the matvecs that compute theta and r round at the
O(eps) relative level of the dense path.

For a pure multiplication operator (a factor, no blocks) every bound
comes from the symbol, with no d x d array (_symbol_pass): F, the
screen ||A||_1 ||A||_inf >= sigma_max^2, a lower bound on sigma_max^2
(the largest squared row or column norm) and second, the ||.||_1
||.||_inf bound of A with its heaviest row or column deleted.  A pair
whose screen is at most F/2 and whose lower bound is at most min(F -
lower, second) is a clustered top (multiplication operators at level 0,
whose singular values crowd near sup |g|) and skips the iteration.  Any
other operator (dense, or a factor with blocks) has no symbol screen.
op_norms reads its pairs in order.  While no real form exists, an
admitted pair iterates matrix-free, applying A and A^H by _matvec.  The
first pair that is not admitted, that stalls, or that has no screen
builds the one level-free _cos_sin_form of T, and from it on every pair
is weighed from that form into the real form R: an admitted pair
iterates on R with dense matvecs, and the others, clustered tops, every
top the bounds cannot separate, a stalled pair and every pair of those
other operators, take the top eigenvalue of the form's Gram matrix
R^T R, the reference the other paths are tested against: its absolute
error is O(eps sigma_max^2) in sigma_max^2, so its relative error in
sigma_max is O(eps), as exact as the SVD's.

The Gram's error swamps any sigma^2 below about eps sigma_max^2, so
sigma_min, gaps and kernel counts would lose half their digits;
weighted_singular_values keeps its SVDs.

The closed form reads only the 4N+1 symbol entries, and the
matrix-free path holds no d x d array, d = (2N+1)n; a call whose pairs
all take them builds no real form.  The paths on the form hold at their
peak the level-free form, weighed in place for the last pair, and for
the pairs before it one weighed form, whose top is read before the next
pair is weighed.  The iterations on R add nothing of size d x d; the
Gram adds R^T R and eigvalsh's working copy of it.

Truncation certifies boundedness only as an N-sweep that stabilizes.
sweep_verdict is the one rule every sweep in the package is read by:
stable, growing, unstable, or insufficient when the sweep has fewer
than two truncations.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .scale_space import (
    REALITY_RTOL,
    FourierLoop,
    check_level,
    grid_samples,
    half_spectrum,
    mode_numbers,
    multiplication_symbol,
    toeplitz_rows,
    weights,
)

# Relative singular-value threshold separating numerical kernel from gap.
KERNEL_RTOL = 1e-8

# A sweep is stable when its trailing half sits within this of its final value.
STABLE_RTOL = 0.05

# Rows per step of the real cosine/sine form (rounded down to whole modes)
# and of the reality check on construction; bounds their temporaries.
_ROW_BLOCK = 64
_SQRT2 = np.sqrt(2.0)
_EPS = np.finfo(float).eps

# Power steps a certified op_norm path may take before it gives up (sized
# in _kato_temple), the relative width of the Kato-Temple bracket it
# accepts, and the relative gain per step below which theta counts as stalled.
_CERT_STEPS = 40
_CERT_RTOL = 4 * _EPS
_CERT_STALL = 1e-3


class LevelOperator:
    """Linear operator on the (2N+1)n coefficients, read at any level pair.

    LevelOperator(matrix, N, n) is dense.  Every operator
    commutes with the reality structure c_k -> conj(c_{-k}): the
    constructor raises ValueError where a dense X and its mirror
    conj(X[rev][:, rev]), rev the flat mode reversal, differ by more than
    REALITY_RTOL max(max |X|, 1), and stores 0.5 (X + mirror), mirrored
    bit for bit (a mirrored X keeps its values).  A structured operator
    passes None for the matrix and keeps factor, the real grid samples
    (G, n, n), G >= 2N+1, of a multiplication operator, and/or blocks,
    complex (2N+1, n, n) mode blocks on the diagonal, which the producers
    give mirrored (block -k is conj(block k)).  Its symbol, mirrored bit
    for bit, is computed once; .matrix, the Toeplitz matrix of the symbol
    (the factor's multiplication_matrix, bit for bit) plus the blocks, is
    built from the stored symbol by _mode_rows when first read and kept,
    and apply, + and - on one grid and the adjoint never read it.
    Immutable.
    """

    def __init__(
        self,
        matrix: np.ndarray | None,
        N: int,
        n: int,
        *,
        factor: np.ndarray | None = None,
        blocks: np.ndarray | None = None,
    ):
        M, d = 2 * N + 1, (2 * N + 1) * n
        fields = dict(N=N, n=n, factor=None, symbol=None, blocks=None)
        if matrix is not None:
            if factor is not None or blocks is not None:
                raise ValueError("a dense operator carries no factor or blocks")
            m = np.asarray(matrix, dtype=complex)
            if m.shape != (d, d):
                raise ValueError(f"matrix shape {m.shape} does not match d={d}")
            mirror = np.conj(m.reshape(M, n, M, n)[::-1, :, ::-1, :]).reshape(d, d)
            scale, defect = 1.0, 0.0
            for r0 in range(0, d, _ROW_BLOCK):
                rows = slice(r0, r0 + _ROW_BLOCK)
                scale = max(scale, float(np.max(np.abs(m[rows]))))
                defect = max(defect, float(np.max(np.abs(m[rows] - mirror[rows]))))
            if defect > REALITY_RTOL * scale:
                raise ValueError("matrix does not commute with the reality structure c_k -> conj(c_{-k})")
            mirror += m
            mirror *= 0.5
            fields["matrix"] = mirror
        elif factor is None and blocks is None:
            raise ValueError("an operator needs a matrix, a factor or blocks")
        if factor is not None:
            factor = np.asarray(factor, dtype=float)
            if factor.ndim != 3 or factor.shape[1:] != (n, n):
                raise ValueError(f"factor shape {factor.shape} is not (G, {n}, {n})")
            fields.update(factor=factor, symbol=multiplication_symbol(factor, N))
        if blocks is not None:
            blocks = np.asarray(blocks, dtype=complex)
            if blocks.shape != (M, n, n):
                raise ValueError(f"blocks shape {blocks.shape} is not ({M}, {n}, {n})")
            fields["blocks"] = blocks
        self.__dict__.update(fields)

    def __setattr__(self, name, value):
        raise AttributeError("LevelOperator is immutable")

    def __getattr__(self, name):
        # Python looks here only for names missing from the instance dict,
        # which for .matrix means it is not built yet
        if name != "matrix":
            raise AttributeError(name)
        m = _mode_rows(self, 0, 2 * self.N + 1)
        self.__dict__["matrix"] = m
        return m

    def __repr__(self) -> str:
        parts = [p for p in ("factor", "blocks") if self.__dict__[p] is not None] or ["dense"]
        return f"LevelOperator({'+'.join(parts)}, N={self.N}, n={self.n})"

    def apply(self, u: FourierLoop) -> FourierLoop:
        return FourierLoop(_matvec(self, u.flat_coeffs()).reshape(2 * self.N + 1, self.n))

    def __matmul__(self, other: "LevelOperator") -> "LevelOperator":
        if (self.N, self.n) != (other.N, other.n):
            raise ValueError("operator sizes do not match")
        return LevelOperator(self.matrix @ other.matrix, self.N, self.n)

    def __add__(self, other: "LevelOperator") -> "LevelOperator":
        return self._combine(other, np.add)

    def __sub__(self, other: "LevelOperator") -> "LevelOperator":
        return self._combine(other, np.subtract)

    def _combine(self, other: "LevelOperator", op) -> "LevelOperator":
        if (self.N, self.n) != (other.N, other.n):
            raise ValueError("operator sizes do not match")
        f, g = self.factor, other.factor
        if _dense(self) or _dense(other) or not (f is None or g is None or f.shape == g.shape):
            return LevelOperator(op(self.matrix, other.matrix), self.N, self.n)
        parts = {}  # both structured, factors on one grid: combine the factors and the blocks
        for key in ("factor", "blocks"):
            a, b = getattr(self, key), getattr(other, key)
            parts[key] = a if b is None else op(np.zeros_like(b) if a is None else a, b)
        return LevelOperator(None, self.N, self.n, **parts)


def _dense(T: LevelOperator) -> bool:
    return T.factor is None and T.blocks is None


def _matvec(T: LevelOperator, x: np.ndarray) -> np.ndarray:
    """T x for a flat x; a structured T needs x mirrored, and so is T x.

    A dense T multiplies by its matrix.  A structured one reads the modes
    0..N of x, multiplies by the factor on its own grid through the real
    bridge (the circular convolution .matrix holds) and applies the blocks.
    """
    if _dense(T):
        return T.matrix @ x
    N, n = T.N, T.n
    half = x.reshape(2 * N + 1, n)[N:]
    y = np.zeros((N + 1, n), dtype=complex)
    if T.factor is not None:
        y += half_spectrum(np.einsum("gij,gj->gi", T.factor, grid_samples(half, T.factor.shape[0])), N)
    if T.blocks is not None:
        y += np.einsum("kij,kj->ki", T.blocks[N:], half)
    return np.concatenate([np.conj(y[:0:-1]), y]).ravel()


def _add_blocks(T: LevelOperator, rows: np.ndarray, start: int) -> None:
    """Put T's mode blocks, if any, on the diagonal of rows, in place.

    rows, shape (k, n, 2N+1, n), holds T's rows of the modes start..start+k-1
    (mode indices, 0 is mode -N); the blocks are added to the factor's
    entries, or written where T has no factor.
    """
    if T.blocks is None:
        return
    modes = np.arange(start, start + rows.shape[0])
    if T.factor is None:
        rows[modes - start, :, modes, :] = T.blocks[modes]
    else:
        rows[modes - start, :, modes, :] += T.blocks[modes]


def _mode_rows(T: LevelOperator, start: int, stop: int) -> np.ndarray:
    """Rows of the modes start..stop-1 (mode indices, 0 is mode -N) of T.matrix, flat.

    A built matrix is sliced.  Otherwise the rows come from the
    structure the way .matrix is built: the factor's are the strided copy
    of the symbol's windows that multiplication_matrix makes, and the
    blocks are added on the diagonal with the same +=, so they are the
    same numbers bit for bit and the matrix is never built.
    """
    M, n = 2 * T.N + 1, T.n
    if "matrix" in T.__dict__:
        return T.matrix[start * n : stop * n]
    if T.symbol is not None:
        rows = toeplitz_rows(T.symbol, T.N, start, stop)
    else:
        rows = np.zeros((stop - start, n, M, n), dtype=complex)
    _add_blocks(T, rows, start)
    return rows.reshape((stop - start) * n, M * n)


def _flat_weights(N: int, n: int, s: float) -> np.ndarray:
    return np.repeat(weights(N, s), n)


def identity_operator(N: int, n: int) -> LevelOperator:
    """The identity on coefficients; read at (a, b), a > b, it is the inclusion H_a -> H_b.

    Held as its mode blocks; the block paths never build the matrix.
    """
    blocks = np.broadcast_to(np.eye(n, dtype=complex), (2 * N + 1, n, n))
    return LevelOperator(None, N, n, blocks=blocks)


def inclusion_singular_values(N: int, n: int, a: float, b: float) -> np.ndarray:
    """Descending singular values of the identity H_a -> H_b, in closed form.

    The identity scales mode k by sqrt(w_k(b)) / sqrt(w_k(a)), once per
    component; written as this quotient of square roots it equals
    weighted_singular_values(identity_operator(N, n), a, b) bit for bit.
    """
    ratio = np.sqrt(weights(N, b)) / np.sqrt(weights(N, a))
    return np.sort(np.repeat(ratio, n))[::-1]


def derivative_operator(N: int, n: int) -> LevelOperator:
    """d/dt, diagonal 2 pi i k per mode, held as its mode blocks."""
    diag = np.repeat(2j * np.pi * mode_numbers(N).astype(float), n).reshape(2 * N + 1, n)
    blocks = np.zeros((2 * N + 1, n, n), dtype=complex)
    blocks[:, np.arange(n), np.arange(n)] = diag
    return LevelOperator(None, N, n, blocks=blocks)


def band_indices(N: int, n: int, max_mode: int) -> np.ndarray:
    """Flat coefficient indices of the modes |k| <= max_mode.

    Identities that involve an intermediate truncation hold only away
    from the band edge; restricting matrices or coefficient vectors to
    an inner band isolates the converged part.
    """
    mask = np.abs(mode_numbers(N)) <= max_mode
    return np.flatnonzero(np.repeat(mask, n))


def _mode_blocks(T: LevelOperator) -> np.ndarray | None:
    """The (2N+1, n, n) diagonal mode blocks, or None if any other entry is nonzero.

    A structured operator answers from its symbol and blocks: its matrix
    is zero off the mode blocks exactly when the symbol vanishes at every
    mode difference 0 < |m| <= 2N, the entries a dense test would read.
    """
    M, n = 2 * T.N + 1, T.n
    if T.symbol is None and T.blocks is not None:
        return T.blocks
    if T.symbol is not None:
        c = 2 * T.N  # the symbol's m = 0 entry
        if np.count_nonzero(T.symbol[:c]) or np.count_nonzero(T.symbol[c + 1 :]):
            return None
        diag = np.broadcast_to(T.symbol[c], (M, n, n))
        return diag + T.blocks if T.blocks is not None else diag.copy()
    modes = np.arange(M)
    blocks = T.matrix.reshape(M, n, M, n)[modes, :, modes, :]
    if np.count_nonzero(blocks) != np.count_nonzero(T.matrix):
        return None
    return blocks


def _cos_sin_form(T: LevelOperator) -> np.ndarray:
    """T in the cosine/sine basis before any weight: the level-free part of _real_form.

    The basis is e_0 and, for k = 1..N, (e_k + e_{-k})/sqrt(2) and
    i (e_k - e_{-k})/sqrt(2), each times the n components; rows and
    columns are ordered mode 0, cosines, sines.  With S = X[k, l] +
    X[k, -l] and D = X[k, l] - X[k, -l] the cosine row of mode k >= 0 is
    [sqrt(2) Re X[k, 0], Re S, -Im D] and the sine row of mode k > 0 is
    [sqrt(2) Im X[k, 0], Im S, Re D]; the mode-0 rows still lack their
    division by sqrt(2), which _weigh makes after the weights, as in the
    order of operations of the one-pair form.  Only the rows of modes
    k >= 0 are read, a fixed number at a time through _mode_rows, so no
    full-size complex temporary is made and a structured operator's
    matrix is never built; the rows of modes k < 0 are their mirrors, as
    for every LevelOperator.
    """
    N, n = T.N, T.n
    d = (2 * N + 1) * n
    h = N * n  # flat start of mode 0; modes 1..N follow from h + n
    rev = np.arange(d).reshape(2 * N + 1, n)[::-1].ravel()
    neg = rev[h + n :]  # modes -1..-N, aligned with the columns of modes 1..N
    C = np.empty((d, d))
    step = max(1, _ROW_BLOCK // n)
    for k0 in range(N, 2 * N + 1, step):
        k1 = min(k0 + step, 2 * N + 1)
        r0, r1 = k0 * n, k1 * n
        A = _mode_rows(T, k0, k1)
        S = A[:, h + n :] + A[:, neg]
        D = A[:, h + n :] - A[:, neg]
        C[r0 - h : r1 - h] = np.concatenate([_SQRT2 * A[:, h : h + n].real, S.real, -D.imag], axis=1)
        z = n if k0 == N else 0  # the mode-0 rows, which have no sine row
        C[r0 + z : r1] = np.concatenate([_SQRT2 * A[z:, h : h + n].imag, S[z:].imag, D[z:].real], axis=1)
    return C


def _weigh(C: np.ndarray, N: int, n: int, a: float, b: float, out: np.ndarray | None = None) -> np.ndarray:
    """(root_b x C) / root_a with the mode-0 rows then divided by sqrt(2): _real_form from C.

    Written into out, which may be C itself, or into a new array.
    """
    root_b = np.repeat(np.sqrt(weights(N, b))[N:], n)
    root_a = np.repeat(np.sqrt(weights(N, a))[N:], n)
    row = np.concatenate([root_b, root_b[n:]])[:, None]
    R = np.multiply(row, C, out=out)
    R /= np.concatenate([root_a, root_a[n:]])
    R[:n] /= _SQRT2
    return R


def _real_form(T: LevelOperator, a: float, b: float) -> np.ndarray:
    """W_b^{1/2} T W_a^{-1/2} in the cosine/sine basis, a real matrix.

    _cos_sin_form's matrix weighted in place by _weigh: the row weight
    times the entry, over the column weight, and the mode-0 rows over
    sqrt(2).  op_norms assembles one _cos_sin_form per operator and
    weighs a copy per level pair, with the same bits.
    """
    C = _cos_sin_form(T)
    return _weigh(C, T.N, T.n, a, b, out=C)


def _block_singular_values(blocks: np.ndarray, N: int, a: float, b: float) -> np.ndarray:
    """Descending singular values of the weighted (2N+1, n, n) mode blocks."""
    root_a = np.sqrt(weights(N, a))[:, None, None]
    root_b = np.sqrt(weights(N, b))[:, None, None]
    sv = np.linalg.svd(root_b * blocks / root_a, compute_uv=False)
    return np.sort(sv.ravel())[::-1]


def weighted_singular_values(T: LevelOperator, a: float, b: float) -> np.ndarray:
    """Singular values of W_b^{1/2} T W_a^{-1/2} in descending order.

    Takes the block or the real path of the module docstring, in that
    order; each returns the dense weighted matrix's values up to
    roundoff.
    """
    a, b = check_level(a), check_level(b)
    blocks = _mode_blocks(T)
    if blocks is not None:
        return _block_singular_values(blocks, T.N, a, b)
    return np.linalg.svd(_real_form(T, a, b), compute_uv=False)


def _multiplication(T: LevelOperator) -> bool:
    return T.factor is not None and T.blocks is None


def _symbol_pass(T: LevelOperator, a: float, b: float) -> tuple[float, float, float, float]:
    """F, the screen, lower and second of A = W_b^{1/2} T W_a^{-1/2}, from the symbol.

    T is a pure multiplication operator.  Entry (k, i; l, j) of |A| is
    rb(k) |g_ij(k - l)| / ra(l), rb and ra the square roots of the
    weights, so every row or column sum of |A| or of |A|^2 is a
    convolution of |g| or |g|^2, summed over one block index, with the
    weights, and no d x d array is made.  Returned are F = ||A||_F^2,
    the sum of the squared row norms; the screen ||A||_1 ||A||_inf >=
    sigma_max^2; lower, the largest squared row or column norm, a lower
    bound on sigma_max^2; and second, an upper bound on sigma_2^2.
    A is unitarily equivalent to the real form R of _real_form, so these
    bound R's singular values too.

    second is the one-deletion bound on A, read from the symbol:
    deleting one row or one column leaves a matrix whose norm bounds
    sigma_2 (Horn and Johnson, Topics in Matrix Analysis, section 3.1),
    and ||X||^2 <= ||X||_1 ||X||_inf; it is the smaller of these products
    with the heaviest row (largest absolute sum) or the heaviest column
    deleted.  The deleted row's entries are one window of the symbol,
    rb(k*) |g(k* - l)| / ra(l), and the column's likewise, and the sums
    without them are the full sums minus the window.  Each computed sum
    is within gamma = (2N + n + 6) eps of the exact one, relative to the
    sum: the 2N+1 products and additions of the convolution, the n - 1
    additions over a block index, and the roundings of |g|, of 1 / ra
    and of the outer weight.  So each difference is raised by 2 gamma
    times its full sum, which covers both sums' errors and the
    subtraction's, and the product of the two maxima by 1 + 2 gamma.
    """
    N, n = T.N, T.n
    rb, ra = np.sqrt(weights(N, b)), np.sqrt(weights(N, a))
    mod = np.abs(T.symbol)  # (4N+1, n, n): |g_ij(m)|, m = -2N..2N
    sq = mod * mod

    def row_sums(x, inner, outer):  # (2N+1, n): row (k, i), k = -N..N, of x = |A| or |A|^2
        return outer[:, None] * np.stack([np.convolve(x[:, i].sum(axis=1), inner, "valid") for i in range(n)], 1)

    def col_sums(x, inner, outer):  # (2N+1, n): column (l, j); x at -m pairs k with l
        return np.stack([np.convolve(x[::-1, :, j].sum(axis=1), inner, "valid") for j in range(n)], 1) / outer[:, None]

    rows, cols = row_sums(mod, 1.0 / ra, rb), col_sums(mod, rb, ra)
    row_sq = row_sums(sq, 1.0 / (ra * ra), rb * rb)
    lower = max(float(row_sq.max()), float(col_sums(sq, rb * rb, ra * ra).max()))
    r, c = int(np.argmax(rows)), int(np.argmax(cols))  # flat, mode-major: row (k, i) is k n + i
    (k, i), (l, j), M = divmod(r, n), divmod(c, n), 2 * N + 1
    row_r = rb[k] * mod[k : k + M][::-1, i] / ra[:, None]  # |A| on row r, at the columns (l', j')
    col_c = rb[:, None] * mod[2 * N - l : 2 * N - l + M, :, j] / ra[l]  # |A| on column c, at the rows (k', i')
    gamma = (2 * N + n + 6) * _EPS
    without_row = float((cols - row_r + 2 * gamma * cols).max()) * float(np.delete(rows, r).max())
    without_col = float(np.delete(cols, c).max()) * float((rows - col_c + 2 * gamma * rows).max())
    second = min(without_row, without_col) * (1.0 + 2 * gamma)
    return float(row_sq.sum()), float(rows.max()) * float(cols.max()), lower, second


def _symbol_screen(T: LevelOperator, a: float, b: float) -> tuple[float, float] | None:
    """F and second of _symbol_pass when they let the power iteration certify sigma_max^2, else None.

    Every eigenvalue of A^H A below the top is at most alpha = min(F -
    sigma_max^2, second).  None is returned, with no power step, when the
    screen <= F/2 rules out 2 theta > F and lower <= min(F - lower,
    second) leaves no room to see the top above alpha: a clustered top,
    such as a multiplication operator's at level 0.
    """
    frob, screen, lower, second = _symbol_pass(T, a, b)
    if screen <= frob / 2 and lower <= min(frob - lower, second):
        return None
    return frob, second


def _matrix_free_top(
    T: LevelOperator, TH: LevelOperator, a: float, b: float, frob: float, second: float
) -> float | None:
    """_kato_temple on A^H A with A and A^H applied by _matvec with T and TH = adjoint(T).

    _matvec needs mirrored input, and the power iteration keeps it: it
    starts from a real constant vector.
    """
    root_a = np.sqrt(_flat_weights(T.N, T.n, a))
    root_b = np.sqrt(_flat_weights(T.N, T.n, b))
    start = np.full(root_a.size, 1.0 / np.sqrt(root_a.size), dtype=complex)
    forward, backward = lambda x: root_b * _matvec(T, x / root_a), lambda y: _matvec(TH, root_b * y) / root_a
    return _kato_temple(frob, second, forward, backward, start)


def _dense_top(R: np.ndarray, frob: float, second: float) -> float | None:
    """_kato_temple on R^T R with dense matvecs, from the real constant vector."""
    d = R.shape[1]
    return _kato_temple(frob, second, lambda x: R @ x, lambda y: R.T @ y, np.full(d, 1.0 / np.sqrt(d)))


def _kato_temple(frob: float, second: float, forward, backward, x: np.ndarray) -> float | None:
    """Power iteration on A^H A from the unit vector x, given F = ||A||_F^2 and A, A^H as matvecs.

    Every eigenvalue of A^H A below the top is at most alpha = min(F -
    theta, second), second a bound on lambda_2 the caller knows (inf when
    it knows none), so sigma_max^2 <= theta + |r|^2 / (theta - alpha) once
    theta > alpha; theta - alpha is computed as max(2 theta - F, theta -
    second).  Returns that upper end as soon as the bracket is at most
    _CERT_RTOL theta wide, and None if that does not happen within
    _CERT_STEPS steps.  Since theta only grows towards an eigenvalue, a
    step that leaves theta <= alpha and gains less than _CERT_STALL theta
    shows the iteration settling below the bound, and None is returned
    there and then (a clustered top).  F is inflated by its worst-case
    summation error, a bound for any order of adding d^2 nonnegative terms.

    _CERT_STEPS = 40 sits above every count measured, every suite at
    seed 0 with its controls, sobolev_evidence and floer_map at seeds
    1-3, and the smooth, rough and eight interpolation factors at N =
    16-512, at the interpolation levels and -1, alone and in one call.
    The matrix-free iterations certified after at most 29 steps (median
    9 in the factors' 215 runs, 4 in the suites' 85), those on a real
    form after at most 30 (median 9 in 191, 11 in 460), and every
    iteration that gave up did so within 6 steps.
    """
    d = x.size
    frob *= 1.0 + 2 * d * d * _EPS
    last = 0.0
    for _ in range(_CERT_STEPS):
        y = forward(x)
        theta = float(np.vdot(y, y).real)
        gap = max(2 * theta - frob, theta - second)
        if gap <= 0 and theta - last <= _CERT_STALL * theta:
            return None
        last = theta
        z = backward(y)  # A^H A x
        if gap > 0:
            r = z - theta * x
            width = float(np.vdot(r, r).real) / gap
            if width <= _CERT_RTOL * theta:
                return theta + width
        norm = np.linalg.norm(z)
        if norm == 0.0:
            return None
        x = z / norm
    return None


def _gram_top(R: np.ndarray) -> float:
    """sigma_max of the real form R, from the top eigenvalue of its Gram matrix R^T R."""
    return float(np.sqrt(max(np.linalg.eigvalsh(R.T @ R)[-1], 0.0)))


def _tridiagonal_top(T: LevelOperator) -> float | None:
    """sigma_max at (0, 0) of a scalar multiplication operator whose symbol is degree one, else None.

    T, a pure multiplication operator with n = 1, is the Toeplitz matrix
    of its symbol g, Hermitian since g(-m) = conj(g(m)).  With g(m) = 0
    for 2 <= |m| <= 2N it is tridiagonal, with eigenvalues g(0) + 2 |g(1)|
    cos(j pi / (2N+2)), j = 1..2N+1 (Böttcher and Grudsky, Spectral
    Properties of Banded Toeplitz Matrices, 2005), so sigma_max = |g(0)| +
    2 |g(1)| cos(pi / (2N+2)).  The rest E of T, the entries 2 <= |m| <=
    2N, is Hermitian with ||E|| <= tail, the sum of their moduli, so by
    Weyl's inequality the value is within tail + O(eps) sigma_max of T's.
    The path is taken when tail is at most (2N+1) eps sigma_max, the error
    scale of an eigensolve of the form it replaces: the symbol is degree one
    up to its FFT roundoff.  The computed tail is raised by 2 (4N) eps, for
    the rounding of its 4N - 2 moduli and their sums.
    """
    if not _multiplication(T) or T.n != 1:
        return None
    N, g = T.N, T.symbol[:, 0, 0]
    c = 2 * N  # the symbol's m = 0 entry
    top = abs(g[c]) + 2 * abs(g[c + 1]) * np.cos(np.pi / (2 * N + 2))
    tail = (np.abs(g[: c - 1]).sum() + np.abs(g[c + 2 :]).sum()) * (1.0 + 8 * N * _EPS)
    return float(top) if tail <= (2 * N + 1) * _EPS * top else None


def op_norms(T: LevelOperator, pairs: list[tuple[float, float]]) -> list[float]:
    """Operator norms of T : H_a -> H_b for each level pair (a, b), in order.

    Takes the block path, else reads the pairs in order by the module
    docstring's rule.  A (0, 0) pair that _tridiagonal_top answers takes
    its closed form.  While no real form exists, a pair of a pure
    multiplication operator that _symbol_screen admits is certified
    matrix-free (_matrix_free_top, the adjoint built on first use).  The
    first pair that is not admitted, that stalls, or whose operator is
    not a pure multiplication builds the one _cos_sin_form of T, and it
    and every later pair are weighed from it into one buffer, the last
    pair in place: an admitted pair iterates on its weighed form R with
    dense matvecs (_dense_top), and any other takes the top eigenvalue of
    the Gram (_gram_top).  No path returns a Krylov lower bound, so a
    check such as ||K|| <= kappa stays evidence.
    """
    pairs = [(check_level(a), check_level(b)) for a, b in pairs]
    blocks = _mode_blocks(T)
    if blocks is not None:
        return [float(_block_singular_values(blocks, T.N, a, b)[0]) for a, b in pairs]
    closed = _tridiagonal_top(T) if (0.0, 0.0) in pairs else None
    norms = [closed if pair == (0.0, 0.0) else None for pair in pairs]
    todo = [i for i, norm in enumerate(norms) if norm is None]
    TH = C = buf = None
    for i in todo:
        screen = _symbol_screen(T, *pairs[i]) if _multiplication(T) else None
        if C is None and screen is not None:
            TH = adjoint(T) if TH is None else TH  # multiplication by g(t)^T
            top = _matrix_free_top(T, TH, *pairs[i], *screen)
            if top is not None:
                norms[i] = float(np.sqrt(top))
                continue
            screen = None  # stalled: the pair takes an eigensolve
        if C is None:
            C = _cos_sin_form(T)
            buf = None if i == todo[-1] else np.empty_like(C)
        R = _weigh(C, T.N, T.n, *pairs[i], out=C if i == todo[-1] else buf)
        top = None if screen is None else _dense_top(R, *screen)
        norms[i] = _gram_top(R) if top is None else float(np.sqrt(top))
    return norms


def op_norm(T: LevelOperator, a: float, b: float) -> float:
    """Operator norm of T : H_a -> H_b (largest weighted singular value), op_norms for one pair."""
    return op_norms(T, [(a, b)])[0]


def adjoint(T: LevelOperator) -> LevelOperator:
    """Adjoint for the level-0 inner product on both sides; structured if T is.

    A structured T gives the transposed factor and the conjugate-transposed
    blocks, a dense one the conjugate transpose of its matrix.
    """
    if _dense(T):
        return LevelOperator(T.matrix.conj().T, T.N, T.n)
    factor = None if T.factor is None else T.factor.transpose(0, 2, 1)
    blocks = None if T.blocks is None else np.conj(T.blocks.transpose(0, 2, 1))
    return LevelOperator(None, T.N, T.n, factor=factor, blocks=blocks)


def check_interpolation(T: LevelOperator, levels: tuple[float, ...], tol: float = 1e-10) -> list[dict]:
    """Stein-Weiss bound ||T||_s <= ||T||_0^(1-s) ||T||_1^s at each level s, slack tol.

    All the norms come from one op_norms call, so the levels share one
    real form of T; one report per level, in the order given.  With the
    geometric weight family the bound holds for every matrix, so a pass
    is a roundoff identity of the truncated operator, not evidence about
    the untruncated one: only a failure would say something (about the
    norm computation).
    """
    if not all(0.0 <= s <= 1.0 for s in levels):
        raise ValueError("interpolation levels must lie in [0, 1]")
    n0, n1, *inner = op_norms(T, [(0.0, 0.0), (1.0, 1.0)] + [(s, s) for s in levels])
    reports = []
    for s, ns in zip(levels, inner):
        bound = n0 ** (1.0 - s) * n1**s
        reports.append(
            {
                "s": s,
                "norm_s": ns,
                "norm_0": n0,
                "norm_1": n1,
                "bound": bound,
                "passed": bool(ns <= bound + tol),
            }
        )
    return reports


def sweep_verdict(values: list[float], rtol: float) -> str:
    """The one rule that reads an N-sweep: stable, growing, unstable or insufficient.

    stable: the trailing half of the values, keeping at least two, all
    lie within rtol |final| of the final value (all 0 when it is 0).
    growing: not stable, and the values increase strictly.  insufficient:
    fewer than two values, which show nothing about stabilization.
    unstable: anything else.
    """
    if len(values) < 2:
        return "insufficient"
    tail = values[min(len(values) // 2, len(values) - 2) :]
    final = tail[-1]
    if final == 0.0:
        stable = all(v == 0.0 for v in tail)
    else:
        stable = all(abs(v - final) <= rtol * abs(final) for v in tail)
    if stable:
        return "stable"
    if all(b > a for a, b in zip(values, values[1:])):
        return "growing"
    return "unstable"


def fredholm_from_spectra(spectra: Mapping[int, np.ndarray], a: float, b: float) -> dict:
    """N-sweep evidence for Fredholm structure, read off descending singular values.

    spectra maps each truncation N to the weighted singular values of
    the family's operator H_a -> H_b at that N.  The report is a dict
    with the keys a, b, sweep, index_estimate and verdict; each sweep
    entry holds N, sigma_min, gap (the first singular value above the
    kernel cluster), ker_dim and coker_dim.

    At any fixed truncation a square matrix has equal kernel and cokernel
    counts, so coker_dim is set to ker_dim, and index_estimate, their
    difference at the largest N, is 0 by construction: it is no evidence
    of index zero.  The informative part is whether the gap stabilizes
    at a positive constant as N grows, with a kernel count that does not
    move.  The verdict is fredholm, non_fredholm, or insufficient for a
    sweep of fewer than two truncations.
    """
    sweep = []
    for N in sorted(spectra):
        sv = spectra[N]
        smax = float(sv[0]) if sv.size else 0.0
        cut = KERNEL_RTOL * smax
        ker = int(np.sum(sv < cut))
        asc = np.sort(sv)
        gap = float(asc[ker]) if ker < asc.size else float("inf")
        sweep.append(
            {
                "N": int(N),
                "sigma_min": float(asc[0]),
                "gap": gap,
                "ker_dim": ker,
                "coker_dim": ker,
            }
        )
    kers = [e["ker_dim"] for e in sweep]
    gaps = [e["gap"] for e in sweep]
    gap_verdict = sweep_verdict(gaps, STABLE_RTOL)
    if gap_verdict == "insufficient":
        verdict = gap_verdict
    else:
        verdict = "fredholm" if (len(set(kers)) == 1 and gap_verdict == "stable") else "non_fredholm"
    return {"a": a, "b": b, "sweep": sweep, "index_estimate": 0, "verdict": verdict}


def fredholm_diagnostic(family: Mapping[int, LevelOperator], a: float, b: float) -> dict:
    """Fredholm evidence for an operator family {N: T_N}, each read as H_a -> H_b.

    The report is fredholm_from_spectra's, on each T_N's weighted
    singular values.

    The same Hessian is read at (1 -> 0) and at (2 -> 1) by passing
    those levels.
    """
    return fredholm_from_spectra({N: weighted_singular_values(T, a, b) for N, T in family.items()}, a, b)
