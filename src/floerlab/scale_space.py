"""Truncated Fourier model of the periodic Sobolev scale.

A loop u : R/Z -> R^n is stored through its Fourier coefficients,

    u(t) = sum_{|k| <= N} c_k exp(2 pi i k t),   c_{-k} = conj(c_k),

and the level-s norm uses the spectral weight w_k(s) = (1 + 4 pi^2 k^2)^s.
Level 0 is then plain L^2, level 1 satisfies ||u||_1^2 = ||u||_0^2 +
||u'||_0^2 exactly, and level -1 is carried on the same coefficient space
with the reciprocal weight, so the duality between levels 1 and -1 is a
diagonal isometry.  Admissible levels are {-1} union [0, 2].

The grid bridge maps coefficients to samples on a uniform grid with at
least 3N points (3/2-rule); the default grid of 4N+2 points keeps every
product of up to three band-limited factors alias-free, which is what the
superposition machinery downstream relies on.  Loops are real, so the
bridge is the real FFT on the half spectrum of modes 0..N: grid_samples
(irfft, synthesis) and half_spectrum (rfft, analysis) act on raw arrays
along a given axis, and to_grid, from_grid, multiplication_symbol
(the symbol behind multiplication_matrix), the structured matvec of
scale_operator and the trilinear ascent of floer_map all go through
these two helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Relative tolerance for accepting (and then exactly enforcing) the
# reality constraint on construction.  Drift beyond this is a bug, not
# roundoff.
REALITY_RTOL = 1e-9


class LevelError(ValueError):
    """Raised when a scale level lies outside {-1} union [0, 2]."""


def check_level(s: float) -> float:
    s = float(s)
    if s == -1.0 or 0.0 <= s <= 2.0:
        return s
    raise LevelError(f"level {s!r} not in {{-1}} union [0, 2]")


def mode_numbers(N: int) -> np.ndarray:
    """Integer mode numbers -N..N in storage order."""
    return np.arange(-N, N + 1)


def weights(N: int, s: float) -> np.ndarray:
    """Spectral weights w_k(s) = (1 + 4 pi^2 k^2)^s for modes -N..N."""
    s = check_level(s)
    k = mode_numbers(N)
    return (1.0 + TWO_PI**2 * k.astype(float) ** 2) ** s


def _symmetrize(coeffs: np.ndarray) -> np.ndarray:
    return 0.5 * (coeffs + np.conj(coeffs[::-1]))


@dataclass(frozen=True)
class FourierLoop:
    """Band-limited loop R/Z -> R^n held as a (2N+1, n) coefficient array.

    Row k+N holds the coefficient of exp(2 pi i k t).  Construction
    checks the reality constraint and then enforces it exactly.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim == 1:
            c = c[:, None]
        if c.ndim != 2 or c.shape[0] % 2 != 1:
            raise ValueError("coefficients must have shape (2N+1, n)")
        sym = _symmetrize(c)
        scale = max(float(np.max(np.abs(c))), 1.0)
        if float(np.max(np.abs(c - sym))) > REALITY_RTOL * scale:
            raise ValueError("coefficients violate the reality constraint")
        sym.setflags(write=False)
        object.__setattr__(self, "coeffs", sym)

    @property
    def N(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def flat_coeffs(self) -> np.ndarray:
        """Coefficient vector in mode-major order, as operators expect it."""
        return self.coeffs.reshape(-1)

    def norm(self, s: float) -> float:
        return sobolev_norm(self, s)

    def derivative(self) -> "FourierLoop":
        k = mode_numbers(self.N)
        return FourierLoop(TWO_PI * 1j * k[:, None] * self.coeffs)

    def resize(self, N: int) -> "FourierLoop":
        """Zero-pad or truncate to the mode range -N..N."""
        out = np.zeros((2 * N + 1, self.n), dtype=complex)
        m = min(N, self.N)
        out[N - m : N + m + 1] = self.coeffs[self.N - m : self.N + m + 1]
        return FourierLoop(out)

    def __add__(self, other: "FourierLoop") -> "FourierLoop":
        return FourierLoop(self.coeffs + other.coeffs)

    def __sub__(self, other: "FourierLoop") -> "FourierLoop":
        return FourierLoop(self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "FourierLoop":
        return FourierLoop(a * self.coeffs)

    __rmul__ = __mul__

    def __neg__(self) -> "FourierLoop":
        return FourierLoop(-self.coeffs)


@dataclass(frozen=True)
class DualFunctional:
    """Functional on the scale, paired via the L^2 form, measured at level -1."""

    coeffs: np.ndarray

    def __post_init__(self):
        # Reuse the loop validation; a functional has the same layout.
        loop = FourierLoop(self.coeffs)
        object.__setattr__(self, "coeffs", loop.coeffs)

    @property
    def N(self) -> int:
        return (self.coeffs.shape[0] - 1) // 2

    @property
    def n(self) -> int:
        return self.coeffs.shape[1]

    def norm(self) -> float:
        w = weights(self.N, -1.0)
        return float(np.sqrt(np.sum(w[:, None] * np.abs(self.coeffs) ** 2)))


def sobolev_norm(u: FourierLoop, s: float) -> float:
    w = weights(u.N, s)
    return float(np.sqrt(np.sum(w[:, None] * np.abs(u.coeffs) ** 2)))


def inner(u: FourierLoop, v: FourierLoop, s: float) -> float:
    """Level-s inner product; real by the reality constraint."""
    w = weights(u.N, s)
    return float(np.real(np.sum(w[:, None] * u.coeffs * np.conj(v.coeffs))))


def dual_pair(f: DualFunctional | FourierLoop, h: FourierLoop) -> float:
    """L^2 pairing of a functional with a loop.

    Satisfies |dual_pair(f, h)| <= ||f||_{-1} ||h||_1 because the level
    weights at -1 and 1 are exact reciprocals.
    """
    return float(np.real(np.sum(f.coeffs * np.conj(h.coeffs))))


def flat(v: FourierLoop) -> DualFunctional:
    """Insertion H_1 -> (H_{-1})^*; coefficients are untouched.

    The level-(-1) dual norm of the result equals ||v||_1, so the map is
    an isometry onto its image.
    """
    return DualFunctional(v.coeffs)


def dual_norm(f: DualFunctional) -> float:
    """Operator norm of f over the unit H_{-1} ball (equals the level-1 norm)."""
    w = weights(f.N, 1.0)
    return float(np.sqrt(np.sum(w[:, None] * np.abs(f.coeffs) ** 2)))


# ---------------------------------------------------------------------------
# grid bridge


def default_grid_points(N: int) -> int:
    """Grid size 2M with M = 2N+1; alias-free for triple products."""
    return 2 * (2 * N + 1)


def min_grid_points(N: int) -> int:
    """3/2-rule minimum 2M with M = ceil(3N/2)."""
    return 2 * ((3 * N + 1) // 2)


def grid_times(grid_points: int) -> np.ndarray:
    return np.arange(grid_points) / grid_points


def grid_samples(half: np.ndarray, G: int, axis: int = 0) -> np.ndarray:
    """Samples on t_j = j/G of the real loops whose modes 0..N lie along axis.

    Synthesis leg of the bridge; the modes -N..-1 are the conjugates of
    the given ones and are never stored.
    """
    return np.fft.irfft(half, n=G, axis=axis) * G


def half_spectrum(values: np.ndarray, N: int, axis: int = 0) -> np.ndarray:
    """Coefficients of modes 0..N of real grid samples along axis.

    Analysis leg of the bridge; with N = G // 2 it keeps every mode the
    real FFT returns.
    """
    spec = np.fft.rfft(values, axis=axis)
    keep = [slice(None)] * spec.ndim
    keep[axis] = slice(0, N + 1)
    return spec[tuple(keep)] / values.shape[axis]


def to_grid(u: FourierLoop, grid_points: int | None = None) -> np.ndarray:
    """Sample the loop on the uniform grid t_j = j/G, shape (G, n)."""
    G = default_grid_points(u.N) if grid_points is None else int(grid_points)
    if G < 2 * u.N + 1:
        raise ValueError(f"grid of {G} points cannot carry modes up to {u.N}")
    return grid_samples(u.coeffs[u.N :], G)


def from_grid(values: np.ndarray, N: int) -> FourierLoop:
    """Project grid samples onto modes -N..N (adjoint leg of the bridge)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    G = values.shape[0]
    if G < 2 * N + 1:
        raise ValueError(f"grid of {G} points cannot determine modes up to {N}")
    half = half_spectrum(values, N)
    return FourierLoop(np.concatenate([np.conj(half[:0:-1]), half]))


def multiplication_symbol(factor_values: np.ndarray, N: int) -> np.ndarray:
    """Symbol of dealiased multiplication by a sampled factor, at the modes m = -2N..2N.

    factor_values has shape (G,) for a scalar factor or (G, n, n) for a
    matrix-valued one; entry m + 2N of the result is the coefficient
    (or n x n block) that multiplication_matrix holds at every (k, l)
    with k - l = m.  These are all the symbol entries a (2N+1)-mode
    operator reads; with G < 4N+1 some of them repeat, since the mode
    difference is taken mod G.

    The coefficients come from half_spectrum, mirrored so that fhat[G-m]
    is conj(fhat[m]) bit for bit: the matrix then commutes exactly with
    the reality structure c_k -> conj(c_{-k}), as every LevelOperator
    must, and the real cosine/sine form reads only its rows k >= 0.

    A constant factor (every grid sample equal) gets its exact symbol,
    the value at m = 0 and zeros elsewhere, with no FFT roundoff: the
    matrix is then exactly zero outside the mode blocks, so the
    mode-block paths of scale_operator apply to it.
    """
    factor_values = np.asarray(factor_values, dtype=float)
    G = factor_values.shape[0]
    if G < 2 * N + 1:
        raise ValueError("grid too coarse for the requested mode range")
    square = factor_values.ndim == 3 and factor_values.shape[1] == factor_values.shape[2]
    if factor_values.ndim != 1 and not square:
        raise ValueError("factor must be scalar (G,) or square matrix valued (G, n, n)")
    if np.all(factor_values == factor_values[0]):
        fhat = np.zeros(factor_values.shape, dtype=complex)
        fhat[0] = factor_values[0]
    else:
        half = half_spectrum(factor_values, G // 2)
        fhat = np.concatenate([half, np.conj(half[1 : G - G // 2][::-1])])
    return fhat[np.arange(-2 * N, 2 * N + 1) % G]


def multiplication_matrix(factor_values: np.ndarray, N: int) -> np.ndarray:
    """Mode-space matrix of dealiased multiplication by a sampled factor.

    factor_values has shape (G,) for a scalar factor or (G, n, n) for a
    matrix-valued one.  The result acts on mode-major coefficient vectors
    and agrees exactly with truncate(from_grid(factor * to_grid(.))) on
    the same grid.  It is the Toeplitz matrix of multiplication_symbol,
    whose docstring holds the mirroring and the exact symbol of a
    constant factor: block (k, l) is symbol[2N + k - l].  Windows of the
    reversed symbol, taken in reverse order, hold exactly these entries
    (row a is the window starting at 2N - a), so the matrix is one
    strided copy with no index array (toeplitz_rows).
    """
    symbol = multiplication_symbol(factor_values, N)
    d = (2 * N + 1) * (1 if symbol.ndim == 1 else symbol.shape[1])
    return toeplitz_rows(symbol, N, 0, 2 * N + 1).reshape(d, d)


def toeplitz_rows(symbol: np.ndarray, N: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 (mode indices, 0 is mode -N) of the Toeplitz matrix of a symbol.

    symbol is a multiplication_symbol, shape (4N+1,) or (4N+1, n, n); the
    result has shape (stop - start, 2N+1) or (stop - start, n, 2N+1, n),
    a strided copy of the symbol's windows, so any rows of
    multiplication_matrix come out with its bits and without the rest.
    """
    M = 2 * N + 1
    windows = np.lib.stride_tricks.sliding_window_view(symbol[::-1], M, axis=0)[::-1][start:stop]
    if symbol.ndim == 1:
        out = np.empty((stop - start, M), dtype=complex)
        np.copyto(out, windows)
        return out
    n = symbol.shape[1]
    out = np.empty((stop - start, n, M, n), dtype=complex)
    np.copyto(out, windows.transpose(0, 1, 3, 2))
    return out


# ---------------------------------------------------------------------------
# sample loops


def zero_loop(n: int, N: int) -> FourierLoop:
    return FourierLoop(np.zeros((2 * N + 1, n), dtype=complex))


def constant_loop(x: np.ndarray, N: int) -> FourierLoop:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.zeros((2 * N + 1, x.size), dtype=complex)
    c[N] = x
    return FourierLoop(c)


def random_loop(
    rng: np.random.Generator,
    n: int,
    N: int,
    top_mode: int = 3,
    amplitude: float = 1.0,
    decay: float = 0.5,
) -> FourierLoop:
    """Random loop with modes up to top_mode and geometric coefficient decay."""
    top = min(top_mode, N)
    c = np.zeros((2 * N + 1, n), dtype=complex)
    c[N] = amplitude * rng.standard_normal(n)
    for k in range(1, top + 1):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c[N + k] = 0.5 * amplitude * decay**k * z
        c[N - k] = np.conj(c[N + k])
    return FourierLoop(c)
