"""Level-annotated dense operators on the truncated coefficient space.

An operator is a complex matrix acting on mode-major coefficient vectors.
Every operator built here commutes with the reality structure
c_k -> conj(c_{-k}), so the matrix is the complexification of a real
operator on real loops: in the cosine/sine basis it would be a real
matrix.  Singular values, operator norms and kernel dimensions of the
complex matrix therefore coincide with those of the underlying real
operator, which is what all diagnostics report.

Norms between levels are weighted: op_norm(T, a, b) is the largest
singular value of W_b^{1/2} T W_a^{-1/2} with W_s the diagonal spectral
weight.  Because the weight family is exactly geometric in s, the
Stein-Weiss interpolation inequality holds for every matrix, and the
level-1/level-(-1) duality is an exact diagonal isometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .scale_space import FourierLoop, check_level, mode_numbers, weights

# Relative singular-value threshold separating numerical kernel from gap.
KERNEL_RTOL = 1e-8

# A gap is called stabilized when its relative spread over the trailing
# half of the N-sweep stays below this.
GAP_STABLE_RTOL = 0.05


@dataclass(frozen=True)
class LevelOperator:
    """Dense operator between levels dom -> cod of the scale."""

    matrix: np.ndarray
    dom: float
    cod: float
    N: int
    n: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = (2 * self.N + 1) * self.n
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match d={d}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dom", check_level(self.dom))
        object.__setattr__(self, "cod", check_level(self.cod))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def with_levels(self, dom: float, cod: float) -> "LevelOperator":
        """Re-annotate the same coefficients at another level pair."""
        return LevelOperator(self.matrix, dom, cod, self.N, self.n)

    def apply(self, u: FourierLoop) -> FourierLoop:
        return FourierLoop((self.matrix @ u.flat_coeffs()).reshape(2 * self.N + 1, self.n))

    def __matmul__(self, other: "LevelOperator") -> "LevelOperator":
        if (self.N, self.n) != (other.N, other.n):
            raise ValueError("operator sizes do not match")
        if self.dom != other.cod:
            raise ValueError(
                f"level mismatch in composition: {other.cod} feeds into {self.dom}"
            )
        return LevelOperator(self.matrix @ other.matrix, other.dom, self.cod, self.N, self.n)

    def __add__(self, other: "LevelOperator") -> "LevelOperator":
        if (self.dom, self.cod, self.N, self.n) != (other.dom, other.cod, other.N, other.n):
            raise ValueError("can only add operators with identical annotations")
        return LevelOperator(self.matrix + other.matrix, self.dom, self.cod, self.N, self.n)

    def __sub__(self, other: "LevelOperator") -> "LevelOperator":
        return self + LevelOperator(-other.matrix, other.dom, other.cod, other.N, other.n)


def _flat_weights(N: int, n: int, s: float) -> np.ndarray:
    return np.repeat(weights(N, s), n)


def identity_operator(N: int, n: int, dom: float, cod: float) -> LevelOperator:
    """Identity coefficients annotated dom -> cod (the insertion when dom > cod)."""
    d = (2 * N + 1) * n
    return LevelOperator(np.eye(d, dtype=complex), dom, cod, N, n)


def derivative_operator(N: int, n: int, dom: float = 1.0, cod: float = 0.0) -> LevelOperator:
    """d/dt, diagonal 2 pi i k per mode."""
    diag = np.repeat(2j * np.pi * mode_numbers(N).astype(float), n)
    return LevelOperator(np.diag(diag), dom, cod, N, n)


def band_indices(N: int, n: int, max_mode: int) -> np.ndarray:
    """Flat coefficient indices of the modes |k| <= max_mode.

    Identities that involve an intermediate truncation hold only away
    from the band edge; restricting matrices or coefficient vectors to
    an inner band isolates the converged part.
    """
    mask = np.abs(mode_numbers(N)) <= max_mode
    return np.flatnonzero(np.repeat(mask, n))


def weighted_matrix(T: LevelOperator, a: float | None = None, b: float | None = None) -> np.ndarray:
    a = T.dom if a is None else check_level(a)
    b = T.cod if b is None else check_level(b)
    wa = _flat_weights(T.N, T.n, a)
    wb = _flat_weights(T.N, T.n, b)
    return np.sqrt(wb)[:, None] * T.matrix / np.sqrt(wa)[None, :]


def weighted_singular_values(T: LevelOperator, a: float | None = None, b: float | None = None) -> np.ndarray:
    return np.linalg.svd(weighted_matrix(T, a, b), compute_uv=False)


def op_norm(T: LevelOperator, a: float | None = None, b: float | None = None) -> float:
    """Operator norm of T : H_a -> H_b (largest weighted singular value)."""
    return float(weighted_singular_values(T, a, b)[0])


def adjoint(T: LevelOperator, s: float) -> LevelOperator:
    """Adjoint with respect to the level-s inner product on both sides."""
    s = check_level(s)
    w = _flat_weights(T.N, T.n, s)
    m = (T.matrix.conj().T * w[None, :]) / w[:, None]
    return LevelOperator(m, T.cod, T.dom, T.N, T.n)


def check_interpolation(T: LevelOperator, s: float, tol: float = 1e-10) -> dict:
    """Stein-Weiss bound ||T||_s <= ||T||_0^(1-s) ||T||_1^s, slack tol."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("interpolation level must lie in [0, 1]")
    n0 = op_norm(T, 0.0, 0.0)
    n1 = op_norm(T, 1.0, 1.0)
    ns = op_norm(T, s, s)
    bound = n0 ** (1.0 - s) * n1**s
    return {
        "s": s,
        "norm_s": ns,
        "norm_0": n0,
        "norm_1": n1,
        "bound": bound,
        "passed": bool(ns <= bound + tol),
    }


def _stabilized(values: list[float], rtol: float) -> bool:
    """True when the trailing half of the sweep sits within rtol of the final value.

    The window keeps at least two values whenever the sweep has them; a
    single trailing point is vacuously stable and would wave divergent
    quantities through on two-point sweeps.
    """
    if not values:
        return False
    cut = min(len(values) // 2, max(len(values) - 2, 0))
    tail = values[cut:]
    final = tail[-1]
    if final == 0.0:
        return all(v == 0.0 for v in tail)
    return all(abs(v - final) <= rtol * abs(final) for v in tail)


def extension_consistency(
    family: LevelOperator | Mapping[int, LevelOperator],
    levels: tuple[float, ...],
    stability_rtol: float = GAP_STABLE_RTOL,
) -> dict:
    """Operator norms of the same coefficients at several levels.

    With a single operator this just tabulates the norms.  With an
    N-indexed family it additionally flags each level whose norm fails to
    stabilize along the sweep, which is the numerical meaning of "does
    not extend" at finite truncation.
    """
    if isinstance(family, LevelOperator):
        family = {family.N: family}
    Ns = sorted(family)
    out = {"N": Ns, "levels": {}, "flagged": []}
    for s in levels:
        vals = [op_norm(family[N], s, s) for N in Ns]
        stable = _stabilized(vals, stability_rtol) if len(Ns) > 1 else True
        out["levels"][s] = {"norms": vals, "stable": bool(stable)}
        if not stable:
            out["flagged"].append(s)
    return out


@dataclass
class FredholmReport:
    """N-sweep evidence for Fredholm structure of an operator family.

    At any fixed truncation a square matrix has equal kernel and cokernel
    counts; the informative part is whether the first singular value above
    the kernel cluster stabilizes at a positive constant as N grows.
    """

    a: float
    b: float
    sweep: list[dict]
    index_estimate: int
    verdict: str

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "sweep": self.sweep,
            "index_estimate": self.index_estimate,
            "verdict": self.verdict,
        }


def fredholm_diagnostic(
    family: Mapping[int, LevelOperator] | Callable[[int], LevelOperator],
    a: float,
    b: float,
    N_sweep: tuple[int, ...] | None = None,
    threshold: float = KERNEL_RTOL,
    gap_rtol: float = GAP_STABLE_RTOL,
) -> FredholmReport:
    if callable(family):
        if N_sweep is None:
            raise ValueError("a callable family needs an explicit N_sweep")
        family = {N: family(N) for N in N_sweep}
    Ns = sorted(family)
    sweep = []
    for N in Ns:
        sv = weighted_singular_values(family[N], a, b)
        smax = float(sv[0]) if sv.size else 0.0
        cut = threshold * smax
        ker = int(np.sum(sv < cut))
        # Left and right null counts agree for a square matrix; both are
        # reported because the contract asks for both.
        coker = ker
        asc = np.sort(sv)
        gap = float(asc[ker]) if ker < asc.size else float("inf")
        sweep.append(
            {
                "N": int(N),
                "sigma_min": float(asc[0]),
                "gap": gap,
                "ker_dim": ker,
                "coker_dim": coker,
            }
        )
    kers = [e["ker_dim"] for e in sweep]
    cokers = [e["coker_dim"] for e in sweep]
    gaps = [e["gap"] for e in sweep]
    stable_dims = len(set(kers)) == 1 and len(set(cokers)) == 1
    stable_gap = _stabilized(gaps, gap_rtol)
    index = kers[-1] - cokers[-1]
    verdict = "fredholm" if (stable_dims and stable_gap) else "non_fredholm"
    return FredholmReport(a=a, b=b, sweep=sweep, index_estimate=index, verdict=verdict)
