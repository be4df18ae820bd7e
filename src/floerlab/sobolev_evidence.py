"""Multiplication operators across the scale, and the Hölder embedding.

Boundedness of multiplication u -> g u depends on where the factor, the
input, and the output live; the four signatures exercised here are the
ones the rest of the package leans on.  Truncation cannot certify
boundedness outright, so every verdict is a stabilization statement
about an N-sweep, read by the one rule scale_operator.sweep_verdict
(trailing half within a relative tolerance of the final value; fewer
than two truncations are insufficient), with rough factors as the
diverging negative control.

The embedding checks estimate a Hölder seminorm on a fine grid with
dyadic offsets; the worst-case profile (coefficients the inverse square
root of the level weight) probes the constant, the endpoint s = 1/2
shows the logarithmic failure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .scale_operator import LevelOperator, norm_sweep, op_norm, op_norms, sweep_verdict
from .scale_space import (
    FourierLoop,
    LevelError,
    default_grid_points,
    dual_pair,
    from_grid,
    mode_numbers,
    to_grid,
    weights,
)

HOLDER_RTOL = 0.10
FINE_GRID = 4096
DYADIC_OFFSETS = tuple(range(1, 11))


# The level pair (input, output) at which each signature (factor level,
# input -> output) reads its norm, by label; C0 is sup-norm control.  No
# code reads the factor level: (C0,0->0) reads the same pair as (1,0->0),
# so its check and sweep row repeat that one's numbers and C0 control is
# not measured.
SIGNATURES = {
    "(1,1->1)": (1.0, 1.0),
    "(C0,0->0)": (0.0, 0.0),
    "(1,0->0)": (0.0, 0.0),
    "(-1,1->-1)": (1.0, -1.0),
}


def by_signature(read: Callable[[str], object]) -> list[tuple[str, object]]:
    """(label, read(label)) for each SIGNATURES label in sorted order, read
    once per distinct level pair: (1,0->0) and (C0,0->0) share the one read."""
    reads = {}
    for label, pair in sorted(SIGNATURES.items()):
        if pair not in reads:
            reads[pair] = read(label)
    return [(label, reads[pair]) for label, pair in sorted(SIGNATURES.items())]


def mult_operator(g: FourierLoop) -> LevelOperator:
    """Dealiased multiplication by the scalar loop g, read at any signature's levels."""
    if g.n != 1:
        raise ValueError("multiplication factors are scalar loops")
    values = to_grid(g, default_grid_points(g.N))
    return LevelOperator(None, g.N, 1, factor=values[:, :, None])


def mult_norm_sweep(
    g: FourierLoop | Callable[[int], FourierLoop],
    label: str,
    N_sweep: tuple[int, ...] = (16, 32, 64, 128, 256),
) -> dict:
    """Operator norms across truncations with a bounded/unbounded verdict.

    A stable sweep is bounded, a growing or unstable one unbounded, and
    one of fewer than two truncations insufficient.

    A fixed loop is resized to each N; a callable is asked for the factor
    at each N, which is how factors with full-band coefficient tails
    (the rough controls) enter.
    """
    if label not in SIGNATURES:
        raise ValueError(f"unknown multiplication signature {label!r}")
    factory = g if callable(g) else (lambda M: g.resize(M))
    Ns = sorted(N_sweep)
    sweep, verdict = norm_sweep(Ns, [op_norm(mult_operator(factory(M)), *SIGNATURES[label]) for M in Ns])
    if verdict != "insufficient":
        verdict = "bounded" if verdict == "stable" else "unbounded"
    return {"signature": label, "sweep": sweep, "verdict": verdict}


def smooth_factor(N: int) -> FourierLoop:
    """g(t) = 2 + sin(2 pi t); sup |g| = 3 against the (1,0->0) norm."""
    c = np.zeros((2 * N + 1, 1), dtype=complex)
    c[N] = 2.0
    c[N + 1] = -0.5j
    c[N - 1] = 0.5j
    return FourierLoop(c)


ROUGH_EXPONENT = 0.6


def rough_factor(N: int) -> FourierLoop:
    """Full-band factor with |k|^(-ROUGH_EXPONENT) coefficients; just outside H_1."""
    k = mode_numbers(N)
    c = np.zeros((2 * N + 1, 1), dtype=complex)
    c[:, 0] = 1.0 / np.maximum(np.abs(k), 1) ** ROUGH_EXPONENT
    return FourierLoop(c)


def dual_pairing_check(fstar: FourierLoop, g: FourierLoop, h: FourierLoop) -> dict:
    """Associativity (f* . g) h = f* (g h), both sides evaluated exactly.

    The left side multiplies first and truncates the product back to the
    band before pairing; the right side pairs against the full double-band
    product.  Both equal the alias-free triple quadrature.
    """
    N = fstar.N
    if g.N != N or h.N != N:
        raise ValueError("triple must share one truncation")
    T = mult_operator(fstar)
    lhs = dual_pair(T.apply(g), h)
    G = default_grid_points(N)
    gh = from_grid(to_grid(g, G) * to_grid(h, G), 2 * N)
    rhs = dual_pair(fstar.resize(2 * N), gh)
    quad = float(np.mean(to_grid(fstar, G) * to_grid(g, G) * to_grid(h, G)))
    scale = max(abs(rhs), 1.0)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "quadrature": quad,
        "residual": abs(lhs - rhs) / scale,
        "passed": bool(abs(lhs - rhs) <= 1e-10 * scale and abs(lhs - quad) <= 1e-10 * scale),
    }


def _fine_grid(N: int) -> int:
    """The smallest power of two that is at least FINE_GRID and carries the modes -N..N."""
    return max(FINE_GRID, 1 << (2 * N).bit_length())


def sup_norm(g: FourierLoop) -> float:
    return float(np.max(np.abs(to_grid(g, _fine_grid(g.N)))))


def c0_embedding_constant(N: int) -> float:
    """Best constant in sup|u| <= C ||u||_1 over the band (Cauchy-Schwarz)."""
    return float(np.sqrt(np.sum(1.0 / weights(N, 1.0))))


def signature_ordering_check(g: FourierLoop) -> dict:
    """Chain op_norm(1,0->0) <= sup|g| <= C(N) ||g||_1 for one factor."""
    norm = op_norm(mult_operator(g), *SIGNATURES["(1,0->0)"])
    sup = sup_norm(g)
    bound = c0_embedding_constant(g.N) * g.norm(1.0)
    return {
        "op_norm": float(norm),
        "sup": sup,
        "c0_bound": bound,
        "passed": bool(norm <= sup * (1.0 + 1e-10) and sup <= bound * (1.0 + 1e-10)),
    }


def dual_estimate_check(g: FourierLoop) -> dict:
    """||g u||_{-1} control: the (-1,-1) norm of mult-by-g equals its (1,1) norm.

    Exact by duality for real factors (the level-0 adjoint of the Toeplitz
    matrix is itself), so the dual estimate inherits the (1,1->1) constant.
    The two norms come from one op_norms call.  The identity holds for
    every truncation, so rel_gap measures roundoff, not evidence about
    the untruncated operator.
    """
    T = mult_operator(g)
    n_plus, n_minus = op_norms(T, [(1.0, 1.0), (-1.0, -1.0)])
    rel = abs(n_plus - n_minus) / max(n_plus, 1e-30)
    return {
        "norm_11": float(n_plus),
        "norm_dual": float(n_minus),
        "rel_gap": float(rel),
        "passed": bool(rel <= 1e-10),
    }


# ---------------------------------------------------------------------------
# Hölder embedding


def embedding_constant(N: int, s: float) -> tuple[float, float]:
    """Sharp constant of the dyadic-offset seminorm against the level-s norm.

    For a fixed offset y the increment u(t+y) - u(t) is a linear
    functional with dual norm sqrt(sum_k 4 sin^2(pi k y) / w_k(s)), so
    the constant is exact, not sampled.  Returns (constant, best offset).
    """
    k = mode_numbers(N)
    w = weights(N, s)
    alpha = s - 0.5
    best, best_y = 0.0, 0.5
    for j in DYADIC_OFFSETS:
        y = 2.0**-j
        dual = np.sqrt(np.sum(4.0 * np.sin(np.pi * k * y) ** 2 / w))
        val = dual / y**alpha
        if val > best:
            best, best_y = float(val), y
    return best, best_y


def extremal_profile(N: int, s: float) -> FourierLoop:
    """Scalar loop attaining the dyadic seminorm constant at its best offset."""
    _, y = embedding_constant(N, s)
    k = mode_numbers(N)
    c = ((np.exp(-2j * np.pi * k * y) - 1.0) / weights(N, s))[:, None]
    return FourierLoop(c)


def holder_seminorm(u: FourierLoop, alpha: float) -> float:
    """sup over dyadic offsets y of |u(t+y) - u(t)| / y^alpha on _fine_grid(u.N) points."""
    G = _fine_grid(u.N)
    vals = to_grid(u, G)
    best = 0.0
    for j in DYADIC_OFFSETS:
        shift = G >> j
        y = shift / G
        diff = float(np.max(np.abs(np.roll(vals, -shift, axis=0) - vals)))
        best = max(best, diff / y**alpha)
    return best


def holder_embedding_check(s: float, N_sweep: tuple[int, ...] = (16, 32, 64, 128, 256)) -> dict:
    """Sharp seminorm-to-norm constants across N; they must stabilize.

    Each swept constant is the exact dual-norm value, cross-checked by
    the loop that attains it.  The verdict is sweep_verdict's at HOLDER_RTOL.
    s = 1/2 is admitted as the documented endpoint control: there the
    constant keeps growing and the verdict says so.
    """
    if not 0.5 <= s < 1.5:
        raise LevelError(f"embedding level s={s} out of range [1/2, 3/2)")
    alpha = s - 0.5
    sweep = []
    for M in sorted(N_sweep):
        c, y = embedding_constant(M, s)
        u = extremal_profile(M, s)
        attained = holder_seminorm(u, alpha) / u.norm(s)
        sweep.append(
            {"N": int(M), "ratio": float(c), "offset": y, "attained": float(attained / c)}
        )
    ratios = [e["ratio"] for e in sweep]
    return {
        "s": s,
        "alpha": alpha,
        "sweep": sweep,
        "constant": float(max(ratios)),
        "verdict": sweep_verdict(ratios, HOLDER_RTOL),
    }
