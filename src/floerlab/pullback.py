"""Pulling an action-type function back through a superposition map.

For f on the target patch and phi the loop-space map of a chart, the
composite f o phi has

    gradient   dphi(q)* grad f|_phi(q)                      (level-0 adjoint)
    Hessian    dphi(q)* A|_phi(q) dphi(q)  +  K(q) o iota_s

where K(q) is the level-0 Riesz representative of the bilinear form
(xi, eta) -> <grad f|_phi(q), d2phi(q)[xi, eta]>_0.  In the truncated
model both formulas are the exact calculus of q -> f(phi(q)), so they
are checkable against plain finite differences.  Every function here
takes the chart itself and reads the truncation from the loop q, as the
maps of floer_map and the functions of floer_function do, so one
pull-back serves every N.

K(q) is itself a multiplication operator: its symbol is the matrix
field V_jk(t) = sum_i g_i(t) d_j d_k Phi_i(u(t)) with g the gradient
along the image loop.  That makes the correction term's compactness
visible directly in its weighted singular values.
"""

from __future__ import annotations

import numpy as np

from .floer_function import FloerFunctionNumeric, full_report
from .charts import DiffeoChart
from .floer_map import apply, d2phi, dphi
from .scale_operator import (
    KERNEL_RTOL,
    LevelOperator,
    adjoint,
    fredholm_diagnostic,
    op_norm,
    weighted_singular_values,
)
from .scale_space import FourierLoop, random_loop, to_grid

KAPPA_SLACK = 1e-8


def _check_match(F: FloerFunctionNumeric, phi: DiffeoChart) -> None:
    if F.n != phi.n:
        raise ValueError("function and chart must share dimension")


def pull_back_gradient(F: FloerFunctionNumeric, phi: DiffeoChart, q: FourierLoop) -> FourierLoop:
    """Level-0 gradient of f o phi at q."""
    _check_match(F, phi)
    D = dphi(phi, q)
    return adjoint(D).apply(F.gradient(apply(phi, q)))


def riesz_correction(F: FloerFunctionNumeric, phi: DiffeoChart, q: FourierLoop) -> LevelOperator:
    """The correction operator K(q) of the module docstring, at q's truncation.

    The form is multiplication by the matrix field V of the module
    docstring, sampled on the grid of d2phi(phi, q).  The level-0 Riesz
    map is a solve with the Gram matrix of the mode basis, which is the
    identity (the basis is level-0 orthonormal), so K is that
    multiplication operator, held by its factor V.  The inclusion iota_s
    is the identity on coefficients, so the Hessian's K o iota_s is K
    itself.
    """
    _check_match(F, phi)
    g = F.gradient(apply(phi, q))
    B = d2phi(phi, q)
    V = np.einsum("gi,gijk->gjk", to_grid(g, B.grid_points), B.tensor)
    return LevelOperator(None, q.N, phi.n, factor=V)


def pull_back_hessian(F: FloerFunctionNumeric, phi: DiffeoChart, q: FourierLoop) -> LevelOperator:
    """Hessian of f o phi, read H_1 -> H_0 and H_2 -> H_1 like any FloerFunctionNumeric's."""
    return _conjugated_term(F, phi, q) + riesz_correction(F, phi, q)


def _conjugated_term(F: FloerFunctionNumeric, phi: DiffeoChart, q: FourierLoop) -> LevelOperator:
    _check_match(F, phi)
    D = dphi(phi, q)
    A = F.hessian(apply(phi, q))
    return adjoint(D) @ A @ D


def kappa_bound_check(
    F: FloerFunctionNumeric,
    phi: DiffeoChart,
    q: FourierLoop,
    s: float,
    hopm: dict,
) -> dict:
    """Bound op_norm(K, 1+s, 1) by ||grad f||_1 times the second-derivative
    norm at (1+s, -1; -1).

    The trilinear factor comes from alternating ascent on the budget hopm
    (no default) and is attained by an explicit triple, so it never
    overestimates; a pass is therefore evidence for the inequality, not an
    artifact of a loose bound.
    """
    _check_match(F, phi)
    g = F.gradient(apply(phi, q))
    c = d2phi(phi, q).norm(1.0 + s, -1.0, -1.0, **hopm)
    kappa = g.norm(1.0) * c
    k_norm = op_norm(riesz_correction(F, phi, q), 1.0 + s, 1.0)
    return {
        "s": s,
        "kappa": float(kappa),
        "K_norm": float(k_norm),
        "gradient_norm": float(g.norm(1.0)),
        "trilinear_norm": float(c),
        "passed": bool(k_norm <= kappa + KAPPA_SLACK),
    }


def pull_back(F: FloerFunctionNumeric, phi: DiffeoChart) -> FloerFunctionNumeric:
    """f o phi with its calculus: value, level-0 gradient and the one Hessian.

    The value is F.value(apply(phi, q)) verbatim; the gradient and the
    one Hessian come from the pull-back formulas above, each at the
    truncation of its q, so the one pull-back serves every N.  The
    Hessian is read at H_1 -> H_0 and at H_2 -> H_1 through the level
    arguments of the diagnostics, as for any FloerFunctionNumeric.
    """
    _check_match(F, phi)
    return FloerFunctionNumeric(
        n=phi.n,
        value=lambda q: F.value(apply(phi, q)),
        gradient=lambda q: pull_back_gradient(F, phi, q),
        hessian=lambda q: pull_back_hessian(F, phi, q),
        name=f"pullback[{F.name} via {phi.name}]",
    )


def _decay_slope(profile: np.ndarray) -> float:
    """Log-log slope of the trailing half of the resolved part of a descending profile.

    Values below KERNEL_RTOL times the largest are roundoff, not decay;
    fitting them would report the slope of the noise floor.
    """
    if profile.size == 0 or not profile[0] > 0.0:
        return 0.0
    resolved = profile[profile >= KERNEL_RTOL * profile[0]]
    start = resolved.size // 2
    if resolved.size - start < 2:
        return 0.0
    idx = np.arange(start, resolved.size) + 1.0
    return float(np.polyfit(np.log(idx), np.log(resolved[start:]), 1)[0])


def certify_pullback(
    F: FloerFunctionNumeric,
    phi: DiffeoChart,
    s: float,
    samples: list[FourierLoop],
    N_sweep: tuple[int, ...] = (16, 32, 64),
    *,
    hopm: dict,
) -> dict:
    """Run the full function-axiom battery on f o phi plus the split evidence.

    The samples fix the truncation of the random directions and of the
    correction's singular values (samples[0].N); s is the level the kappa
    bound reads, and hopm (keyword only, no default) its ascent budget.

    On top of the gradient/Hessian reports the certificate checks the two
    summands separately: Fredholm evidence for the conjugated term and
    singular value decay for the correction, with the kappa bound tying
    the correction's size to computable data.  The conjugated term's
    index_estimate is 0 by construction (fredholm_from_spectra), so index
    zero is not tested until ROADMAP item 3 counts it.
    """
    Ft = pull_back(F, phi)
    base_q = samples[0]

    rng = np.random.default_rng(2024)
    directions = [random_loop(rng, phi.n, base_q.N) for _ in range(2)]
    pairs = [(directions[0], directions[1])]
    report = full_report(Ft, samples, directions, pairs, N_sweep)

    conj_family = {M: _conjugated_term(F, phi, base_q.resize(M)) for M in N_sweep}
    conj_fred = fredholm_diagnostic(conj_family, 1.0, 0.0)

    tail = weighted_singular_values(riesz_correction(F, phi, base_q), 1.0, 0.0)
    slope = _decay_slope(tail)
    decaying = bool(tail[-1] < tail[0] and slope < -0.02)

    kb = kappa_bound_check(F, phi, base_q, s, hopm=hopm)
    stride = max(1, tail.size // 16)
    section = {
        "s": s,
        "kappa": kb["kappa"],
        "K_norm": kb["K_norm"],
        "kappa_passed": kb["passed"],
        "conjugated_fredholm": conj_fred,
        "compact_tail": [float(v) for v in tail[::stride]],
        "tail_slope": slope,
        "tail_decaying": decaying,
    }
    report["pullback"] = section
    ok = (
        report["verdict"] == "pass"
        and kb["passed"]
        and conj_fred["verdict"] == "fredholm"
        and decaying
    )
    report["verdict"] = "pass" if ok else "fail"
    return report
