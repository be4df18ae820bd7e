"""Action-type functions on loop space and their gradient/Hessian axioms.

The model example is the perturbed symplectic action

    f(u) = 1/2 integral <J0 u'(t), u(t)> dt - integral H(t, u(t)) dt,

whose level-0 gradient is J0 u' - grad_x H(t, u) and whose Hessian is
J0 d/dt - hess_x H(t, u(.)).  The ordering of the quadratic pairing is
the one that produces exactly this gradient; it is the single place the
sign convention is fixed, everything downstream inherits it.

On the truncated model the discrete value, gradient and Hessian are the
exact calculus of one finite-dimensional function: the quadratic term is
evaluated in coefficients, the Hamiltonian term by the alias-free grid
quadrature whose directional derivatives land back on band-limited
modes.  Finite differences in the axiom checks therefore converge to the
implemented objects at the stencil's own rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scale_operator import (
    STABLE_RTOL,
    LevelOperator,
    adjoint,
    fredholm_diagnostic,
    op_norm,
    sweep_verdict,
)
from .scale_space import (
    FourierLoop,
    default_grid_points,
    from_grid,
    grid_times,
    inner,
    mode_numbers,
    to_grid,
)

GRAD_FD_RTOL = 1e-7
HESS_FD_RTOL = 1e-6
SYMMETRY_RTOL = 1e-10
C1_RTOL = 1e-6


def standard_symplectic_matrix(dim: int) -> np.ndarray:
    """J0 on R^dim = R^m x R^m, J0 (x, y) = (-y, x)."""
    if dim % 2 != 0:
        raise ValueError("the symplectic dimension must be even")
    m = dim // 2
    J = np.zeros((dim, dim))
    J[:m, m:] = -np.eye(m)
    J[m:, :m] = np.eye(m)
    return J


@dataclass
class HamiltonianData:
    """Time-periodic Hamiltonian with derivatives, vectorized over samples.

    Evaluators take times t of shape (G,) and positions x of shape
    (G, dim) and return (G,), (G, dim), (G, dim, dim).
    """

    dim: int
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = ""


def quadratic_hamiltonian(dim: int = 2, c: float = 1.0) -> HamiltonianData:
    """H(t, x) = c/2 |x|^2, the autonomous reference perturbation."""
    return HamiltonianData(
        dim=dim,
        value=lambda t, x: 0.5 * c * np.sum(x**2, axis=1),
        grad_x=lambda t, x: c * x,
        hess_x=lambda t, x: np.broadcast_to(c * np.eye(dim), (x.shape[0], dim, dim)).copy(),
        name=f"quadratic[{c}]",
    )


def driven_hamiltonian(dim: int = 2, c: float = 1.0, eps: float = 0.3, mode: int = 1) -> HamiltonianData:
    """Quadratic well with a time-periodic linear drive on the first coordinate."""
    om = 2.0 * np.pi * mode

    def grad_x(t, x):
        g = c * x.copy()
        g[:, 0] += eps * np.cos(om * t)
        return g

    return HamiltonianData(
        dim=dim,
        value=lambda t, x: 0.5 * c * np.sum(x**2, axis=1) + eps * np.cos(om * t) * x[:, 0],
        grad_x=grad_x,
        hess_x=lambda t, x: np.broadcast_to(c * np.eye(dim), (x.shape[0], dim, dim)).copy(),
        name=f"driven[{c},{eps}]",
    )


@dataclass
class FloerFunctionNumeric:
    """A function on truncated loop space with its level-annotated calculus.

    hessian(q) is the one Hessian, annotated H_1 -> H_0.  Its restriction
    H_2 -> H_1 has the same coefficients, so callers choose the level pair
    through the a, b arguments of op_norm, weighted_singular_values and
    fredholm_diagnostic; the gradient's restriction is likewise checked in
    the level-1 norm.  rebuild re-instantiates the same function at
    another truncation for N-sweeps.
    """

    n: int
    N: int
    value: Callable[[FourierLoop], float]
    gradient: Callable[[FourierLoop], FourierLoop]
    hessian: Callable[[FourierLoop], LevelOperator]
    rebuild: Callable[[int], "FloerFunctionNumeric"]
    name: str = ""


def symplectic_action(H: HamiltonianData, N: int) -> FloerFunctionNumeric:
    """The perturbed action as a FloerFunctionNumeric at truncation N."""
    dim = H.dim
    J0 = standard_symplectic_matrix(dim)
    G = default_grid_points(N)
    t = grid_times(G)
    k = mode_numbers(N).astype(float)

    def value(u: FourierLoop) -> float:
        du = 2j * np.pi * k[:, None] * u.coeffs
        sympl = 0.5 * float(np.real(np.sum((du @ J0.T) * np.conj(u.coeffs))))
        return sympl - float(np.mean(H.value(t, to_grid(u, G))))

    def gradient(u: FourierLoop) -> FourierLoop:
        du = 2j * np.pi * k[:, None] * u.coeffs
        force = from_grid(H.grad_x(t, to_grid(u, G)), N)
        return FourierLoop(du @ J0.T - force.coeffs)

    def hessian(u: FourierLoop) -> LevelOperator:
        # multiplication by -hess_x H along u, plus 2 pi i k J0 on the mode blocks
        well = np.negative(H.hess_x(t, to_grid(u, G)))
        blocks = (2j * np.pi * k)[:, None, None] * J0
        return LevelOperator(None, 1.0, 0.0, N, dim, factor=well, blocks=blocks)

    return FloerFunctionNumeric(
        n=dim,
        N=N,
        value=value,
        gradient=gradient,
        hessian=hessian,
        rebuild=lambda M: symplectic_action(H, M),
        name=f"action[{H.name}]",
    )


def quadratic_spectral(
    op_builder: Callable[[int], LevelOperator],
    N: int,
    name: str = "quadratic_spectral",
) -> FloerFunctionNumeric:
    """f(u) = 1/2 <L u, u>_0 for a level-0 symmetric operator family L(N)."""
    L = op_builder(N)
    if np.max(np.abs(L.matrix - adjoint(L, 0.0).matrix)) > 1e-10 * max(
        1.0, float(np.max(np.abs(L.matrix)))
    ):
        raise ValueError("quadratic_spectral needs a level-0 symmetric operator")

    def value(u: FourierLoop) -> float:
        return 0.5 * inner(L.apply(u), u, 0.0)

    def gradient(u: FourierLoop) -> FourierLoop:
        return L.apply(u)

    return FloerFunctionNumeric(
        n=L.n,
        N=N,
        value=value,
        gradient=gradient,
        hessian=lambda u: L.with_levels(1.0, 0.0),
        rebuild=lambda M: quadratic_spectral(op_builder, M, name=name),
        name=name,
    )


# ---------------------------------------------------------------------------
# finite-difference oracles


def richardson_directional(fn, q: FourierLoop, xi: FourierLoop, h: float = 1e-3):
    """Central difference of fn along xi, Richardson-extrapolated to O(h^4)."""
    coarse = (fn(q + h * xi) - fn(q - h * xi)) * (1.0 / (2.0 * h))
    fine = (fn(q + (h / 2.0) * xi) - fn(q - (h / 2.0) * xi)) * (1.0 / h)
    return (1.0 / 3.0) * (4.0 * fine - coarse)


def richardson_second(fn, q: FourierLoop, xi: FourierLoop, eta: FourierLoop, h: float = 1e-3) -> float:
    """Mixed second difference by the symmetric four-point stencil, extrapolated."""

    def stencil(step: float) -> float:
        return (
            fn(q + step * xi + step * eta)
            - fn(q + step * xi - step * eta)
            - fn(q - step * xi + step * eta)
            + fn(q - step * xi - step * eta)
        ) / (4.0 * step**2)

    return (4.0 * stencil(h / 2.0) - stencil(h)) / 3.0


def _rel(err: float, scale: float) -> float:
    return err / max(scale, 1e-30)


# ---------------------------------------------------------------------------
# axiom checks


def gradient_axiom_check(
    F: FloerFunctionNumeric,
    samples: list[FourierLoop],
    directions: list[FourierLoop],
    N_sweep: tuple[int, ...] = (16, 32, 64),
) -> dict:
    """Check the three gradient axioms; JSON-ready report keyed by axiom name."""
    pair_err = 0.0
    c1_err = 0.0
    for q in samples:
        g = F.gradient(q)
        A = F.hessian(q)
        for xi in directions:
            fd = richardson_directional(F.value, q, xi)
            val = inner(g, xi, 0.0)
            pair_err = max(pair_err, _rel(abs(fd - val), max(abs(val), g.norm(0.0) * xi.norm(0.0))))
            fd_grad = richardson_directional(F.gradient, q, xi)
            ref = A.apply(xi)
            c1_err = max(c1_err, _rel((fd_grad - ref).norm(0.0), max(ref.norm(0.0), g.norm(0.0))))
    grad_ok = pair_err <= GRAD_FD_RTOL
    c1_ok = c1_err <= C1_RTOL

    sweep = []
    for M in sorted(N_sweep):
        FM = F.rebuild(M)
        worst = max(FM.gradient(q.resize(M)).norm(1.0) for q in samples)
        sweep.append({"N": int(M), "norm": float(worst)})
    restr_ok = sweep_verdict([e["norm"] for e in sweep], STABLE_RTOL) == "stable"
    base = samples[0]
    bump = 1e-3 * (1.0 / directions[0].norm(2.0)) * directions[0]
    modulus = (F.gradient(base + bump) - F.gradient(base)).norm(1.0) / bump.norm(2.0)

    report = {
        "H0-gradient": {"max_rel_err": float(pair_err), "tol": GRAD_FD_RTOL, "passed": bool(grad_ok)},
        "Restriction": {
            "sweep": sweep,
            "continuity_modulus": float(modulus),
            "passed": bool(restr_ok and np.isfinite(modulus)),
        },
        "Differentiability": {"max_rel_err": float(c1_err), "tol": C1_RTOL, "passed": bool(c1_ok)},
    }
    report["verdict"] = "pass" if all(report[k]["passed"] for k in ("H0-gradient", "Restriction", "Differentiability")) else "fail"
    return report


def hessian_axiom_check(
    F: FloerFunctionNumeric,
    samples: list[FourierLoop],
    pairs: list[tuple[FourierLoop, FourierLoop]],
    N_sweep: tuple[int, ...] = (16, 32, 64),
) -> dict:
    """Check the four Hessian axioms; the Fredholm entry carries both level pairs."""
    sym_err = 0.0
    fd_err = 0.0
    for q in samples:
        A = F.hessian(q)
        for xi, eta in pairs:
            Axi, Aeta = A.apply(xi), A.apply(eta)
            left = inner(Axi, eta, 0.0)
            right = inner(xi, Aeta, 0.0)
            scale = max(Axi.norm(0.0) * eta.norm(0.0), Aeta.norm(0.0) * xi.norm(0.0))
            sym_err = max(sym_err, _rel(abs(left - right), scale))
            fd = richardson_second(F.value, q, xi, eta)
            fd_err = max(fd_err, _rel(abs(fd - left), max(abs(left), scale)))

    # one rebuilt Hessian per (N, sample), read at both level pairs
    sweep2 = []
    family = {}
    for M in sorted(N_sweep):
        FM = F.rebuild(M)
        hessians = [FM.hessian(q.resize(M)) for q in samples]
        family[M] = hessians[0]
        worst = max(op_norm(A, 2.0, 1.0) for A in hessians)
        sweep2.append({"N": int(M), "norm": float(worst)})
    restr_ok = sweep_verdict([e["norm"] for e in sweep2], STABLE_RTOL) == "stable"

    base = samples[0]
    bump = 1e-3 * (1.0 / pairs[0][0].norm(1.0)) * pairs[0][0]
    dA = F.hessian(base + bump) - F.hessian(base)
    modulus = op_norm(dA, 1.0, 0.0) / bump.norm(1.0)

    fred = {
        f"({a:g}->{b:g})": fredholm_diagnostic(family, a, b).to_json()
        for a, b in ((1.0, 0.0), (2.0, 1.0))
    }
    fred_ok = all(r["verdict"] == "fredholm" and r["index_estimate"] == 0 for r in fred.values())

    report = {
        "H0-Hessian": {
            "symmetry_rel_err": float(sym_err),
            "fd_rel_err": float(fd_err),
            "tols": {"symmetry": SYMMETRY_RTOL, "fd": HESS_FD_RTOL},
            "passed": bool(sym_err <= SYMMETRY_RTOL and fd_err <= HESS_FD_RTOL),
        },
        "Restriction": {
            "sweep": sweep2,
            "passed": bool(restr_ok),
        },
        "Continuity": {"modulus": float(modulus), "passed": bool(np.isfinite(modulus))},
        "Fredholm": {"reports": fred, "passed": bool(fred_ok)},
    }
    report["verdict"] = "pass" if all(
        report[k]["passed"] for k in ("H0-Hessian", "Restriction", "Continuity", "Fredholm")
    ) else "fail"
    return report


def full_report(
    F: FloerFunctionNumeric,
    samples: list[FourierLoop],
    directions: list[FourierLoop],
    pairs: list[tuple[FourierLoop, FourierLoop]],
    N_sweep: tuple[int, ...] = (16, 32, 64),
) -> dict:
    """Gradient and Hessian axiom reports under one verdict."""
    g = gradient_axiom_check(F, samples, directions, N_sweep)
    h = hessian_axiom_check(F, samples, pairs, N_sweep)
    ok = g["verdict"] == "pass" and h["verdict"] == "pass"
    return {"name": F.name, "gradient": g, "hessian": h, "verdict": "pass" if ok else "fail"}
