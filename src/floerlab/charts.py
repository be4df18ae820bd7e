"""Finite-dimensional chart maps with analytic derivatives through order 3.

A chart is a smooth map Phi : U subset R^n -> R^n given by vectorized
evaluators for the value and its first three derivative tensors.  Index
conventions, with g the grid-sample axis:

    jacobian[g, i, j]    = d Phi_i / d x_j
    hessian[g, i, j, k]  = d^2 Phi_i / (d x_j d x_k)
    third[g, i, j, k, l] = d^3 Phi_i / (d x_j d x_k d x_l)

Nonlinear built-ins are planar maps f(z, conj z) of one complex
variable, with closed-form Wirtinger derivatives d^a dbar^b f; the real
tensors follow from d_x = d + dbar and d_y = i (d - dbar).  Finite
differences appear only in tests, as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Domain slack, in chart coordinates, demanded of every sample.
DEFAULT_MARGIN = 0.05


@dataclass
class DiffeoChart:
    n: int
    name: str
    value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray] | None = None
    # Signed distance proxy to the domain boundary; samples must clear
    # DEFAULT_MARGIN.  None means the chart is defined on all of R^n.
    boundary_clearance: Callable[[np.ndarray], np.ndarray] | None = None
    inverse: "DiffeoChart | None" = field(default=None, repr=False)

    def contains(self, points: np.ndarray) -> bool:
        if self.boundary_clearance is None:
            return True
        return bool(np.all(self.boundary_clearance(points) >= DEFAULT_MARGIN))


def pair_inverses(a: DiffeoChart, b: DiffeoChart) -> DiffeoChart:
    a.inverse = b
    b.inverse = a
    return a


def _entry_evaluator(fns: list, n_in: int, shape: tuple[int, ...]):
    """Bundle lambdified scalar entries into one (G,n)->(G,)+shape evaluator."""

    def run(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        cols = [points[:, j] for j in range(n_in)]
        G = points.shape[0]
        out = np.empty((len(fns), G), dtype=float)
        for m, fn in enumerate(fns):
            out[m] = np.broadcast_to(np.asarray(fn(*cols), dtype=float), (G,))
        return np.moveaxis(out.reshape(shape + (G,)), -1, 0)

    return run


def chart_from_sympy(exprs, symbols, name: str, boundary_clearance=None) -> DiffeoChart:
    """Build a chart from sympy expressions, differentiating symbolically.

    sympy is imported here, not with the package: no built-in chart needs it.
    """
    import sympy as sp

    n = len(symbols)
    exprs = [sp.sympify(e) for e in exprs]
    if len(exprs) != n:
        raise ValueError("chart must map R^n to R^n")

    def lam(e):
        return sp.lambdify(symbols, e, modules="numpy")

    val = _entry_evaluator([lam(e) for e in exprs], n, (n,))
    d1 = [sp.diff(exprs[i], symbols[j]) for i in range(n) for j in range(n)]
    jac = _entry_evaluator([lam(e) for e in d1], n, (n, n))
    d2 = [
        sp.diff(exprs[i], symbols[j], symbols[k])
        for i in range(n)
        for j in range(n)
        for k in range(n)
    ]
    hes = _entry_evaluator([lam(e) for e in d2], n, (n, n, n))
    d3 = [
        sp.diff(exprs[i], symbols[j], symbols[k], symbols[l])
        for i in range(n)
        for j in range(n)
        for k in range(n)
        for l in range(n)
    ]
    third = _entry_evaluator([lam(e) for e in d3], n, (n, n, n, n))
    return DiffeoChart(
        n=n,
        name=name,
        value=val,
        jacobian=jac,
        hessian=hes,
        third=third,
        boundary_clearance=boundary_clearance,
    )


def _wirtinger_rows(m: int) -> np.ndarray:
    """rows[k, a]: d_x^(m-k) d_y^k = sum_a rows[k, a] d^a dbar^(m-a)."""
    rows = []
    for k in range(m + 1):
        c = np.ones(1, dtype=complex)
        for _ in range(m - k):
            c = np.convolve(c, [1.0, 1.0])  # d_x = d + dbar
        for _ in range(k):
            c = np.convolve(c, [-1j, 1j])  # d_y = i d - i dbar
        rows.append(c)
    return np.array(rows)


_WIRTINGER = [_wirtinger_rows(m) for m in range(4)]


def _real_tensor(derivs, m: int):
    """(G,2)->(G,2)+(2,)*m evaluator of the m-th derivative of (Re f, Im f).

    derivs(z, m) returns the (m+1, G) array of d^a dbar^(m-a) f at z; an
    entry with k y-slots depends only on k, through row k of _WIRTINGER.
    """
    rows = _WIRTINGER[m]
    k_of_slot = np.indices((2,) * m, dtype=int).sum(axis=0)

    def run(points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        by_k = rows @ derivs(p[:, 0] + 1j * p[:, 1], m)
        t = np.moveaxis(by_k[k_of_slot], -1, 0)
        return np.stack([t.real, t.imag], axis=1)

    return run


def _wirtinger_chart(name: str, derivs, boundary_clearance=None) -> DiffeoChart:
    value, jac, hes, third = (_real_tensor(derivs, m) for m in range(4))
    return DiffeoChart(
        n=2,
        name=name,
        value=value,
        jacobian=jac,
        hessian=hes,
        third=third,
        boundary_clearance=boundary_clearance,
    )


def _mobius_chart(a, b, c, d, conjugate: bool, name: str, boundary_clearance=None) -> DiffeoChart:
    """The planar chart of g(w) = (a w + b)/(c w + d), at w = z or w = conj z.

    g^(m)(w) = (-1)^(m-1) m! c^(m-1) (ad - bc)/(cw + d)^(m+1).  The value is
    (aw + b) conj(cw + d) with each part divided by |cw + d|^2, so that
    1/conj z evaluates bit-exactly as x/|x|^2.
    """
    det = a * d - b * c

    def derivs(z: np.ndarray, m: int) -> np.ndarray:
        w = np.conj(z) if conjugate else z
        q = c * w + d
        if m == 0:
            num = (a * w + b) * np.conj(q)
            den = q.real**2 + q.imag**2
            g = num.real / den + 1j * (num.imag / den)
        else:
            g = (-1) ** (m - 1) * math.factorial(m) * c ** (m - 1) * det / q ** (m + 1)
        out = np.zeros((m + 1,) + z.shape, dtype=complex)
        out[0 if conjugate else m] = g  # only dbar^m f, or only d^m f, survives
        return out

    return _wirtinger_chart(name, derivs, boundary_clearance)


# ---------------------------------------------------------------------------
# built-in charts


def identity_chart(n: int = 2) -> DiffeoChart:
    chart = DiffeoChart(
        n=n,
        name="identity",
        value=lambda x: np.array(x, dtype=float, copy=True),
        jacobian=lambda x: np.broadcast_to(np.eye(n), (x.shape[0], n, n)).copy(),
        hessian=lambda x: np.zeros((x.shape[0], n, n, n)),
        third=lambda x: np.zeros((x.shape[0], n, n, n, n)),
    )
    chart.inverse = chart
    return chart


def linear_chart(A: np.ndarray, name: str = "linear") -> DiffeoChart:
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or abs(np.linalg.det(A)) < 1e-12:
        raise ValueError("linear chart needs an invertible square matrix")

    def make(M: np.ndarray, nm: str) -> DiffeoChart:
        return DiffeoChart(
            n=n,
            name=nm,
            value=lambda x: x @ M.T,
            jacobian=lambda x: np.broadcast_to(M, (x.shape[0], n, n)).copy(),
            hessian=lambda x: np.zeros((x.shape[0], n, n, n)),
            third=lambda x: np.zeros((x.shape[0], n, n, n, n)),
        )

    return pair_inverses(make(A, name), make(np.linalg.inv(A), name + "_inv"))


def shear_chart() -> DiffeoChart:
    """Planar shear (x, y) -> (x, y + x^2); polynomial, globally invertible."""

    def make(sign: float, nm: str) -> DiffeoChart:
        def value(p):
            out = np.array(p, dtype=float, copy=True)
            out[:, 1] += sign * p[:, 0] ** 2
            return out

        def jac(p):
            G = p.shape[0]
            out = np.broadcast_to(np.eye(2), (G, 2, 2)).copy()
            out[:, 1, 0] = 2.0 * sign * p[:, 0]
            return out

        def hes(p):
            out = np.zeros((p.shape[0], 2, 2, 2))
            out[:, 1, 0, 0] = 2.0 * sign
            return out

        return DiffeoChart(
            n=2,
            name=nm,
            value=value,
            jacobian=jac,
            hessian=hes,
            third=lambda p: np.zeros((p.shape[0], 2, 2, 2, 2)),
        )

    return pair_inverses(make(1.0, "shear"), make(-1.0, "shear_inv"))


def rotation_field_chart(strength: float = 1.0) -> DiffeoChart:
    """Rotation by the position-dependent angle strength * |x|^2.

    Radius preserving with unit Jacobian determinant everywhere, so it is
    a global diffeomorphism whose inverse rotates by the opposite angle.
    In complex form it is f = z exp(i lam z conj z).
    """

    def make(lam: float) -> DiffeoChart:
        s = 1j * lam

        def derivs(z: np.ndarray, m: int) -> np.ndarray:
            w = np.conj(z)
            E = np.exp(s * (z.real**2 + z.imag**2))

            def dE(a: int, b: int) -> np.ndarray:
                # d^a dbar^b exp(s z w), differentiating in w first: Leibniz
                # over the (s z)^b factor that dbar^b brings down.
                return E * sum(
                    math.comb(a, i) * math.perm(b, i) * s**b * z ** (b - i) * (s * w) ** (a - i)
                    for i in range(min(a, b) + 1)
                )

            return np.array([z * dE(a, m - a) + (a * dE(a - 1, m - a) if a else 0) for a in range(m + 1)])

        return _wirtinger_chart(f"rotation_field[{lam}]", derivs)

    return pair_inverses(make(strength), make(-strength))


def inversion_chart(min_radius: float = 0.0) -> DiffeoChart:
    """The planar inversion x -> x / |x|^2 on R^2 minus the origin.

    This is the transition between the two stereographic charts of the
    round sphere, the anti-Moebius map 1/conj z; it is an involution.
    """

    def clearance(p):
        return np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2) - min_radius

    chart = _mobius_chart(0.0, 1.0, 1.0, 0.0, True, "inversion", boundary_clearance=clearance)
    chart.inverse = chart
    return chart


def c1_only_chart() -> DiffeoChart:
    """Planar map (x, y) -> (x, y + x|x|/2) whose second derivative is a jump.

    The map is C^1 with Lipschitz first derivative, but the supplied
    second derivative sign(x) is discontinuous, so the second-order
    extension checks must flag divergence.  No third derivative exists.
    """

    def value(p):
        out = np.array(p, dtype=float, copy=True)
        out[:, 1] += 0.5 * p[:, 0] * np.abs(p[:, 0])
        return out

    def jac(p):
        G = p.shape[0]
        out = np.broadcast_to(np.eye(2), (G, 2, 2)).copy()
        out[:, 1, 0] = np.abs(p[:, 0])
        return out

    def hes(p):
        out = np.zeros((p.shape[0], 2, 2, 2))
        out[:, 1, 0, 0] = np.sign(p[:, 0])
        return out

    return DiffeoChart(n=2, name="c1_only", value=value, jacobian=jac, hessian=hes, third=None)


def compose_charts(outer: DiffeoChart, inner: DiffeoChart, _wire_inverse: bool = True) -> DiffeoChart:
    """Chart of the composite outer(inner(.)), chain-ruled through order 3."""
    if outer.n != inner.n:
        raise ValueError("chart dimensions do not match")
    n = outer.n

    def value(p):
        return outer.value(inner.value(p))

    def jac(p):
        y = inner.value(p)
        return np.einsum("gik,gkj->gij", outer.jacobian(y), inner.jacobian(p))

    def hes(p):
        y = inner.value(p)
        Do, Ho = outer.jacobian(y), outer.hessian(y)
        Di, Hi = inner.jacobian(p), inner.hessian(p)
        quad = np.einsum("giab,gaj,gbk->gijk", Ho, Di, Di)
        lin = np.einsum("gia,gajk->gijk", Do, Hi)
        return quad + lin

    third = None
    if outer.third is not None and inner.third is not None:
        def third(p):
            y = inner.value(p)
            Do, Ho, To = outer.jacobian(y), outer.hessian(y), outer.third(y)
            Di, Hi, Ti = inner.jacobian(p), inner.hessian(p), inner.third(p)
            out = np.einsum("giabc,gaj,gbk,gcl->gijkl", To, Di, Di, Di)
            out += np.einsum("giab,gajl,gbk->gijkl", Ho, Hi, Di)
            out += np.einsum("giab,gaj,gbkl->gijkl", Ho, Di, Hi)
            out += np.einsum("giab,gajk,gbl->gijkl", Ho, Hi, Di)
            out += np.einsum("gia,gajkl->gijkl", Do, Ti)
            return out

    clearance = None
    if inner.boundary_clearance is not None or outer.boundary_clearance is not None:
        def clearance(p):
            vals = np.full(p.shape[0], np.inf)
            if inner.boundary_clearance is not None:
                vals = np.minimum(vals, inner.boundary_clearance(p))
            if outer.boundary_clearance is not None:
                vals = np.minimum(vals, outer.boundary_clearance(inner.value(p)))
            return vals

    chart = DiffeoChart(
        n=n,
        name=f"({outer.name} o {inner.name})",
        value=value,
        jacobian=jac,
        hessian=hes,
        third=third,
        boundary_clearance=clearance,
    )
    if _wire_inverse and outer.inverse is not None and inner.inverse is not None:
        inv = compose_charts(inner.inverse, outer.inverse, _wire_inverse=False)
        chart.inverse = inv
        inv.inverse = chart
    return chart
