"""Superposition maps between loop spaces and their scale-calculus checks.

A chart Phi : U -> R^n induces the map phi(u) = Phi o u on loops, and
the chart is all that represents it: apply/dphi/d2phi take the chart and
read the truncation N, and with it the grid, from the loop they are
given, so one chart serves every truncation.  On the truncated model
they are the exact value, derivative and second derivative of the
discretized map (grid evaluation followed by mode truncation), so every
chain-rule identity holds to roundoff for band-limited data, while the
scale-theoretic content sits in which level pairs the derivative objects
stay bounded on as the truncation grows.

The four extension axioms checked here, with s the level that
verify_floer_axioms is asked to read:

    (i)1   dphi(q) bounded on H_0, C^1 in q
    (i)2   dphi(q) bounded on H_{-1} (more regular base points), C^1 in q
    (ii)1  d2phi(q) bounded H_s x H_0 -> H_0
    (ii)2  d2phi(q) bounded H_{1+s} x H_{-1} -> H_{-1}

Bilinear operator norms are estimated by alternating Riesz/power ascent;
the estimate is an achieved lower bound, which keeps every inequality
that consumes it conservative.  trilinear_norms is the one ascent: it
takes any number of maps on one grid, each read at its own level triple,
and advances every starting triple of every map together along a leading
trial axis, each trial leaving the batch on its own exit rule; each Riesz
step runs on the half spectrum of modes 0..N, since every slot holds a
real loop.  Batching never mixes trials, so each reported value is still
the trilinear form at one explicit triple of unit vectors, and a map's
value is the one it gets alone (BilinearLevelMap.norm).  Per truncation,
verify_floer_axioms puts all its (ii)1 and (ii)2 norms, and the modulus
differences at the largest N, into one such batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import DEFAULT_MARGIN, DiffeoChart, compose_charts
from .scale_operator import LevelOperator, norm_sweep, op_norms
from .scale_space import (
    FourierLoop,
    from_grid,
    grid_samples,
    half_spectrum,
    to_grid,
    weights,
)

AXIOMS = ("(i)1", "(i)2", "(ii)1", "(ii)2")

# H_1 length of the bump behind the continuity moduli of verify_floer_axioms.
MODULUS_STEP = 1e-3


class ChartDomainError(ValueError):
    """A loop's grid samples left the chart domain (margin included)."""


def _level_norms(c: np.ndarray, mw: np.ndarray) -> np.ndarray:
    """Per-trial norms of half spectra c (trial, n, N+1); mw[t] holds m_k w_k."""
    return np.sqrt(np.einsum("tk,tk->t", (c.real**2 + c.imag**2).sum(axis=1), mw))


def _unit_samples(c: np.ndarray, mw: np.ndarray, G: int) -> np.ndarray:
    """Grid samples of the half spectra c scaled to unit norm, per trial."""
    return grid_samples(c / _level_norms(c, mw)[:, None, None], G, axis=-1)


# Slot gradients of t[trial, i, j, k, g], contracted over the other two slots:
# output (zeta = i), xi (j) and eta (k).
_SLOTS = ("tijkg,tjkg->tig", "tijkg,tikg->tjg", "tijkg,tijg->tkg")


def _slot_gradient(t: np.ndarray, slot: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One slot's gradient on the grid, per trial; u and v fill the other two slots in order."""
    return np.einsum(_SLOTS[slot], t, u[:, :, None, :] * v[:, None, :, :])


# Seed of the ascent's random starting triples, the same for every call.
ASCENT_SEED = 0


def _start_spectra(N: int, n: int, restarts: int) -> tuple[np.ndarray, np.ndarray]:
    """Half spectra (trial, n, N+1) of the xi and eta starts, not yet normalised.

    Two fixed triples, then restarts random real loops from default_rng(ASCENT_SEED).
    """
    rng = np.random.default_rng(ASCENT_SEED)
    starts = []
    for trial in range(restarts + 2):
        if trial == 0:
            cx = np.zeros((2 * N + 1, n), dtype=complex)
            cx[N, 0] = 1.0
            ce = np.zeros((2 * N + 1, n), dtype=complex)
            ce[0, -1] = ce[-1, -1] = 0.5
        elif trial == 1:
            cx = np.zeros((2 * N + 1, n), dtype=complex)
            cx[N, -1] = 1.0
            ce = np.zeros((2 * N + 1, n), dtype=complex)
            ce[N, 0] = 1.0
        else:
            cx = rng.standard_normal((2 * N + 1, n)) + 1j * rng.standard_normal((2 * N + 1, n))
            cx = 0.5 * (cx + np.conj(cx[::-1]))
            ce = rng.standard_normal((2 * N + 1, n)) + 1j * rng.standard_normal((2 * N + 1, n))
            ce = 0.5 * (ce + np.conj(ce[::-1]))
        starts.append((cx[N:].T, ce[N:].T))
    # C order, so each trial's arithmetic is the same in any batch
    cx, ce = (np.ascontiguousarray(np.stack(c)) for c in zip(*starts))
    return cx, ce


@dataclass
class BilinearLevelMap:
    """Second derivative of a superposition map, held as grid tensor values.

    tensor[g, i, j, k] multiplies slot values xi_j(t_g) eta_k(t_g) into
    output component i; calling the map truncates back to the mode range.
    """

    tensor: np.ndarray
    N: int

    @property
    def n(self) -> int:
        return self.tensor.shape[1]

    @property
    def grid_points(self) -> int:
        return self.tensor.shape[0]

    def __call__(self, xi: FourierLoop, eta: FourierLoop) -> FourierLoop:
        vx = to_grid(xi, self.grid_points)
        ve = to_grid(eta, self.grid_points)
        vals = np.einsum("gijk,gj,gk->gi", self.tensor, vx, ve)
        return from_grid(vals, self.N)

    def trilinear(self, xi: FourierLoop, eta: FourierLoop, zeta: FourierLoop) -> float:
        """<zeta, B(xi, eta)>_0; grid quadrature, exact for band-limited data."""
        vx = to_grid(xi, self.grid_points)
        ve = to_grid(eta, self.grid_points)
        vz = to_grid(zeta, self.grid_points)
        return float(np.einsum("gijk,gi,gj,gk->", self.tensor, vz, vx, ve) / self.grid_points)

    def norm(self, a: float, b: float, out: float, restarts: int = 4, iters: int = 150) -> float:
        """sup ||B(xi, eta)||_out / (||xi||_a ||eta||_b): trilinear_norms for this map alone."""
        return float(trilinear_norms([self], [(a, b, out)], restarts, iters).values[0])

    def __sub__(self, other: "BilinearLevelMap") -> "BilinearLevelMap":
        if self.tensor.shape != other.tensor.shape or self.N != other.N:
            raise ValueError("bilinear maps live on different grids")
        return BilinearLevelMap(self.tensor - other.tensor, self.N)


# How a trial leaves the ascent: its output gradient vanished, its value
# moved by at most ASCENT_RTOL, or it reached the iteration cap.
EXITS = ("null", "rtol", "cap")
ASCENT_RTOL = 1e-11


@dataclass(frozen=True)
class Ascent:
    """One batched ascent: per-map values and how each trial ended.

    values[p] is the largest |value| over the trials of maps[p]; exits[p, r]
    (one of EXITS) and iterations[p, r] (full sweeps taken) record trial r
    of that map, in the order of the starting triples.
    """

    values: np.ndarray
    exits: np.ndarray
    iterations: np.ndarray


# The restarts and iters of every ascent that the suites and the command line run.
LIGHT_HOPM = {"restarts": 1, "iters": 80}


def trilinear_norms(
    maps: list["BilinearLevelMap"],
    levels: list[tuple[float, float, float]],
    restarts: int = 4,
    iters: int = 150,
) -> Ascent:
    """sup ||B(xi, eta)||_out / (||xi||_a ||eta||_b) for each B in maps, by one ascent.

    maps[p] is read at levels[p] = (a, b, out); all maps share N, n and
    the grid.  The output slot is handled through the dual pairing, so
    each slot update is a closed-form Riesz step.  Every map gets the same
    restarts + 2 starting triples (two fixed, then random ones from
    default_rng(ASCENT_SEED)), and all trials of all maps advance
    together, held as grid samples of shape (trial, n, G).  Each trial
    carries its own map's tensor, as (n, n, n, G), and its own weight
    rows, so a slot gradient is an outer product and one two-operand
    contraction.  The Riesz step reads the gradient's half spectrum U
    (modes 0..N) and takes U / w, whose squared norm is
    sum_k m_k |U_k|^2 / w_k with m_0 = 1 and m_k = 2 counting the mode -k.
    A trial leaves the batch when the output gradient vanishes, when its
    value changes by at most ASCENT_RTOL (relative, or absolute below 1),
    or at the iters cap; the returned Ascent records which, and after how
    many sweeps, next to the values.

    Every step acts on each trial alone, on C-ordered arrays, so a map's
    value, exits and iteration counts are those of the same map run
    alone, bit for bit.  A map whose samples are all 0 takes no ascent:
    when iters > 0 its trials are recorded "null" at step 0, value 0, the
    record the ascent would give them, and leave the live set before the
    first step; at iters = 0 no step runs, and every trial records "cap".
    Each trial's value is the trilinear form at its
    current triple of unit vectors, by grid quadrature exact for
    band-limited data, so every returned maximum is attained and never
    overestimates.
    """
    if len(maps) != len(levels):
        raise ValueError("one level triple per map")
    shape, N = maps[0].tensor.shape, maps[0].N
    if any(B.tensor.shape != shape or B.N != N for B in maps):
        raise ValueError("bilinear maps live on different grids")
    G, n = shape[0], shape[1]
    per_map = restarts + 2
    trials = len(maps) * per_map
    vals = np.zeros(trials)
    exits = np.full(trials, "cap", dtype="<U4")
    steps = np.full(trials, iters)
    zero = np.repeat([iters > 0 and not B.tensor.any() for B in maps], per_map)
    exits[zero], steps[zero] = "null", 0
    live = np.flatnonzero(~zero)
    # each live trial carries its map's tensor as [trial, i, j, k, g]
    t = np.take([B.tensor.transpose(1, 2, 3, 0) for B in maps], live // per_map, axis=0)
    # weight rows per slot (output, xi, eta) and trial; the output's is the dual weight
    a, b, out = zip(*levels)
    w = np.take(
        [
            [1.0 / weights(N, x)[N:] for x in out],
            [weights(N, x)[N:] for x in a],
            [weights(N, x)[N:] for x in b],
        ],
        live // per_map,
        axis=1,
    )[:, :, None, :]
    m = np.r_[1.0, np.full(N, 2.0)] * w[:, :, 0]  # mode k > 0 stands for k and -k

    cx, ce = (c[live % per_map] for c in _start_spectra(N, n, restarts))
    vx = _unit_samples(cx, m[1], G)
    ve = _unit_samples(ce, m[2], G)

    for step in range(iters):
        if live.size == 0:
            break
        rz = half_spectrum(_slot_gradient(t, 0, vx, ve), N, axis=-1) / w[0]
        nz = _level_norms(rz, m[0])
        null = ~(nz > 0.0)
        if null.any():  # null gradient: the trial keeps its value
            exits[live[null]], steps[live[null]] = "null", step
            keep = ~null
            live, t, w, m, vx, ve, rz, nz = (
                live[keep], t[keep], w[:, keep], m[:, keep], vx[keep], ve[keep], rz[keep], nz[keep]
            )
            if live.size == 0:
                break
        vz = grid_samples(rz / nz[:, None, None], G, axis=-1)
        vx = _unit_samples(half_spectrum(_slot_gradient(t, 1, vz, ve), N, axis=-1) / w[1], m[1], G)
        ge = _slot_gradient(t, 2, vz, vx)
        ve = _unit_samples(half_spectrum(ge, N, axis=-1) / w[2], m[2], G)
        new = np.einsum("tig,tig->t", ge, ve) / G
        done = ~(np.abs(new - vals[live]) > ASCENT_RTOL * np.maximum(np.abs(new), 1.0))
        vals[live] = new
        if done.any():
            exits[live[done]], steps[live[done]] = "rtol", step + 1
            keep = ~done
            live, t, w, m, vx, ve = live[keep], t[keep], w[:, keep], m[:, keep], vx[keep], ve[keep]
    return Ascent(
        values=np.max(np.abs(vals).reshape(len(maps), per_map), axis=1, initial=0.0),
        exits=exits.reshape(len(maps), per_map),
        iterations=steps.reshape(len(maps), per_map),
    )


def _samples(chart: DiffeoChart, u: FourierLoop) -> np.ndarray:
    """u on the default grid of its truncation; raises ChartDomainError off the chart domain."""
    vals = to_grid(u)
    if not chart.contains(vals):
        raise ChartDomainError(
            f"loop leaves the domain of chart {chart.name!r} (margin {DEFAULT_MARGIN})"
        )
    return vals


def apply(chart: DiffeoChart, u: FourierLoop) -> FourierLoop:
    """phi(u) = truncate(Phi o u) at u's truncation; exact when Phi o u is band-limited."""
    return from_grid(chart.value(_samples(chart, u)), u.N)


def dphi(chart: DiffeoChart, u: FourierLoop) -> LevelOperator:
    """Derivative at u: dealiased multiplication by the chart Jacobian along u."""
    jac = chart.jacobian(_samples(chart, u))
    return LevelOperator(None, u.N, chart.n, factor=jac)


def d2phi(chart: DiffeoChart, u: FourierLoop) -> BilinearLevelMap:
    """Second derivative at u as a bilinear map on loop pairs."""
    hes = chart.hessian(_samples(chart, u))
    return BilinearLevelMap(hes, u.N)


def invert(chart: DiffeoChart) -> DiffeoChart:
    """The inverse chart, whose map inverts chart's; ValueError when chart carries none."""
    if chart.inverse is None:
        raise ValueError(f"chart {chart.name!r} carries no inverse")
    return chart.inverse


# ---------------------------------------------------------------------------
# axiom verification


def verify_floer_axioms(
    chart: DiffeoChart,
    s: float,
    samples: list[FourierLoop],
    N_sweep: tuple[int, ...],
    hopm: dict,
) -> list[dict]:
    """Run the four extension-axiom checks of chart's map at level s over an N-sweep.

    s is meant to lie in (1/2, 1); values down to the failing range are
    accepted so the negative controls can be run through the same checks,
    and a value outside (0, 1) raises ValueError.

    Per axiom the report carries the worst sample norm at every N, the
    divided-difference continuity modulus at the largest N, and the
    verdict of axiom_reports.  The modulus of (i)1/(i)2 reads the
    difference of dphi, that of (ii)1/(ii)2 the difference of d2phi,
    between the first sample q and q + bump, over |bump|_1; the bump is
    MODULUS_STEP along q's unit direction.

    Per N the samples are resized once, dphi and d2phi are built once per
    sample at that N, and one trilinear_norms call holds every sample at
    both the (ii)1 and the (ii)2 levels, plus, at the largest N, the
    modulus difference at both, with the ascent budget hopm; N_sweep and
    hopm have no default, so every caller names the sweep and budget it reads.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("level parameter s must lie in (0, 1)")
    Ns = sorted(N_sweep)
    second = [(s, 0.0, 0.0), (1.0 + s, -1.0, -1.0)]  # (ii)1, (ii)2
    norms = {axiom: [] for axiom in AXIOMS}
    for N in Ns:
        qs = [q.resize(N) for q in samples]
        first = dphi(chart, qs[0])  # kept: the modulus at the largest N differences it
        worst_first = np.max(
            [_first_norms(first)] + [_first_norms(dphi(chart, q)) for q in qs[1:]], axis=0
        )
        norms["(i)1"].append(worst_first[0])
        norms["(i)2"].append(worst_first[1])
        maps = [d2phi(chart, q) for q in qs]
        batch = maps + maps
        levels = [second[0]] * len(maps) + [second[1]] * len(maps)
        if N < Ns[-1]:
            values = trilinear_norms(batch, levels, **hopm).values
        else:  # the batch ends with the modulus difference at both levels
            bump = MODULUS_STEP * _unit_direction(qs[0])
            step = bump.norm(1.0)
            moved = qs[0] + bump
            values = trilinear_norms(batch + [d2phi(chart, moved) - maps[0]] * 2, levels + second, **hopm).values
            moduli = [v / step for v in _first_norms(dphi(chart, moved) - first)]
            moduli += [float(v) / step for v in values[-2:]]
        worst = values[: 2 * len(maps)].reshape(2, len(maps)).max(axis=1)
        norms["(ii)1"].append(worst[0])
        norms["(ii)2"].append(worst[1])
    return axiom_reports(s, Ns, norms, moduli)


def axiom_reports(
    s: float, Ns: list[int], norms: dict[str, list[float]], moduli: list[float]
) -> list[dict]:
    """The four axiom reports from the worst norm per N and the moduli, in AXIOMS order.

    Each report is a dict with the keys axiom, s, sweep (one
    {"N", "norm"} entry per truncation), continuity_modulus and verdict.
    The one rule for an axiom: pass when norm_sweep reads its norms as
    stable and its continuity modulus is finite.
    """
    reports = []
    for axiom, modulus in zip(AXIOMS, moduli):
        sweep, verdict = norm_sweep(Ns, norms[axiom])
        ok = verdict == "stable" and np.isfinite(modulus)
        reports.append(
            {
                "axiom": axiom,
                "s": s,
                "sweep": sweep,
                "continuity_modulus": float(modulus),
                "verdict": "pass" if ok else "fail",
            }
        )
    return reports


def _first_norms(D: LevelOperator) -> tuple[float, float]:
    """dphi read at the (i)1 and the (i)2 level pairs, from one real form."""
    return tuple(op_norms(D, [(0.0, 0.0), (-1.0, -1.0)]))


def _unit_direction(q: FourierLoop) -> FourierLoop:
    """Deterministic H_1-unit direction with the sample's band structure."""
    c = np.zeros_like(q.coeffs)
    c[q.N] = 1.0
    if q.N >= 1:
        c[q.N + 1, -1] = 0.25
        c[q.N - 1, -1] = 0.25
    d = FourierLoop(c)
    return (1.0 / d.norm(1.0)) * d


def leibniz_check(
    psi: DiffeoChart,
    phi: DiffeoChart,
    q: FourierLoop,
    xi: FourierLoop,
    eta: FourierLoop,
    steps: tuple[float, ...] = (1e-2, 3e-3, 1e-3),
) -> dict:
    """Product-rule residual for the derivative of the composition psi o phi of two charts' maps.

    All three directional derivatives of the operator families are taken
    by central differences in the base point, so the exact identity
    cancels and the residual must scale like h^2; the report carries the
    log-log slope across the step list.  The default steps keep the h^2
    term well above cancellation roundoff, which by h = 1e-5 is as large
    as the remainder itself and bends the slope.
    """
    chi = compose_charts(psi, phi)
    scale = xi.norm(1.0) * eta.norm(0.0)
    residuals = []
    p = apply(phi, q)
    dphi_q = dphi(phi, q)
    a = dphi_q.apply(xi)
    b = dphi_q.apply(eta)
    dpsi_p = dphi(psi, p)
    for h in steps:
        t1 = _operator_fd(chi, q, xi, h, eta)
        t2 = _operator_fd(psi, p, a, h, b)
        t3 = dpsi_p.apply(_operator_fd(phi, q, xi, h, eta))
        res = (t1 - t2 - t3).norm(0.0) / scale
        residuals.append(float(res))
    logs = np.log(np.maximum(residuals, 1e-300))
    slope = float(np.polyfit(np.log(steps), logs, 1)[0]) if len(steps) > 1 else float("nan")
    return {"steps": list(steps), "residuals": residuals, "slope": slope}


def _operator_fd(phi: DiffeoChart, q: FourierLoop, xi: FourierLoop, h: float, v: FourierLoop):
    """Central difference of dphi at q along xi, applied to v."""
    return (1.0 / (2.0 * h)) * (dphi(phi, q + h * xi) - dphi(phi, q - h * xi)).apply(v)
