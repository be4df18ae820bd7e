"""Atlases of loop charts and the small-loop structure on the 2-sphere.

A chart here is a pointwise diffeomorphism onto chart coordinates plus a
sampled domain predicate; the induced loop chart acts coordinatewise on
grid samples.  A transition between two charts is one DiffeoChart, whose
superposition map floer_map evaluates at any truncation, so the whole
axiom battery from floer_map applies to it unchanged.

Sphere charts are stereographic projections in a rotated (possibly
reflected) orthonormal frame.  Their pairwise transitions are Moebius
maps z -> (az + b)/(cz + d), taken at conj z when the frame change
reverses orientation, with (a, b, c, d) read off the SU(2) lift of the
frame rotation.  They are closed forms and satisfy the cocycle identity
at the chart level; the loop-level residuals are then truncation noise.
Domain slack is measured as height below the forbidden polar cap, the
same scale for chart membership and transition clearance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .charts import (
    DEFAULT_MARGIN,
    DiffeoChart,
    _mobius_chart,
    compose_charts,
    identity_chart,
    pair_inverses,
)
from .floer_map import apply, axiom_reports, dphi, verify_floer_axioms
from .scale_space import FourierLoop, default_grid_points, from_grid, random_loop, to_grid

SPHERE_CAP = 0.1
APPLY_RTOL = 1e-10
DPHI_RTOL = 1e-9


class EmptyOverlapError(ValueError):
    """Two charts share no corpus loop."""


def _unstereo(x: np.ndarray) -> np.ndarray:
    """Inverse stereographic projection, plane to unit sphere, shape (G, 3)."""
    r2 = np.sum(x**2, axis=1)
    denom = 1.0 + r2
    return np.stack([2.0 * x[:, 0], 2.0 * x[:, 1], r2 - 1.0], axis=1) / denom[:, None]


@dataclass
class SphereChart:
    """Stereographic coordinates of S^2 in the frame Q, minus the polar cap.

    Coordinates of a point p are stereo(Q p) with stereo projecting from
    the frame's north pole; the domain excludes the cap of height `cap`
    around that pole.  Q may be any orthogonal matrix, reflections
    included (the standard south chart uses one to get the classical
    inversion transition).
    """

    name: str
    Q: np.ndarray
    cap: float = SPHERE_CAP

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        if Q.shape != (3, 3) or np.max(np.abs(Q @ Q.T - np.eye(3))) > 1e-12:
            raise ValueError("chart frame must be a 3x3 orthogonal matrix")
        self.Q = Q

    @property
    def point_dim(self) -> int:
        return 3

    def clearance(self, points: np.ndarray) -> np.ndarray:
        """Height below the cap rim, per sample; positive means inside."""
        return (1.0 - self.cap) - points @ self.Q.T[:, 2]

    def covers(self, points: np.ndarray) -> bool:
        return bool(np.all(self.clearance(points) >= DEFAULT_MARGIN))

    def to_coords(self, points: np.ndarray) -> np.ndarray:
        v = points @ self.Q.T
        return v[:, :2] / (1.0 - v[:, 2])[:, None]

    def from_coords(self, x: np.ndarray) -> np.ndarray:
        return _unstereo(x) @ self.Q

    def transition_to(self, other: "SphereChart", build_inverse: bool = True) -> DiffeoChart:
        if not isinstance(other, SphereChart):
            raise TypeError("cannot build a transition between different point models")
        chart = _stereo_chart(self, other)
        if build_inverse:
            pair_inverses(chart, _stereo_chart(other, self))
        return chart


def _su2_lift(R: np.ndarray) -> tuple[complex, complex, complex, complex]:
    """Moebius coefficients (a, b, c, d) of the rotation R in stereographic
    coordinates, from its unit quaternion (w, x, y, z): the SU(2) matrix
    w + i (x sigma_1 - y sigma_2 + z sigma_3), for projection from +e_3.

    Shepperd's method: P = 4 q q^T is linear in R, and q is read off the
    row of P with the largest diagonal entry, which keeps every component
    accurate.  The identity gives exactly (1, 0, 0, 1).
    """
    t = np.trace(R)
    P = np.array(
        [
            [1 + t, R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]],
            [R[2, 1] - R[1, 2], 1 + 2 * R[0, 0] - t, R[0, 1] + R[1, 0], R[0, 2] + R[2, 0]],
            [R[0, 2] - R[2, 0], R[0, 1] + R[1, 0], 1 + 2 * R[1, 1] - t, R[1, 2] + R[2, 1]],
            [R[1, 0] - R[0, 1], R[0, 2] + R[2, 0], R[1, 2] + R[2, 1], 1 + 2 * R[2, 2] - t],
        ]
    )
    k = int(np.argmax(np.diag(P)))
    w, x, y, z = P[k] / (2.0 * np.sqrt(P[k, k]))
    return complex(w, z), complex(-y, x), complex(y, x), complex(w, -z)


def _stereo_chart(a: SphereChart, b: SphereChart) -> DiffeoChart:
    """stereo o R o stereo^-1 with R = Q_b Q_a^T, in closed form.

    When det R = -1, R = R' F with F = diag(1, 1, -1), whose map in
    coordinates is 1/conj z; the transition is then g'(1/conj z), the
    anti-Moebius map with coefficients (b', a', d', c') at conj z.
    """
    R = b.Q @ a.Q.T
    reflects = bool(np.linalg.det(R) < 0)
    if reflects:
        ra, rb, rc, rd = _su2_lift(R @ _SOUTH_FLIP)
        coeffs = (rb, ra, rd, rc)
    else:
        coeffs = _su2_lift(R)

    def clearance(x: np.ndarray) -> np.ndarray:
        u_num = _unstereo(np.asarray(x, dtype=float))
        za = u_num[:, 2]
        zb = u_num @ R.T[:, 2]
        return np.minimum((1.0 - a.cap) - za, (1.0 - b.cap) - zb)

    return _mobius_chart(*coeffs, reflects, f"stereo[{a.name}->{b.name}]", clearance)


@dataclass
class PlanarChart:
    """Flat-space chart: abstract points are already vectors in R^n."""

    name: str
    rho: DiffeoChart

    @property
    def point_dim(self) -> int:
        return self.rho.n

    def covers(self, points: np.ndarray) -> bool:
        return self.rho.contains(points)

    def to_coords(self, points: np.ndarray) -> np.ndarray:
        return self.rho.value(points)

    def from_coords(self, x: np.ndarray) -> np.ndarray:
        if self.rho.inverse is None:
            raise ValueError(f"chart {self.name!r} carries no inverse")
        return self.rho.inverse.value(x)

    def transition_to(self, other: "PlanarChart", build_inverse: bool = True) -> DiffeoChart:
        if not isinstance(other, PlanarChart):
            raise TypeError("cannot build a transition between different point models")
        if self.rho.inverse is None:
            raise ValueError(f"chart {self.name!r} carries no inverse")
        return compose_charts(other.rho, self.rho.inverse, _wire_inverse=build_inverse)


@dataclass
class LoopAtlas:
    """Charts plus the level parameter and a corpus of abstract test loops.

    Sphere corpora are stored as band-limited loops in R^3 whose samples
    are normalized onto the sphere before any chart sees them; planar
    corpora are plain R^n loops.
    """

    charts: list
    s: float
    corpus: list[FourierLoop] = field(default_factory=list)
    name: str = ""

    def chart(self, name: str) -> object:
        for c in self.charts:
            if c.name == name:
                return c
        raise KeyError(f"no chart named {name!r}")


def _abstract_points(u: FourierLoop, chart, grid_points: int) -> np.ndarray:
    """Sample an abstract corpus loop where the chart expects its points."""
    vals = to_grid(u, grid_points)
    if chart.point_dim == 3:
        norms = np.linalg.norm(vals, axis=1)
        if np.min(norms) < 0.3:
            raise ValueError("corpus loop passes too close to the sphere's center")
        return vals / norms[:, None]
    return vals


def loops_in_chart(corpus: list[FourierLoop], chart, N: int, also_in=()) -> list[FourierLoop]:
    """Corpus members covered by the chart (and every chart in also_in),
    expressed in its coordinates at truncation N."""
    G = default_grid_points(N)
    found = []
    for u in corpus:
        pts = _abstract_points(u, chart, G)
        if not chart.covers(pts):
            continue
        if any(not other.covers(pts) for other in also_in):
            continue
        found.append(from_grid(chart.to_coords(pts), N))
    return found


def transition(atlas: LoopAtlas, alpha, beta, N: int = 32) -> DiffeoChart:
    """The transition chart between two charts of one atlas, with its inverse.

    Its superposition map is the loop-space transition at every
    truncation.  N is only the truncation at which the overlap must hold
    a corpus loop; EmptyOverlapError when it holds none.
    """
    a, b = atlas.chart(alpha), atlas.chart(beta)
    if a is b:
        return identity_chart(2)
    if not loops_in_chart(atlas.corpus, a, N, also_in=(b,)):
        raise EmptyOverlapError(f"charts {a.name!r} and {b.name!r} share no corpus loop")
    return a.transition_to(b)


def _pair_map(a, b) -> DiffeoChart:
    return identity_chart(2) if a is b else a.transition_to(b, build_inverse=False)


def _corpus_of(*atlases: LoopAtlas) -> list[FourierLoop]:
    corpus, seen = [], set()
    for atlas in atlases:
        if id(atlas) not in seen:
            seen.add(id(atlas))
            corpus.extend(atlas.corpus)
    return corpus


def check_compatibility(
    A: LoopAtlas,
    B: LoopAtlas,
    N_sweep: tuple[int, ...] = (16, 32, 64),
    hopm: dict | None = None,
    max_samples: int = 5,
) -> dict:
    """Axiom reports for every cross transition, one chart from each atlas.

    The samples come from the corpora of A and B.  Pairs whose overlap
    carries no corpus loop are reported and skipped; the verdict is the
    conjunction over the populated pairs.  The ascent settings default to
    a light budget; pass hopm for a heavier one.
    """
    if A.s != B.s:
        raise ValueError("atlases must share the level parameter")
    corpus = _corpus_of(A, B)
    hopm = hopm if hopm is not None else {"restarts": 1, "iters": 100}
    top = max(N_sweep)
    pairs = []
    for a in A.charts:
        for b in B.charts:
            samples = loops_in_chart(corpus, a, top, also_in=(b,))
            if not samples:
                pairs.append({"from": a.name, "to": b.name, "overlap": 0, "verdict": "empty"})
                continue
            if len(samples) > max_samples:
                stride = np.linspace(0, len(samples) - 1, max_samples).astype(int)
                samples = [samples[i] for i in stride]
            reports = verify_floer_axioms(_pair_map(a, b), A.s, samples, N_sweep, hopm=hopm)
            ok = all(r["verdict"] == "pass" for r in reports)
            pairs.append(
                {
                    "from": a.name,
                    "to": b.name,
                    "overlap": len(samples),
                    "axioms": reports,
                    "verdict": "pass" if ok else "fail",
                }
            )
    populated = [p for p in pairs if p["verdict"] != "empty"]
    verdict = "pass" if populated and all(p["verdict"] == "pass" for p in populated) else "fail"
    return {"s": A.s, "pairs": pairs, "verdict": verdict}


def _union_reports(pieces: list[list[dict]], s: float) -> list[dict]:
    """The axiom reports of all the pieces' samples together, read off the pieces.

    verify_floer_axioms on the union of the samples would give, at each
    N, the largest of the pieces' worst norms (each sample's norm does
    not depend on the others in its batch), and the moduli of the first
    piece, which holds the union's first sample.
    """
    Ns = [e["N"] for e in pieces[0][0]["sweep"]]
    norms = {
        r["axiom"]: [max(p[i]["sweep"][j]["norm"] for p in pieces) for j in range(len(Ns))]
        for i, r in enumerate(pieces[0])
    }
    return axiom_reports(s, Ns, norms, [r["continuity_modulus"] for r in pieces[0]])


# The truncation of check_transitivity's residuals, the N-sweep and the
# ascent budget of its axiom checks.
TRANSITIVITY_N = 32
TRANSITIVITY_N_SWEEP = (16, 32)
TRANSITIVITY_HOPM = {"restarts": 0, "iters": 60}


def check_transitivity(
    A: LoopAtlas,
    B: LoopAtlas,
    C: LoopAtlas,
    corpus: list[FourierLoop] | None = None,
    max_samples: int = 2,
) -> dict:
    """Composites through B against direct A-to-C transitions on triple overlaps.

    Each overlap is sampled by the first max_samples loops of corpus (by
    default the corpora of A, B and C) in all three charts, at
    TRANSITIVITY_N.  The cocycle residuals compare the direct map with
    the composite map evaluated both sides on each sample; that identity
    holds pointwise, so the gate is tight.  Routing a sample through a
    materialized intermediate loop truncates twice and only converges
    with N, so that residual is reported (two_step_residual) but not
    gated.  The axiom verdicts on each B-piece of the overlap, over
    TRANSITIVITY_N_SWEEP with the ascent budget TRANSITIVITY_HOPM, must
    match the union's, which are read off the pieces' own reports
    (_union_reports).  A piece with the samples of an earlier piece of
    its (a, c) would repeat that piece's reports, and an overlap whose
    pieces all have one sample list would compare that list's reports
    with themselves, so the axioms are verified only on an overlap with
    two or more distinct lists, once per list.
    """
    if not (A.s == B.s == C.s):
        raise ValueError("atlases must share the level parameter")
    corpus = list(corpus) if corpus is not None else _corpus_of(A, B, C)
    N = TRANSITIVITY_N
    maps_ab = {(a.name, b.name): _pair_map(a, b) for a in A.charts for b in B.charts}
    maps_bc = {(b.name, c.name): _pair_map(b, c) for b in B.charts for c in C.charts}
    triples = []
    worst_apply = 0.0
    worst_two_step = 0.0
    worst_dphi = 0.0
    pieces_agree = True
    for a in A.charts:
        for c in C.charts:
            direct = _pair_map(a, c)
            pieces = {}  # the pieces' distinct sample lists, by their bytes
            for b in B.charts:
                samples = loops_in_chart(corpus, a, N, also_in=(b, c))[:max_samples]
                if not samples:
                    continue
                phi_ab = maps_ab[(a.name, b.name)]
                phi_bc = maps_bc[(b.name, c.name)]
                composite = compose_charts(phi_bc, phi_ab)
                r_apply = r_two = r_dphi = 0.0
                for q in samples:
                    direct_q = apply(direct, q)
                    r_apply = max(r_apply, (apply(composite, q) - direct_q).norm(1.0))
                    two_step = apply(phi_bc, apply(phi_ab, q))
                    r_two = max(r_two, (two_step - direct_q).norm(1.0))
                    # every symbol entry m = -2N..2N is an entry of the Toeplitz matrix
                    d = dphi(composite, q).symbol - dphi(direct, q).symbol
                    r_dphi = max(r_dphi, float(np.max(np.abs(d))))
                worst_apply = max(worst_apply, r_apply)
                worst_two_step = max(worst_two_step, r_two)
                worst_dphi = max(worst_dphi, r_dphi)
                pieces.setdefault(tuple(q.coeffs.tobytes() for q in samples), samples)
                triples.append(
                    {
                        "from": a.name,
                        "via": b.name,
                        "to": c.name,
                        "overlap": len(samples),
                        "apply_residual": float(r_apply),
                        "two_step_residual": float(r_two),
                        "dphi_residual": float(r_dphi),
                    }
                )
            if len(pieces) >= 2:
                reports = [
                    verify_floer_axioms(direct, A.s, samples, TRANSITIVITY_N_SWEEP, TRANSITIVITY_HOPM)
                    for samples in pieces.values()
                ]
                union = [r["verdict"] for r in _union_reports(reports, A.s)]
                pieces_agree = pieces_agree and all([r["verdict"] for r in piece] == union for piece in reports)
    ok = worst_apply <= APPLY_RTOL and worst_dphi <= DPHI_RTOL and pieces_agree and triples
    return {
        "s": A.s,
        "triples": triples,
        "apply_residual_max": float(worst_apply),
        "two_step_residual_max": float(worst_two_step),
        "dphi_residual_max": float(worst_dphi),
        "pieces_agree": bool(pieces_agree),
        "verdict": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------
# built-in atlases


def _rotation(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    R = np.eye(3)
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    R[i, i] = R[j, j] = c
    R[i, j], R[j, i] = -s, s
    return R


_SOUTH_FLIP = np.diag([1.0, 1.0, -1.0])

# Every atlas corpus is held at truncation CORPUS_N.  A sphere corpus
# holds EQUATORIAL_CORPUS_SIZE loops: the equator, then copies moved by
# random loops of amplitude EQUATORIAL_AMPLITUDE.  A planar corpus holds
# PLANAR_CORPUS_SIZE random loops.
CORPUS_N = 16
EQUATORIAL_CORPUS_SIZE = 5
EQUATORIAL_AMPLITUDE = 0.1
PLANAR_CORPUS_SIZE = 4
# Corpus seed of sphere_small_loop_atlas.
SPHERE_CORPUS_SEED = 7


def equatorial_corpus(seed: int) -> list[FourierLoop]:
    """Great-circle equator plus mildly perturbed copies, as R^3 loops."""
    N = CORPUS_N
    rng = np.random.default_rng(seed)
    base = np.zeros((2 * N + 1, 3), dtype=complex)
    base[N + 1, 0] = base[N - 1, 0] = 0.5
    base[N + 1, 1] = -0.5j
    base[N - 1, 1] = 0.5j
    corpus = [FourierLoop(base)]
    for _ in range(EQUATORIAL_CORPUS_SIZE - 1):
        pert = random_loop(rng, 3, N, top_mode=3, amplitude=EQUATORIAL_AMPLITUDE, decay=0.6)
        corpus.append(FourierLoop(base + pert.coeffs))
    return corpus


def sphere_small_loop_atlas(s: float = 0.75) -> LoopAtlas:
    """North and south stereographic charts, without the polar caps of
    height SPHERE_CAP, with the equatorial corpus of SPHERE_CORPUS_SEED."""
    charts = [SphereChart("north", np.eye(3)), SphereChart("south", _SOUTH_FLIP)]
    return LoopAtlas(charts=charts, s=s, corpus=equatorial_corpus(SPHERE_CORPUS_SEED), name="sphere")


def rotated_sphere_atlas(angle: float, s: float = 0.75, axis: int = 0, seed: int = 11) -> LoopAtlas:
    """The same two-chart atlas in a frame rotated by angle about the
    horizontal axis (0 for x, 1 for y), with the equatorial corpus of seed."""
    R = _rotation(axis, angle)
    charts = [SphereChart(f"north@{angle:g}", R), SphereChart(f"south@{angle:g}", _SOUTH_FLIP @ R)]
    return LoopAtlas(charts=charts, s=s, corpus=equatorial_corpus(seed), name=f"sphere@{angle:g}")


def planar_atlas(
    charts: list[DiffeoChart],
    s: float = 0.75,
    seed: int = 3,
    amplitude: float = 0.3,
    name: str = "planar",
) -> LoopAtlas:
    """Flat R^2 atlas over the given chart maps, with a corpus of
    PLANAR_CORPUS_SIZE random loops of the given amplitude from seed."""
    rng = np.random.default_rng(seed)
    corpus = [random_loop(rng, 2, CORPUS_N, amplitude=amplitude) for _ in range(PLANAR_CORPUS_SIZE)]
    return LoopAtlas(charts=[PlanarChart(c.name, c) for c in charts], s=s, corpus=corpus, name=name)
