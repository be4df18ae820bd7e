"""Named verification suites behind the command line.

Each suite bundles one module's checks into a deterministic report:
a list of named checks with a passed flag and enough numbers to audit
the verdict.  A suite reads the run config (cli.RunConfig) for what to
run: its N (clipped per check by capped), its s values (mid_s where one
is used), the seed and the negative controls.  The gates are the
constants below, the same in every run, so a verdict needs no config to
read.  All randomness flows from the config seed, so reruns with one
seed serialize to identical bytes.

A suite is planned, then run.  Its planner (SUITES) draws every random
input from the seed, in a fixed order, and returns a Plan: an ordered
list of cells and the step that assembles the report from their results,
in cell order.  A cell is a module-level function with plain-data
arguments (levels, truncations, loops); charts, atlases and Floer
functions are built inside the cells.  A cell reads nothing another cell
made, so the report does not depend on where or in which order the cells
ran.  run_suite runs a plan's cells inline; `floerlab verify` runs every
planned cell, as `floerlab sweep` does its own, on forked worker
processes that inherit the cells through fork, pull their indices from
one pipe and append each result, pickled, to a file of their own that
the parent reads once they have exited (cli._run_plans), with no pool
module imported.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .charts import c1_only_chart, compose_charts, identity_chart, rotation_field_chart, shear_chart
from .floer_function import (
    driven_hamiltonian,
    full_report,
    quadratic_hamiltonian,
    symplectic_action,
)
from .floer_map import apply, d2phi, dphi, invert, leibniz_check, verify_floer_axioms
from .loop_atlas import (
    check_compatibility,
    check_transitivity,
    loops_in_chart,
    planar_atlas,
    rotated_sphere_atlas,
    sphere_small_loop_atlas,
    transition,
)
from .pullback import certify_pullback, kappa_bound_check, pull_back, riesz_correction
from .scale_operator import (
    band_indices,
    check_interpolation,
    fredholm_diagnostic,
    fredholm_from_spectra,
    inclusion_singular_values,
)
from .scale_space import FourierLoop, inner, random_loop
from .sobolev_evidence import (
    SIGNATURES,
    dual_estimate_check,
    dual_pairing_check,
    holder_embedding_check,
    mult_norm_sweep,
    mult_operator,
    rough_factor,
    signature_ordering_check,
    smooth_factor,
)

if TYPE_CHECKING:
    from .cli import RunConfig

# closed-form spectral gap of the action Hessian for H = |x|^2/2, any N
ACTION_GAP = 0.8303937666738019

LIGHT_HOPM = {"restarts": 1, "iters": 80}

# The suites' gates and the interpolation check's sample count; no config moves them.
CHAIN_RULE_TOL = 1e-12
INVERT_TOL = 1e-10
LEIBNIZ_SLOPE_TOL = 0.2
PAIRING_TOL = 1e-10
FUNCTORIALITY_TOL = 1e-9
GRADIENT_FUNCTORIALITY_TOL = 1e-10
INTERPOLATION_SAMPLES = 50
INTERPOLATION_TOL = 1e-10
COCYCLE_TOL = 1e-10

# Interpolation samples per cell: ten cells of about 25 ms each at the
# default config, short enough to share out over a few processes.
INTERPOLATION_CHUNK = 5
INTERPOLATION_LEVELS = (0.25, 0.5, 0.75)


class Plan(NamedTuple):
    """A suite, or cli's sweep, as ordered cells and the step that reads their results.

    Each cell is (function, args), the function module-level and the
    args plain data.  A forked worker inherits the cells and returns each
    result by pickle, so a cell's result must pickle; assemble takes the
    cells' results in cell order and returns the suite report (the
    sweep's rows).
    """

    cells: list[tuple[Callable, tuple]]
    assemble: Callable[[list], dict]

    def run(self) -> dict:
        """The report, with every cell run inline, in order."""
        return self.assemble([fn(*args) for fn, args in self.cells])


def _verdict(checks: list[dict]) -> str:
    return "pass" if checks and all(c["passed"] for c in checks) else "fail"


def _report(suite: str, seed: int, checks: list[dict]) -> dict:
    return {"suite": suite, "seed": seed, "checks": checks, "verdict": _verdict(checks)}


def _check_lists(suite: str, seed: int) -> Callable[[list], dict]:
    """The assemble step of a plan whose cells each return a list of checks."""
    return lambda results: _report(suite, seed, list(chain.from_iterable(results)))


def _expected_fail(name: str, failed: bool, detail: dict) -> dict:
    entry = {"name": name, "expected": "fail", "passed": bool(failed)}
    entry.update(detail)
    return entry


def _zero_mean_x(u: FourierLoop) -> FourierLoop:
    """u with its mode-0 x coefficient set to 0.

    A zero-mean, non-constant real x-component changes sign on the loop,
    so the jump of sign(x) in the C1 control's second derivative lies on
    it; with a nonzero mean x may keep one sign and the control be smooth
    there.
    """
    c = u.coeffs.copy()
    c[u.N, 0] = 0.0
    return FourierLoop(c)


def plan_floer_map(cfg: RunConfig) -> Plan:
    rng = np.random.default_rng(cfg.seed)
    Ns = cfg.capped(64)
    top = max(Ns)
    samples = [random_loop(rng, 2, top, amplitude=0.4) for _ in range(3)]
    xi = random_loop(rng, 2, top, amplitude=0.3)
    eta = random_loop(rng, 2, top, amplitude=0.3)
    rough_samples = None
    if cfg.negative_controls:
        rough_samples = [_zero_mean_x(random_loop(rng, 2, top, amplitude=0.25)) for _ in range(2)]
    cells = [(_floer_map_checks, (cfg.mid_s, Ns, samples, xi, eta, rough_samples))]
    return Plan(cells, _check_lists("floer_map", cfg.seed))


def _floer_map_checks(s, Ns, samples, xi, eta, rough_samples) -> list[dict]:
    top = max(Ns)
    checks = []

    shear = shear_chart()
    rotation = rotation_field_chart(0.5)

    reports = verify_floer_axioms(shear, s, samples, Ns, hopm=LIGHT_HOPM)
    checks.append(
        {
            "name": "shear chart satisfies the four extension axioms",
            "passed": all(r["verdict"] == "pass" for r in reports),
            "axioms": reports,
        }
    )

    q = samples[0]
    composite = compose_charts(rotation, shear)
    direct = dphi(composite, q).matrix
    two_step = dphi(rotation, apply(shear, q)).matrix @ dphi(shear, q).matrix
    rows = band_indices(top, 2, top // 2)
    residual = float(np.max(np.abs((direct - two_step)[np.ix_(rows, rows)])))
    checks.append(
        {
            "name": "derivative chain rule on the inner half band",
            "passed": residual <= CHAIN_RULE_TOL,
            "residual": residual,
            "tolerance": CHAIN_RULE_TOL,
        }
    )

    back = invert(shear)
    round_trip = max((apply(back, apply(shear, u)) - u).norm(1.0) for u in samples)
    checks.append(
        {
            "name": "inverse map round trip",
            "passed": round_trip <= INVERT_TOL,
            "residual": float(round_trip),
        }
    )

    leib = leibniz_check(rotation, shear, q, xi, eta)
    slope_ok = abs(leib["slope"] - 2.0) <= LEIBNIZ_SLOPE_TOL
    checks.append(
        {
            "name": "second-order remainder slope for the composite",
            "passed": bool(slope_ok),
            "slope": float(leib["slope"]),
        }
    )

    if rough_samples is not None:
        rep = verify_floer_axioms(c1_only_chart(), s, rough_samples, Ns, hopm=LIGHT_HOPM)
        ii2 = next(r for r in rep if r["axiom"] == "(ii)2")
        checks.append(
            _expected_fail(
                "once-differentiable chart fails the heavy second-derivative axiom",
                ii2["verdict"] == "fail",
                {"axioms": rep},
            )
        )
    return checks


def _inclusion_control(sweep: tuple[int, ...]) -> dict:
    """The inclusion H_1 -> H_0 must lose its smallest singular value as N grows."""
    # the decay verdict needs at least three points and some span; pad the
    # configured sweep on both ends (the inclusion's spectrum is closed form)
    ctrl = sorted({max(8, min(sweep) // 2), *sweep, 2 * max(sweep)})
    rep = fredholm_from_spectra({N: inclusion_singular_values(N, 2, 1.0, 0.0) for N in ctrl}, 1.0, 0.0)
    first = rep["sweep"][0]["sigma_min"]
    last = rep["sweep"][-1]["sigma_min"]
    # sigma_min of the insertion scales like 1/N, so require half the
    # span ratio rather than a fixed factor the sweep may not reach
    span = max(ctrl) / min(ctrl)
    return {
        "name": "inclusion control loses its smallest singular value",
        "passed": rep["verdict"] == "non_fredholm" and first >= 0.5 * span * last,
        "drop_factor": float(first / max(last, 1e-300)),
        "required_factor": float(0.5 * span),
        "report": rep,
    }


def plan_floer_function(cfg: RunConfig) -> Plan:
    rng = np.random.default_rng(cfg.seed + 1)
    Ns = cfg.capped(64)
    top = max(Ns)
    samples = [random_loop(rng, 2, top, amplitude=0.5) for _ in range(2)]
    directions = [random_loop(rng, 2, top, amplitude=0.5) for _ in range(2)]
    # one Hessian loop, resized to each N of the Fredholm sweep
    fredholm_Ns = cfg.capped(256)
    hessian_loop = random_loop(rng, 2, min(fredholm_Ns), amplitude=0.5)
    cells = [(_floer_function_checks, (Ns, samples, directions, hessian_loop, fredholm_Ns))]
    return Plan(cells, _check_lists("floer_function", cfg.seed))


def _floer_function_checks(Ns, samples, directions, hessian_loop, fredholm_Ns) -> list[dict]:
    checks = []

    F = symplectic_action(driven_hamiltonian())
    pairs = [(directions[0], directions[1])]
    report = full_report(F, samples, directions, pairs, N_sweep=Ns)
    checks.append(
        {
            "name": "driven action passes the gradient and Hessian axioms",
            "passed": report["verdict"] == "pass",
            "report": report,
        }
    )

    well = symplectic_action(quadratic_hamiltonian())
    hessians = {N: well.hessian(hessian_loop.resize(N)) for N in fredholm_Ns}
    for a, b in ((1.0, 0.0), (2.0, 1.0)):
        rep = fredholm_diagnostic(hessians, a, b)
        final_gap = rep["sweep"][-1]["gap"]
        gap_ok = abs(final_gap - ACTION_GAP) <= 1e-9 * ACTION_GAP
        # coker_dim is ker_dim by construction, so index zero is not tested
        # until ROADMAP item 3 counts it
        dims_ok = all(e["ker_dim"] == 0 for e in rep["sweep"])
        checks.append(
            {
                "name": f"action Hessian is Fredholm of index zero at ({a:g}->{b:g})",
                "passed": rep["verdict"] == "fredholm" and gap_ok and dims_ok,
                "report": rep,
                "expected_gap": ACTION_GAP,
            }
        )

    checks.append(_inclusion_control(fredholm_Ns))
    return checks


def plan_pullback(cfg: RunConfig) -> Plan:
    rng = np.random.default_rng(cfg.seed + 2)
    Ns = cfg.capped(64)
    top = max(Ns)
    samples = [random_loop(rng, 2, top, amplitude=0.4) for _ in range(2)]
    directions = [
        (random_loop(rng, 2, top, amplitude=0.5), random_loop(rng, 2, top, amplitude=0.5)) for _ in range(10)
    ]
    cells = [(_pullback_checks, (cfg.mid_s, Ns, cfg.s, cfg.capped(128), samples, directions))]
    return Plan(cells, _check_lists("pullback", cfg.seed))


def _pullback_checks(s, Ns, kappa_s, kappa_Ns, samples, directions) -> list[dict]:
    checks = []

    F = symplectic_action(quadratic_hamiltonian())
    phi = shear_chart()

    certificate = certify_pullback(F, phi, s, samples, N_sweep=Ns, hopm=LIGHT_HOPM)
    checks.append(
        {
            "name": "pulled-back action keeps gradient, Hessian and correction bounds",
            "passed": certificate["verdict"] == "pass",
            "certificate": certificate,
        }
    )

    q = samples[0]
    K = riesz_correction(F, phi, q)
    grad_at_image = F.gradient(apply(phi, q))
    B = d2phi(phi, q)
    worst = 0.0
    for xi, eta in directions:
        lhs = inner(K.apply(xi), eta, 0.0)
        rhs = B.trilinear(xi, eta, grad_at_image)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    checks.append(
        {
            "name": "correction operator represents the gradient-weighted second derivative",
            "passed": worst <= PAIRING_TOL,
            "residual": float(worst),
            "tolerance": PAIRING_TOL,
        }
    )

    kappa_rows = []
    for sv in kappa_s:
        for N in kappa_Ns:
            row = kappa_bound_check(F, phi, q.resize(N), sv, hopm=LIGHT_HOPM)
            kappa_rows.append({"N": N, **row})
    checks.append(
        {
            "name": "correction norm stays under the gradient-times-bilinear budget",
            "passed": all(r["passed"] for r in kappa_rows),
            "rows": kappa_rows,
        }
    )

    psi = rotation_field_chart(0.5)
    q32 = q.resize(32)
    staged = pull_back(pull_back(F, psi), phi)
    direct = pull_back(F, compose_charts(psi, phi))
    rows = band_indices(32, 2, 16)
    h_two = staged.hessian(q32).matrix
    h_one = direct.hessian(q32).matrix
    h_res = float(np.max(np.abs((h_two - h_one)[np.ix_(rows, rows)])))
    g_res = float(np.max(np.abs(staged.gradient(q32).coeffs - direct.gradient(q32).coeffs)))
    checks.append(
        {
            "name": "pulling back in two stages matches the composite chart",
            "passed": h_res <= FUNCTORIALITY_TOL and g_res <= GRADIENT_FUNCTORIALITY_TOL,
            "hessian_residual_half_band": h_res,
            "gradient_residual": g_res,
        }
    )
    return checks


def plan_sobolev_evidence(cfg: RunConfig) -> Plan:
    rng = np.random.default_rng(cfg.seed + 3)
    sweep = cfg.capped(256)
    factors = [random_loop(rng, 1, 64, top_mode=5, amplitude=0.8) for _ in range(INTERPOLATION_SAMPLES)]
    triple = [random_loop(rng, 1, 64, top_mode=6, amplitude=0.7) for _ in range(3)]

    head = [(_smooth_factor_checks, (sweep,)), (_rough_factor_control, (sweep,))]
    chunks = [
        (_interpolation_slacks, (factors[i : i + INTERPOLATION_CHUNK],))
        for i in range(0, INTERPOLATION_SAMPLES, INTERPOLATION_CHUNK)
    ]
    tail = [
        (_pairing_check, (triple,)),
        (_ordering_and_dual_check, ()),
        *[(_holder_check, (sv, sweep)) for sv in cfg.s],
        (_endpoint_control, ()),
    ]

    def assemble(results: list) -> dict:
        first, last = len(head), len(head) + len(chunks)
        interpolation = _interpolation_check(results[first:last])
        checks = [*chain.from_iterable(results[:first]), interpolation, *chain.from_iterable(results[last:])]
        return _report("sobolev_evidence", cfg.seed, checks)

    return Plan(head + chunks + tail, assemble)


def _smooth_factor_checks(sweep) -> list[dict]:
    # one sweep per level pair: (1,0->0) and (C0,0->0) are the same operator
    checks, sweeps = [], {}
    for key, pair in sorted(SIGNATURES.items()):
        if pair not in sweeps:
            sweeps[pair] = mult_norm_sweep(smooth_factor(max(sweep)), key, N_sweep=sweep)
        rep = sweeps[pair]
        checks.append(
            {
                "name": f"smooth factor bounded at {key}",
                "passed": rep["verdict"] == "bounded",
                "sweep": rep["sweep"],
            }
        )
    return checks


def _rough_factor_control(sweep) -> list[dict]:
    # growth needs a span to grow across: anchor the control sweep at small
    # N (cheap factors) and scale the required factor to the span covered,
    # so short or high-starting configured sweeps still produce a verdict
    ctrl = tuple(sorted({8, 16, *sweep}))
    rough = mult_norm_sweep(rough_factor, "(1,1->1)", N_sweep=ctrl)
    norms = [e["norm"] for e in rough["sweep"]]
    growth = norms[-1] / norms[0]
    span = max(ctrl) / min(ctrl)
    check = _expected_fail(
        "rough factor blows up at the borderline signature",
        rough["verdict"] == "unbounded" and growth >= span**0.25,
        {"growth": float(growth), "required_factor": float(span**0.25), "sweep": rough["sweep"]},
    )
    return [check | {"expected": "growth"}]


def _interpolation_slacks(factors) -> dict:
    """Per level, norm_s - bound for each factor; inf where a level report fails."""
    slacks = {sv: [] for sv in INTERPOLATION_LEVELS}
    for g in factors:
        for rep in check_interpolation(mult_operator(g), INTERPOLATION_LEVELS, tol=INTERPOLATION_TOL):
            slacks[rep["s"]].append(rep["norm_s"] - rep["bound"] if rep["passed"] else float("inf"))
    return slacks


def _interpolation_check(chunks: list[dict]) -> dict:
    worst = {sv: max(v for slacks in chunks for v in slacks[sv]) for sv in INTERPOLATION_LEVELS}
    return {
        "name": "multiplication norms interpolate between the end levels",
        "passed": all(v <= INTERPOLATION_TOL for v in worst.values()),
        "worst_slack": {str(k): float(v) for k, v in worst.items()},
        "samples": INTERPOLATION_SAMPLES,
    }


def _pairing_check(triple) -> list[dict]:
    pairing = dual_pairing_check(*triple)
    return [
        {
            "name": "dual-side multiplication is the transpose action",
            "passed": pairing["passed"],
            "residual": pairing["residual"],
        }
    ]


def _ordering_and_dual_check() -> list[dict]:
    ordering = signature_ordering_check(smooth_factor(64))
    dual = dual_estimate_check(smooth_factor(64))
    return [
        {
            "name": "norm ordering and the dual estimate",
            "passed": ordering["passed"] and dual["passed"],
            "ordering": ordering,
            "dual": dual,
        }
    ]


def _holder_check(sv, sweep) -> list[dict]:
    rep = holder_embedding_check(sv, N_sweep=sweep)
    return [
        {
            "name": f"continuity embedding constant stabilizes at s={sv:g}",
            "passed": rep["verdict"] == "stable",
            "constant": rep["constant"],
            "sweep": rep["sweep"],
        }
    ]


def _endpoint_control() -> list[dict]:
    # the endpoint constant climbs only a few percent per octave near the
    # top, inside the stability tolerance of any window that starts high;
    # this control runs on its own fixed sweep rather than the configured one
    endpoint = holder_embedding_check(0.5)
    check = _expected_fail(
        "endpoint control keeps growing",
        endpoint["verdict"] == "growing",
        {"sweep": endpoint["sweep"]},
    )
    return [check | {"expected": "growth"}]


def plan_loop_atlas(cfg: RunConfig) -> Plan:
    # the atlases' corpora come from fixed seeds: this suite draws nothing from cfg.seed
    s, Ns = cfg.mid_s, cfg.capped(64)
    cells = [(_compatibility_check, (sv, Ns)) for sv in cfg.s]
    cells += [(_reverse_transition_check, (s,)), (_cocycle_check, (s, False)), (_cocycle_check, (s, True))]
    if cfg.negative_controls:
        cells.append((_c1_atlas_control, (s, Ns)))
    return Plan(cells, _check_lists("loop_atlas", cfg.seed))


def _compatibility_check(s, Ns) -> list[dict]:
    atlas = sphere_small_loop_atlas(s=s)
    rep = check_compatibility(atlas, atlas, N_sweep=Ns)
    return [
        {
            "name": f"sphere transitions pass all axioms at s={s:g}",
            "passed": rep["verdict"] == "pass",
            "pairs": [
                {k: p[k] for k in ("from", "to", "overlap", "verdict") if k in p}
                for p in rep["pairs"]
            ],
        }
    ]


def _reverse_transition_check(s) -> list[dict]:
    atlas = sphere_small_loop_atlas(s=s)
    phi = transition(atlas, "north", "south", N=32)
    back = transition(atlas, "south", "north", N=32)
    samples = loops_in_chart(atlas.corpus, atlas.chart("north"), 32, also_in=(atlas.chart("south"),))
    res_inv = 0.0
    for q in samples[:3]:
        image = apply(phi, q)
        res_inv = max(res_inv, (apply(back, image) - apply(invert(phi), image)).norm(1.0))
        res_inv = max(res_inv, (apply(invert(phi), image) - q).norm(1.0))
    return [
        {
            "name": "reverse transition inverts the forward one",
            "passed": res_inv <= COCYCLE_TOL,
            "residual": float(res_inv),
        }
    ]


def _cocycle_check(s, rotated) -> list[dict]:
    """The cocycle on one sphere atlas with itself, or across three rotated frames."""
    if rotated:
        A = sphere_small_loop_atlas(s=s)
        B = rotated_sphere_atlas(0.3, s=s)
        C = rotated_sphere_atlas(-0.25, s=s, axis=1, seed=13)
        rep, label = check_transitivity(A, B, C), "rotated frames"
    else:
        atlas = sphere_small_loop_atlas(s=s)
        rep, label = check_transitivity(atlas, atlas, atlas), "one atlas"
    return [
        {
            "name": f"composite transitions close the cocycle ({label})",
            "passed": rep["verdict"] == "pass",
            "apply_residual": rep["apply_residual_max"],
            "two_step_residual": rep["two_step_residual_max"],
            "dphi_residual": rep["dphi_residual_max"],
            "pieces_agree": rep["pieces_agree"],
        }
    ]


def _c1_atlas_control(s, Ns) -> list[dict]:
    good = planar_atlas([identity_chart(2)], s=s, name="flat")
    bad = planar_atlas([c1_only_chart()], s=s, seed=5, amplitude=0.25, name="c1")
    rep = check_compatibility(good, bad, N_sweep=Ns)
    return [
        _expected_fail(
            "atlas holding a once-differentiable chart is incompatible",
            rep["verdict"] == "fail",
            {"pairs": [{k: p[k] for k in ("from", "to", "verdict") if k in p} for p in rep["pairs"]]},
        )
    ]


SUITES = {
    "floer_map": plan_floer_map,
    "floer_function": plan_floer_function,
    "pullback": plan_pullback,
    "sobolev_evidence": plan_sobolev_evidence,
    "loop_atlas": plan_loop_atlas,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    try:
        planner = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return planner(cfg).run()
