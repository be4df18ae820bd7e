"""Named verification suites behind the command line.

Each suite bundles one module's checks into a deterministic report:
a list of named checks with a passed flag and enough numbers to audit
the verdict.  A suite reads the run config (cli.RunConfig) for what to
run: its N (clipped per check by capped), its s values (mid_s where one
is used), the seed and the negative controls.  The gates are the
constants below, the same in every run, so a verdict needs no config to
read.  All randomness flows from the config seed, so reruns with one
seed serialize to identical bytes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .charts import c1_only_chart, identity_chart, rotation_field_chart, shear_chart
from .floer_function import (
    driven_hamiltonian,
    full_report,
    quadratic_hamiltonian,
    symplectic_action,
)
from .floer_map import (
    SuperpositionMap,
    apply,
    compose,
    d2phi,
    dphi,
    invert,
    leibniz_check,
    verify_floer_axioms,
)
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


def _verdict(checks: list[dict]) -> str:
    return "pass" if checks and all(c["passed"] for c in checks) else "fail"


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


def suite_floer_map(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    s = cfg.mid_s
    Ns = cfg.capped(64)
    top = max(Ns)
    checks = []

    shear = SuperpositionMap(shear_chart(), s, top)
    rotation = SuperpositionMap(rotation_field_chart(0.5), s, top)
    samples = [random_loop(rng, 2, top, amplitude=0.4) for _ in range(3)]

    reports = verify_floer_axioms(shear, samples, Ns, hopm=LIGHT_HOPM)
    checks.append(
        {
            "name": "shear chart satisfies the four extension axioms",
            "passed": all(r.verdict == "pass" for r in reports),
            "axioms": [r.to_json() for r in reports],
        }
    )

    q = samples[0]
    composite = compose(rotation, shear)
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

    xi = random_loop(rng, 2, top, amplitude=0.3)
    eta = random_loop(rng, 2, top, amplitude=0.3)
    leib = leibniz_check(rotation, shear, q, xi, eta)
    slope_ok = abs(leib["slope"] - 2.0) <= LEIBNIZ_SLOPE_TOL
    checks.append(
        {
            "name": "second-order remainder slope for the composite",
            "passed": bool(slope_ok),
            "slope": float(leib["slope"]),
        }
    )

    if cfg.negative_controls:
        rough = SuperpositionMap(c1_only_chart(), s, top)
        rough_samples = [_zero_mean_x(random_loop(rng, 2, top, amplitude=0.25)) for _ in range(2)]
        rep = verify_floer_axioms(rough, rough_samples, Ns, hopm=LIGHT_HOPM)
        ii2 = next(r for r in rep if r.axiom == "(ii)2")
        checks.append(
            _expected_fail(
                "once-differentiable chart fails the heavy second-derivative axiom",
                ii2.verdict == "fail",
                {"axioms": [r.to_json() for r in rep]},
            )
        )

    return {"suite": "floer_map", "seed": cfg.seed, "checks": checks, "verdict": _verdict(checks)}


def _inclusion_control(sweep: tuple[int, ...]) -> dict:
    """The inclusion H_1 -> H_0 must lose its smallest singular value as N grows."""
    # the decay verdict needs at least three points and some span; pad the
    # configured sweep on both ends (the inclusion's spectrum is closed form)
    ctrl = sorted({max(8, min(sweep) // 2), *sweep, 2 * max(sweep)})
    rep = fredholm_from_spectra({N: inclusion_singular_values(N, 2, 1.0, 0.0) for N in ctrl}, 1.0, 0.0)
    first = rep.sweep[0]["sigma_min"]
    last = rep.sweep[-1]["sigma_min"]
    # sigma_min of the insertion scales like 1/N, so require half the
    # span ratio rather than a fixed factor the sweep may not reach
    span = max(ctrl) / min(ctrl)
    return {
        "name": "inclusion control loses its smallest singular value",
        "passed": rep.verdict == "non_fredholm" and first >= 0.5 * span * last,
        "drop_factor": float(first / max(last, 1e-300)),
        "required_factor": float(0.5 * span),
        "report": rep.to_json(),
    }


def suite_floer_function(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed + 1)
    Ns = cfg.capped(64)
    top = max(Ns)
    checks = []

    F = symplectic_action(driven_hamiltonian(), top)
    samples = [random_loop(rng, 2, top, amplitude=0.5) for _ in range(2)]
    directions = [random_loop(rng, 2, top, amplitude=0.5) for _ in range(2)]
    pairs = [(directions[0], directions[1])]
    report = full_report(F, samples, directions, pairs, N_sweep=Ns)
    checks.append(
        {
            "name": "driven action passes the gradient and Hessian axioms",
            "passed": report["verdict"] == "pass",
            "report": report,
        }
    )

    sweep = cfg.capped(256)
    # one Hessian per N, read at both level pairs
    hessians = {
        N: symplectic_action(quadratic_hamiltonian(), N).hessian(random_loop(rng, 2, N, amplitude=0.5))
        for N in sweep
    }
    for a, b in ((1.0, 0.0), (2.0, 1.0)):
        rep = fredholm_diagnostic(hessians, a, b)
        final_gap = rep.sweep[-1]["gap"]
        gap_ok = abs(final_gap - ACTION_GAP) <= 1e-9 * ACTION_GAP
        dims_ok = all(e["ker_dim"] == e["coker_dim"] == 0 for e in rep.sweep)
        checks.append(
            {
                "name": f"action Hessian is Fredholm of index zero at ({a:g}->{b:g})",
                "passed": rep.verdict == "fredholm" and gap_ok and dims_ok,
                "report": rep.to_json(),
                "expected_gap": ACTION_GAP,
            }
        )

    checks.append(_inclusion_control(sweep))

    return {
        "suite": "floer_function",
        "seed": cfg.seed,
        "checks": checks,
        "verdict": _verdict(checks),
    }


def suite_pullback(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed + 2)
    s = cfg.mid_s
    Ns = cfg.capped(64)
    top = max(Ns)
    checks = []

    F = symplectic_action(quadratic_hamiltonian(), top)
    phi = SuperpositionMap(shear_chart(), s, top)
    samples = [random_loop(rng, 2, top, amplitude=0.4) for _ in range(2)]

    certificate = certify_pullback(F, phi, s, samples, N_sweep=Ns, hopm=LIGHT_HOPM)
    checks.append(
        {
            "name": "pulled-back action keeps gradient, Hessian and correction bounds",
            "passed": certificate["verdict"] == "pass",
            "certificate": certificate,
        }
    )

    q = samples[0]
    K = riesz_correction(F, phi, q, s)
    grad_at_image = F.gradient(apply(phi, q))
    B = d2phi(phi, q)
    worst = 0.0
    for _ in range(10):
        xi = random_loop(rng, 2, top, amplitude=0.5)
        eta = random_loop(rng, 2, top, amplitude=0.5)
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
    for sv in cfg.s:
        for N in cfg.capped(128):
            FN = F.rebuild(N)
            phN = phi.rebuild(N)
            row = kappa_bound_check(FN, phN, q.resize(N), sv, hopm=LIGHT_HOPM)
            kappa_rows.append({"N": N, **row})
    checks.append(
        {
            "name": "correction norm stays under the gradient-times-bilinear budget",
            "passed": all(r["passed"] for r in kappa_rows),
            "rows": kappa_rows,
        }
    )

    psi = SuperpositionMap(rotation_field_chart(0.5), s, 32)
    F32 = F.rebuild(32)
    phi32 = phi.rebuild(32)
    q32 = q.resize(32)
    staged = pull_back(pull_back(F32, psi, s), phi32, s)
    direct = pull_back(F32, compose(psi, phi32), s)
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

    return {"suite": "pullback", "seed": cfg.seed, "checks": checks, "verdict": _verdict(checks)}


def suite_sobolev_evidence(cfg: RunConfig) -> dict:
    rng = np.random.default_rng(cfg.seed + 3)
    sweep = cfg.capped(256)
    top64 = 64
    checks = []

    # one sweep per level pair: (1,0->0) and (C0,0->0) are the same operator
    sweeps = {}
    for key in sorted(SIGNATURES):
        sig = SIGNATURES[key]
        if (sig.dom, sig.cod) not in sweeps:
            sweeps[sig.dom, sig.cod] = mult_norm_sweep(smooth_factor(max(sweep)), sig, N_sweep=sweep)
        rep = sweeps[sig.dom, sig.cod]
        checks.append(
            {
                "name": f"smooth factor bounded at {key}",
                "passed": rep["verdict"] == "bounded",
                "sweep": rep["sweep"],
            }
        )

    # growth needs a span to grow across: anchor the control sweep at small
    # N (cheap factors) and scale the required factor to the span covered,
    # so short or high-starting configured sweeps still produce a verdict
    ctrl = tuple(sorted({8, 16, *sweep}))
    rough = mult_norm_sweep(lambda N: rough_factor(N), "(1,1->1)", N_sweep=ctrl)
    norms = [e["norm"] for e in rough["sweep"]]
    growth = norms[-1] / norms[0]
    span = max(ctrl) / min(ctrl)
    checks.append(
        _expected_fail(
            "rough factor blows up at the borderline signature",
            rough["verdict"] == "unbounded" and growth >= span**0.25,
            {"growth": float(growth), "required_factor": float(span**0.25), "sweep": rough["sweep"]},
        )
        | {"expected": "growth"}
    )

    # per level, the largest norm_s - bound over the samples; inf once a level report fails
    slacks = {0.25: [], 0.5: [], 0.75: []}
    for _ in range(INTERPOLATION_SAMPLES):
        g = random_loop(rng, 1, top64, top_mode=5, amplitude=0.8)
        T = mult_operator(g, "(1,1->1)")
        for rep in check_interpolation(T, tuple(slacks), tol=INTERPOLATION_TOL):
            slacks[rep["s"]].append(rep["norm_s"] - rep["bound"] if rep["passed"] else float("inf"))
    worst = {sv: max(v) for sv, v in slacks.items()}
    checks.append(
        {
            "name": "multiplication norms interpolate between the end levels",
            "passed": all(v <= INTERPOLATION_TOL for v in worst.values()),
            "worst_slack": {str(k): float(v) for k, v in worst.items()},
            "samples": INTERPOLATION_SAMPLES,
        }
    )

    triple = [random_loop(rng, 1, top64, top_mode=6, amplitude=0.7) for _ in range(3)]
    pairing = dual_pairing_check(*triple)
    checks.append(
        {
            "name": "dual-side multiplication is the transpose action",
            "passed": pairing["passed"],
            "residual": pairing["residual"],
        }
    )

    ordering = signature_ordering_check(smooth_factor(top64))
    dual = dual_estimate_check(smooth_factor(top64))
    checks.append(
        {
            "name": "norm ordering and the dual estimate",
            "passed": ordering["passed"] and dual["passed"],
            "ordering": ordering,
            "dual": dual,
        }
    )

    for sv in cfg.s:
        rep = holder_embedding_check(sv, N_sweep=sweep)
        checks.append(
            {
                "name": f"continuity embedding constant stabilizes at s={sv:g}",
                "passed": rep["verdict"] == "stable",
                "constant": rep["constant"],
                "sweep": rep["sweep"],
            }
        )
    # the endpoint constant climbs only a few percent per octave near the
    # top, inside the stability tolerance of any window that starts high;
    # this control runs on its own fixed sweep rather than the configured one
    endpoint = holder_embedding_check(0.5)
    checks.append(
        _expected_fail(
            "endpoint control keeps growing",
            endpoint["verdict"] == "growing",
            {"sweep": endpoint["sweep"]},
        )
        | {"expected": "growth"}
    )

    return {
        "suite": "sobolev_evidence",
        "seed": cfg.seed,
        "checks": checks,
        "verdict": _verdict(checks),
    }


def suite_loop_atlas(cfg: RunConfig) -> dict:
    checks = []
    for sv in cfg.s:
        atlas = sphere_small_loop_atlas(s=sv)
        rep = check_compatibility(atlas, atlas, N_sweep=cfg.capped(64))
        checks.append(
            {
                "name": f"sphere transitions pass all axioms at s={sv:g}",
                "passed": rep["verdict"] == "pass",
                "pairs": [
                    {k: p[k] for k in ("from", "to", "overlap", "verdict") if k in p}
                    for p in rep["pairs"]
                ],
            }
        )

    s = cfg.mid_s
    atlas = sphere_small_loop_atlas(s=s)
    phi = transition(atlas, "north", "south", N=32)
    back = transition(atlas, "south", "north", N=32)
    samples = loops_in_chart(atlas.corpus, atlas.chart("north"), 32, also_in=(atlas.chart("south"),))
    res_inv = 0.0
    for q in samples[:3]:
        image = apply(phi, q)
        res_inv = max(res_inv, (apply(back, image) - apply(invert(phi), image)).norm(1.0))
        res_inv = max(res_inv, (apply(invert(phi), image) - q).norm(1.0))
    checks.append(
        {
            "name": "reverse transition inverts the forward one",
            "passed": res_inv <= COCYCLE_TOL,
            "residual": float(res_inv),
        }
    )

    trans_self = check_transitivity(atlas, atlas, atlas)
    A = sphere_small_loop_atlas(s=s)
    B = rotated_sphere_atlas(0.3, s=s)
    C = rotated_sphere_atlas(-0.25, s=s, axis=1, seed=13)
    trans_rot = check_transitivity(A, B, C)
    for label, rep in (("one atlas", trans_self), ("rotated frames", trans_rot)):
        checks.append(
            {
                "name": f"composite transitions close the cocycle ({label})",
                "passed": rep["verdict"] == "pass",
                "apply_residual": rep["apply_residual_max"],
                "two_step_residual": rep["two_step_residual_max"],
                "dphi_residual": rep["dphi_residual_max"],
                "pieces_agree": rep["pieces_agree"],
            }
        )

    if cfg.negative_controls:
        good = planar_atlas([identity_chart(2)], s=s, name="flat")
        bad = planar_atlas([c1_only_chart()], s=s, seed=5, amplitude=0.25, name="c1")
        rep = check_compatibility(good, bad, N_sweep=cfg.capped(64))
        checks.append(
            _expected_fail(
                "atlas holding a once-differentiable chart is incompatible",
                rep["verdict"] == "fail",
                {"pairs": [{k: p[k] for k in ("from", "to", "verdict") if k in p} for p in rep["pairs"]]},
            )
        )

    return {"suite": "loop_atlas", "seed": cfg.seed, "checks": checks, "verdict": _verdict(checks)}


SUITES = {
    "floer_map": suite_floer_map,
    "floer_function": suite_floer_function,
    "pullback": suite_pullback,
    "sobolev_evidence": suite_sobolev_evidence,
    "loop_atlas": suite_loop_atlas,
}


def run_suite(name: str, cfg: RunConfig) -> dict:
    try:
        runner = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}") from None
    return runner(cfg)
