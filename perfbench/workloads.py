"""The benchmark's workloads: what each child process runs, made from the seed.

`verify` and `sweep` workloads run the floerlab command line unchanged.
A full `loop_atlas` verify takes 60-80 s per process on a 2-CPU machine,
too long to repeat inside one benchmark run, so `atlas` runs a scaled
copy of that suite through the same public functions (`atlas_report`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "sweep" (floerlab subcommands) or "atlas"
    base_config: dict

    def config(self, seed: int) -> dict:
        return {**self.base_config, "seed": int(seed)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "atlas",
            "atlas",
            {"suites": ["loop_atlas"], "N": [16, 32], "s": [0.75], "negative_controls": True, "workers": 1},
        ),
        # floer_map and pullback are left out: their verdicts depend on the
        # seed (see README.md, "Known state of the program"), and a workload
        # must pass at every seed.  Their layers run in `atlas` and `sweep-512`.
        Workload(
            "core",
            "verify",
            {"suites": ["floer_function", "sobolev_evidence"], "negative_controls": True, "workers": 2},
        ),
        Workload("sweep-512", "sweep", {"N": [512], "s": [0.75]}),
    )
}


def atlas_report(cfg) -> dict:
    """The loop_atlas suite at one level and one chart per frame.

    Same checks and fixed corpus seeds as `suites.suite_loop_atlas`
    (which ignores the config seed): north/south compatibility, the
    cocycle across three stereographic frames (north, north rotated by
    0.3 about x, south) and, with negative controls on, the
    once-differentiable planar chart that must come out incompatible.
    Functions are looked up on their modules at call time so that a
    traced run sees its wrappers.
    """
    from floerlab import charts, loop_atlas

    sc = cfg.suite_config()
    s = sc.mid_s
    Ns = sc.capped(64)
    checks = []

    sphere = loop_atlas.sphere_small_loop_atlas(s=s)
    rep = loop_atlas.check_compatibility(sphere, sphere, N_sweep=Ns)
    checks.append(
        {
            "name": f"sphere transitions pass all axioms at s={s:g}",
            "passed": rep["verdict"] == "pass",
            "pairs": [{k: p[k] for k in ("from", "to", "overlap", "verdict") if k in p} for p in rep["pairs"]],
        }
    )

    rotated = loop_atlas.rotated_sphere_atlas(0.3, s=s)
    frames = (sphere.chart("north"), rotated.charts[0], sphere.chart("south"))
    single = [loop_atlas.LoopAtlas(charts=[c], s=s, name=c.name) for c in frames]
    trans = loop_atlas.check_transitivity(*single, corpus=sphere.corpus + rotated.corpus)
    checks.append(
        {
            "name": "composite transitions close the cocycle (rotated frames)",
            "passed": trans["verdict"] == "pass",
            "apply_residual": trans["apply_residual_max"],
            "two_step_residual": trans["two_step_residual_max"],
            "dphi_residual": trans["dphi_residual_max"],
            "pieces_agree": trans["pieces_agree"],
        }
    )

    if sc.negative_controls:
        good = loop_atlas.planar_atlas([charts.identity_chart(2)], s=s, name="flat")
        bad = loop_atlas.planar_atlas([charts.c1_only_chart()], s=s, seed=5, amplitude=0.25, name="c1")
        rep = loop_atlas.check_compatibility(good, bad, N_sweep=Ns)
        checks.append(
            {
                "name": "atlas holding a once-differentiable chart is incompatible",
                "expected": "fail",
                "passed": rep["verdict"] == "fail",
                "pairs": [{k: p[k] for k in ("from", "to", "verdict") if k in p} for p in rep["pairs"]],
            }
        )

    verdict = "pass" if checks and all(c["passed"] for c in checks) else "fail"
    suite = {"suite": "loop_atlas", "seed": sc.seed, "checks": checks, "verdict": verdict}
    return {
        "command": "atlas",
        "config": {"N": cfg.N, "s": cfg.s, "seed": cfg.seed, "negative_controls": cfg.negative_controls},
        "suites": {"loop_atlas": suite},
        "verdict": verdict,
    }


def run_atlas(cfg, out: str) -> int:
    """Write the atlas report the way `floerlab verify` writes its own."""
    import json

    from floerlab import cli

    report = atlas_report(cfg)
    cli._write(json.dumps(cli._jsonable(report), indent=2, sort_keys=True) + "\n", out)
    return 0 if report["verdict"] == "pass" else 1
