"""Command line: run verification suites, truncation sweeps, and demos.

Reports are plain JSON (verify) or CSV (sweep) and depend only on the
config, so a fixed seed reproduces them byte for byte.  The config
chooses what to run (N, s, seed, suites, negative_controls) and the
thread pool (workers); the suites read it directly, and their gates are
constants in suites.py that no config moves.  --out names the output
file.  Exit codes: 0 all good, 1 a suite failed, 2 the config or
arguments were bad.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .charts import shear_chart
from .floer_function import quadratic_hamiltonian, symplectic_action
from .floer_map import SuperpositionMap, apply
from .loop_atlas import (
    check_compatibility,
    check_transitivity,
    rotated_sphere_atlas,
    sphere_small_loop_atlas,
)
from .pullback import certify_pullback, kappa_bound_check
from .scale_operator import inclusion_singular_values, op_norm, weighted_singular_values
from .scale_space import random_loop
from .sobolev_evidence import SIGNATURES, mult_operator, smooth_factor
from .suites import LIGHT_HOPM, SUITES, run_suite

DEMOS = ("pullback", "atlas")


class ConfigError(ValueError):
    """The run configuration does not satisfy the contract."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass
class RunConfig:
    N: list[int] = field(default_factory=lambda: [16, 32, 64, 128, 256])
    s: list[float] = field(default_factory=lambda: [0.6, 0.75, 0.9])
    seed: int = 0
    suites: list[str] = field(default_factory=lambda: sorted(SUITES))
    negative_controls: bool = False
    workers: int | None = None

    def __post_init__(self):
        if not isinstance(self.N, list) or not self.N:
            raise ConfigError("N must be a non-empty list")
        for N in self.N:
            if not _is_int(N) or N < 16 or N > 512 or N & (N - 1):
                raise ConfigError(f"N values must be powers of two in [16, 512], got {N!r}")
        if len(set(self.N)) != len(self.N):
            raise ConfigError(f"N values must be distinct, got {self.N}")
        if not isinstance(self.s, list) or not self.s:
            raise ConfigError("s must be a non-empty list")
        for s in self.s:
            if not _is_number(s) or not 0.5 < s < 1.0:
                raise ConfigError(f"s values must lie strictly between 1/2 and 1, got {s!r}")
        if not _is_int(self.seed):
            raise ConfigError("seed must be an integer")
        if not isinstance(self.suites, list) or not self.suites:
            raise ConfigError(f"suites must be a non-empty list; choose from {sorted(SUITES)}")
        unknown = [name for name in self.suites if not isinstance(name, str) or name not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites {unknown}; choose from {sorted(SUITES)}")
        if not isinstance(self.negative_controls, bool):
            raise ConfigError("negative_controls must be true or false")
        if self.workers is not None and (not _is_int(self.workers) or self.workers < 1):
            raise ConfigError("workers must be a positive integer")

    @classmethod
    def load(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; known keys are {sorted(known)}")
        return cls(**raw)

    def pool_size(self) -> int:
        """Threads for verify's suites and sweep's cells: workers, else min(4, CPUs)."""
        return self.workers if self.workers is not None else min(4, os.cpu_count() or 1)

    @property
    def mid_s(self) -> float:
        return self.s[len(self.s) // 2]

    def capped(self, top: int) -> tuple[int, ...]:
        """The configured N up to top, else the smallest N alone."""
        kept = tuple(N for N in self.N if N <= top)
        return kept if kept else (min(self.N),)

    def suite_config(self) -> "RunConfig":
        # the suites read the run config itself; perfbench/workloads.py still asks for it by this name
        return self


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_verify(cfg: RunConfig, out: str | None) -> int:
    names = sorted(cfg.suites)
    results = {}
    with ThreadPoolExecutor(max_workers=cfg.pool_size()) as pool:
        futures = {name: pool.submit(run_suite, name, cfg) for name in names}
        for name in names:
            results[name] = futures[name].result()
    verdict = "pass" if all(r["verdict"] == "pass" for r in results.values()) else "fail"
    report = {
        "command": "verify",
        "config": {
            "N": cfg.N,
            "s": cfg.s,
            "seed": cfg.seed,
            "negative_controls": cfg.negative_controls,
            "suites": names,
        },
        "suites": results,
        "verdict": verdict,
    }
    _write(json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n", out)
    for name in names:
        print(f"{name}: {results[name]['verdict']}", file=sys.stderr)
    return 0 if verdict == "pass" else 1


def _sweep_rows(cfg: RunConfig) -> list[tuple]:
    """The sweep's rows, in a fixed order; the independent cells run on the worker pool.

    A cell is one computation that gives rows: the action gap, one norm
    per level pair, or one s's kappa check.  Operators and random loops
    are made here, in row order, and each row reads its cell's result in
    row order, so the rows do not depend on the pool size, and a cell
    that raises raises here as it would run alone.
    """
    rng = np.random.default_rng(cfg.seed)
    shear = shear_chart()
    rows = []  # (suite, N, s, quantity, cell, key of the cell's result or None)
    with ThreadPoolExecutor(max_workers=cfg.pool_size()) as pool:
        for N in cfg.N:
            # the inclusion H_1 -> H_0 is least at |k| = N: (1 + 4 pi^2 N^2)^(-1/2)
            iota = pool.submit(inclusion_singular_values, N, 2, 1.0, 0.0)
            rows.append(("scale_operator", N, "", "inclusion_sigma_min", iota, -1))

            F = symplectic_action(quadratic_hamiltonian(), N)
            q = random_loop(rng, 2, N, amplitude=0.4)
            gap = pool.submit(weighted_singular_values, F.hessian(q))
            rows.append(("floer_function", N, "", "action_gap", gap, -1))

            # one norm per level pair: (1,0->0) and (C0,0->0) are the same operator
            norms = {}
            for key in sorted(SIGNATURES):
                sig = SIGNATURES[key]
                if (sig.dom, sig.cod) not in norms:
                    norms[sig.dom, sig.cod] = pool.submit(op_norm, mult_operator(smooth_factor(N), sig))
                rows.append(("sobolev_evidence", N, "", f"mult{key}", norms[sig.dom, sig.cod], None))

            for s in cfg.s:
                phi = SuperpositionMap(shear, s, N)
                check = pool.submit(kappa_bound_check, F, phi, q, s, hopm=LIGHT_HOPM)
                rows.append(("pullback", N, f"{s:g}", "kappa", check, "kappa"))
                rows.append(("pullback", N, f"{s:g}", "correction_norm", check, "K_norm"))
        return [
            (suite, N, s, quantity, float(cell.result() if key is None else cell.result()[key]))
            for suite, N, s, quantity, cell, key in rows
        ]


def cmd_sweep(cfg: RunConfig, out: str | None) -> int:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["suite", "N", "s", "quantity", "value"])
    for suite, N, s, quantity, value in _sweep_rows(cfg):
        writer.writerow([suite, N, s, quantity, repr(value)])
    _write(buffer.getvalue(), out)
    return 0


def cmd_demo(name: str) -> int:
    if name == "pullback":
        return _demo_pullback()
    if name == "atlas":
        return _demo_atlas()
    print(f"unknown demo {name!r}; choose from {DEMOS}", file=sys.stderr)
    return 2


def _demo_pullback() -> int:
    rng = np.random.default_rng(0)
    s, N = 0.75, 64
    F = symplectic_action(quadratic_hamiltonian(), N)
    phi = SuperpositionMap(shear_chart(), s, N)
    samples = [random_loop(rng, 2, N, amplitude=0.4) for _ in range(2)]
    cert = certify_pullback(F, phi, s, samples, N_sweep=(16, 32, 64), hopm=LIGHT_HOPM)

    print(f"Pulling {F.name} back through {phi.chart.name} at s={s}, N={N}")
    print()
    print("Gradient")
    grad = cert["gradient"]
    print(f"  pairing residual vs divided differences: {grad['H0-gradient']['max_rel_err']:.3e}")
    print(f"  verdict: {grad['verdict']}")
    print()
    print("Hessian")
    hess = cert["hessian"]
    print(f"  stencil residual:  {hess['H0-Hessian']['fd_rel_err']:.3e}")
    print(f"  symmetry residual: {hess['H0-Hessian']['symmetry_rel_err']:.3e}")
    print(f"  verdict: {hess['verdict']}")
    print()
    print("kappa")
    pb = cert["pullback"]
    print(f"  correction norm {pb['K_norm']:.6f} <= budget {pb['kappa']:.6f}: {pb['kappa_passed']}")
    print()
    print("Fredholm")
    for entry in pb["conjugated_fredholm"]["sweep"]:
        print(
            f"  N={entry['N']:>3}  ker={entry['ker_dim']}  coker={entry['coker_dim']}"
            f"  gap={entry['gap']:.6f}"
        )
    print(f"  index estimate: {pb['conjugated_fredholm']['index_estimate']}")
    print()
    print(f"overall verdict: {cert['verdict']}")
    return 0


def _demo_atlas() -> int:
    s = 0.75
    A = sphere_small_loop_atlas(s=s)
    compat = check_compatibility(A, A, N_sweep=(16, 32, 64))
    print(f"Sphere atlas, two stereographic charts, s={s}")
    print()
    print("Compatibility")
    for pair in compat["pairs"]:
        print(f"  {pair['from']:>5} -> {pair['to']:<5}  {pair['verdict']}  ({pair['overlap']} loops)")
    print(f"  verdict: {compat['verdict']}")
    print()
    B = rotated_sphere_atlas(0.3, s=s)
    C = rotated_sphere_atlas(-0.25, s=s, axis=1, seed=13)
    trans = check_transitivity(A, B, C)
    print("Cocycle residuals on triple overlaps (direct vs composite)")
    print(f"  {'from':>10} {'via':>10} {'to':>10} {'apply':>12} {'dphi':>12}")
    for row in trans["triples"]:
        print(
            f"  {row['from']:>10} {row['via']:>10} {row['to']:>10}"
            f" {row['apply_residual']:>12.3e} {row['dphi_residual']:>12.3e}"
        )
    print(f"  worst apply residual:    {trans['apply_residual_max']:.3e}")
    print(f"  worst two-step residual: {trans['two_step_residual_max']:.3e}")
    print(f"  pieces agree with union: {trans['pieces_agree']}")
    print(f"  verdict: {trans['verdict']}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floerlab",
        description="Verification suites, truncation sweeps, and demos for the loop-space toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in ("verify", "sweep"):
        p = sub.add_parser(cmd)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output path (default stdout)")
    demo = sub.add_parser("demo")
    demo.add_argument("name", choices=DEMOS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "demo":
        return cmd_demo(args.name)
    try:
        cfg = RunConfig.load(args.config)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        return cmd_sweep(cfg, args.out)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
