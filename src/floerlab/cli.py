"""Command line: run verification suites, truncation sweeps, and demos.

Reports are plain JSON (verify) or CSV (sweep) and depend only on the
config, so a fixed seed reproduces them byte for byte.  The config
chooses what to run (N, s, seed, suites, negative_controls) and how
many worker processes run it (workers); the suites read it directly, and
their gates are constants in suites.py that no config moves.  Both
commands plan their work as ordered cells (a verify suite's checks, a
sweep's truncations) and run them through one runner, with OpenBLAS held
at one thread: inline, or on forked workers that pull cell indices from
one pipe and return each cell's result pickled on their own pipe, with
no pool module imported (_run_plans).  --out names the output file.
Exit codes: 0 all good, 1 a suite failed, 2 the config or arguments were
bad.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import io
import json
import os
import pickle
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .charts import shear_chart
from .floer_function import quadratic_hamiltonian, symplectic_action
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
from .suites import LIGHT_HOPM, SUITES, Plan

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
        if len(set(self.s)) != len(self.s):
            raise ConfigError(f"s values must be distinct, got {self.s}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not isinstance(self.suites, list) or not self.suites:
            raise ConfigError(f"suites must be a non-empty list; choose from {sorted(SUITES)}")
        unknown = [name for name in self.suites if not isinstance(name, str) or name not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites {unknown}; choose from {sorted(SUITES)}")
        if len(set(self.suites)) != len(self.suites):
            raise ConfigError(f"suites must be distinct, got {self.suites}")
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
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
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
        """Processes for the cells of verify and sweep: workers, else min(4, usable CPUs).

        The usable CPUs are those this process may run on (its affinity
        mask where the platform has one), not every CPU of the machine:
        more processes than CPUs only take turns.
        """
        if self.workers is not None:
            return self.workers
        usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        return min(4, usable or 1)

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


# (set, get) thread-count calls of OpenBLAS builds: numpy's wheels carry the
# 64-bit-integer scipy-openblas names, a system OpenBLAS the plain ones
OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_thread_calls():
    """The loaded OpenBLAS's (set, get) thread-count functions, or None where none is found.

    numpy offers no call for this, so the library is found among the
    process's mappings and its own functions are called through ctypes.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return None
    paths = sorted({f[5].strip() for f in fields if len(f) > 5 and "openblas" in os.path.basename(f[5]).lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in OPENBLAS_THREAD_CALLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block and restore its count after.

    Yields whether it could: False where no OpenBLAS thread setter is found.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield False
        return
    setter, getter = calls
    before = getter()
    setter(1)
    try:
        yield True
    finally:
        setter(before)


class _RemoteTraceback(Exception):
    """A worker's formatted traceback: the cause of the error its cell raised."""


def _work(cells: list, todo: int, out: int) -> None:
    """A worker: run each cell whose index it reads from todo, and write its outcome to out.

    The outcome (index, result or exception, formatted traceback or None)
    goes to out as an 8-byte length and then its pickle; a result that
    does not pickle fails its cell with the pickling error.
    """
    with os.fdopen(out, "wb") as fh:
        while index := os.read(todo, 4):
            i = int.from_bytes(index, "little")
            _, _, fn, args = cells[i]
            try:
                data = pickle.dumps((i, fn(*args), None))
            except BaseException as exc:
                import traceback  # only a failing cell's worker loads it

                data = pickle.dumps((i, exc, traceback.format_exc()))
            fh.write(len(data).to_bytes(8, "little") + data)
            fh.flush()


def _run_plans(plans: dict, processes: int) -> dict:
    """Each plan's assembled result, its cells run on forked worker processes, else inline.

    The parent writes every cell's index, in plan and then cell order, to
    one pipe, then forks the workers; each inherits the cells through
    fork, reads one index at a time and returns each cell's outcome,
    pickled, on its own pipe (_work).  Indices leave the pipe in order,
    so when a cell has started every earlier one has too.  Once a cell
    has failed, the parent empties the index pipe, so no later cell
    starts, and waits for the cells already started.  Each plan is
    assembled in cell order, and the error raised is the first failing
    cell's in that order, as inline, with the worker's traceback as its
    cause; a cell whose worker exited before reporting fails with a
    RuntimeError that names it.  The results do not depend on the number
    of processes.  No pool module is imported.
    """
    if processes < 2:
        return {name: plan.run() for name, plan in plans.items()}
    import select
    import signal

    cells = [(name, k, fn, args) for name, plan in plans.items() for k, (fn, args) in enumerate(plan.cells)]
    todo, todo_w = os.pipe()
    workers, buffers, outcomes, exits, failed = {}, {}, {}, [], False
    try:
        indices = b"".join(i.to_bytes(4, "little") for i in range(len(cells)))
        os.set_blocking(todo_w, False)  # more indices than the pipe holds raise here, not hang
        written = os.write(todo_w, indices)
        os.close(todo_w)
        if written < len(indices):
            raise RuntimeError(f"{len(cells)} cells do not fit the index pipe")
        sys.stdout.flush()
        sys.stderr.flush()
        for _ in range(processes):
            out, out_w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller
                code = 1
                try:
                    _work(cells, todo, out_w)
                    code = 0
                finally:
                    os._exit(code)
            os.close(out_w)
            workers[out], buffers[out] = pid, bytearray()
        while workers:
            for out in select.select(list(workers), [], [])[0]:
                chunk = os.read(out, 1 << 16)
                buf = buffers[out]
                buf += chunk
                while len(buf) >= 8 and len(buf) >= 8 + (size := int.from_bytes(buf[:8], "little")):
                    i, value, tb = pickle.loads(buf[8 : 8 + size])
                    del buf[: 8 + size]
                    outcomes[i] = value, tb
                    failed = failed or tb is not None
                if not chunk:  # the worker has exited
                    os.close(out)
                    exits.append(os.waitstatus_to_exitcode(os.waitpid(workers.pop(out), 0)[1]))
                if failed or not chunk:
                    while os.read(todo, 1 << 16):
                        pass
    finally:
        os.close(todo)
        for out, pid in workers.items():
            os.close(out)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def outcome(i: int):
        name, k, fn, _ = cells[i]
        if i not in outcomes:
            raise RuntimeError(f"{name} cell {k} ({fn.__name__}) did not report; worker exit codes: {exits}")
        value, tb = outcomes[i]
        if tb is not None:
            raise value from _RemoteTraceback(tb)
        return value

    order = iter(range(len(cells)))
    return {name: plan.assemble([outcome(next(order)) for _ in plan.cells]) for name, plan in plans.items()}


def _run(command: str, cfg: RunConfig, plans: dict) -> dict:
    """The plans' results, their cells run while OpenBLAS is held at one thread."""
    cells = sum(len(plan.cells) for plan in plans.values())
    with _one_blas_thread() as pinned:
        if not pinned:
            print(f"{command}: no OpenBLAS thread setter found; the cells run inline", file=sys.stderr)
        # a BLAS thread count above one would make the rounding, and so the
        # output's bytes, depend on it, and would oversubscribe the CPUs the
        # processes share; fork copies the parent's threads' locks but not
        # the threads, so it waits until this is the only thread
        forkable = pinned and hasattr(os, "fork") and threading.active_count() == 1
        return _run_plans(plans, min(cfg.pool_size(), cells) if forkable else 1)


def cmd_verify(cfg: RunConfig, out: str | None) -> int:
    names = sorted(cfg.suites)
    results = _run("verify", cfg, {name: SUITES[name](cfg) for name in names})
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


def _sweep_plan(cfg: RunConfig) -> Plan:
    """The sweep as one cell per truncation; assembled, the rows in a fixed order.

    One random loop is drawn here, at the smallest N, and each cell gets
    it resized to its own N: every row of the sweep reads the same loop,
    and the rows do not depend on where the cells run.
    """
    q = random_loop(np.random.default_rng(cfg.seed), 2, min(cfg.N), amplitude=0.4)
    cells = [(_sweep_cell, (N, q.resize(N), cfg.s)) for N in cfg.N]
    return Plan(cells, lambda results: [row for rows in results for row in rows])


def _sweep_rows(cfg: RunConfig) -> list[tuple]:
    """The sweep's (suite, N, s, quantity, value) rows, its cells run as verify's are."""
    return _run("sweep", cfg, {"sweep": _sweep_plan(cfg)})["sweep"]


def _sweep_cell(N: int, q, s_values: list[float]) -> list[tuple]:
    """The rows of truncation N: inclusion, action gap, one norm per level pair, kappa per s."""
    F = symplectic_action(quadratic_hamiltonian())
    # the inclusion H_1 -> H_0 is least at |k| = N: (1 + 4 pi^2 N^2)^(-1/2)
    rows = [
        ("scale_operator", N, "", "inclusion_sigma_min", float(inclusion_singular_values(N, 2, 1.0, 0.0)[-1])),
        ("floer_function", N, "", "action_gap", float(weighted_singular_values(F.hessian(q), 1.0, 0.0)[-1])),
    ]
    # one norm per level pair: (1,0->0) and (C0,0->0) are the same operator
    norms = {}
    for key, pair in sorted(SIGNATURES.items()):
        if pair not in norms:
            norms[pair] = float(op_norm(mult_operator(smooth_factor(N)), *pair))
        rows.append(("sobolev_evidence", N, "", f"mult{key}", norms[pair]))
    shear = shear_chart()
    for s in s_values:
        check = kappa_bound_check(F, shear, q, s, hopm=LIGHT_HOPM)
        rows.append(("pullback", N, f"{s:g}", "kappa", float(check["kappa"])))
        rows.append(("pullback", N, f"{s:g}", "correction_norm", float(check["K_norm"])))
    return rows


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
    return _demo_atlas()


def _demo_pullback() -> int:
    rng = np.random.default_rng(0)
    s, N = 0.75, 64
    F = symplectic_action(quadratic_hamiltonian())
    phi = shear_chart()
    samples = [random_loop(rng, 2, N, amplitude=0.4) for _ in range(2)]
    cert = certify_pullback(F, phi, s, samples, N_sweep=(16, 32, 64), hopm=LIGHT_HOPM)

    print(f"Pulling {F.name} back through {phi.name} at s={s}, N={N}")
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
