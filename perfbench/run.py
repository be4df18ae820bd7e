"""floerlab benchmark: time one workload in fresh processes and check its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout (the program is taken from
its src/ directory; nothing is installed).  Every repeat is a fresh
child process (perfbench/child.py), closed loop: the next one starts when
the previous one exits, and only while it is expected to finish inside
--seconds.  BLAS is pinned to one thread in the children's environment
only.  Before timing, one untimed warm-up child compiles the .pyc files
and fills the file cache, then SETUP_SAMPLES children stop right after
set-up.

--trace 0 prints the end-to-end metrics of BENCHMARK.json (medians over
the repeats); --trace 1 spends half the time untraced and half traced
and prints the per-layer metrics.  The last stdout line is the result
object; the line before it records the environment and every sample,
and the same record is written under .perfbench_out/.  The output's
sha256 is kept there too, per workload and seed, so that a later run at
that seed on the same sources must reproduce the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import load_reference, majority_digest, output_digest, run_failures
from tracer import read_spans, summarize
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0  # every child is killed by then, so the run exits inside 180 s


class Children:
    """Starts child processes in one scratch directory and keeps their records."""

    def __init__(self, workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.config(seed)), encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})

    def spawn(self, *, setup_only=False, trace=False) -> dict:
        self.count += 1
        tag = f"{self.count:03d}"
        stats, out = self.work / f"stats-{tag}.json", self.work / f"out-{tag}"
        spans, err = self.work / f"spans-{tag}.jsonl", self.work / f"stderr-{tag}.txt"
        cmd = [sys.executable, str(BENCH / "child.py"), "--stats", str(stats)]
        cmd += ["--setup-only"] * setup_only + ["--trace", str(spans)] * trace
        cmd += [self.workload.kind, "--config", str(self.config), "--out", str(out)]
        with open(err, "wb") as err_fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err_fh)
            killer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = {
            "wall_s": wall,
            "exit_code": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "traced": trace,
        }
        if stats.is_file():
            record = json.loads(stats.read_text(encoding="utf-8"))
            child["setup_s"] = record["setup_done"] - start
            if "versions" in record:
                child["versions"] = record["versions"]
        if proc.returncode != 0:
            child["stderr_tail"] = err.read_text(encoding="utf-8", errors="replace")[-2000:]
        if not setup_only:
            child["output"] = out.read_bytes() if out.is_file() else None
        if trace and spans.is_file():
            child["layers"] = summarize(read_spans(str(spans)), wall)
        for path in (stats, out, spans, err):
            path.unlink(missing_ok=True)
        return child

    def repeat(self, budget_s: float, trace: bool = False) -> list[dict]:
        """Closed loop for budget_s seconds: at least one run, then more while
        the last run's duration still fits in the budget and the deadline."""
        begin = time.perf_counter()
        runs = []
        while True:
            runs.append(self.spawn(trace=trace))
            now, last = time.perf_counter(), runs[-1]["wall_s"]
            if now - begin + last > budget_s or now + 1.2 * last > self.deadline:
                return runs


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _source_identity() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def _earlier_digest(path: Path, src_sha256: str) -> str | None:
    """The output digest an earlier invocation recorded at this seed, if it ran the same sources."""
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return record.get("output_sha256") if record.get("src_sha256") == src_sha256 else None


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(runs: list[dict], setups: list[dict]) -> dict:
    ok = [r for r in runs if r["exit_code"] == 0] or runs
    return {
        "wall_s": _median(r["wall_s"] for r in ok),
        "setup_s": _median(c["setup_s"] for c in setups + ok if "setup_s" in c),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    layers = [r["layers"] for r in traced if "layers" in r]
    names = sorted({k for layer in layers for k in layer})
    metrics = {k: _median(layer.get(k, 0.0) for layer in layers) for k in names}
    metrics["trace.overhead_s"] = _median(r["wall_s"] for r in traced) - _median(r["wall_s"] for r in untraced)
    metrics["cli.cpu_s"] = _median(r["cpu_s"] for r in untraced)
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "floerlab" / "cli.py").is_file():
        print(f"error: no floerlab sources under {ROOT / 'src'}; run inside a source checkout", file=sys.stderr)
        return 2
    specs = _metric_specs()
    workload = WORKLOADS[args.workload]
    reference = load_reference(args.seed) if workload.kind == "sweep" else None

    started = time.perf_counter()
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        children = Children(workload, args.seed, work, started + RUN_LIMIT_S)
        warmup = children.spawn(setup_only=True)
        setups = [children.spawn(setup_only=True) for _ in range(SETUP_SAMPLES)]
        if args.trace:
            untraced = children.repeat(args.seconds / 2)
            traced = children.repeat(args.seconds / 2, trace=True)
        else:
            untraced, traced = children.repeat(args.seconds), []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = untraced + traced
    identity = _source_identity()
    OUT_DIR.mkdir(exist_ok=True)
    digest_file = OUT_DIR / f"digest-{args.workload}-seed{args.seed}.json"
    earlier = _earlier_digest(digest_file, identity["src_sha256"])
    expected = earlier or majority_digest(runs)
    if earlier is None and expected is not None:
        digest_file.write_text(json.dumps({"src_sha256": identity["src_sha256"], "output_sha256": expected}) + "\n",
                               encoding="utf-8")
    # failed/attempted count the timed repeats only; a failed set-up child makes the run incorrect
    failures = run_failures(runs, workload.kind, reference, expected)
    failed = sum(1 for reasons in failures if reasons)
    setup_failures = [f"set-up child exit code {c['exit_code']}" for c in [warmup] + setups if c["exit_code"]]
    for reason in setup_failures:
        print(f"failed set-up: {reason}", file=sys.stderr)
    for reasons, child in zip(failures, runs):
        if reasons:
            print(f"failed run: {'; '.join(reasons)}\n{child.get('stderr_tail', '')}", file=sys.stderr)

    if args.trace:
        values, wanted = per_layer(untraced, traced), specs["per_layer"]
    else:
        values, wanted = end_to_end(untraced, setups), specs["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "kind": workload.kind,
        "config": workload.config(args.seed),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            **warmup.get("versions", {}),
            "pinned_threads": {v: "1" for v in THREAD_VARS},
            "workers": workload.config(args.seed).get("workers"),
            **identity,
        },
        "elapsed_s": time.perf_counter() - started,
        "failures": [[r] for r in setup_failures] + [r for r in failures if r],
        "output_sha256": expected,
        "samples": [{k: v for k, v in c.items() if k not in ("output", "versions", "stderr_tail")}
                    | ({"output_sha256": output_digest(c["output"])} if "output" in c else {})
                    for c in setups + runs],
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(record))
    correct = failed == 0 and not setup_failures
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
