"""Correctness gate: which child runs count as failed, and why.

A run fails on a nonzero exit code, a missing output, any suite verdict
other than `pass`, output bytes that differ from the other runs of the
same seed (in this invocation or an earlier one on the same sources),
and, for sweeps, a row-key set or value that departs from the reference
CSV recorded under reference/sweep-512/.  The ascent-derived `kappa` is
a lower bound whose value an ascent change may move, so it is held only
to kappa >= correction_norm on its row.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

SWEEP_RTOL = 1e-8
# sweep quantities computed at the seeded random loop; every other row is seed-free
SEED_DEPENDENT = frozenset({"kappa", "correction_norm"})
REFERENCE_DIR = Path(__file__).resolve().parent / "reference" / "sweep-512"


def parse_sweep(text: str) -> dict:
    rows = {}
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["suite", "N", "s", "quantity", "value"]:
        raise ValueError("sweep CSV header is not suite,N,s,quantity,value")
    for suite, N, s, quantity, value in reader:
        rows[(suite, int(N), s, quantity)] = float(value)
    return rows


def load_reference(seed: int) -> tuple[dict, bool]:
    """Reference rows for the seed, and whether they were recorded at that seed.

    Without a recording at this seed the seed-0 file stands in, and only
    its seed-free rows are compared.
    """
    exact = REFERENCE_DIR / f"seed-{seed}.csv"
    path = exact if exact.is_file() else REFERENCE_DIR / "seed-0.csv"
    return parse_sweep(path.read_text(encoding="utf-8")), path == exact


def sweep_failures(text: str, reference: dict, exact: bool) -> list[str]:
    try:
        rows = parse_sweep(text)
    except ValueError as exc:
        return [f"unreadable sweep CSV: {exc}"]
    if set(rows) != set(reference):
        return ["sweep row keys differ from the reference"]
    reasons = []
    for key, value in sorted(rows.items()):
        suite, N, s, quantity = key
        if not math.isfinite(value):
            reasons.append(f"{quantity} at N={N} s={s} is not finite")
        elif quantity == "kappa":
            floor = rows.get((suite, N, s, "correction_norm"), math.inf)
            if not value >= floor:
                reasons.append(f"kappa {value!r} < correction_norm {floor!r} at N={N} s={s}")
        elif exact or quantity not in SEED_DEPENDENT:
            ref = reference[key]
            if abs(value - ref) > SWEEP_RTOL * abs(ref):
                reasons.append(f"{quantity} at N={N} s={s} is {value!r}, reference {ref!r}")
    return reasons


def report_failures(text: str) -> list[str]:
    try:
        report = json.loads(text)
    except ValueError:
        return ["report is not valid JSON"]
    suites = report.get("suites") or {}
    reasons = [
        f"suite {name} verdict is {suite.get('verdict')!r}"
        for name, suite in sorted(suites.items())
        if suite.get("verdict") != "pass"
    ]
    if not suites:
        reasons.append("report holds no suites")
    if report.get("verdict") != "pass":
        reasons.append(f"overall verdict is {report.get('verdict')!r}")
    return reasons


def output_digest(output: bytes | None) -> str | None:
    return hashlib.sha256(output).hexdigest() if output is not None else None


def majority_digest(runs: list[dict]) -> str | None:
    """The most common output digest among the runs that exited cleanly."""
    clean = Counter(output_digest(r["output"]) for r in runs if r["output"] is not None and r["exit_code"] == 0)
    return clean.most_common(1)[0][0] if clean else None


def run_failures(
    runs: list[dict], kind: str, reference: tuple[dict, bool] | None, expected: str | None
) -> list[list[str]]:
    """Failure reasons per run; an empty list means the run passed.

    Each run is a dict with `exit_code` and `output` (the bytes written,
    or None).  Outputs are compared by sha256 with `expected`: the digest
    an earlier invocation recorded at the same seed and sources, or else
    majority_digest(runs).  Sweeps are also compared with `reference`,
    the result of load_reference().
    """
    verdicts = []
    for run in runs:
        reasons = []
        if run["exit_code"] != 0:
            reasons.append(f"exit code {run['exit_code']}")
        if run["output"] is None:
            reasons.append("no output written")
        else:
            text = run["output"].decode("utf-8", errors="replace")
            reasons += sweep_failures(text, *reference) if kind == "sweep" else report_failures(text)
            if output_digest(run["output"]) != expected:
                reasons.append("output bytes differ from the other runs at this seed")
        verdicts.append(reasons)
    return verdicts
