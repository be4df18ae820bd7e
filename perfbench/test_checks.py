"""Self-tests of the benchmark: each failure kind counts as failed, and the
traced child reports its layers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from checks import REFERENCE_DIR, SEED_DEPENDENT, load_reference, majority_digest, parse_sweep, run_failures
from run import ROOT, Children, _earlier_digest
from tracer import summarize
from workloads import WORKLOADS, Workload

PASSING = {"suites": {"floer_map": {"verdict": "pass"}, "pullback": {"verdict": "pass"}}, "verdict": "pass"}


def _report(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _run(output: bytes | None, exit_code: int = 0) -> dict:
    return {"exit_code": exit_code, "output": output}


def _verdicts(runs: list[dict], kind: str, reference) -> list[list[str]]:
    return run_failures(runs, kind, reference, majority_digest(runs))


def _reference_csv(seed: int = 0) -> str:
    return (REFERENCE_DIR / f"seed-{seed}.csv").read_text(encoding="utf-8")


def _edit(text: str, quantity: str, factor: float) -> str:
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        head, _, value = line.rpartition(",")
        if quantity in head:
            lines[i] = f"{head},{float(value) * factor!r}\n"
    return "".join(lines)


def test_clean_runs_pass():
    runs = [_run(_report(PASSING)) for _ in range(3)]
    assert _verdicts(runs, "verify", None) == [[], [], []]


def test_nonzero_exit_counts_as_failed():
    verdicts = _verdicts([_run(_report(PASSING), exit_code=1), _run(_report(PASSING))], "verify", None)
    assert verdicts[0] == ["exit code 1"] and verdicts[1] == []


def test_missing_output_counts_as_failed():
    assert _verdicts([_run(None)], "verify", None) == [["no output written"]]


def test_failing_verdict_counts_as_failed():
    bad = json.loads(json.dumps(PASSING))
    bad["suites"]["pullback"]["verdict"] = "fail"
    bad["verdict"] = "fail"
    verdicts = _verdicts([_run(_report(bad))], "verify", None)
    assert "suite pullback verdict is 'fail'" in verdicts[0]
    assert "overall verdict is 'fail'" in verdicts[0]


def test_differing_report_bytes_count_as_failed():
    other = json.loads(json.dumps(PASSING))
    other["suites"]["floer_map"]["residual"] = 1e-13
    runs = [_run(_report(PASSING)), _run(_report(other)), _run(_report(PASSING))]
    verdicts = _verdicts(runs, "verify", None)
    assert verdicts[1] == ["output bytes differ from the other runs at this seed"]
    assert verdicts[0] == verdicts[2] == []


def test_bytes_differing_from_an_earlier_invocation_count_as_failed(tmp_path):
    other = json.loads(json.dumps(PASSING))
    other["suites"]["floer_map"]["residual"] = 1e-13
    earlier = majority_digest([_run(_report(other))])
    verdicts = run_failures([_run(_report(PASSING))] * 2, "verify", None, earlier)
    assert verdicts == [["output bytes differ from the other runs at this seed"]] * 2
    # the recorded digest only binds runs of the same sources
    record = tmp_path / "digest.json"
    record.write_text(json.dumps({"src_sha256": "a", "output_sha256": earlier}), encoding="utf-8")
    assert _earlier_digest(record, "a") == earlier and _earlier_digest(record, "b") is None


def test_sweep_matching_its_reference_passes():
    text = _reference_csv(0)
    assert _verdicts([_run(text.encode())] * 2, "sweep", load_reference(0)) == [[], []]


def test_sweep_value_off_reference_counts_as_failed():
    off = _edit(_reference_csv(0), "inclusion_sigma_min", 1.0 + 1e-6)
    verdicts = _verdicts([_run(off.encode())], "sweep", load_reference(0))
    assert len(verdicts[0]) == 1 and verdicts[0][0].startswith("inclusion_sigma_min at N=512")
    close = _edit(_reference_csv(0), "inclusion_sigma_min", 1.0 + 1e-12)
    assert _verdicts([_run(close.encode())], "sweep", load_reference(0)) == [[]]


def test_sweep_row_keys_must_match():
    text = "".join(line for line in _reference_csv(0).splitlines(keepends=True) if "action_gap" not in line)
    verdicts = _verdicts([_run(text.encode())], "sweep", load_reference(0))
    assert verdicts == [["sweep row keys differ from the reference"]]


def test_kappa_may_move_but_not_below_the_correction_norm():
    text = _reference_csv(0)
    rows = parse_sweep(text)
    kappa = rows[("pullback", 512, "0.75", "kappa")]
    floor = rows[("pullback", 512, "0.75", "correction_norm")]
    higher = _edit(text, ",kappa", 1.5)
    assert _verdicts([_run(higher.encode())], "sweep", load_reference(0)) == [[]]
    below = _edit(text, ",kappa", 0.99 * floor / kappa)
    verdicts = _verdicts([_run(below.encode())], "sweep", load_reference(0))
    assert len(verdicts[0]) == 1 and verdicts[0][0].startswith("kappa ")


def test_unrecorded_seed_compares_only_seed_free_rows():
    rows, exact = load_reference(10**6)
    assert not exact and rows == parse_sweep(_reference_csv(0))
    moved = _edit(_reference_csv(0), "correction_norm", 0.5)
    assert _verdicts([_run(moved.encode())], "sweep", (rows, exact)) == [[]]
    assert _verdicts([_run(moved.encode())], "sweep", load_reference(0)) != [[]]


def test_only_seed_dependent_quantities_vary_across_recorded_seeds():
    tables = [parse_sweep(p.read_text(encoding="utf-8")) for p in sorted(REFERENCE_DIR.glob("seed-*.csv"))]
    assert len(tables) > 1
    varying = {key[3] for key in tables[0] if len({t[key] for t in tables}) > 1}
    assert varying == set(SEED_DEPENDENT)


def test_self_time_subtracts_nested_spans_of_other_layers():
    spans = [
        {"id": 1, "parent": 0, "layer": "floer_map", "name": "floer_map.verify_floer_axioms", "start": 0.0, "end": 4.0},
        {"id": 2, "parent": 1, "layer": "scale_operator", "name": "scale_operator.svd", "start": 1.0, "end": 2.0,
         "dim": 10, "d3": 1000},
        {"id": 3, "parent": 1, "layer": "floer_map", "name": "floer_map.bilinear_norm", "start": 2.5, "end": 3.0},
        {"id": 4, "parent": 0, "layer": "cli", "name": "cli.report", "start": 5.0, "end": 5.5, "bytes": 7},
    ]
    m = summarize(spans, wall_s=6.0)
    assert m["floer_map.self_s"] == pytest.approx(3.0)
    assert m["scale_operator.self_s"] == pytest.approx(1.0)
    assert m["scale_operator.svd.d3"] == 1000 and m["scale_operator.svd.max_dim"] == 10
    assert m["cli.report.bytes"] == 7
    assert m["trace.uncovered_s"] == pytest.approx(1.5)


def test_real_child_with_rejected_config_counts_as_failed(tmp_path):
    children = Children(Workload("bad", "verify", {"N": [3]}), 0, tmp_path, time.perf_counter() + 120)
    run = children.spawn()
    assert run["exit_code"] == 2
    assert _verdicts([run], "verify", None)[0][0] == "exit code 2"


def test_traced_child_records_layers(tmp_path):
    children = Children(Workload("tiny", "sweep", {"N": [16], "s": [0.75]}), 0, tmp_path, time.perf_counter() + 120)
    run = children.spawn(trace=True)
    assert run["exit_code"] == 0 and run["output"].startswith(b"suite,N,s,quantity,value")
    layers = run["layers"]
    # cli.weighted_singular_values is a copied binding; it must be traced too
    assert layers["scale_operator.svd.calls"] >= 2
    assert layers["pullback.kappa_bound_check.calls"] == 1
    assert layers["cli.report.bytes"] == len(run["output"])


def test_traced_atlas_child_reports_the_loop_atlas_suite(tmp_path):
    children = Children(WORKLOADS["atlas"], 0, tmp_path, time.perf_counter() + 120)
    run = children.spawn(trace=True)
    assert run["exit_code"] == 0
    layers = run["layers"]
    assert 0 < layers["suites.loop_atlas.s"] <= layers["trace.wall_s"]
    assert layers["charts.sympy_build.calls"] >= 1 and layers["loop_atlas.check_compatibility.calls"] >= 1


def test_run_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "atlas", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
    assert not (tmp_path / ".perfbench_out").exists()
