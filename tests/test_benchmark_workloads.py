"""The benchmark's scaled loop_atlas suite still runs on the program's calls.

perfbench/workloads.py builds LoopAtlas objects and calls
check_compatibility and check_transitivity(corpus=...) itself, outside
any suite, so a change to those calls can break the benchmark while
every suite passes.  The module is loaded read-only from its file.
"""

import importlib.util
import sys
from pathlib import Path

from floerlab.cli import RunConfig

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_the_atlas_workload_passes_at_its_config(monkeypatch):
    workloads = _workloads(monkeypatch)
    cfg = RunConfig(**workloads.WORKLOADS["atlas"].config(0))
    report = workloads.atlas_report(cfg)
    checks = report["suites"]["loop_atlas"]["checks"]
    assert report["verdict"] == "pass", [c["name"] for c in checks if not c["passed"]]
    assert len(checks) == 3  # compatibility, the cocycle, and the C1 control
