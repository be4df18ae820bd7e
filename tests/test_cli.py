"""Command-line entry points: config validation, determinism, exit codes."""

import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from floerlab import cli, suites
from floerlab.charts import shear_chart
from floerlab.cli import ConfigError, RunConfig, main
from floerlab.floer_map import verify_floer_axioms
from floerlab.scale_operator import (
    fredholm_diagnostic,
    fredholm_from_spectra,
    identity_operator,
    inclusion_singular_values,
)
from floerlab.scale_space import random_loop
from floerlab.suites import SUITES

README = Path(__file__).resolve().parents[1] / "README.md"


def _assert_no_child_left():
    # every worker the runner forked has been reaped: this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _config(tmp_path, name="cfg.json", **overrides):
    body = {"N": [16, 32], "s": [0.75], "suites": ["floer_function"], "seed": 0}
    body.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def test_default_config_values():
    cfg = RunConfig()
    assert cfg.N == [16, 32, 64, 128, 256]
    assert cfg.s == [0.6, 0.75, 0.9]
    assert cfg.seed == 0
    assert not cfg.negative_controls
    assert cfg.mid_s == 0.75 and cfg.capped(64) == (16, 32, 64)
    assert RunConfig(N=[128, 256]).capped(64) == (128,)
    assert cfg.suite_config() is cfg


# each of these once ran: an empty suite list even passed with exit 0, and
# one truncation given twice read as a stable sweep
ONCE_ACCEPTED = [
    {"suites": []},
    {"negative_controls": "no"},
    {"seed": True},
    {"workers": True},
    {"suites": "floer_map"},
    {"N": [32, 32]},
]

# each of these once exited 0 or with a traceback: a negative seed reached
# default_rng, and a suite or an s given twice ran twice; each now exits 2
# with one error line
REPEATED_OR_NEGATIVE = {
    "seed must be a non-negative integer, got -1": {"seed": -1},
    "suites must be distinct, got ['floer_function', 'floer_function']": {
        "suites": ["floer_function", "floer_function"]
    },
    "s values must be distinct, got [0.75, 0.75]": {"s": [0.75, 0.75]},
}

# keys that once moved a suite gate or named the output file: the gates are
# constants now and --out names the file, so a config naming them is rejected
REMOVED_KEYS = [
    {"tolerances": {"pairing_tol": 1e-6}},
    {"tolerances": {"pairng_tol": 1}},
    {"tolerances": 3},
    {"out": "report.json"},
]


@pytest.mark.parametrize(
    "bad",
    [
        {"N": []},
        {"N": [48]},
        {"N": [8]},
        {"N": [1024]},
        {"s": [0.5]},
        {"s": [1.0]},
        {"s": [0.4, 0.75]},
        {"seed": "zero"},
        {"suites": ["floer_function", "nope"]},
        {"workers": 0},
        *ONCE_ACCEPTED,
        *REPEATED_OR_NEGATIVE.values(),
    ],
)
def test_invalid_settings_rejected(bad):
    with pytest.raises(ConfigError):
        RunConfig(**{**{"N": [16], "s": [0.75]}, **bad})


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_bad_settings_exit_2_before_any_report(tmp_path, capsys, command):
    for i, bad in enumerate(ONCE_ACCEPTED + REMOVED_KEYS):
        out = tmp_path / f"report{i}.json"
        assert main([command, "--config", _config(tmp_path, **bad), "--out", str(out)]) == 2, bad
        err = capsys.readouterr().err
        assert "error:" in err
        if bad in REMOVED_KEYS:
            assert f"unknown config keys [{next(iter(bad))!r}]" in err
        assert not out.exists()
    for i, (message, bad) in enumerate(REPEATED_OR_NEGATIVE.items()):
        out = tmp_path / f"repeated{i}.json"
        assert main([command, "--config", _config(tmp_path, **bad), "--out", str(out)]) == 2, bad
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("key", ["tolerances", "out"])
def test_removed_keys_are_not_fields(key):
    with pytest.raises(TypeError):
        RunConfig(**{key: None})


def test_readme_configuration_example_loads(tmp_path):
    section = README.read_text().split("### Configuration", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(example)
    RunConfig.load(str(path))


def test_load_rejects_malformed_and_unknown(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.load(str(broken))
    alien = tmp_path / "alien.json"
    alien.write_text(json.dumps({"N": [16], "verbosity": 3}))
    with pytest.raises(ConfigError, match="verbosity"):
        RunConfig.load(str(alien))
    listy = tmp_path / "list.json"
    listy.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        RunConfig.load(str(listy))


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    # the bytes \xff\xfe start no UTF-8 character; reading them once raised
    # UnicodeDecodeError out of main with a traceback and exit 1
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "report.out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config is not UTF-8 text") and err.count("\n") == 1
    assert not out.exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["verify", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_small_config_is_deterministic(tmp_path):
    cfg = _config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["verify", "--config", cfg, "--out", str(out2)]) == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["verdict"] == "pass"
    assert list(report["suites"]) == ["floer_function"]
    assert report["suites"]["floer_function"]["verdict"] == "pass"
    assert report["config"] == {
        "N": [16, 32],
        "negative_controls": False,
        "s": [0.75],
        "seed": 0,
        "suites": ["floer_function"],
    }


def test_verify_one_truncation_is_insufficient_and_exits_1(tmp_path):
    # a one-point sweep shows nothing about stabilization, so every suite
    # must fail on it rather than pass vacuously
    path = tmp_path / "n32.json"
    path.write_text(json.dumps({"N": [32]}))
    out = tmp_path / "n32-report.json"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["verdict"] == "fail"
    assert {name: r["verdict"] for name, r in report["suites"].items()} == {
        name: "fail" for name in RunConfig().suites
    }


def test_sweep_rows_and_monotone_inclusion(tmp_path):
    cfg = _config(tmp_path, N=[16, 32, 64], s=[0.75])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "suite,N,s,quantity,value"
    iota = [
        float(row.split(",")[-1])
        for row in lines[1:]
        if row.split(",")[3] == "inclusion_sigma_min"
    ]
    assert len(iota) == 3
    assert all(b < a for a, b in zip(iota, iota[1:]))
    again = tmp_path / "sweep2.csv"
    assert main(["sweep", "--config", cfg, "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


@pytest.mark.parametrize("seed", [0, 4])
def test_sweep_csv_does_not_depend_on_workers(tmp_path, seed):
    outs = []
    for workers in (1, 2, 4):
        cfg = _config(tmp_path, f"w{workers}.json", N=[16, 32, 64], s=[0.6, 0.9], seed=seed, workers=workers)
        outs.append(tmp_path / f"sweep-w{workers}.csv")
        assert main(["sweep", "--config", cfg, "--out", str(outs[-1])]) == 0
        _assert_no_child_left()
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 1 + 3 * (1 + 1 + 4 + 2 * 2)


def test_every_truncation_of_the_sweep_reads_one_loop():
    # the sweep draws one loop at the smallest N and resizes it for each
    # cell, so a quantity of that loop alone, such as the Riesz correction
    # norm, reads the same at every N; each N once drew its own loop
    by_s = {}
    for _, _, s, quantity, value in cli._sweep_rows(RunConfig(workers=1)):
        if quantity == "correction_norm":
            by_s.setdefault(s, []).append(value)
    assert sorted(by_s) == ["0.6", "0.75", "0.9"]
    for s, values in by_s.items():
        assert len(values) == 5
        assert max(abs(v - values[0]) for v in values) <= 1e-12 * abs(values[0]), s


def test_axiom_and_fredholm_reports_are_json_as_returned():
    # the reports embed these as they are: plain dicts that need no
    # conversion, with the keys of the report contract
    rng = np.random.default_rng(0)
    samples = [random_loop(rng, 2, 16, amplitude=0.3) for _ in range(2)]
    axioms = verify_floer_axioms(shear_chart(), 0.75, samples, (16, 32), hopm={"restarts": 0, "iters": 20})
    fredholm = [
        fredholm_diagnostic({N: identity_operator(N, 2) for N in (16, 32)}, 1.0, 0.0),
        fredholm_from_spectra({N: inclusion_singular_values(N, 2, 1.0, 0.0) for N in (16, 32)}, 1.0, 0.0),
    ]
    assert [list(r) for r in axioms] == [["axiom", "s", "sweep", "continuity_modulus", "verdict"]] * 4
    assert [list(r) for r in fredholm] == [["a", "b", "sweep", "index_estimate", "verdict"]] * 2
    for rep in axioms + fredholm:
        assert json.dumps(rep, sort_keys=True) == json.dumps(cli._jsonable(rep), sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_sweep_cell_fails_the_sweep_with_its_error(monkeypatch, tmp_path, workers):
    # two truncations' cells raise; the one first in cell order is the error, as
    # inline; the cell reads both names from cli, so the patches reach a forked worker
    kappa, norm = cli.kappa_bound_check, cli.op_norm

    def failing_kappa(F, phi, q, s, **kw):
        if q.N == 32:
            raise FloatingPointError(f"kappa failed at N={q.N}")
        return kappa(F, phi, q, s, **kw)

    def failing_norm(T, a, b):
        if T.N == 64:
            raise LookupError(f"norm failed at N={T.N}")
        return norm(T, a, b)

    monkeypatch.setattr(cli, "kappa_bound_check", failing_kappa)
    monkeypatch.setattr(cli, "op_norm", failing_norm)
    cfg = _config(tmp_path, N=[16, 32, 64], s=[0.6, 0.9], workers=workers)
    out = tmp_path / "sweep.csv"
    with pytest.raises(FloatingPointError, match="kappa failed at N=32") as raised:
        main(["sweep", "--config", cfg, "--out", str(out)])
    assert not out.exists()
    assert (type(raised.value.__cause__).__name__ == "_RemoteTraceback") == (workers > 1)
    _assert_no_child_left()


def test_a_one_truncation_sweep_imports_no_pool(tmp_path):
    # one truncation is one cell, run inline whatever workers says; the core
    # verify at two workers forks two workers (where OpenBLAS can be held at
    # one thread) and imports no pool module, nor select, either
    script = textwrap.dedent(
        """
        import os, sys
        from floerlab import cli

        pools = {"concurrent.futures", "multiprocessing", "select"}
        forks, fork = [], os.fork
        os.fork = lambda: forks.append(1) or fork()
        cli.cmd_sweep(cli.RunConfig(N=[16], s=[0.75], workers=4), sys.argv[1])
        print(sorted(pools & set(sys.modules)), len(forks))
        core = cli.RunConfig(suites=["floer_function", "sobolev_evidence"], negative_controls=True, workers=2)
        cli.cmd_verify(core, sys.argv[2])
        print(sorted(pools & set(sys.modules)), len(forks), cli._openblas_thread_calls() is not None)
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            print("no child left")
        """
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    sweep, core = tmp_path / "sweep.csv", tmp_path / "core.json"
    done = subprocess.run(
        [sys.executable, "-c", script, str(sweep), str(core)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    after_sweep, after_verify, last = done.stdout.splitlines()
    assert after_sweep == "[] 0"
    assert after_verify in ("[] 2 True", "[] 0 False")
    assert last == "no child left"
    assert len(sweep.read_text().splitlines()) == 1 + 1 + 1 + 4 + 2
    assert json.loads(core.read_text())["verdict"] == "pass"


CORE = {"suites": ["floer_function", "sobolev_evidence"], "negative_controls": True}


def test_pool_size_reads_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert RunConfig().pool_size() == 1
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
    assert RunConfig().pool_size() == 4
    assert RunConfig(workers=3).pool_size() == 3


PLANNERS = {**SUITES, "sweep": cli._sweep_plan}


@pytest.mark.parametrize("name", sorted(PLANNERS))
def test_every_planned_cell_pickles(name):
    # a worker inherits its cells through fork, but a cell's arguments stay
    # plain data (levels, truncations, loops), never charts or atlases
    plan = PLANNERS[name](RunConfig(negative_controls=True))
    assert plan.cells
    for fn, args in plan.cells:
        assert len(pickle.loads(pickle.dumps(args))) == len(args)


def test_core_cell_results_survive_a_pickle_round_trip():
    # a worker returns each cell's result by pickle: assembled from the
    # round-tripped results, every core suite report keeps its bytes
    cfg = RunConfig(**CORE)
    for name in CORE["suites"]:
        plan = SUITES[name](cfg)
        results = [fn(*args) for fn, args in plan.cells]
        back = pickle.loads(pickle.dumps(results))
        want = json.dumps(cli._jsonable(plan.assemble(results)), sort_keys=True)
        assert json.dumps(cli._jsonable(plan.assemble(back)), sort_keys=True) == want


def test_core_report_does_not_depend_on_workers(tmp_path):
    reports = []
    for workers in (1, 2, 4):
        cfg = _config(tmp_path, f"core-w{workers}.json", **CORE, N=[16, 32, 64, 128, 256], workers=workers)
        reports.append(tmp_path / f"core-w{workers}.json.out")
        assert main(["verify", "--config", cfg, "--out", str(reports[-1])]) == 0
        _assert_no_child_left()
    assert reports[0].read_bytes() == reports[1].read_bytes() == reports[2].read_bytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_verify_cell_fails_verify_with_its_error(monkeypatch, tmp_path, workers):
    # two cells raise, the later one in cell order sooner; the one first in
    # cell order is the error, as inline, and no report is written
    full_report = suites.full_report

    def slow_failing_report(*args, **kwargs):
        time.sleep(0.1)
        full_report(*args, **kwargs)
        raise FloatingPointError("full report failed")

    def failing_holder(s, **kwargs):
        raise LookupError(f"holder failed at s={s}")

    monkeypatch.setattr(suites, "full_report", slow_failing_report)
    monkeypatch.setattr(suites, "holder_embedding_check", failing_holder)
    cfg = _config(tmp_path, **CORE, workers=workers)
    out = tmp_path / "report.json"
    with pytest.raises(FloatingPointError, match="full report failed") as raised:
        main(["verify", "--config", cfg, "--out", str(out)])
    assert not out.exists()
    # a pooled cell's error carries the worker's traceback as its cause
    assert (type(raised.value.__cause__).__name__ == "_RemoteTraceback") == (workers > 1)
    _assert_no_child_left()


def _marking_cell(index, folder):
    if index == 0:
        raise FloatingPointError("the first cell failed")
    time.sleep(0.2)
    (Path(folder) / f"cell-{index}").touch()


def test_a_failing_cell_cancels_the_cells_not_started(tmp_path):
    # the first cell raises at once while the others take 0.2 s each: the
    # error comes with its worker's traceback, and the queued cells never run
    cells = [(_marking_cell, (index, str(tmp_path))) for index in range(8)]
    with pytest.raises(FloatingPointError, match="the first cell failed") as raised:
        cli._run_plans({"marking": suites.Plan(cells, list)}, 2)
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"
    _assert_no_child_left()
    assert len(list(tmp_path.iterdir())) < len(cells) - 1


def _exiting_cell(index):
    if index == 2:
        os._exit(3)
    time.sleep(0.05)
    return index


def test_a_worker_that_exits_in_a_cell_fails_the_run_naming_that_cell():
    # the worker running cell 2 dies without reporting: the run raises
    # promptly, with an error that names the cell, and reaps every worker
    cells = [(_exiting_cell, (index,)) for index in range(6)]
    plans = {"ok": suites.Plan([(_exiting_cell, (0,))], list), "dying": suites.Plan(cells, list)}
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"dying cell 2 \(_exiting_cell\) did not report; worker exit codes: .*3"):
        cli._run_plans(plans, 2)
    assert time.perf_counter() - start < 5.0
    _assert_no_child_left()


def _large_cell(index):
    # 1 MiB of float64, far more than a pipe holds
    return np.random.default_rng(index).standard_normal(1 << 17)


def test_a_large_cell_result_assembles_as_inline():
    cells = [(_large_cell, (index,)) for index in range(3)]
    plans = {"large": suites.Plan(cells, list), "small": suites.Plan([(_exiting_cell, (0,))], list)}
    pooled, inline = cli._run_plans(plans, 2), cli._run_plans(plans, 1)
    _assert_no_child_left()
    assert pooled["small"] == inline["small"] == [0]
    assert len(pooled["large"]) == len(inline["large"]) == 3
    for got, want in zip(pooled["large"], inline["large"]):
        assert got.nbytes == 1 << 20 and np.array_equal(got, want)


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_a_pooled_run_leaves_no_descriptor_open():
    # the index pipe and every worker's outcome file are closed, after a
    # run that passes and after one whose cell fails
    before = _open_descriptors()
    cells = [(_large_cell, (index,)) for index in range(4)]
    cli._run_plans({"large": suites.Plan(cells, list)}, 2)
    assert _open_descriptors() == before
    with pytest.raises(FloatingPointError):
        cli._run_plans({"failing": suites.Plan([(_marking_cell, (0, "unused"))] * 3, list)}, 2)
    assert _open_descriptors() == before
    _assert_no_child_left()


def test_without_memfd_the_cells_run_inline(monkeypatch, tmp_path):
    # the workers return their outcomes in memfd files: where os.memfd_create
    # is missing, verify runs its cells inline, forks nothing and writes the
    # same bytes as on two workers
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cfg = _config(tmp_path, **CORE, workers=2)
    pooled, inline = tmp_path / "pooled.json", tmp_path / "inline.json"
    assert main(["verify", "--config", cfg, "--out", str(pooled)]) == 0
    assert len(forks) == (2 if cli._openblas_thread_calls() is not None else 0)
    forks.clear()
    monkeypatch.delattr(os, "memfd_create")
    assert main(["verify", "--config", cfg, "--out", str(inline)]) == 0
    assert forks == []
    assert pooled.read_bytes() == inline.read_bytes()
    _assert_no_child_left()


def test_verify_holds_blas_at_one_thread_and_restores_it(tmp_path):
    calls = cli._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy is not linked to an OpenBLAS with a thread setter")
    setter, getter = calls
    before = getter()
    reports = []
    try:
        for threads in (2, 1):
            setter(threads)
            cfg = _config(tmp_path, f"blas{threads}.json", **CORE, N=[16, 32, 64, 128, 256], workers=1)
            reports.append(tmp_path / f"blas{threads}.out")
            assert main(["verify", "--config", cfg, "--out", str(reports[-1])]) == 0
            assert getter() == threads
    finally:
        setter(before)
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_demo_pullback_prints_sections(capsys):
    assert main(["demo", "pullback"]) == 0
    text = capsys.readouterr().out
    for token in ("Gradient", "Hessian", "kappa", "Fredholm"):
        assert token in text


def test_demo_atlas_prints_sections(capsys):
    assert main(["demo", "atlas"]) == 0
    text = capsys.readouterr().out
    for token in ("Compatibility", "Cocycle residuals", "two-step residual", "pieces agree with union"):
        assert token in text
    assert "fail" not in text


def test_unknown_demo_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["demo", "nonsense"])
    assert err.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
