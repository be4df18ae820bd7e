"""Command-line entry points: config validation, determinism, exit codes."""

import json
import re
from pathlib import Path

import pytest

from floerlab import cli
from floerlab.cli import ConfigError, RunConfig, main

README = Path(__file__).resolve().parents[1] / "README.md"


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
    for workers in (1, 2):
        cfg = _config(tmp_path, f"w{workers}.json", N=[16, 32, 64], s=[0.6, 0.9], seed=seed, workers=workers)
        outs.append(tmp_path / f"sweep-w{workers}.csv")
        assert main(["sweep", "--config", cfg, "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 1 + 3 * (1 + 1 + 4 + 2 * 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_sweep_cell_fails_the_sweep_with_its_error(monkeypatch, tmp_path, workers):
    # two cells raise; the one first in row order is the error, as in a run one cell at a time
    kappa, norm = cli.kappa_bound_check, cli.op_norm

    def failing_kappa(F, phi, q, s, **kw):
        if phi.N == 32:
            raise FloatingPointError(f"kappa failed at N={phi.N}")
        return kappa(F, phi, q, s, **kw)

    def failing_norm(T):
        if T.N == 64:
            raise LookupError(f"norm failed at N={T.N}")
        return norm(T)

    monkeypatch.setattr(cli, "kappa_bound_check", failing_kappa)
    monkeypatch.setattr(cli, "op_norm", failing_norm)
    cfg = _config(tmp_path, N=[16, 32, 64], s=[0.6, 0.9], workers=workers)
    out = tmp_path / "sweep.csv"
    with pytest.raises(FloatingPointError, match="kappa failed at N=32"):
        main(["sweep", "--config", cfg, "--out", str(out)])
    assert not out.exists()


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
