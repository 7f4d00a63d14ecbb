"""Command line: config precedence and validation, `test` on inputs the
battery cannot judge, `sweep`, the --json outputs, exit codes, and the
commands that start without scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spintrng import cli
from spintrng.sweeps import Axis, run_sweep, spec_for_axis


def test_stream_too_short_for_every_module_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "short.bin"
    path.write_bytes(np.arange(8, dtype=np.uint8).tobytes())  # 64 bits
    report = tmp_path / "report.json"
    code = cli.main(["test", "--in", str(path), "--groups", "1", "--json", str(report)])
    out, err = capsys.readouterr()
    assert code == 1
    assert "no module ran" in out
    assert "overall: fail" in out
    assert "no module ran on groups of 64 bits" in err
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["overall_pass"] is False
    assert {row["verdict"] for row in payload["nist"]} == {"skipped"}


def test_empty_input_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    code = cli.main(["test", "--in", str(path)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "input file holds no bits" in err
    assert "runtime error" not in err


def test_a_runnable_battery_still_exits_zero(tmp_path, capsys):
    rng = np.random.default_rng(14)
    path = tmp_path / "fair.bin"
    path.write_bytes(np.packbits(rng.integers(0, 2, size=100_000, dtype=np.uint8)).tobytes())
    assert cli.main(["test", "--in", str(path), "--groups", "10"]) == 0
    out, _ = capsys.readouterr()
    assert "no module ran" not in out


@pytest.mark.parametrize("axis", [a.value for a in Axis])
def test_sweep_writes_the_report_csv_whatever_the_jobs(axis, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    spec = spec_for_axis(Axis(axis), bits_per_point=10_000, n_samples=10, seed=3)
    expected = run_sweep(spec).to_csv()
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep-{jobs}.csv"
        args = ["sweep", "--axis", axis, "--bits-per-point", "10000", "--samples", "10"]
        code = cli.main(args + ["--seed", "3", "--jobs", jobs, "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == expected


def _write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def _analyze_p1(capsys, argv) -> str:
    assert cli.main(["analyze", *argv]) == 0
    out, _ = capsys.readouterr()
    return out.split()[0]


def test_flags_beat_config_beats_defaults(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    config = _write_config(tmp_path, {"analyze": {"p1": "0.3"}})
    assert _analyze_p1(capsys, []) == "p1=0.5000"
    assert _analyze_p1(capsys, ["--config", config]) == "p1=0.3000"
    assert _analyze_p1(capsys, ["--config", config, "--p1", "0.2"]) == "p1=0.2000"
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, config)
    assert _analyze_p1(capsys, []) == "p1=0.3000"
    assert _analyze_p1(capsys, ["--p1", "0.2"]) == "p1=0.2000"


def test_flags_beat_config_for_typed_options(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    config = _write_config(tmp_path, {"generate": {"bits": 1e3, "seed": 1}})
    out = str(tmp_path / "s.bin")
    for flags, n_bits in (([], 1000), (["--bits", "500"], 500)):
        assert cli.main(["generate", "--config", config, "--out", out, *flags]) == 0
        stdout, _ = capsys.readouterr()
        assert stdout.splitlines()[0] == f"wrote {out} ({n_bits} bits, packed)"


def test_numeric_config_path_is_its_text(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    config = _write_config(tmp_path, {"generate": {"out": 7}})
    assert cli.main(["generate", "--bits", "100", "--seed", "1", "--config", config]) == 0
    assert (tmp_path / "7").stat().st_size == 13


def test_null_config_value_keeps_a_none_default(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    config = _write_config(tmp_path, {"generate": {"seed": None, "force_p1": None}})
    out = tmp_path / "s.bin"
    assert cli.main(["generate", "--bits", "100", "--out", str(out), "--config", config]) == 0
    assert out.stat().st_size == 13


@pytest.mark.parametrize(
    "command,payload,message",
    [
        (["analyze"], {"analyze": {"bogus": 1}}, "unknown config keys for analyze: bogus"),
        (["analyze"], {"bogus": 1}, "unknown config keys for analyze: bogus"),
        (["bench", "--paths", "100"], {"option": {"bogus": 1}}, "unknown option config keys: bogus"),
        (["sweep", "--out", "x.csv"], {"device": {"bogus": 1}}, "unknown device config keys: bogus"),
        (["analyze"], "{not json", "malformed config"),
        (["analyze"], "[1, 2]", "config root must be a JSON object"),
        (["analyze"], {"generate": {"bogus": 1}}, "unknown config keys for generate: bogus"),
        (["analyze"], {"device": {"bogus": 1}}, "unknown device config keys: bogus"),
        (["analyze"], {"option": {"bogus": 1}}, "unknown option config keys: bogus"),
        (["analyze"], {"device": {"delta_300": -1.0}}, "bad device config"),
        (["generate", "--out", "x.bin"], {"generate": {"format": "bogus"}}, "bad generate config value format"),
        (["generate", "--out", "x.bin"], {"generate": {"bits": "abc"}}, "bad generate config value bits"),
        (["analyze"], {"sweep": {"axis": "bogus"}}, "bad sweep config value axis"),
        (["sweep", "--out", "x.csv"], {"sweep": {"jobs": 0}}, "bad sweep config value jobs: must be >= 1"),
        (["generate", "--out", "x.bin"], {"generate": {"bits": 2.5}}, "bad generate config value bits"),
        (["generate", "--out", "x.bin"], {"generate": {"bits": True}}, "bad generate config value bits"),
        (["generate", "--out", "x.bin"], {"generate": {"v_rate": False}}, "bad generate config value v_rate"),
        (["analyze"], {"analyze": {"p1": True}}, "bad analyze config value p1"),
        (["generate"], {"generate": {"out": ["x.bin"]}}, "bad generate config value out"),
        (["bench", "--paths", "100"], {"option": {"n_paths": 7}}, "unknown option config keys: n_paths"),
        (["generate", "--out", "x.bin"], {"generate": {"bits": None}}, "bad generate config value bits"),
        (["sweep", "--out", "x.csv"], {"sweep": {"jobs": None}}, "bad sweep config value jobs"),
        (
            ["sweep", "--axis", "process", "--out", "x.csv"],
            {"sweep": {"samples": 20000, "bits_per_point": 10000}},
            "bad sweep config: bits_per_point must be >= n_samples",
        ),
        (["generate", "--out", "x.bin"], {"device": {"cd_nm": 32}}, "unknown device config keys: cd_nm"),
    ],
)
def test_bad_config_exits_one(tmp_path, capsys, monkeypatch, command, payload, message):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    code = cli.main([*command, "--config", _write_config(tmp_path, payload)])
    _, err = capsys.readouterr()
    assert code == 1
    assert message in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [["sweep", "--out", "x.csv"], ["bench", "--paths", "100"]])
def test_jobs_below_one_exits_one(tmp_path, capsys, monkeypatch, command, jobs):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    code = cli.main([*command, "--jobs", jobs])
    _, err = capsys.readouterr()
    assert code == 1
    assert f"argument --jobs: must be >= 1, got {jobs}" in err
    assert not (tmp_path / "x.csv").exists()


def test_runtime_failure_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)

    def fail(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli, "generate_bitstream", fail)
    code = cli.main(["generate", "--bits", "100", "--out", str(tmp_path / "s.bin")])
    _, err = capsys.readouterr()
    assert code == 2
    assert "spintrng: runtime error: simulated fault" in err


def test_generate_analyze_and_sweep_never_load_scipy(tmp_path):
    # A fresh interpreter: this test process has scipy loaded already.
    script = """
import sys
from spintrng import cli
assert "scipy" not in sys.modules, "import spintrng.cli"
assert cli.main(["generate", "--bits", "1000", "--seed", "1", "--out", "s.bin"]) == 0
assert "scipy" not in sys.modules, "generate"
assert cli.main(["analyze"]) == 0
assert "scipy" not in sys.modules, "analyze"
assert cli.main(["sweep", "--bits-per-point", "10000", "--seed", "1", "--out", "s.csv"]) == 0
assert "scipy" not in sys.modules, "sweep"
assert cli.main(["bench", "--paths", "100"]) == 0
assert "scipy" not in sys.modules, "bench"
"""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop(cli.CONFIG_ENV_VAR, None)
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "section,key,value",
    [("device", "delta-300", 3.5), ("device", "r_p_ohm", 5000.0), ("option", "maturity-years", 1.0)],
)
def test_config_sections_accept_dashed_and_underscored_keys(
    tmp_path, capsys, monkeypatch, section, key, value
):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    config = _write_config(tmp_path, {section: {key: value}})
    if section == "device":
        args = ["generate", "--bits", "1000", "--seed", "4", "--out"]
        assert cli.main([*args, str(tmp_path / "a.bin"), "--config", config]) == 0
        assert cli.main([*args, str(tmp_path / "b.bin")]) == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    else:
        assert cli.main(["bench", "--paths", "100", "--config", config]) == 0


def test_json_outputs_parse(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    bits = tmp_path / "bits.bin"
    assert cli.main(["generate", "--bits", "100000", "--seed", "2", "--out", str(bits)]) == 0
    test_json, analyze_json, bench_json = (tmp_path / f"{c}.json" for c in ("t", "a", "b"))
    assert cli.main(["test", "--in", str(bits), "--json", str(test_json)]) == 0
    assert cli.main(["analyze", "--p1", "0.4,0.5", "--json", str(analyze_json)]) == 0
    assert cli.main(["bench", "--paths", "100,200", "--json", str(bench_json)]) == 0

    report = json.loads(test_json.read_text(encoding="utf-8"))
    assert report["entropy"]["n_bits"] == 100_000
    assert [row["p1"] for row in json.loads(analyze_json.read_text(encoding="utf-8"))] == [0.4, 0.5]
    rows = json.loads(bench_json.read_text(encoding="utf-8"))
    assert len(rows) == 6
    assert list(rows[0]) == [
        "backend", "n_paths", "price", "stderr", "instructions", "runtime_s", "ratio_vs_trng"
    ]
