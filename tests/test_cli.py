"""Command line: `test` on inputs the battery cannot judge, and `sweep`."""

import json

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
