"""Command line: config precedence and validation, `test` on inputs the
battery cannot judge, `sweep`, the --json outputs, exit codes, and the
commands that start without scipy."""

import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spintrng import bitio, cli, nist
from spintrng.generator import BitGenerator, GeneratorConfig, Variant
from spintrng.sweeps import Axis, run_sweep, spec_for_axis
from spintrng.system import speedup_report


@pytest.fixture(autouse=True)
def _no_config_from_the_environment(monkeypatch):
    # Every command reads SPINTRNG_CONFIG, so no test may see the caller's.
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)


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
def test_sweep_writes_the_report_csv_whatever_the_jobs(axis, tmp_path):
    spec = spec_for_axis(Axis(axis), bits_per_point=10_000, n_samples=10, seed=3)
    expected = run_sweep(spec).to_csv()
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep-{jobs}.csv"
        args = ["sweep", "--axis", axis, "--bits-per-point", "10000", "--samples", "10"]
        code = cli.main(args + ["--seed", "3", "--jobs", jobs, "--out", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8") == expected


def test_bench_writes_the_report_csv(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert cli.main(["bench", "--paths", "100,200", "--seed", "3", "--out", str(out)]) == 0
    expected = speedup_report(n_paths_grid=(100, 200), seed=3).to_csv()
    assert out.read_text(encoding="utf-8") == expected


def _write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_config_flag_beats_env_beats_defaults(tmp_path, capsys, monkeypatch):
    # Off the nominal supply a higher barrier changes the flip
    # probabilities, and so the bits.
    device = _write_config(tmp_path, {"device": {"delta_300": 10}})
    empty = tmp_path / "empty.json"
    empty.write_text("{}")

    def bits(name, *flags) -> bytes:
        args = ["generate", "--bits", "1000", "--seed", "4", "--v-rate", "0.1"]
        assert cli.main([*args, "--out", str(tmp_path / name), *flags]) == 0
        return (tmp_path / name).read_bytes()

    default = bits("a.bin")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, device)
    assert bits("b.bin") == bits("c.bin", "--config", device) != default
    assert bits("d.bin", "--config", str(empty)) == default


def test_analyze_prints_positive_zero_min_entropy(capsys):
    # p1 = 0.5, p2 = 0 drives the cell to AP for good: a constant lane
    # is no error, its lag-1 correlation is 0, and its min-entropy
    # prints without a minus sign.
    assert cli.main(["analyze", "--p1", "0.5", "--p2", "0"]) == 0
    out, _ = capsys.readouterr()
    assert out == (
        "p1=0.5000 p2=0.0000 p_out_1=1.000000 xor_p_out_1=0.000000 "
        "lag1_autocorr=+0.000000 shannon=0.000000 min_entropy=0.000000 "
        "xor_shannon=0.000000 xor_min_entropy=0.000000\n"
    )


@pytest.mark.parametrize(
    "args,message",
    [
        (["--p1", "1.5"], "bad --p1 list '1.5': must lie in [0, 1], got 1.5"),
        (["--p1", "nan"], "bad --p1 list 'nan': must lie in [0, 1], got nan"),
        (["--p2", "0.5,-1"], "bad --p2 list '0.5,-1': must lie in [0, 1], got -1.0"),
        (["--p1", "0", "--p2", "0"], "p1 = p2 = 0 gives an absorbing chain"),
        (["--p1", ","], "empty --p1 list"),
    ],
    ids=["above-one", "nan", "negative", "absorbing", "empty"],
)
def test_analyze_bad_probabilities_exit_one(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["analyze", *args, "--json", "a.json"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"spintrng: error: {message}")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command,payload,message",
    [
        (["analyze"], {"analyze": {"p1": "0.3"}}, "unknown config keys: analyze"),
        (["analyze"], {"bogus": 1}, "unknown config keys: bogus"),
        (["bench", "--paths", "100"], {"option": {"bogus": 1}}, "unknown option config keys: bogus"),
        (["sweep", "--out", "x.csv"], {"device": {"bogus": 1}}, "unknown device config keys: bogus"),
        (["analyze"], "{not json", "malformed config"),
        (["analyze"], "[1, 2]", "config root must be a JSON object"),
        (["analyze"], {"generate": {"bits": 1000}}, "unknown config keys: generate"),
        (["analyze"], {"device": {"bogus": 1}}, "unknown device config keys: bogus"),
        (["analyze"], {"option": {"bogus": 1}}, "unknown option config keys: bogus"),
        (["analyze"], {"device": {"delta_300": -1.0}}, "bad device config"),
        # A command section is refused by name, whatever it holds, and
        # before the command writes anything ...
        (["generate", "--out", "x.bin"], {"generate": {"format": "ascii"}}, "unknown config keys: generate"),
        (["sweep", "--out", "x.csv"], {"sweep": {"jobs": 2}}, "unknown config keys: sweep"),
        (["bench", "--paths", "100", "--out", "b.csv"], {"bench": {"jobs": 2}}, "unknown config keys: bench"),
        (["test", "--in", "x.bin"], {"test": {"groups": 1}}, "unknown config keys: test"),
        (["analyze"], {"sweep": {"axis": "bogus"}}, "unknown config keys: sweep"),
        # ... as is a top-level key, an option's or a section's own ...
        (["generate", "--out", "x.bin"], {"bits": 1000}, "unknown config keys: bits"),
        (["sweep", "--out", "x.csv"], {"jobs": None}, "unknown config keys: jobs"),
        (["analyze"], {"p1": "0.3"}, "unknown config keys: p1"),
        (["generate", "--out", "x.bin"], {"tmr": 1.5}, "unknown config keys: tmr"),
        (["bench", "--paths", "100"], {"option": {"n_paths": 7}}, "unknown option config keys: n_paths"),
        (["bench", "--paths", "100", "--out", "b.csv"], {"s0": 100.0}, "unknown config keys: s0"),
        # ... and every such key is named, beside a good section too.
        (["sweep", "--out", "x.csv"], {"sweep": {}, "generate": {}}, "unknown config keys: generate, sweep"),
        (["analyze"], {"device": {}, "extra": 1}, "unknown config keys: extra"),
        (["generate", "--out", "x.bin"], {"device": {"cd_nm": 32}}, "unknown device config keys: cd_nm"),
        (["bench", "--paths", "100"], {"option": {"s0": float("nan")}}, "bad option config"),
        (["bench", "--paths", "100"], {"option": {"rate": float("inf")}}, "bad option config"),
        (["generate", "--out", "x.bin"], {"device": {"r_load_ohm": float("nan")}}, "bad device config"),
        (
            ["sweep", "--axis", "process", "--out", "x.csv"],
            {"device": {"sigma_tmr": float("nan")}},
            "bad device config",
        ),
        (["analyze"], {"device": {"tmr": 10**400}}, "bad device config: int too large"),
        (["analyze"], {"option": {"s0": 10**400}}, "bad option config: int too large"),
        # saturation 1 - exp(-2.9 / 5) = 0.440 stays below the 0.5 target
        (
            ["generate", "--out", "x.bin"],
            {"device": {"tau0_ns": 5.0}},
            "bad device config: target probability 0.5 unreachable",
        ),
        # a write at zero current already switches with 1 - exp(-2.9) = 0.945
        (
            ["sweep", "--out", "x.csv"],
            {"device": {"delta_300": 1e-9}},
            "bad device config: target probability 0.5 unreachable",
        ),
        (["analyze"], {"analyze": [1]}, "unknown config keys: analyze"),
        (["analyze"], {"device": 3}, "config section 'device' must be a JSON object"),
        (
            ["bench", "--paths", "100"],
            {"option": {"s0": 0}},
            "bad option config: s0, strike, and maturity_years must be > 0",
        ),
        (["bench", "--paths", "100"], {"option": {"volatility": -0.2}}, "bad option config: volatility must be >= 0"),
        (["analyze"], {"device": {"delta_300": 1e12}}, "bad device config: calibration did not converge"),
    ],
)
def test_bad_config_exits_one(tmp_path, capsys, monkeypatch, command, payload, message):
    monkeypatch.chdir(tmp_path)
    code = cli.main([*command, "--config", _write_config(tmp_path, payload)])
    _, err = capsys.readouterr()
    assert code == 1
    assert message in err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "args,directory",
    [
        (["test", "--in", "d"], "d"),
        (["sweep", "--bits-per-point", "10000", "--out", "d"], "d"),
        (["bench", "--paths", "100", "--out", "d"], "d"),
        (["analyze", "--config", "d"], "d"),
        (["bench", "--paths", "100", "--out", "b.csv", "--json", "d"], "d"),
        (["test", "--in", "s.bin", "--json", "d"], "d"),
        (["analyze", "--json", "d"], "d"),
        (["generate", "--bits", "1000", "--seed", "1", "--out", "g.bin"], "g.bin.json"),
    ],
    ids=[
        "test-in",
        "sweep-out",
        "bench-out",
        "config",
        "bench-json",
        "test-json",
        "analyze-json",
        "generate-sidecar",
    ],
)
def test_a_directory_for_a_path_exits_one(tmp_path, capsys, monkeypatch, args, directory):
    # Outputs are opened before the work, so the work never runs.
    monkeypatch.chdir(tmp_path)
    (tmp_path / directory).mkdir()
    bits = np.random.default_rng(2).integers(0, 2, size=1000, dtype=np.uint8)
    (tmp_path / "s.bin").write_bytes(np.packbits(bits).tobytes())

    def work(*args, **kwargs):
        raise AssertionError("the work ran")

    def chunks(*args, **kwargs):
        # lazy, as BitGenerator.chunks is: the work runs at the first chunk
        yield work()

    for module, name in [(cli, "run_sweep"), (cli, "speedup_report"), (cli, "design_model"), (nist, "run_nist_suite")]:
        monkeypatch.setattr(module, name, work)
    monkeypatch.setattr(BitGenerator, "chunks", chunks)
    code = cli.main(args)
    _, err = capsys.readouterr()
    assert code == 1
    assert err.endswith(f"spintrng: error: {directory}: Is a directory\n")
    assert sorted(os.listdir(tmp_path)) == sorted([directory, "s.bin"])


@pytest.mark.parametrize("count", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        (["sweep", "--out", "x.csv"], "--jobs"),
        (["bench", "--paths", "100"], "--jobs"),
        (["generate", "--out", "x.csv"], "--bits"),
        (["generate", "--variant", "rhs-parallel", "--out", "x.csv"], "--bits"),
        (["generate", "--out", "x.csv"], "--lanes"),
        (["generate", "--variant", "rhs-parallel", "--out", "x.csv"], "--lanes"),
        (["test", "--in", "x.csv"], "--groups"),
    ],
)
def test_jobs_below_one_exits_one(tmp_path, capsys, monkeypatch, command, count):
    # Every count option, --lanes of rhs-trng included, and --bits and
    # --lanes of rhs-parallel, which uses its lanes.  --lanes also has
    # an upper bound.
    monkeypatch.chdir(tmp_path)
    args, flag = command
    bound = "lie in [1, 4096]" if flag == "--lanes" else "be >= 1"
    code = cli.main([*args, flag, count])
    _, err = capsys.readouterr()
    assert code == 1
    assert f"argument {flag}: must {bound}, got {count}" in err
    assert not (tmp_path / "x.csv").exists()


def test_lanes_above_the_bound_exit_one(tmp_path, capsys, monkeypatch):
    # One lane more than generator.MAX_LANES, refused by the parser
    # before any of its cells is built.
    monkeypatch.chdir(tmp_path)
    args = ["generate", "--variant", "rhs-parallel", "--bits", "1000", "--out", "x.bin"]
    code = cli.main([*args, "--lanes", "4097"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "argument --lanes: must lie in [1, 4096], got 4097" in err
    assert not list(tmp_path.glob("x.bin*"))


@pytest.mark.parametrize(
    "module,name,args",
    [
        (cli, "run_sweep", ["sweep", "--out", "s.csv"]),
        (cli, "speedup_report", ["bench", "--out", "b.csv", "--json", "b.json"]),
        (nist, "run_nist_suite", ["test", "--in", "s.bin", "--json", "t.json"]),
    ],
    ids=["sweep", "bench", "test"],
)
def test_a_failed_run_leaves_no_output(tmp_path, capsys, monkeypatch, module, name, args):
    monkeypatch.chdir(tmp_path)
    bits = np.random.default_rng(2).integers(0, 2, size=1000, dtype=np.uint8)
    (tmp_path / "s.bin").write_bytes(np.packbits(bits).tobytes())
    # A ValueError inside the battery is a fault too, not a usage error.
    faults = (RuntimeError, ValueError) if name == "run_nist_suite" else (RuntimeError,)
    for fault in faults:

        def fail(*args, **kwargs):
            raise fault("simulated fault")

        monkeypatch.setattr(module, name, fail)
        code = cli.main(args)
        _, err = capsys.readouterr()
        assert code == 2
        assert err == "spintrng: runtime error: simulated fault\n"
        assert sorted(os.listdir(tmp_path)) == ["s.bin"]


@pytest.mark.parametrize(
    "option,message",
    [
        ({"s0": 1e300, "strike": 1e300}, "the payoffs overflow a float64"),
        ({"volatility": 0, "s0": 1e308, "rate": 1}, "the payoffs overflow a float64"),
        ({"rate": -1e300}, "math range error"),
        ({"volatility": 1e300}, "volatility**2 overflows a float64"),
        (
            {"volatility": 1e150, "maturity_years": 1e10},
            "the drift or the volatility term overflows a float64",
        ),
    ],
)
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_bench_that_overflows_exits_one(tmp_path, capsys, monkeypatch, option, message, jobs):
    monkeypatch.chdir(tmp_path)
    config = _write_config(tmp_path, {"option": option})
    args = ["bench", "--paths", "100,1000", "--jobs", jobs, "--out", "b.csv", "--json", "b.json"]
    code = cli.main([*args, "--config", config])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"spintrng: error: bad option config: {message}\n"
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_runtime_failure_exits_two(tmp_path, capsys, monkeypatch):

    def fail(*args, **kwargs):
        raise RuntimeError("simulated fault")

    monkeypatch.setattr(cli.BitGenerator, "generate", fail)
    code = cli.main(["generate", "--bits", "100", "--out", str(tmp_path / "s.bin")])
    _, err = capsys.readouterr()
    assert code == 2
    assert "spintrng: runtime error: simulated fault" in err
    assert not (tmp_path / "s.bin").exists()


def test_runtime_error_without_a_message_names_its_type(tmp_path, capsys, monkeypatch):
    # str(MemoryError()) is empty, as when numpy cannot allocate a huge --lanes

    def fail(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli.BitGenerator, "generate", fail)
    code = cli.main(["generate", "--bits", "100", "--out", str(tmp_path / "s.bin")])
    _, err = capsys.readouterr()
    assert code == 2
    assert err == "spintrng: runtime error: MemoryError\n"
    assert not (tmp_path / "s.bin").exists()


def test_an_os_error_without_a_path_exits_two(tmp_path, capsys, monkeypatch):

    def fail(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(cli.BitGenerator, "generate", fail)
    code = cli.main(["generate", "--bits", "100", "--out", str(tmp_path / "s.bin")])
    _, err = capsys.readouterr()
    assert code == 2
    assert err == "spintrng: runtime error: [Errno 5] Input/output error\n"
    assert not (tmp_path / "s.bin").exists()


def test_a_barrier_that_overflows_the_switching_law_still_runs(tmp_path, capsys):
    # At delta_300 = 1000 the write at zero current overflows exp(), yet
    # the target 0.5 is reachable at a larger current.
    config = _write_config(tmp_path, {"device": {"delta_300": 1000}})
    out = tmp_path / "s.bin"
    assert cli.main(["generate", "--bits", "1000", "--seed", "1", "--out", str(out), "--config", config]) == 0
    assert out.stat().st_size == 125
    code = cli.main(["generate", "--bits", "1000", "--temperature-k", "1e-300", "--out", str(out)])
    assert code == 0


def test_an_infinite_temperature_exits_one(tmp_path, capsys):
    code = cli.main(["generate", "--temperature-k", "inf", "--out", str(tmp_path / "s.bin")])
    _, err = capsys.readouterr()
    assert code == 1
    assert err == "spintrng: error: bad environment: temperature_k must be finite, got inf\n"
    assert sorted(os.listdir(tmp_path)) == []


def test_output_larger_than_the_free_disk_exits_one(tmp_path, capsys, monkeypatch):
    # 10^13 bits would fill the disk long before the run ended.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(shutil, "disk_usage", lambda _: SimpleNamespace(free=1000))
    code = cli.main(["generate", "--bits", "10000000000000", "--seed", "1", "--out", "s.bin"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "spintrng: error: s.bin: needs 1250000000000 bytes, its disk has 1000 free\n"
    assert sorted(os.listdir(tmp_path)) == []


def test_a_missing_output_directory_is_named_as_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["generate", "--bits", "100", "--out", "nodir/s.bin"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "spintrng: error: nodir/s.bin: No such file or directory\n"
    assert sorted(os.listdir(tmp_path)) == []


def _cli_env() -> dict:
    """Environment for a fresh interpreter that imports this spintrng."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.mark.parametrize(
    "args,path",
    [
        (["generate", "--bits", "2000000", "--seed", "1", "--out", "s.bin"], "s.bin"),
        (["analyze", "--json", "a.json"], "a.json"),
        (["sweep", "--axis", "voltage", "--bits-per-point", "10000", "--out", "v.csv"], "v.csv"),
        (["bench", "--paths", "100", "--out", "b.csv"], "b.csv"),
        (["bench", "--paths", "100", "--json", "b.json"], "b.json"),
        (["test", "--in", "in.bin", "--json", "t.json"], "t.json"),
    ],
    ids=["generate", "analyze-json", "sweep-out", "bench-out", "bench-json", "test-json"],
)
def test_failed_write_removes_the_partial_file_and_exits_one(tmp_path, args, path):
    # The file size limit makes a real write fail partway, with EFBIG:
    # the stream fails in bitio.put, the small outputs when they close.
    bits = np.random.default_rng(2).integers(0, 2, size=100_000, dtype=np.uint8)
    (tmp_path / "in.bin").write_bytes(np.packbits(bits).tobytes())
    script = f"""
import resource, sys
from spintrng import cli
resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))
sys.exit(cli.main({args!r}))
"""
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=_cli_env(), capture_output=True, text=True
    )
    assert run.returncode == 1, run.stderr
    assert "wrote" not in run.stdout
    assert run.stderr == f"spintrng: error: {path}: File too large\n"
    assert sorted(os.listdir(tmp_path)) == ["in.bin"]


# Starts the CLI with the given arguments and prints its exit code and
# peak RSS in KiB from os.wait4.  A child's ru_maxrss also counts the
# peak RSS of the process that started it (the kernel carries it across
# exec), so a small launcher starts the CLI, not the test process.
_MEASURE_CLI = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "spintrng.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_generate_streams_in_flat_memory(tmp_path):
    # Held at once, 10^8 rhs-trng bits would take about 1.6 GB.
    argv = ["generate", "--bits", "100000000", "--seed", "3", "--out", "s.bin"]
    run = subprocess.run(
        [sys.executable, "-c", _MEASURE_CLI, *argv],
        cwd=tmp_path, env=_cli_env(), capture_output=True, text=True,
    )
    code, peak_kib = map(int, run.stdout.split())
    assert code == 0, run.stderr
    gen = BitGenerator(GeneratorConfig(), seed=3)
    digest = hashlib.sha256()
    for _ in range(10):
        digest.update(np.packbits(gen.generate(10_000_000).bits, bitorder="little"))
    assert hashlib.sha256((tmp_path / "s.bin").read_bytes()).hexdigest() == digest.hexdigest()
    assert peak_kib < 128 * 1024


# sha256 of stdout, sidecar and file, recorded before generate wrote in
# chunks: 600,001 bits span three chunks and end mid-byte and mid-line,
# and rhs-parallel's 3 lanes do not divide a chunk.
_PINNED_GENERATE = {
    ("conv-ap2p", "packed"): (
        "c34548c3930a552664e2a6936dc2248686f79e43e98c96195eebbf6042a627df",
        "3195d93217c2f363f3ba091b5699931ad06a1284aa704dddab09ef239ae14a51",
        "ef1e1072337d8ad163ee0dc189a99b9daa8f03e7317cb34bb32d5b20bf14b6ec",
    ),
    ("conv-ap2p", "ascii"): (
        "12bb3e9917270082079652a375e18b180e1607b2a9a0697b821662bffbc63828",
        "ea506d305a611de6bdcb5fe12af3c34232ef64ed2a1d0c6f05c24f5a16e64d38",
        "e349709c0eea9d9fd27db7ed208f20617a91888589fecb7da499bc70e3bdacd0",
    ),
    ("conv-p2ap", "packed"): (
        "e9b854035a1722abf978885c00c9720eeb5332e5f02ff3c43489f50b817d9dec",
        "00e1e2b019205aa5bf9bbea288fe0520b35a3f6833fca89f5756824ca86c4c55",
        "036c34f1293fad537f135e307503ed7ab51a9beeb7f9934d27325ab2edaaf587",
    ),
    ("conv-p2ap", "ascii"): (
        "6e0672b9911c5dcd0ca006408384f020ac4ddd619fd5453c38ee96f4e562697e",
        "5087a53c75553655fb422c0467539eb267362189a90668334e7068a16f4577ee",
        "0f462c833bc2987bbd93ccf064c6d23a61bfbec00219e1275de7a802dad591e0",
    ),
    ("rhs-single", "packed"): (
        "523662093e8be35d2620ba8124075de590bf7409a7547d1df97a109dd4d90dce",
        "87bf31c82cfad76b964fafbac9db60c2d8e66f73dc479ed1e7d2dfddec5bbcbc",
        "2f0e7ce7b48e41eb573122f22d2505992e622e96ecf5b2039086505c44df8a50",
    ),
    ("rhs-single", "ascii"): (
        "b3070e2bac075bc314ffa6f080c0cc797e9cd28cae6697c3215a04d8eee348bd",
        "a86639fdd65bddcab74720939e2c47fc6ab27bcbe24b1c50059cd2d3b43cc16d",
        "c2eaaed31dabc1b210150237993907399144d616521ff118bea6c0888e07f98a",
    ),
    ("rhs-trng", "packed"): (
        "5a9248882b6ab75b2ba2d652e94bb5fa85e14103137085c244ef93fdba76517f",
        "c85ec77170ec497ba1677748728796381f4152e5dd7346d697dd20a05bcfc04c",
        "198cd1e7e6b20e756f125f46d7324dad561e0ea225fd9a81d36298f6d2c8d0b5",
    ),
    ("rhs-trng", "ascii"): (
        "d17ca245e3091bc233fd52e027c858faec8113577caaa8ce7a1a635b9ab65a21",
        "105a787c7eddc38d139cc07eb7c1820ff55c0693b7d3b79b1731ec0c9497be12",
        "9b624876f8d8573a887f69728911c6687c44bf7dac9595351a66996a3e9ebd82",
    ),
    ("rhs-parallel", "packed"): (
        "767c148f8ba4b15934dd53ed411a4141a5836c6d2efaa71400e72e12b8315850",
        "633c187ce6cc200a65423de5dc7c623f9cc5c31ae720f5a10f6d50c6cda9a2ee",
        "65ce49ca95648d26db35f40e5e9b49f04cdd43c3ad8542870bbadf184a8d58ab",
    ),
    ("rhs-parallel", "ascii"): (
        "89623b7039153d9a2938f3b2719abf45e127be87da9215e470b5f882dc48ef19",
        "0de73ef8ec5e70bd43be6c6b33b04177628231134e17d1420af548d460bf79bf",
        "0f52b2cb3efbf7a63cec07604fb048514da3beb749a5d7455f8d9f771da59cb9",
    ),
}


@pytest.mark.parametrize("variant,fmt", list(_PINNED_GENERATE))
def test_generate_command_output_is_pinned(tmp_path, capsys, monkeypatch, variant, fmt):
    monkeypatch.chdir(tmp_path)
    argv = ["generate", "--variant", variant, "--bits", "600001", "--seed", "13"]
    argv += ["--format", fmt, "--out", "s.out", "--lanes", "3"]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    got = [out.encode(), (tmp_path / "s.out.json").read_bytes(), (tmp_path / "s.out").read_bytes()]
    assert [hashlib.sha256(b).hexdigest() for b in got] == list(_PINNED_GENERATE[variant, fmt])


@pytest.mark.parametrize("fmt", ["packed", "ascii"])
def test_generate_writes_the_bits_of_one_generate_call(tmp_path, capsys, monkeypatch, fmt):
    # 65 lanes divide neither the request nor a chunk, so lanes carry
    # from chunk to chunk.
    monkeypatch.chdir(tmp_path)
    argv = ["generate", "--variant", "rhs-parallel", "--lanes", "65", "--bits", "100003"]
    assert cli.main([*argv, "--seed", "11", "--format", fmt, "--out", "s.out"]) == 0
    config = GeneratorConfig(variant=Variant.RHS_PARALLEL, lanes=65)
    bitio.save_stream(BitGenerator(config, seed=11).generate(100_003), "one.out", fmt)
    for suffix in ("", ".json"):
        assert (tmp_path / f"s.out{suffix}").read_bytes() == (tmp_path / f"one.out{suffix}").read_bytes()


# sha256 of stdout, sidecar and file of an rhs-parallel run with forced
# flip probabilities, recorded while the override was a GeneratorConfig
# field: 600,001 bits over 3 lanes span three chunks.
_PINNED_FORCED = (
    "72d7be25120ff8c9da283da47228752956ede2c495471fdf8ed9aa13ea37d1b9",
    "ae3de44b673c97933d22fcb280cd3ce55fd4daae4e90796089fa90b27bf06b54",
    "2d69e1bff56690d229cdf63a26355a2970a5d5e64bec2bc855b6757abf4e3ebc",
)


def test_generate_with_forced_flip_probabilities_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["generate", "--variant", "rhs-parallel", "--lanes", "3", "--force-p1", "0.37"]
    argv += ["--force-p2", "0.61", "--bits", "600001", "--seed", "5", "--out", "s.out"]
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    got = [out.encode(), (tmp_path / "s.out.json").read_bytes(), (tmp_path / "s.out").read_bytes()]
    assert tuple(hashlib.sha256(b).hexdigest() for b in got) == _PINNED_FORCED


@pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
def test_a_flip_probability_outside_zero_one_exits_one(tmp_path, capsys, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["generate", "--force-p1", value, "--force-p2", "0.5", "--out", "s.bin"])
    _, err = capsys.readouterr()
    assert code == 1
    assert f"argument --force-p1: must lie in [0, 1], got {float(value)}" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "command",
    [["generate", "--out", "s.bin"], ["sweep", "--out", "s.csv"], ["bench", "--paths", "100"]],
    ids=["generate", "sweep", "bench"],
)
def test_a_negative_seed_exits_one(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    code = cli.main([*command, "--seed", "-1"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "argument --seed: must be >= 0, got -1" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "args,message",
    [
        (["test", "--in", "s.bin", "--json", "s.bin.json"], "output s.bin.json would overwrite the input's sidecar"),
        (["test", "--in", "s.bin", "--json", "s.bin"], "output s.bin would overwrite the input"),
        (["test", "--in", "s.bin", "--json", "./s.bin"], "output ./s.bin would overwrite the input"),
        (["bench", "--paths", "100", "--out", "a", "--json", "a"], "output a would overwrite another output"),
    ],
    ids=["test-sidecar", "test-input", "test-input-dot", "bench-out-json"],
)
def test_an_output_that_names_an_input_or_another_output_exits_one(
    tmp_path, capsys, monkeypatch, args, message
):
    # Checked before the work runs, and before any output is opened.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--bits", "1000", "--seed", "1", "--out", "s.bin"]) == 0
    capsys.readouterr()
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    def work(*args, **kwargs):
        raise AssertionError("the work ran")

    monkeypatch.setattr(cli, "speedup_report", work)
    monkeypatch.setattr(nist, "run_nist_suite", work)
    code = cli.main(args)
    _, err = capsys.readouterr()
    assert code == 1
    assert err == f"spintrng: error: {message}\n"
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.mark.parametrize(
    "args,message",
    [
        (["generate", "--bits", "100"], "the following arguments are required: --out"),
        (["generate", "--out", "g.bin", "--force-p1", "0.4"], "--force-p1 and --force-p2 must be given together"),
        (["test"], "the following arguments are required: --in"),
        (["test", "--in", "s.bin", "--groups", "3"], "stream of 1000 bits does not divide into 3 groups"),
        (["sweep"], "the following arguments are required: --out"),
        (["bench", "--paths", "0", "--out", "b.csv"], "--paths values must be >= 1"),
        (["sweep", "--samples", "0", "--out", "x.csv"], "bad sweep config: n_samples must be >= 1"),
        (
            ["sweep", "--axis", "process", "--samples", "20000", "--bits-per-point", "10000", "--out", "x.csv"],
            "bad sweep config: bits_per_point must be >= n_samples",
        ),
        (["generate", "--out", ""], "argument --out: must name a file"),
        (["test", "--in", ""], "argument --in: must name a file"),
        (["sweep", "--out", ""], "argument --out: must name a file"),
        (["generate", "--format", "bogus", "--out", "x"], "argument --format: invalid choice: 'bogus'"),
        (["generate", "--bits", "abc", "--out", "x"], "argument --bits: invalid int value: 'abc'"),
        (["generate", "--bits", "2.5", "--out", "x"], "argument --bits: invalid int value: '2.5'"),
        (["generate", "--v-rate", "x", "--out", "x"], "argument --v-rate: invalid float value: 'x'"),
        (["sweep", "--axis", "bogus", "--out", "x"], "argument --axis: invalid choice: 'bogus'"),
        (["analyze", "--json", ""], "argument --json: must name a file"),
        (["test", "--in", "s.bin", "--json", ""], "argument --json: must name a file"),
        (["bench", "--paths", "100", "--out", ""], "argument --out: must name a file"),
        (["bench", "--paths", "100", "--json", ""], "argument --json: must name a file"),
    ],
    ids=[
        "generate-out",
        "force-p2",
        "test-in",
        "test-groups",
        "sweep-out",
        "bench-paths",
        "sweep-samples",
        "sweep-samples-above-bits",
        "generate-out-empty",
        "test-in-empty",
        "sweep-out-empty",
        "generate-format",
        "generate-bits-text",
        "generate-bits-fraction",
        "generate-v-rate",
        "sweep-axis",
        "analyze-json-empty",
        "test-json-empty",
        "bench-out-empty",
        "bench-json-empty",
    ],
)
def test_a_missing_or_bad_argument_exits_one(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--bits", "1000", "--seed", "1", "--out", "s.bin"]) == 0
    capsys.readouterr()
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    if message.startswith(("argument ", "the following arguments")):
        # argparse's own check: its usage line, then the subcommand's error
        assert err.startswith("usage: ")
        assert f"\nspintrng {args[0]}: error: {message}" in err
    else:
        assert err == f"spintrng: error: {message}\n"
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_generate_analyze_and_sweep_never_load_scipy(tmp_path):
    # A fresh interpreter: this test process has scipy loaded already.
    script = """
import sys
from spintrng import cli
assert "scipy" not in sys.modules, "import spintrng.cli"
assert "concurrent.futures" not in sys.modules, "import spintrng.cli"
assert cli.main(["generate", "--bits", "1000", "--seed", "1", "--out", "s.bin"]) == 0
assert "scipy" not in sys.modules, "generate"
assert "concurrent.futures" not in sys.modules, "generate"
assert cli.main(["analyze"]) == 0
assert "scipy" not in sys.modules, "analyze"
assert cli.main(["sweep", "--bits-per-point", "10000", "--seed", "1", "--out", "s.csv"]) == 0
assert "scipy" not in sys.modules, "sweep"
assert cli.main(["bench", "--paths", "100"]) == 0
assert "scipy" not in sys.modules, "bench"
"""
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=_cli_env(), capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize(
    "section,key,value",
    [("device", "delta-300", 3.5), ("device", "r_p_ohm", 5000.0), ("option", "maturity-years", 1.0)],
)
def test_config_sections_accept_dashed_and_underscored_keys(tmp_path, capsys, section, key, value):
    config = _write_config(tmp_path, {section: {key: value}})
    if section == "device":
        args = ["generate", "--bits", "1000", "--seed", "4", "--out"]
        assert cli.main([*args, str(tmp_path / "a.bin"), "--config", config]) == 0
        assert cli.main([*args, str(tmp_path / "b.bin")]) == 0
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    else:
        assert cli.main(["bench", "--paths", "100", "--config", config]) == 0


def test_json_outputs_parse(tmp_path, capsys):
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


_SIDECAR = {
    "format": "packed",
    "n_bits": 1000,
    "variant": "rhs-trng",
    "lanes": 1,
    "seed": 0,
    "simulated_time_ns": 3300.0,
    "energy_pj": 5300.0,
}


@pytest.mark.parametrize(
    "sidecar,message",
    [
        ({**_SIDECAR, "n_bits": -5}, "metadata n_bits must be a non-negative integer, got -5"),
        ({**_SIDECAR, "n_bits": "12"}, "metadata n_bits must be a non-negative integer, got '12'"),
        ({**_SIDECAR, "n_bits": 2.5}, "metadata n_bits must be a non-negative integer, got 2.5"),
        ({**_SIDECAR, "n_bits": True}, "metadata n_bits must be a non-negative integer, got True"),
        ({**_SIDECAR, "format": "base64"}, "unknown bitstream format 'base64'"),
        ({}, "missing metadata keys: ['energy_pj', 'format', 'lanes', 'n_bits'"),
        ([], "metadata must be a JSON object"),
        # text, written as it is
        ("{n_bits: 1000}", "metadata is not valid JSON: Expecting property name"),
    ],
)
def test_bad_sidecar_exits_one(tmp_path, capsys, sidecar, message):
    path = tmp_path / "s.bin"
    bits = np.random.default_rng(1).integers(0, 2, size=1000, dtype=np.uint8)
    path.write_bytes(np.packbits(bits, bitorder="little").tobytes())
    (tmp_path / "s.bin.json").write_text(sidecar if isinstance(sidecar, str) else json.dumps(sidecar))
    code = cli.main(["test", "--in", str(path), "--groups", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"spintrng: error: bad input file {path}: {message}")
    assert err.count("\n") == 1


# sha256 of stdout and of the --json file, recorded before test, analyze
# and bench shared one JSON writer.
_PINNED_CLI = {
    "t.json": (
        ["test", "--in", "s.bin", "--groups", "1"],
        "0886f0e016d1ae4cf7019b08b7c50ff06726fdacc947db5b7d3adcc6a601b22a",
        "c7354fdb4e24a0ddb4b6037728f07ca820a1d0d78f0dcb60635edb60afc592bd",
    ),
    "a.json": (
        ["analyze", "--p1", "0.4,0.5"],
        "fb551c3b8071f5c8dc1fd806ce85a1c71e5f633649863a8782ab644f352d3d1e",
        "d3117c2d3697a30e1dc432b60459a7b73bdc953b03c15614ce9b1799fa54bdf2",
    ),
    "b.json": (
        ["bench", "--paths", "100,200"],
        "10ac6054e36ca585cce9cad0b890fee349dab8fce813a555e085014909024a30",
        "9699514a8aad84af4f9d00ba8a51e8d106fb51e25edb740d98db55a422b53f38",
    ),
}


def test_json_commands_output_is_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--bits", "100000", "--seed", "1", "--out", "s.bin"]) == 0
    capsys.readouterr()
    for json_path, (argv, stdout_sha, json_sha) in _PINNED_CLI.items():
        assert cli.main([*argv, "--json", json_path]) == 0
        out, _ = capsys.readouterr()
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha, argv[0]
        assert hashlib.sha256((tmp_path / json_path).read_bytes()).hexdigest() == json_sha, argv[0]


@pytest.mark.parametrize(
    "args,output",
    [
        (["generate", "--bits", "1000", "--out", "c"], "c.json"),
        (["generate", "--bits", "1000", "--out", "c.json"], "c.json"),
        (["sweep", "--bits-per-point", "10000", "--out", "c.json"], "c.json"),
        (["bench", "--paths", "100", "--json", "./c.json"], "./c.json"),
        (["analyze", "--json", "c.json"], "c.json"),
        (["test", "--in", "s.bin", "--json", "c.json"], "c.json"),
    ],
    ids=["generate-sidecar", "generate-out", "sweep", "bench", "analyze", "test"],
)
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_an_output_that_names_the_config_exits_one(
    tmp_path, capsys, monkeypatch, args, output, via_env
):
    monkeypatch.chdir(tmp_path)
    bits = np.random.default_rng(2).integers(0, 2, size=1000, dtype=np.uint8)
    (tmp_path / "s.bin").write_bytes(np.packbits(bits).tobytes())
    (tmp_path / "c.json").write_text("{}")
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    def work(*args, **kwargs):
        raise AssertionError("the work ran")

    for module, name in [(cli, "run_sweep"), (cli, "speedup_report"), (cli, "design_model"), (nist, "run_nist_suite")]:
        monkeypatch.setattr(module, name, work)
    if via_env:
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, "c.json")
    else:
        args = [*args, "--config", "c.json"]
    code = cli.main(args)
    _, err = capsys.readouterr()
    assert code == 1
    assert err == f"spintrng: error: output {output} would overwrite the config\n"
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before
