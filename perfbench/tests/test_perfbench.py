"""Tests for the benchmark itself, at the tiny sizes.

    python3 -m pytest perfbench/tests -q

They run every workload in both modes, show that the checks turn a
corrupted output into a failed operation, and pin BENCHMARK.json to
the metrics the harness prints.
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import TINY, Context  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

SEED = workloads.DEFAULT_SEED
UNREFERENCED_SEED = 7

LAYERS_EXERCISED = {
    "stream": ["generator.rhs-trng.generate_s", "generator.rhs-parallel.generate_s",
               "generator.conv-ap2p.generate_s", "generator.unit_cycles_per_s",
               "bitio.write_packed_s", "bitio.write_ascii_s", "bitio.bytes_written"],
    "certify": ["generator.init_s", "generator.rhs-trng.generate_s", "bitio.read_packed_s",
                "bitio.bytes_read", "entropy.report_s", "nist.composite_s", "nist.sub_p_values",
                *(f"nist.{name}_s" for name in workloads.NIST_MODULES)],
    "sweep": ["sweeps.voltage_s", "sweeps.temperature_s", "sweeps.process_s",
              "sweeps.rows", "sweeps.bits_simulated"],
    "pricing": ["system.price_s", "system.paths", "system.source_bits"],
}


def run_tiny(workload: str, trace: int, seed: int = SEED, references=None) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.1, trace=trace)
    return run.run(args, TINY, references)


def cli_outputs(workload: str, tmp_path: Path, seed: int = SEED):
    """Run one CLI pass into tmp_path; returns its context and invocations."""
    ctx = Context(seed, TINY, tmp_path / "pass", workloads.load_references(TINY, seed))
    tally = run.Tally()
    run.run_cli_pass(workloads.WORKLOADS[workload], ctx, run.child_env(), tally)
    assert tally.failed == 0, tally.errors
    return ctx, workloads.WORKLOADS[workload].invocations(ctx)


def failures_after(invocations) -> list[str]:
    tally = run.Tally()
    for inv in invocations:
        tally.op(inv.label, inv.check)
    return tally.errors


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_run_is_correct(workload):
    full = run_tiny(workload, trace=0)
    result = full["result"]
    assert result["correct"] and result["failed"] == 0, full["errors"]
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert full["record"]["sample_counts"]["setup_s"] == run.SETUP_SAMPLES


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_its_layers(workload):
    full = run_tiny(workload, trace=1)
    result = full["result"]
    assert result["correct"] and result["failed"] == 0, full["errors"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    for name in LAYERS_EXERCISED[workload]:
        assert metrics[name] > 0, name
    assert 0 <= metrics["trace.uncovered_share"] < 0.5
    assert full["spans"][0]["name"] == workload and full["spans"][0]["parent"] is None


def test_references_cover_default_and_held_out_seeds():
    for sizes in (workloads.FULL, TINY):
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            refs = workloads.load_references(sizes, seed)
            assert set(refs["stream"]) == {"rhs-trng", "rhs-parallel", "conv-ap2p", "rhs-trng-ascii"}
            assert set(refs["certify"]["p_values"]) == set(workloads.NIST_MODULES)
            assert set(refs["certify"]["pooled_p_values"]) == set(workloads.NIST_MODULES)


def test_perturbed_p_value_is_a_failed_operation():
    references = copy.deepcopy(workloads.load_references(TINY, SEED))
    references["certify"]["p_values"]["serial"] += 1e-9
    full = run_tiny("certify", trace=0, references=references)
    result = full["result"]
    assert not result["correct"]
    assert result["failed"] == 1
    assert "serial p-value vs reference" in full["errors"][0]


def test_perturbed_sub_p_value_fails_the_traced_pass():
    references = copy.deepcopy(workloads.load_references(TINY, SEED))
    references["certify"]["pooled_p_values"]["rank"][0] += 1e-9
    full = run_tiny("certify", trace=1, references=references)
    assert full["result"]["failed"] == 3  # warm-up, untraced and traced passes
    assert all("rank sub-p-value vs reference" in e for e in full["errors"])


def flip_bit(path: Path, index: int) -> None:
    data = bytearray(path.read_bytes())
    data[index // 8] ^= 1 << (index % 8)
    path.write_bytes(bytes(data))


def test_flipped_bit_fails_the_reference_hash(tmp_path):
    ctx, invocations = cli_outputs("stream", tmp_path)
    assert failures_after(invocations) == []
    # Past the ascii prefix, so only the reference hash can see it.
    flip_bit(ctx.path("rhs-trng.packed"), TINY.stream_ascii_bits + 1000)
    errors = failures_after(invocations)
    assert len(errors) == 1 and "sha256" in errors[0]


def test_flipped_bit_fails_the_prefix_check_without_reference(tmp_path):
    ctx, invocations = cli_outputs("stream", tmp_path, seed=UNREFERENCED_SEED)
    assert ctx.references == {}
    flip_bit(ctx.path("rhs-trng-ascii.ascii"), 0)  # '0' <-> '1' is bit 0 of the char
    errors = failures_after(invocations)
    assert len(errors) == 1 and "prefix" in errors[0]


def test_biased_sweep_row_fails(tmp_path):
    ctx, invocations = cli_outputs("sweep", tmp_path)
    path = ctx.path("sweep-voltage.csv")
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    col = header.index("p_one")
    row[col] = f"{float(row[col]) + 0.05:.8f}"
    lines[1] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    errors = failures_after(invocations)
    assert len(errors) == 1 and "sweep voltage" in errors[0] and "z=" in errors[0]


def test_mispriced_option_fails(tmp_path):
    ctx, invocations = cli_outputs("pricing", tmp_path)
    path = ctx.path("bench.json")
    rows = json.loads(path.read_text())
    rows[-1]["price"] += 5.0  # about 10 standard errors at 1000 paths
    path.write_text(json.dumps(rows))
    errors = failures_after(invocations)
    assert len(errors) == 1 and "z=" in errors[0]


def test_failed_invocation_is_a_failed_operation(tmp_path):
    ctx = Context(SEED, TINY, tmp_path / "pass", {})
    inv = workloads.Invocation("bad flag", ["generate", "--bits", "0", "--out", "x"], lambda: None)

    class OneBad:
        def invocations(self, ctx):
            return [inv]

    tally = run.Tally()
    run.run_cli_pass(OneBad(), ctx, run.child_env(), tally)
    assert tally.failed == 1 and "exit code 1" in tally.errors[0]


def test_peak_rss_is_per_child(tmp_path):
    env = run.child_env()
    big = run.run_child([sys.executable, "-c", "b = b'x' * (200 << 20)"], tmp_path, env)
    small = run.run_child([sys.executable, "-c", "pass"], tmp_path, env)
    assert big.peak_rss_mb > 200
    assert small.peak_rss_mb < 100


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            pass
        with tracer.span("b", "x"):
            pass
    spans = tracer.spans
    durations = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    self_times = tracer.self_times()
    assert [s["parent"] for s in spans] == [None, 0, 0]
    assert self_times[0] == pytest.approx(durations[0] - durations[1] - durations[2], abs=1e-12)
    assert tracer.self_time_by_name("x") == {"b": self_times[2]}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert spec["paths"] == [BENCH_DIR.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name.fullmatch(m["name"]) and m["better"] in ("lower", "higher")


def test_exits_2_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "results"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no spintrng sources" in proc.stderr
