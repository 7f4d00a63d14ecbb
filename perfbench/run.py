"""spintrng benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {stream,certify,sweep,pricing,all}
        [--seed N] [--seconds S] [--trace 0|1]

`--workload all` runs the four in turn, each ending with its own
result line.

--trace 0 (end to end) runs the workload the way a user does: each
CLI invocation in a fresh `python -m spintrng.cli` process with
--jobs 1 and one BLAS thread, one at a time.  It repeats the workload
until --seconds would be exceeded, imports spintrng.cli in a fresh
interpreter (setup_s) before each repeat and at the end, at least
SETUP_SAMPLES times in all, and reports:

    wall_s       summed wall time of one repeat's CLI invocations, as
                 the mean over repeats (the run's total over its count)
    setup_s      median wall time of a fresh interpreter importing
                 spintrng.cli
    peak_rss_mb  median over repeats of the highest peak RSS of any
                 single invocation in a repeat, from that child's own
                 rusage (os.wait4)
    work_per_s   workload items per second of wall_s; the item is a bit
                 (stream, certify), a sweep row (sweep) or a priced
                 path (pricing)

--trace 1 (per layer) runs the workload once through the CLI, then
three times in-process through the public API: a warm-up, an untraced
pass, and a pass with a span around each call into a layer.  It reports each layer's self time, the
counts taken at the same calls, the share of the untraced pass that no
span covers, and the tracing overhead (traced minus untraced wall).

Every output is checked; an invocation that exits non-zero or fails a
check is a failed operation.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}.  A fuller record (run
record, raw samples, spans, failures) goes to perfbench/results/.
Without spintrng sources in src/ next to this directory the benchmark
exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path

BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One BLAS thread, set before numpy loads here and inherited by every
# child.  Otherwise OpenBLAS busy-waits a thread on each core during
# numpy's matmuls (system.py's `bits @ weights`): on a 2-core host that
# doubles CPU time without shortening wall time, and the timings follow
# the scheduler instead of the program.
for _name in BLAS_ENV_VARS:
    os.environ[_name] = "1"

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import FULL, SRC, CheckFailed, Context, Sizes  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / ".work"
RESULTS_DIR = HERE / "results"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

# How each end-to-end metric summarises its samples; the rest are medians.
ESTIMATOR = {"wall_s": "mean"}

GENERATED_VARIANTS = ("rhs-trng", "rhs-parallel", "conv-ap2p")
PER_LAYER = {
    "generator.init_s": "s",
    **{f"generator.{v}.generate_s": "s" for v in GENERATED_VARIANTS},
    "generator.unit_cycles": "count",
    "generator.unit_cycles_per_s": "1/s",
    "bitio.write_packed_s": "s",
    "bitio.write_ascii_s": "s",
    "bitio.read_packed_s": "s",
    "bitio.bytes_written": "bytes",
    "bitio.bytes_read": "bytes",
    "entropy.report_s": "s",
    **{f"nist.{name}_s": "s" for name in workloads.NIST_MODULES},
    "nist.composite_s": "s",
    "nist.sub_p_values": "count",
    "sweeps.voltage_s": "s",
    "sweeps.temperature_s": "s",
    "sweeps.process_s": "s",
    "sweeps.rows": "count",
    "sweeps.bits_simulated": "count",
    "system.price_s": "s",
    "system.price_1e6_s": "s",
    "system.paths": "count",
    "system.source_bits": "count",
    "cli.overhead_s": "s",
    "trace.uncovered_share": "fraction",
    "trace.overhead_s": "s",
}


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str


class Tally:
    """Counts operations and records why each failed one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as exc:  # any bad output is a failed operation
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], workdir: Path, env: dict) -> Child:
    """Run argv to completion; wall time and the child's own peak RSS."""
    stderr_path = workdir / "stderr.txt"
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def measure_setup(workdir: Path, env: dict, tally: Tally, n: int = SETUP_SAMPLES) -> list[float]:
    samples = []
    for _ in range(n):
        child = run_child([sys.executable, "-c", "import spintrng.cli"], workdir, env)
        tally.op("import spintrng.cli", lambda: _expect_exit_0(child))
        samples.append(child.wall_s)
    return samples


def _expect_exit_0(child: Child) -> None:
    if child.returncode != 0:
        raise CheckFailed(f"exit code {child.returncode}: {child.stderr.strip()}")


def run_cli_pass(workload, ctx: Context, env: dict, tally: Tally) -> list[Child]:
    """Every CLI invocation of the workload, each followed by its check."""
    ctx.workdir.mkdir(parents=True)
    children = []
    for inv in workload.invocations(ctx):
        argv = [sys.executable, "-m", "spintrng.cli", *inv.args]
        child = run_child(argv, ctx.workdir, env)

        def check(child=child, inv=inv):
            _expect_exit_0(child)
            inv.check()

        tally.op(inv.label, check)
        children.append(child)
    return children


def run_in_process(workload, ctx: Context, tracer, outdir: Path, tally: Tally, label: str) -> float:
    """One in-process pass under tracer; returns its wall time (checks excluded)."""
    outdir.mkdir(parents=True)
    wall = {}

    def op():
        start = time.perf_counter()
        with tracer.span(workload.name):
            workload.in_process(ctx, tracer, outdir)
        wall["s"] = time.perf_counter() - start
        workload.check_in_process(ctx, outdir)

    tally.op(label, op)
    return wall.get("s", float("nan"))


def end_to_end(workload, ctx_for, seconds: float, sizes: Sizes, env, tally, workdir) -> tuple[dict, dict]:
    """Repeats within --seconds, each after one setup sample.

    The host's speed drifts over tens of seconds, so setup samples are
    spread over the run like the repeats rather than taken in a burst,
    and wall_s is the mean over repeats: with a handful of repeats
    split between fast and slow stretches, the median jumps between
    the two while the mean averages them.
    """
    setup, walls, peaks = [], [], []
    start = time.perf_counter()
    while True:
        setup += measure_setup(workdir, env, tally, 1)
        children = run_cli_pass(workload, ctx_for(f"repeat{len(walls)}"), env, tally)
        walls.append(sum(c.wall_s for c in children))
        peaks.append(max(c.peak_rss_mb for c in children))
        elapsed = time.perf_counter() - start
        # Stop when one more repeat of the average length would overrun.
        if elapsed + elapsed / len(walls) > seconds:
            break
    setup += measure_setup(workdir, env, tally, max(1, SETUP_SAMPLES - len(setup)))
    wall_s = statistics.fmean(walls)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(peaks),
        "work_per_s": workload.work(sizes) / wall_s,
    }
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": peaks}
    return metrics, samples


def per_layer(workload, ctx_for, env, tally, workdir) -> tuple[dict, dict, list]:
    setup = measure_setup(workdir, env, tally)
    setup_s = statistics.median(setup)
    ctx = ctx_for("cli")
    children = run_cli_pass(workload, ctx, env, tally)
    cli_wall = sum(c.wall_s for c in children)

    # The first in-process pass runs with cold allocator and caches; time
    # the two compared passes after it so their difference is the tracing.
    run_in_process(workload, ctx, NullTracer(), workdir / "warm-up", tally, "warm-up pass")
    untraced = run_in_process(workload, ctx, NullTracer(), workdir / "untraced", tally, "untraced pass")
    tracer = Tracer()
    traced = run_in_process(workload, ctx, tracer, workdir / "traced", tally, "traced pass")

    by_name = tracer.self_time_by_name()
    root = by_name.pop(workload.name, 0.0)
    covered = sum(by_name.values())
    metrics = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER.items()}
    for name, seconds in by_name.items():
        metrics[f"{name}_s"] += seconds
    metrics["system.price_1e6_s"] = tracer.self_time_by_name(str(10**6)).get("system.price", 0.0)
    for name, count in tracer.counts.items():
        metrics[name] = count
    generate_s = sum(metrics[f"generator.{v}.generate_s"] for v in GENERATED_VARIANTS)
    if generate_s > 0:
        metrics["generator.unit_cycles_per_s"] = metrics["generator.unit_cycles"] / generate_s
    metrics["cli.overhead_s"] = cli_wall - len(children) * setup_s - covered
    metrics["trace.uncovered_share"] = root / untraced
    metrics["trace.overhead_s"] = traced - untraced
    unknown = set(metrics) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"spans or counts without a declared metric: {sorted(unknown)}")
    samples = {
        "setup_s": setup,
        "cli_wall_s": [cli_wall],
        "untraced_s": [untraced],
        "traced_s": [traced],
    }
    return metrics, samples, tracer.spans


def git_sha() -> str | None:
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_record(args, sizes: Sizes, samples: dict) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": asdict(sizes),
        "sample_counts": {name: len(values) for name, values in samples.items()},
    }


def _finite(value):
    # A pass that failed leaves NaN behind; the result line must stay
    # valid JSON, and correct=false already marks the run.
    return value if value == value else 0.0


def run(args, sizes: Sizes = FULL, references: dict | None = None) -> dict:
    """Run one workload; returns the full record including the result line."""
    workload = workloads.WORKLOADS[args.workload]
    if references is None:
        references = workloads.load_references(sizes, args.seed)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    tally = Tally()
    observed: dict = {}

    def ctx_for(name: str) -> Context:
        return Context(args.seed, sizes, workdir / name, references, observed)

    spans = []
    try:
        if args.trace:
            values, samples, spans = per_layer(workload, ctx_for, env, tally, workdir)
            units = PER_LAYER
        else:
            values, samples = end_to_end(workload, ctx_for, args.seconds, sizes, env, tally, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": _finite(values[name]), "unit": unit} for name, unit in units.items()
        },
    }
    return {
        "record": run_record(args, sizes, samples),
        "samples": samples,
        "errors": tally.errors,
        "observed": observed,
        "spans": spans,
        "result": result,
    }


def report(workload, full: dict) -> None:
    """Human-readable metric lines, then the result as the last line."""
    result = full["result"]
    counts = full["record"]["sample_counts"]
    for error in full["errors"]:
        print(f"FAILED {error}")
    for name, metric in result["metrics"].items():
        n = counts.get(name)
        note = f"  ({ESTIMATOR.get(name, 'median')} of {n})" if n else ""
        print(f"{name:<36} {metric['value']:>16.6g} {metric['unit']}{note}")
    if "work_per_s" in result["metrics"]:
        name, unit, scale = workload.work_metric
        print(f"{name:<36} {result['metrics']['work_per_s']['value'] / scale:>16.6g} {unit}")
    rate = result["failed"] / result["attempted"]
    print(f"{'error_rate':<36} {rate:>16.6g} fraction  ({result['failed']} of {result['attempted']} operations failed)")
    print("record " + json.dumps(full["record"], sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
        help="one workload, or all four in turn",
    )
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "spintrng" / "cli.py").is_file():
        print(f"perfbench: no spintrng sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS_DIR.mkdir(exist_ok=True)
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        full = run(one)
        out = RESULTS_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
        print(f"== {name}: wrote {out.relative_to(workloads.ROOT)}")
        report(workloads.WORKLOADS[name], full)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
