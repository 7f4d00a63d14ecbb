"""The benchmark's four workloads, their output checks, and in-process passes.

Each workload is a fixed list of spintrng CLI invocations plus the
checks that decide whether each invocation's outputs are correct.
Each also has an in-process pass that makes the same calls through the
public Python API, so that the traced run can time every layer with
spans kept in this file rather than inside the package.

Why these four (sizes are the defaults in FULL):

* stream: `generate` writes 10^7 bits each of rhs-trng, rhs-parallel
  (8 lanes) and conv-ap2p as packed files, plus 2x10^6 rhs-trng bits
  as ascii.  The generator and bitio do nearly all the work, so
  kernel, chunking and writer changes show here.
* certify: `generate` 10^7 rhs-trng bits, then `test --groups 10`.
  The battery takes about 90% of the time, so battery changes show
  here while generator changes should barely move it.
* sweep: `sweep` on the voltage, temperature and process axes.  The
  chain kernel runs as ~80 calls of 10^6 cycles at flip probabilities
  away from 0.5, so per-call overhead shows here and not in stream.
* pricing: `bench` on the default path grid.  The only workload that
  runs system.py; generator changes should leave it unmoved.

Outputs are checked exactly against reference.json (bit hashes and
battery p-values to 1e-12) when the seed and size have a recorded
reference, and always against properties that hold for any seed:
file sizes and sidecars, the ascii/packed prefix property, and
statistical agreement with the Markov model or the Black-Scholes price.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

DEFAULT_SEED = 2312
HELD_OUT_SEED = 17453

# Battery module name in the report -> public function in spintrng.nist.modules.
NIST_MODULES = {
    "frequency": "frequency",
    "block_frequency": "block_frequency",
    "cumulative_sums": "cumulative_sums",
    "runs": "runs",
    "longest_run": "longest_run",
    "rank": "rank",
    "spectral": "spectral",
    "non_overlapping_template": "non_overlapping_templates",
    "overlapping_template": "overlapping_template",
    "approximate_entropy": "approximate_entropy",
    "serial": "serial",
    "linear_complexity": "linear_complexity",
}

SWEEP_VARIANTS = ("conv-p2ap", "conv-ap2p", "rhs-single", "rhs-trng")
SWEEP_POINTS = {
    "voltage": [round(-0.10 + 0.02 * k, 9) for k in range(11)],
    "temperature": [round(280.15 + 5.0 * k, 9) for k in range(9)],
}
SWEEP_AXES = ("voltage", "temperature", "process")
PRICING_BACKENDS = 3

P_VALUE_TOLERANCE = 1e-12
MARKOV_Z = 5.0
# 5 exact standard errors: at 100 paths the payoff skew puts about 3e-4
# of prices beyond 4 (measured over 3000 seeds), too often for a check
# that every seed must pass.
PRICE_Z = 5.0


class CheckFailed(Exception):
    """An output did not match what the workload requires."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Sizes:
    label: str
    stream_bits: int = 10**7
    stream_ascii_bits: int = 2 * 10**6
    lanes: int = 8
    certify_bits: int = 10**7
    certify_groups: int = 10
    sweep_bits_per_point: int = 10**6
    sweep_samples: int = 200
    pricing_paths: tuple[int, ...] = (10**2, 10**3, 10**4, 10**5, 10**6)


FULL = Sizes("full")
# Smallest sizes at which every CLI path and every check still runs:
# 10^5 bits in one group is the battery's largest per-module minimum.
TINY = Sizes(
    "tiny",
    stream_bits=80_000,
    stream_ascii_bits=16_000,
    certify_bits=100_000,
    certify_groups=1,
    sweep_bits_per_point=10_000,
    sweep_samples=10,
    pricing_paths=(100, 1000),
)


def load_references(sizes: Sizes, seed: int) -> dict:
    """Recorded outputs for this size and seed, or {} when none exist."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        table = json.load(fh)
    return table.get(sizes.label, {}).get(str(seed), {})


@dataclass
class Context:
    """Inputs and bookkeeping shared by one run's invocations and checks."""

    seed: int
    sizes: Sizes
    workdir: Path
    references: dict
    observed: dict = field(default_factory=dict)

    def path(self, name: str) -> Path:
        return self.workdir / name

    def observe(self, workload: str, key: str, value) -> None:
        self.observed.setdefault(workload, {})[key] = value


@dataclass
class Invocation:
    """One CLI call (the arguments after `spintrng`) and its output check."""

    label: str
    args: list[str]
    check: Callable[[], None]  # raises on a bad output


# -- independent decoding and statistics ----------------------------------


def decode_stream(path: Path, n_bits: int, fmt: str) -> np.ndarray:
    """Read a bitstream file without going through spintrng.bitio."""
    raw = Path(path).read_bytes()
    if fmt == "packed":
        expect(len(raw) == -(-n_bits // 8), f"{path.name}: {len(raw)} bytes")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        bits = bits[:n_bits]
    else:
        chars = np.frombuffer(raw, dtype=np.uint8)
        is_bit = (chars == ord("0")) | (chars == ord("1"))
        expect(
            bool(np.isin(chars[~is_bit], list(b" \t\r\n")).all()),
            f"{path.name}: non-bit characters",
        )
        bits = chars[is_bit] - ord("0")
    expect(bits.size == n_bits, f"{path.name}: {bits.size} bits, wanted {n_bits}")
    return bits


def bits_sha256(bits: np.ndarray) -> str:
    """Hash of the bits themselves, independent of the file format."""
    return hashlib.sha256(np.packbits(bits, bitorder="little").tobytes()).hexdigest()


def markov_p_one(variant: str, p1: float, p2: float) -> tuple[float, float]:
    """Predicted fraction of ones and lag-1 correlation of one output bit."""
    if variant == "conv-p2ap":
        return p1, 0.0
    if variant == "conv-ap2p":
        return 1.0 - p2, 0.0
    if variant == "rhs-single":
        return p1 / (p1 + p2), 1.0 - p1 - p2
    m = p1 / (p1 + p2)
    return 2.0 * m * (1.0 - m), (1.0 - p1 - p2) ** 2


def expect_p_one(
    label: str, p_one: float, n_bits: int, expected: float, lam: float, inflate=1.0
) -> None:
    """p_one within MARKOV_Z correlation-corrected sigmas of the model.

    inflate widens the variance for streams whose bits are also
    correlated across lanes.
    """
    var = expected * (1.0 - expected) / n_bits * (1.0 + lam) / (1.0 - lam)
    sigma = math.sqrt(var * inflate)
    z = (p_one - expected) / sigma if sigma > 0 else math.inf
    expect(
        abs(p_one - expected) <= MARKOV_Z * sigma + 1e-8,
        f"{label}: p_one {p_one:.8f} vs model {expected:.8f} (z={z:.2f})",
    )


def realized_flip_probs(variant: str, lanes: int, seed: int) -> tuple[float, float]:
    """(p1, p2) of the generator's units, all nominal devices at 300 K."""
    from spintrng.generator import BitGenerator, GeneratorConfig, Variant

    gen = BitGenerator(GeneratorConfig(variant=Variant(variant), lanes=lanes), seed=seed)
    return gen.realized_flip_probs()[0]


def call_payoff_moments(spec) -> tuple[float, float]:
    """Black-Scholes price and the exact per-path payoff standard deviation."""
    def norm_cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    s0, k, r, t = spec.s0, spec.strike, spec.rate, spec.maturity_years
    st = spec.volatility * math.sqrt(t)
    d1 = (math.log(s0 / k) + (r + 0.5 * spec.volatility**2) * t) / st
    d2 = d1 - st
    # Undiscounted E[X] and E[X^2] for X = max(S_T - K, 0).
    m1 = s0 * math.exp(r * t) * norm_cdf(d1) - k * norm_cdf(d2)
    m2 = (
        s0**2 * math.exp((2.0 * r + spec.volatility**2) * t) * norm_cdf(d1 + st)
        - 2.0 * k * s0 * math.exp(r * t) * norm_cdf(d1)
        + k * k * norm_cdf(d2)
    )
    discount = math.exp(-r * t)
    return discount * m1, discount * math.sqrt(m2 - m1 * m1)


# -- stream ----------------------------------------------------------------


def _stream_files(sizes: Sizes):
    """(key, variant, n_bits, format) of every file the stream workload writes."""
    return (
        ("rhs-trng", "rhs-trng", sizes.stream_bits, "packed"),
        ("rhs-parallel", "rhs-parallel", sizes.stream_bits, "packed"),
        ("conv-ap2p", "conv-ap2p", sizes.stream_bits, "packed"),
        ("rhs-trng-ascii", "rhs-trng", sizes.stream_ascii_bits, "ascii"),
    )


def check_stream_file(
    ctx: Context,
    workload: str,
    key: str,
    variant: str,
    n_bits: int,
    fmt: str,
    path: Path,
    observe: bool = True,
) -> np.ndarray:
    """Sidecar, size, reference hash and Markov statistics of one stream file.

    observe records the hash as the CLI's output, which the in-process
    pass is then compared against.
    """
    lanes = ctx.sizes.lanes if variant == "rhs-parallel" else 1
    sidecar = json.loads(Path(f"{path}.json").read_text(encoding="utf-8"))
    expect(sidecar["n_bits"] == n_bits, f"{key}: sidecar n_bits {sidecar['n_bits']}")
    expect(sidecar["format"] == fmt, f"{key}: sidecar format {sidecar['format']}")
    expect(sidecar["variant"] == variant, f"{key}: sidecar variant {sidecar['variant']}")
    expect(sidecar["lanes"] == lanes, f"{key}: sidecar lanes {sidecar['lanes']}")
    bits = decode_stream(path, n_bits, fmt)
    digest = bits_sha256(bits)
    if observe:
        ctx.observe(workload, key, digest)
    reference = ctx.references.get(workload, {}).get(key)
    if reference is not None:
        expect(digest == reference, f"{key}: sha256 {digest} != reference {reference}")
    p1, p2 = realized_flip_probs(variant, lanes, ctx.seed)
    expected, lam = markov_p_one(variant, p1, p2)
    # Neighbouring rhs-parallel lanes share a cell, so a lane correlates
    # with at most two others: the variance is at most three times larger.
    inflate = 3.0 if variant == "rhs-parallel" else 1.0
    p_one = float(np.count_nonzero(bits)) / n_bits
    expect_p_one(key, p_one, n_bits, expected, lam, inflate)
    return bits


def _generate_args(variant: str, n_bits: int, fmt: str, seed: int, out: Path, lanes: int):
    args = ["generate", "--variant", variant, "--bits", str(n_bits), "--seed", str(seed)]
    args += ["--out", str(out), "--format", fmt]
    if variant == "rhs-parallel":
        args += ["--lanes", str(lanes)]
    return args


class Stream:
    name = "stream"
    why = "generate 10^7 bits of three designs plus an ascii file: the generator kernel and bitio writers"
    work_metric = ("gen_mbit_per_s", "Mbit/s", 1e6)

    @staticmethod
    def work(sizes: Sizes) -> int:
        return sum(n for _, _, n, _ in _stream_files(sizes))

    def invocations(self, ctx: Context) -> list[Invocation]:
        out = []
        for key, variant, n_bits, fmt in _stream_files(ctx.sizes):
            path = ctx.path(f"{key}.{fmt}")

            def check(key=key, variant=variant, n_bits=n_bits, fmt=fmt, path=path):
                bits = check_stream_file(ctx, self.name, key, variant, n_bits, fmt, path)
                if fmt == "ascii":
                    self._check_prefix(ctx, bits, ctx.path("rhs-trng.packed"))

            args = _generate_args(variant, n_bits, fmt, ctx.seed, path, ctx.sizes.lanes)
            out.append(Invocation(f"generate {key}", args, check))
        return out

    @staticmethod
    def _check_prefix(ctx: Context, ascii_bits: np.ndarray, packed_path: Path) -> None:
        packed = decode_stream(packed_path, ctx.sizes.stream_bits, "packed")
        expect(
            np.array_equal(ascii_bits, packed[: ascii_bits.size]),
            "ascii stream is not a prefix of the packed rhs-trng stream",
        )

    def in_process(self, ctx: Context, tracer, outdir: Path) -> None:
        from spintrng import bitio
        from spintrng.generator import BitGenerator, GeneratorConfig, Variant

        for key, variant, n_bits, fmt in _stream_files(ctx.sizes):
            lanes = ctx.sizes.lanes if variant == "rhs-parallel" else 1
            config = GeneratorConfig(variant=Variant(variant), lanes=lanes)
            with tracer.span("generator.init", variant):
                gen = BitGenerator(config, seed=ctx.seed)
            with tracer.span(f"generator.{variant}.generate"):
                stream = gen.generate(n_bits)
            path = outdir / f"{key}.{fmt}"
            with tracer.span(f"bitio.write_{fmt}"):
                bitio.save_stream(stream, str(path), fmt)
            tracer.count("generator.unit_cycles", -(-n_bits // config.bits_per_cycle) * config.n_units)
            tracer.count("bitio.bytes_written", path.stat().st_size)

    def check_in_process(self, ctx: Context, outdir: Path) -> None:
        for key, variant, n_bits, fmt in _stream_files(ctx.sizes):
            path = outdir / f"{key}.{fmt}"
            bits = check_stream_file(ctx, self.name, key, variant, n_bits, fmt, path, False)
            cli = ctx.observed.get(self.name, {}).get(key)
            expect(cli is None or cli == bits_sha256(bits), f"{key}: in-process bits differ from CLI")
            if fmt == "ascii":
                self._check_prefix(ctx, bits, outdir / "rhs-trng.packed")


# -- certify ---------------------------------------------------------------


def _expect_close(label: str, got: float, want: float) -> None:
    expect(abs(got - want) <= P_VALUE_TOLERANCE, f"{label}: {got!r} != {want!r}")


def check_p_values(ctx: Context, label: str, p_values: dict, pooled: dict | None = None) -> None:
    """All 12 modules ran, and p-values match the reference to 1e-12.

    p_values are the per-module composites the CLI reports; pooled are
    the per-group sub-p-values behind them, which only the in-process
    pass sees.
    """
    expect(sorted(p_values) == sorted(NIST_MODULES), f"{label}: modules {sorted(p_values)}")
    for name, p in p_values.items():
        expect(p is not None and 0.0 <= p <= 1.0, f"{label}: {name} p-value {p}")
    reference = ctx.references.get("certify", {})
    if "p_values" in reference:
        for name, p in p_values.items():
            _expect_close(f"{label}: {name} p-value vs reference", p, reference["p_values"][name])
    if pooled is not None and "pooled_p_values" in reference:
        for name, values in pooled.items():
            want = reference["pooled_p_values"][name]
            expect(len(values) == len(want), f"{label}: {name} has {len(values)} sub-p-values")
            for got, ref in zip(values, want):
                _expect_close(f"{label}: {name} sub-p-value vs reference", got, ref)


class Certify:
    name = "certify"
    why = "generate 10^7 bits then run the 12-module battery on them: the battery is about 90% of the time"
    work_metric = ("certify_mbit_per_s", "Mbit/s", 1e6)

    @staticmethod
    def work(sizes: Sizes) -> int:
        return sizes.certify_bits

    def invocations(self, ctx: Context) -> list[Invocation]:
        sizes = ctx.sizes
        bits_path = ctx.path("certify.packed")
        report_path = ctx.path("certify-report.json")

        def check_bits():
            check_stream_file(ctx, self.name, "bits", "rhs-trng", sizes.certify_bits, "packed", bits_path)

        def check_report():
            payload = json.loads(report_path.read_text(encoding="utf-8"))
            bits = decode_stream(bits_path, sizes.certify_bits, "packed")
            entropy = payload["entropy"]
            expect(entropy["n_bits"] == sizes.certify_bits, f"entropy n_bits {entropy['n_bits']}")
            p_one = float(np.count_nonzero(bits)) / bits.size
            expect(abs(entropy["p_one"] - p_one) <= 1e-15, f"entropy p_one {entropy['p_one']}")
            p_values = {row["module"]: row["p_value"] for row in payload["nist"]}
            ctx.observe(self.name, "p_values", p_values)
            check_p_values(ctx, "test", p_values)

        generate = _generate_args("rhs-trng", sizes.certify_bits, "packed", ctx.seed, bits_path, 1)
        test = ["test", "--in", str(bits_path), "--groups", str(sizes.certify_groups)]
        test += ["--json", str(report_path)]
        return [
            Invocation("generate rhs-trng", generate, check_bits),
            Invocation("test", test, check_report),
        ]

    def in_process(self, ctx: Context, tracer, outdir: Path) -> None:
        from spintrng import bitio
        from spintrng.entropy import entropy_report
        from spintrng.generator import BitGenerator, GeneratorConfig
        from spintrng.nist import composite_p_value
        from spintrng.nist import modules as nist_modules

        sizes = ctx.sizes
        path = outdir / "certify.packed"
        with tracer.span("generator.init", "rhs-trng"):
            gen = BitGenerator(GeneratorConfig(), seed=ctx.seed)
        with tracer.span("generator.rhs-trng.generate"):
            stream = gen.generate(sizes.certify_bits)
        with tracer.span("bitio.write_packed"):
            bitio.save_stream(stream, str(path), "packed")
        tracer.count("generator.unit_cycles", sizes.certify_bits * gen.config.n_units)
        tracer.count("bitio.bytes_written", path.stat().st_size)
        del stream

        with tracer.span("bitio.read_packed"):
            bits = bitio.read_bits(str(path))
        tracer.count("bitio.bytes_read", path.stat().st_size)
        with tracer.span("entropy.report"):
            entropy_report(bits)
        groups = bits.reshape(sizes.certify_groups, -1)
        p_values, pooled = {}, {}
        for name, fn_name in NIST_MODULES.items():
            fn = getattr(nist_modules, fn_name)
            pooled[name] = []
            for group in groups:
                with tracer.span(f"nist.{name}"):
                    pooled[name].extend(fn(group))
            with tracer.span("nist.composite"):
                p_values[name] = composite_p_value(pooled[name])
            tracer.count("nist.sub_p_values", len(pooled[name]))
        payload = {"p_values": p_values, "pooled_p_values": pooled}
        (outdir / "certify-p-values.json").write_text(json.dumps(payload), encoding="utf-8")

    def check_in_process(self, ctx: Context, outdir: Path) -> None:
        path = outdir / "certify.packed"
        check_stream_file(
            ctx, self.name, "bits", "rhs-trng", ctx.sizes.certify_bits, "packed", path, False
        )
        payload = json.loads((outdir / "certify-p-values.json").read_text(encoding="utf-8"))
        p_values = payload["p_values"]
        check_p_values(ctx, "in-process battery", p_values, payload["pooled_p_values"])
        cli = ctx.observed.get(self.name, {}).get("p_values")
        if cli is not None:
            for name, p in p_values.items():
                _expect_close(f"in-process {name} p-value vs CLI", p, cli[name])


# -- sweep -----------------------------------------------------------------


def check_sweep_csv(ctx: Context, axis: str, text: str) -> None:
    """Rows by column name: the grid, and p_one against the Markov model."""
    rows = list(csv.DictReader(io.StringIO(text)))
    needed = {"variant", "axis", "value", "p_one", "p1_model", "p2_model"}
    expect(rows and needed <= set(rows[0]), f"{axis}: columns {list(rows[0]) if rows else []}")
    expect({r["axis"] for r in rows} == {axis}, f"{axis}: axis column")
    n_bits = ctx.sizes.sweep_bits_per_point
    if axis == "process":
        expect(sorted(r["variant"] for r in rows) == sorted(SWEEP_VARIANTS), f"{axis}: variants")
        for r in rows:
            expect(float(r["value"]) == ctx.sizes.sweep_samples, f"{axis}: value {r['value']}")
            expect(0.0 <= float(r["p_one"]) <= 1.0, f"{axis}: p_one {r['p_one']}")
        return
    points = SWEEP_POINTS[axis]
    cells = sorted((r["variant"], round(float(r["value"]), 9)) for r in rows)
    expect(cells == sorted((v, p) for v in SWEEP_VARIANTS for p in points), f"{axis}: grid")
    for r in rows:
        expected, lam = markov_p_one(r["variant"], float(r["p1_model"]), float(r["p2_model"]))
        label = f"{axis} {r['variant']} {r['value']}"
        expect_p_one(label, float(r["p_one"]), n_bits, expected, lam)


class Sweep:
    name = "sweep"
    why = "voltage, temperature and process sweeps: about 80 chain-kernel calls of 10^6 cycles each"
    work_metric = ("sweep_rows_per_s", "rows/s", 1.0)

    @staticmethod
    def work(sizes: Sizes) -> int:
        grid = sum(len(points) for points in SWEEP_POINTS.values()) + 1
        return grid * len(SWEEP_VARIANTS)

    def _args(self, ctx: Context, axis: str, out: Path) -> list[str]:
        sizes = ctx.sizes
        return [
            "sweep", "--axis", axis,
            "--bits-per-point", str(sizes.sweep_bits_per_point),
            "--samples", str(sizes.sweep_samples),
            "--seed", str(ctx.seed), "--out", str(out), "--jobs", "1",
        ]

    def invocations(self, ctx: Context) -> list[Invocation]:
        out = []
        for axis in SWEEP_AXES:
            path = ctx.path(f"sweep-{axis}.csv")

            def check(axis=axis, path=path):
                check_sweep_csv(ctx, axis, path.read_text(encoding="utf-8"))

            out.append(Invocation(f"sweep {axis}", self._args(ctx, axis, path), check))
        return out

    def in_process(self, ctx: Context, tracer, outdir: Path) -> None:
        from spintrng.sweeps import Axis, run_sweep, spec_for_axis

        sizes = ctx.sizes
        for axis in SWEEP_AXES:
            spec = spec_for_axis(
                Axis(axis),
                bits_per_point=sizes.sweep_bits_per_point,
                n_samples=sizes.sweep_samples,
                seed=ctx.seed,
            )
            with tracer.span(f"sweeps.{axis}"):
                report = run_sweep(spec, jobs=1)
                text = report.to_csv()
            (outdir / f"sweep-{axis}.csv").write_text(text, encoding="utf-8")
            n_rows = len(report.rows)
            tracer.count("sweeps.rows", n_rows)
            if axis == "process":
                per_device = sizes.sweep_bits_per_point // sizes.sweep_samples
                bits = n_rows * sizes.sweep_samples * per_device
            else:
                bits = n_rows * sizes.sweep_bits_per_point
            tracer.count("sweeps.bits_simulated", bits)

    def check_in_process(self, ctx: Context, outdir: Path) -> None:
        for axis in SWEEP_AXES:
            text = (outdir / f"sweep-{axis}.csv").read_text(encoding="utf-8")
            check_sweep_csv(ctx, axis, text)
            cli_path = ctx.path(f"sweep-{axis}.csv")
            expect(
                not cli_path.exists() or cli_path.read_text(encoding="utf-8") == text,
                f"{axis}: in-process CSV differs from CLI",
            )


# -- pricing ---------------------------------------------------------------


def check_prices(ctx: Context, rows: list[dict]) -> None:
    """Grid coverage, and each price within PRICE_Z exact standard errors."""
    from spintrng.system import OptionSpec

    grid = ctx.sizes.pricing_paths
    backends = {r["backend"] for r in rows}
    expect(len(backends) == PRICING_BACKENDS, f"backends {sorted(backends)}")
    cells = sorted((r["backend"], r["n_paths"]) for r in rows)
    expect(cells == sorted((b, n) for b in backends for n in grid), "path grid")
    oracle, payoff_sd = call_payoff_moments(OptionSpec())
    for r in rows:
        expect(math.isfinite(r["stderr"]) and r["stderr"] > 0, f"stderr {r['stderr']}")
        se = payoff_sd / math.sqrt(r["n_paths"])
        z = (r["price"] - oracle) / se
        expect(
            abs(z) <= PRICE_Z,
            f"{r['backend']} {r['n_paths']} paths: price {r['price']:.4f} vs "
            f"{oracle:.4f} (z={z:.2f})",
        )


class _CountingSource:
    """Wraps a bit source and counts the bits drawn from it."""

    def __init__(self, source) -> None:
        self._source = source
        self.taken = 0

    def take(self, n_bits: int):
        self.taken += n_bits
        return self._source.take(n_bits)


class Pricing:
    name = "pricing"
    why = "option-pricing bench on the default path grid: the only workload that runs system.py"
    work_metric = ("paths_per_s", "paths/s", 1.0)

    @staticmethod
    def work(sizes: Sizes) -> int:
        return PRICING_BACKENDS * sum(sizes.pricing_paths)

    def invocations(self, ctx: Context) -> list[Invocation]:
        path = ctx.path("bench.json")

        def check():
            check_prices(ctx, json.loads(path.read_text(encoding="utf-8")))

        args = ["bench", "--paths", ",".join(map(str, ctx.sizes.pricing_paths))]
        args += ["--seed", str(ctx.seed), "--jobs", "1", "--json", str(path)]
        return [Invocation("bench", args, check)]

    def in_process(self, ctx: Context, tracer, outdir: Path) -> None:
        from numpy.random import SeedSequence

        from spintrng.system import FairBitSource, OptionSpec, default_backends, price_option_mc

        rows = []
        for pi, n_paths in enumerate(ctx.sizes.pricing_paths):
            spec = OptionSpec(n_paths=n_paths)
            for bi, backend in enumerate(default_backends()):
                source = _CountingSource(FairBitSource(SeedSequence([ctx.seed, pi, bi])))
                with tracer.span("system.price", str(n_paths)):
                    entry = price_option_mc(spec, backend, source=source)
                tracer.count("system.paths", n_paths)
                tracer.count("system.source_bits", source.taken)
                rows.append(
                    {
                        "backend": entry.backend,
                        "n_paths": entry.n_paths,
                        "price": entry.price,
                        "stderr": entry.std_error,
                    }
                )
        (outdir / "bench.json").write_text(json.dumps(rows), encoding="utf-8")

    def check_in_process(self, ctx: Context, outdir: Path) -> None:
        check_prices(ctx, json.loads((outdir / "bench.json").read_text(encoding="utf-8")))


WORKLOADS = {w.name: w for w in (Stream(), Certify(), Sweep(), Pricing())}
