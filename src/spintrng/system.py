"""Random-number instruction semantics, cost model, and the pricing benchmark.

Models a CPU extended with a hardware random instruction: one
instruction returns a 15-bit unsigned integer or a uniform float,
versus software RNG routines costing tens of instructions per draw.
An analytical pipeline model (IPC 1, fixed clock) converts instruction
counts into runtimes, and a Monte Carlo European call option pricer
exercises the backends end to end.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.random import SeedSequence, default_rng
from scipy.special import ndtr


class SourceExhausted(Exception):
    """A fixed bit source ran out of bits."""


class BackendKind(str, Enum):
    TRNG_INSTRUCTION = "trng-instruction"
    SOFTWARE_STDLIB = "software-stdlib"
    SOFTWARE_BOOST_LAGFIB = "software-boost-lagfib"


@dataclass(frozen=True)
class RngBackend:
    """Per-draw instruction costs of one RNG implementation.

    The hardware instruction always costs exactly one instruction per
    draw; software backends carry calibrated per-call routine costs.
    """

    kind: BackendKind
    instructions_per_double: float = 1.0

    def __post_init__(self) -> None:
        if self.instructions_per_double < 1.0:
            raise ValueError("per-draw instruction costs must be >= 1")
        if self.kind is BackendKind.TRNG_INSTRUCTION and self.instructions_per_double != 1.0:
            raise ValueError("the hardware instruction costs exactly 1 per draw")


def trng_backend() -> RngBackend:
    return RngBackend(kind=BackendKind.TRNG_INSTRUCTION)


def stdlib_backend(cost: float = 23.5) -> RngBackend:
    return RngBackend(
        kind=BackendKind.SOFTWARE_STDLIB,
        instructions_per_double=cost,
    )


def boost_backend(cost: float = 77.5) -> RngBackend:
    return RngBackend(
        kind=BackendKind.SOFTWARE_BOOST_LAGFIB,
        instructions_per_double=cost,
    )


def default_backends() -> tuple[RngBackend, ...]:
    return (trng_backend(), stdlib_backend(), boost_backend())


@dataclass(frozen=True)
class PipelineConfig:
    """Clock and issue rate that turn instruction counts into runtime.

    The generator instruction is taken as fully pipelined, so one
    result retires per cycle.
    """

    frequency_hz: float = 2.0e9
    ipc: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError("frequency_hz must be > 0")
        if self.ipc <= 0:
            raise ValueError("ipc must be > 0")


@dataclass(frozen=True)
class CostModel:
    """Calibrated instruction counts for the pricing benchmark."""

    per_path_work: float = 16.0
    fixed_overhead: float = 17100.0

    def __post_init__(self) -> None:
        if self.per_path_work <= 0 or self.fixed_overhead < 0:
            raise ValueError("per_path_work must be > 0 and fixed_overhead >= 0")

    def instructions(self, backend: RngBackend, n_paths: int) -> float:
        per_draw = backend.instructions_per_double
        return self.fixed_overhead + n_paths * (self.per_path_work + 2.0 * per_draw)


@dataclass(frozen=True)
class OptionSpec:
    """European call under geometric Brownian motion."""

    s0: float = 100.0
    strike: float = 100.0
    rate: float = 0.05
    volatility: float = 0.2
    maturity_years: float = 1.0
    n_paths: int = 10_000

    def __post_init__(self) -> None:
        if self.s0 <= 0 or self.strike <= 0 or self.maturity_years <= 0:
            raise ValueError("s0, strike, and maturity_years must be > 0")
        if self.volatility < 0:
            raise ValueError("volatility must be >= 0")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")


# -- bit sources -------------------------------------------------------------


class FairBitSource:
    """Unbounded iid fair bits with buffered, order-stable delivery.

    take(a) followed by take(b) returns the same bits as one take(a+b)
    split in two, so batched and sequential consumers agree exactly.
    """

    _BLOCK = 1 << 16

    def __init__(self, seed=None) -> None:
        self._rng = default_rng(seed)
        self._buffer = np.empty(0, dtype=np.uint8)
        self._pos = 0

    def take(self, n_bits: int) -> np.ndarray:
        if n_bits < 0:
            raise ValueError("n_bits must be >= 0")
        chunks = []
        remaining = n_bits
        while remaining > 0:
            avail = self._buffer.size - self._pos
            if avail == 0:
                self._buffer = self._rng.integers(
                    0, 2, size=self._BLOCK, dtype=np.uint8
                )
                self._pos = 0
                continue
            grab = min(avail, remaining)
            chunks.append(self._buffer[self._pos : self._pos + grab])
            self._pos += grab
            remaining -= grab
        if not chunks:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(chunks)


class StreamBitSource:
    """A fixed bit array consumed front to back."""

    def __init__(self, bits) -> None:
        self._bits = np.asarray(bits, dtype=np.uint8).ravel()
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._bits.size - self._pos

    def take(self, n_bits: int) -> np.ndarray:
        if n_bits < 0:
            raise ValueError("n_bits must be >= 0")
        if n_bits > self.remaining:
            raise SourceExhausted(
                f"requested {n_bits} bits, only {self.remaining} left"
            )
        out = self._bits[self._pos : self._pos + n_bits]
        self._pos += n_bits
        return out


# -- instruction semantics ---------------------------------------------------

_MANTISSA_BITS = {"single": 23, "double": 52}


def _uint_array(source, count: int, m: int) -> np.ndarray:
    """count m-bit unsigned integers as float64, each assembled from m
    source bits most significant first."""
    bits = source.take(count * m).reshape(count, m).astype(np.float64)
    weights = 2.0 ** np.arange(m - 1, -1, -1)
    return bits @ weights


def _frand_array(source, count: int, precision: str = "double") -> np.ndarray:
    """count uniforms in [0,1), each from one mantissa width of bits."""
    m = _MANTISSA_BITS.get(precision)
    if m is None:
        raise ValueError(f"precision must be 'single' or 'double', got {precision!r}")
    return _uint_array(source, count, m) / 2.0**m


def rand_u15(source) -> int:
    """15 source bits assembled most significant first."""
    return int(_uint_array(source, 1, 15)[0])


def frand(source, precision: str = "double", lo: float = 0.0, hi: float = 1.0) -> float:
    """Uniform value in [lo, hi) from mantissa-width source bits."""
    if lo >= hi:
        raise ValueError(f"invalid range: lo={lo} must be < hi={hi}")
    u = float(_frand_array(source, 1, precision)[0])
    return lo + u * (hi - lo)


def box_muller(source, precision: str = "double") -> float:
    """One standard normal from two uniform draws."""
    return float(_box_muller_array(source, 1, precision)[0])


def _box_muller_array(source, count: int, precision: str = "double") -> np.ndarray:
    u = _frand_array(source, 2 * count, precision).reshape(count, 2)
    return np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])


# -- pricing -----------------------------------------------------------------

def black_scholes_oracle(spec: OptionSpec) -> float:
    """Closed-form European call value."""
    discount = math.exp(-spec.rate * spec.maturity_years)
    if spec.volatility == 0.0:
        return max(spec.s0 - spec.strike * discount, 0.0)
    sig_sqrt_t = spec.volatility * math.sqrt(spec.maturity_years)
    d1 = (
        math.log(spec.s0 / spec.strike)
        + (spec.rate + 0.5 * spec.volatility**2) * spec.maturity_years
    ) / sig_sqrt_t
    d2 = d1 - sig_sqrt_t
    return float(spec.s0 * ndtr(d1) - spec.strike * discount * ndtr(d2))


@dataclass(frozen=True)
class BenchEntry:
    backend: str
    n_paths: int
    price: float
    std_error: float
    instruction_count: float
    simulated_runtime_s: float


@dataclass(frozen=True)
class BenchRow:
    backend: str
    n_paths: int
    price: float
    std_error: float
    instruction_count: float
    simulated_runtime_s: float
    ratio_vs_trng: float
    speedup_vs_trng: float


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(
            "backend,n_paths,price,stderr,instructions,runtime_s,"
            "ratio_vs_trng,speedup_vs_trng\n"
        )
        for r in self.rows:
            out.write(
                f"{r.backend},{r.n_paths},{r.price:.6f},{r.std_error:.6f},"
                f"{r.instruction_count:.1f},{r.simulated_runtime_s:.9g},"
                f"{r.ratio_vs_trng:.6f},{r.speedup_vs_trng:.6f}\n"
            )
        return out.getvalue()


def price_option_mc(
    spec: OptionSpec,
    backend: RngBackend,
    seed=None,
    pipeline: PipelineConfig | None = None,
    costs: CostModel | None = None,
    source=None,
    chunk: int = 1 << 16,
) -> BenchEntry:
    """Monte Carlo estimate plus the backend's analytic cost figures.

    Terminal-value sampling: S_T = s0 exp((r - sigma^2/2) T + sigma
    sqrt(T) Z), one normal per path built from two uniform draws.
    """
    pipeline = pipeline if pipeline is not None else PipelineConfig()
    costs = costs if costs is not None else CostModel()
    if source is None:
        source = FairBitSource(seed)

    discount = math.exp(-spec.rate * spec.maturity_years)
    drift = (spec.rate - 0.5 * spec.volatility**2) * spec.maturity_years
    vol_term = spec.volatility * math.sqrt(spec.maturity_years)

    n = spec.n_paths
    if spec.volatility == 0.0:
        terminal = spec.s0 * math.exp(drift)
        price = discount * max(terminal - spec.strike, 0.0)
        std_error = 0.0
    else:
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < n:
            batch = min(chunk, n - done)
            z = _box_muller_array(source, batch)
            payoff = np.maximum(
                spec.s0 * np.exp(drift + vol_term * z) - spec.strike, 0.0
            )
            total += float(payoff.sum())
            total_sq += float((payoff**2).sum())
            done += batch
        mean = total / n
        price = discount * mean
        if n >= 2:
            var = max(total_sq - n * mean**2, 0.0) / (n - 1)
            std_error = discount * math.sqrt(var / n)
        else:
            std_error = 0.0

    instructions = costs.instructions(backend, n)
    runtime_s = instructions / (pipeline.ipc * pipeline.frequency_hz)
    return BenchEntry(
        backend=backend.kind.value,
        n_paths=n,
        price=price,
        std_error=std_error,
        instruction_count=instructions,
        simulated_runtime_s=runtime_s,
    )


DEFAULT_PATH_GRID = (10**2, 10**3, 10**4, 10**5, 10**6)


def _bench_cell(task):
    pi_idx, b_idx, run_spec, backend, seed, pipeline, costs = task
    entry = price_option_mc(
        run_spec,
        backend,
        seed=SeedSequence([seed, pi_idx, b_idx]),
        pipeline=pipeline,
        costs=costs,
    )
    return pi_idx, b_idx, entry


def speedup_report(
    spec: OptionSpec | None = None,
    n_paths_grid=DEFAULT_PATH_GRID,
    backends=None,
    seed=0,
    pipeline: PipelineConfig | None = None,
    costs: CostModel | None = None,
    jobs: int = 1,
) -> BenchReport:
    """Instruction-count ratios and runtime speedups versus the hardware path.

    Rows are ordered by (n_paths, backend) with the hardware backend
    first, so the ratio denominators precede their numerators.  Each
    (n_paths, backend) cell is seeded independently, so jobs > 1 only
    reorders the work, never the results.
    """
    spec = spec if spec is not None else OptionSpec()
    backends = tuple(backends) if backends is not None else default_backends()
    if not any(b.kind is BackendKind.TRNG_INSTRUCTION for b in backends):
        raise ValueError("backends must include the hardware instruction baseline")
    pipeline = pipeline if pipeline is not None else PipelineConfig()
    costs = costs if costs is not None else CostModel()

    tasks = []
    for pi_idx, n_paths in enumerate(n_paths_grid):
        run_spec = OptionSpec(
            s0=spec.s0,
            strike=spec.strike,
            rate=spec.rate,
            volatility=spec.volatility,
            maturity_years=spec.maturity_years,
            n_paths=int(n_paths),
        )
        for b_idx, backend in enumerate(backends):
            tasks.append((pi_idx, b_idx, run_spec, backend, seed, pipeline, costs))

    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_bench_cell, tasks))
    else:
        cells = [_bench_cell(t) for t in tasks]
    entry_map = {(pi, bi): entry for pi, bi, entry in cells}

    rows = []
    for pi_idx in range(len(n_paths_grid)):
        entries = [entry_map[(pi_idx, b_idx)] for b_idx in range(len(backends))]
        base = next(
            e
            for e, b in zip(entries, backends)
            if b.kind is BackendKind.TRNG_INSTRUCTION
        )
        for entry in entries:
            rows.append(
                BenchRow(
                    backend=entry.backend,
                    n_paths=entry.n_paths,
                    price=entry.price,
                    std_error=entry.std_error,
                    instruction_count=entry.instruction_count,
                    simulated_runtime_s=entry.simulated_runtime_s,
                    ratio_vs_trng=entry.instruction_count / base.instruction_count,
                    speedup_vs_trng=entry.simulated_runtime_s
                    / base.simulated_runtime_s,
                )
            )
    return BenchReport(rows=tuple(rows))
