"""Random-number instruction semantics, cost model, and the pricing benchmark.

Models a CPU extended with a hardware random instruction: one
instruction returns a uniform double built from 52 random bits, versus
software RNG routines costing tens of instructions per draw.  An
analytical pipeline model (IPC 1, fixed clock) converts instruction
counts into runtimes, and a Monte Carlo European call option pricer
exercises the backends end to end.

The paper's abstract reports a 3.4-12x speed-up for this benchmark.
The cost model's ratio over the hardware instruction runs from 1.24x
to 9.49x on the default path grid, and its limit as the path count
grows is (16 + 155) / 18 = 9.5x for the boost backend, so it cannot
reach 12x.  The constants are not re-tuned to close that gap, because
only the abstract is available to tune them against.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.random import SeedSequence, default_rng


class BackendKind(str, Enum):
    TRNG_INSTRUCTION = "trng-instruction"
    SOFTWARE_STDLIB = "software-stdlib"
    SOFTWARE_BOOST_LAGFIB = "software-boost-lagfib"


# Instructions per uniform draw: the hardware instruction returns one
# in a single instruction; the software routines cost tens.
INSTRUCTIONS_PER_DRAW = {
    BackendKind.TRNG_INSTRUCTION: 1.0,
    BackendKind.SOFTWARE_STDLIB: 23.5,
    BackendKind.SOFTWARE_BOOST_LAGFIB: 77.5,
}

# The pipeline that turns instruction counts into runtime: a fixed
# clock, and an IPC of 1 because the generator instruction is taken as
# fully pipelined, so one result retires per cycle.
FREQUENCY_HZ = 2.0e9
IPC = 1.0

# Calibrated instruction counts of the pricing benchmark: the work of
# one path besides its two draws, and the fixed overhead of a run.
PER_PATH_WORK = 16.0
FIXED_OVERHEAD = 17100.0

# Paths priced per batch of normal draws.
_CHUNK = 1 << 16


def default_backends() -> tuple[BackendKind, ...]:
    """Every backend, the hardware instruction first."""
    return tuple(BackendKind)


def _instructions(backend: BackendKind, n_paths: int) -> float:
    per_draw = INSTRUCTIONS_PER_DRAW[backend]
    return FIXED_OVERHEAD + n_paths * (PER_PATH_WORK + 2.0 * per_draw)


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
        head = self._buffer[self._pos : self._pos + n_bits]
        self._pos += head.size
        short = n_bits - head.size
        if short == 0:
            return head
        blocks = [
            self._rng.integers(0, 2, size=self._BLOCK, dtype=np.uint8)
            for _ in range(-(-short // self._BLOCK))
        ]
        # Keep only the last block, the one the next take continues.
        self._buffer = blocks[-1]
        self._pos = short - (len(blocks) - 1) * self._BLOCK
        return np.concatenate([head, *blocks])[:n_bits]


# -- instruction semantics ---------------------------------------------------

# Bits per uniform draw: a double's mantissa width.
_MANTISSA_BITS = 52


def _uint_array(source, count: int) -> np.ndarray:
    """count 52-bit unsigned integers, each assembled from 52 source
    bits most significant first."""
    bits = source.take(count * _MANTISSA_BITS).reshape(count, _MANTISSA_BITS)
    rows = np.zeros((count, 8), dtype=np.uint8)
    rows[:, :7] = np.packbits(bits, axis=1)
    return rows.view(">u8").ravel() >> (64 - _MANTISSA_BITS)


def _frand_array(source, count: int) -> np.ndarray:
    """count uniforms in [0,1), each from 52 source bits."""
    return _uint_array(source, count) / 2.0**_MANTISSA_BITS


def _box_muller_array(source, count: int) -> np.ndarray:
    """count standard normals, each from two uniform draws."""
    u = _frand_array(source, 2 * count).reshape(count, 2)
    return np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])


# -- pricing -----------------------------------------------------------------

def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


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
    return spec.s0 * _norm_cdf(d1) - spec.strike * discount * _norm_cdf(d2)


@dataclass(frozen=True)
class BenchRow:
    """One backend priced at one path count, with its analytic cost.

    ratio_vs_trng is the instruction count over the hardware
    instruction's at the same path count.
    """

    backend: str
    n_paths: int
    price: float
    std_error: float
    instruction_count: float
    simulated_runtime_s: float
    ratio_vs_trng: float


# (column, BenchRow field, CSV format), in the order of the bench CSV
# and of the keys of its JSON rows.
BENCH_COLUMNS = (
    ("backend", "backend", "{}"),
    ("n_paths", "n_paths", "{}"),
    ("price", "price", "{:.6f}"),
    ("stderr", "std_error", "{:.6f}"),
    ("instructions", "instruction_count", "{:.1f}"),
    ("runtime_s", "simulated_runtime_s", "{:.9g}"),
    ("ratio_vs_trng", "ratio_vs_trng", "{:.6f}"),
)


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[BenchRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(column for column, _, _ in BENCH_COLUMNS) + "\n")
        for r in self.rows:
            cells = (fmt.format(getattr(r, name)) for _, name, fmt in BENCH_COLUMNS)
            out.write(",".join(cells) + "\n")
        return out.getvalue()


def price_option_mc(spec: OptionSpec, backend: BackendKind, source) -> BenchRow:
    """Monte Carlo estimate plus the backend's analytic cost figures.

    Terminal-value sampling: S_T = s0 exp((r - sigma^2/2) T + sigma
    sqrt(T) Z), one normal per path built from two uniform draws of
    source's bits (any object with FairBitSource's take).
    """
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
            batch = min(_CHUNK, n - done)
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

    instructions = _instructions(backend, n)
    return BenchRow(
        backend=backend.value,
        n_paths=n,
        price=price,
        std_error=std_error,
        instruction_count=instructions,
        simulated_runtime_s=instructions / (IPC * FREQUENCY_HZ),
        ratio_vs_trng=instructions / _instructions(BackendKind.TRNG_INSTRUCTION, n),
    )


DEFAULT_PATH_GRID = (10**2, 10**3, 10**4, 10**5, 10**6)


def _bench_cell(task) -> BenchRow:
    pi_idx, b_idx, backend, run_spec, seed = task
    return price_option_mc(
        run_spec, backend, FairBitSource(SeedSequence([seed, pi_idx, b_idx]))
    )


def speedup_report(
    spec: OptionSpec | None = None,
    n_paths_grid=DEFAULT_PATH_GRID,
    seed=0,
    jobs: int = 1,
) -> BenchReport:
    """Every backend priced at every path count, with its instruction
    ratio versus the hardware path.

    Rows are ordered by (n_paths, backend) with the hardware backend
    first.  Each (n_paths, backend) cell is seeded independently, so
    jobs > 1 only spreads the work, never changes the results.
    """
    spec = spec if spec is not None else OptionSpec()
    tasks = [
        (pi_idx, b_idx, backend, replace(spec, n_paths=int(n_paths)), seed)
        for pi_idx, n_paths in enumerate(n_paths_grid)
        for b_idx, backend in enumerate(default_backends())
    ]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_bench_cell, tasks))
    else:
        rows = [_bench_cell(t) for t in tasks]
    return BenchReport(rows=tuple(rows))
