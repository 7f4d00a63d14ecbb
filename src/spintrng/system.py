"""Random-number instruction semantics, cost model, and the pricing benchmark.

Models a CPU extended with a hardware random instruction: one
instruction returns a uniform double built from 52 random bits, versus
software RNG routines costing tens of instructions per draw.  An
analytical pipeline model (IPC 1, fixed clock) converts instruction
counts into runtimes, and a Monte Carlo European call option pricer
exercises the backends end to end.  It prices its paths in chunks of
2^16 (_CHUNK) and builds each chunk's normals in blocks of 2^13 pairs
of uniforms (_BLOCK_PAIRS), one take of source bits each, so its
working set does not grow with the path count.

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

from spintrng.parallel import ordered_map


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

# Paths priced per batch of normal draws; their payoffs are summed
# together, so the chunk fixes the summation order and the prices.
_CHUNK = 1 << 16

# Normals built per take of source bits: 2^13 pairs are 852 kB of
# PCG64 words, an eighth of a chunk's draw.
_BLOCK_PAIRS = 1 << 13


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
        values = (self.s0, self.strike, self.rate, self.volatility, self.maturity_years)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("s0, strike, rate, volatility and maturity_years must be finite")
        if self.s0 <= 0 or self.strike <= 0 or self.maturity_years <= 0:
            raise ValueError("s0, strike, and maturity_years must be > 0")
        if self.volatility < 0:
            raise ValueError("volatility must be >= 0")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")


# -- bit sources -------------------------------------------------------------


class FairBitSource:
    """Unbounded iid fair bits with buffered, order-stable delivery.

    The bits are the top bit of each byte of the seeded PCG64's raw
    64-bit words, the bytes read little-endian.  They equal the bits
    of default_rng(seed).integers(0, 2, dtype=np.uint8) drawn in sizes
    that are multiples of 8, such as blocks of 2^16: numpy reads each
    uint8 draw's result from the top bit of one byte of those words.
    A take draws only the whole words it needs and buffers the fewer
    than 8 bits of the last word that it does not return.

    take(a) followed by take(b) returns the same bits as one take(a+b)
    split in two, so batched and sequential consumers agree exactly.
    """

    def __init__(self, seed=None) -> None:
        self._rng = default_rng(seed)
        self._buffer = np.empty(0, dtype=np.uint8)

    def take(self, n_bits: int) -> np.ndarray:
        if n_bits < 0:
            raise ValueError("n_bits must be >= 0")
        head, self._buffer = self._buffer[:n_bits], self._buffer[n_bits:]
        short = n_bits - head.size
        if short == 0:
            return head
        words = self._rng.bit_generator.random_raw(-(-short // 8))
        fresh = words.astype("<u8", copy=False).view(np.uint8)
        fresh >>= 7
        # Copy the leftover bits; a view would keep the whole draw alive.
        self._buffer = fresh[short:].copy()
        if head.size == 0:
            return fresh[:n_bits]
        return np.concatenate([head, fresh[:short]])


# -- instruction semantics ---------------------------------------------------

# Bits per uniform draw: a double's mantissa width.
_MANTISSA_BITS = 52

# Two draws are 104 bits, 13 whole bytes once packed.
_PAIR_BYTES = 2 * _MANTISSA_BITS // 8
_LOW_BITS = np.uint64((1 << _MANTISSA_BITS) - 1)


def _uint_pairs(source, n_pairs: int) -> np.ndarray:
    """2 * n_pairs 52-bit unsigned integers, each assembled from 52
    source bits most significant first, as a (2, n_pairs) array whose
    column k holds integers 2k and 2k + 1.

    The n_pairs * 104 bits of one take are packed into one byte string
    of 13-byte records.  Record k holds integers 2k and 2k + 1 back to
    back: integer 2k is the big-endian 8 bytes at offset 0 of the record
    shifted right by 12, and integer 2k + 1 the big-endian 8 bytes at
    offset 5 masked to their low 52 bits.
    """
    packed = np.packbits(source.take(n_pairs * 2 * _MANTISSA_BITS))
    records = packed.reshape(n_pairs, _PAIR_BYTES)
    out = np.empty((2, n_pairs), dtype=np.uint64)
    np.right_shift(records[:, :8].view(">u8")[:, 0], 64 - _MANTISSA_BITS, out=out[0])
    np.bitwise_and(records[:, _PAIR_BYTES - 8 :].view(">u8")[:, 0], _LOW_BITS, out=out[1])
    return out


def _box_muller_array(source, count: int, out=None) -> np.ndarray:
    """count standard normals, each from two uniforms in [0, 1) of 52
    source bits each, written into out (a new array when None).

    The normals are built in blocks of _BLOCK_PAIRS, each from one
    _uint_pairs take: normal k takes pair k of the 104 * count bits in
    order.  Split takes equal one take, so the normals equal those of
    one take of all count pairs, while the bits and temporaries in
    memory are one block's.  A block is 13 * _BLOCK_PAIRS whole PCG64
    words for FairBitSource, which then buffers nothing.
    """
    z = np.empty(count) if out is None else out
    for start in range(0, count, _BLOCK_PAIRS):
        n = min(_BLOCK_PAIRS, count - start)
        u = _uint_pairs(source, n) / 2.0**_MANTISSA_BITS
        np.multiply(
            np.sqrt(-2.0 * np.log1p(-u[0])), np.cos(2.0 * np.pi * u[1]), out=z[start : start + n]
        )
    return z


# -- pricing -----------------------------------------------------------------

def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _variance(spec: OptionSpec) -> float:
    """volatility**2, with a message that names its overflow (Python's
    float pow raises OverflowError with errno's tuple for one)."""
    try:
        return spec.volatility**2
    except OverflowError:
        raise ValueError("volatility**2 overflows a float64") from None


def black_scholes_oracle(spec: OptionSpec) -> float:
    """Closed-form European call value."""
    discount = math.exp(-spec.rate * spec.maturity_years)
    if spec.volatility == 0.0:
        return max(spec.s0 - spec.strike * discount, 0.0)
    sig_sqrt_t = spec.volatility * math.sqrt(spec.maturity_years)
    d1 = (
        math.log(spec.s0 / spec.strike)
        + (spec.rate + 0.5 * _variance(spec)) * spec.maturity_years
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
    source's bits (any object with FairBitSource's take).  Raises
    ValueError when volatility**2, the drift or the volatility term
    overflows, or when the payoffs, their sums or the price are not
    finite.
    """
    discount = math.exp(-spec.rate * spec.maturity_years)
    drift = (spec.rate - 0.5 * _variance(spec)) * spec.maturity_years
    vol_term = spec.volatility * math.sqrt(spec.maturity_years)
    if not (math.isfinite(drift) and math.isfinite(vol_term)):
        raise ValueError("the drift or the volatility term overflows a float64")

    n = spec.n_paths
    if spec.volatility == 0.0:
        terminal = spec.s0 * math.exp(drift)
        price = discount * max(terminal - spec.strike, 0.0)
        std_error = 0.0
    else:
        total = 0.0
        total_sq = 0.0
        done = 0
        # One array holds each chunk's normals and then, in place, its
        # payoffs.  A new array per chunk, freed at the chunk's end, let
        # the allocator return the blocks' memory to the system and page
        # it in again for the next chunk: 4,300 page faults per 10^6 paths.
        chunk = np.empty(min(_CHUNK, n))
        while done < n:
            batch = min(_CHUNK, n - done)
            payoff = _box_muller_array(source, batch, chunk[:batch])
            with np.errstate(over="ignore", invalid="ignore"):
                # max(s0 exp(drift + vol_term z) - strike, 0)
                payoff *= vol_term
                payoff += drift
                np.exp(payoff, out=payoff)
                payoff *= spec.s0
                payoff -= spec.strike
                np.maximum(payoff, 0.0, out=payoff)
                total += float(payoff.sum())
                np.square(payoff, out=payoff)
                total_sq += float(payoff.sum())
            if not (math.isfinite(total) and math.isfinite(total_sq)):
                raise ValueError("the payoffs overflow a float64")
            done += batch
        mean = total / n
        price = discount * mean
        if n >= 2:
            var = max(total_sq - n * mean**2, 0.0) / (n - 1)
            std_error = discount * math.sqrt(var / n)
        else:
            std_error = 0.0
    if not math.isfinite(price):
        raise ValueError("the payoffs overflow a float64")

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
    return BenchReport(rows=tuple(ordered_map(_bench_cell, tasks, jobs)))
