"""TRNG design variants and bitstream generation.

Two families are modeled:

* Conventional three-phase designs: every cycle resets the cell to a
  fixed source state (deterministic write), applies a 50 percent
  calibrated random write, and reads the post-write state out as the
  bit.  One polarity is exercised per design, so there are two
  variants, conv-ap2p and conv-p2ap.

* Read-half-select feedback designs: every cycle reads the cell, emits
  the read value, and writes the inverted value back with the
  direction-appropriate calibrated current.  rhs-single is one such
  cell; rhs-parallel(n) chains n + 1 cells into n XOR output lanes,
  and rhs-trng is its one-lane case, the XOR of two independent cells.

A unit's one physical input is its (p1, p2), the probabilities that a
write switches a cell in P and one in AP (device.flip_probs), so
voltage, temperature and process reach the bits only through them.
Every unit consumes exactly one uniform draw from its own substream
per cycle, in cycle order, and BitGenerator.generate turns a block of
those draws into bits without a per-cycle loop.  Each unit's
comparisons go into its own row of packed uint64 words, 64 cycles per
word: a conventional cell's bit is its one comparison, and the chains
of all feedback cells step together in one _chain_states call, so a
call costs the same few dozen numpy operations however many cells
rhs-parallel has.  Its lanes are one XOR of adjacent rows.  The
generator keeps each cell's chain state, starting at P, so a further
generate call continues the same chains.  A request that
rhs-parallel's lane count does not divide still runs whole cycles;
the generator keeps the unused lanes of the last cycle and emits them
first on the next call, so any split of a request into calls yields
the bits of one call.  BitGenerator.chunks relies on this: it is the
one place that splits a request into generate calls of CHUNK_BITS
bits, and every consumer of long streams (the file writer, the sweep
cells) takes its bits from it.  A generator reuses its draw buffer
from call to call, so memory stays flat however long the request, and
a chunk's other temporaries stay small.

Timing, energy and area are the paper's fixed design figures, held
as module constants and read through the GeneratorConfig properties
cycle_ns, mbps, energy_pj_per_bit and area_um2_per_bit: a feedback
cycle is precharge, read and the write pulse (3.3 ns, 303 Mb/s per
lane); a conventional cycle adds a reset write of the same width.
What one generate call made is one record, StreamInfo, built by
BitGenerator.stream_info alone; the bitstream sidecars extend it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from spintrng.device import PULSE_WIDTH_NS, STATE_P, DeviceParams, Environment, flip_probs


class Variant(str, Enum):
    CONV_AP_TO_P = "conv-ap2p"
    CONV_P_TO_AP = "conv-p2ap"
    RHS_SINGLE = "rhs-single"
    RHS_TRNG = "rhs-trng"
    RHS_PARALLEL = "rhs-parallel"

    @property
    def is_conventional(self) -> bool:
        return self in (Variant.CONV_AP_TO_P, Variant.CONV_P_TO_AP)


# Phase durations in nanoseconds besides the write pulse itself.
T_PRE_NS = 0.2
T_RD_NS = 0.2

# Per-bit energy of one feedback unit, and the layout area of the
# dual-cell XOR design and of one unit; the XOR gate takes what the
# cell's area leaves beyond its two units.
ENERGY_PJ_PER_BIT_UNIT = 2.65
AREA_UM2_CELL = 24.29
AREA_UM2_UNIT = 9.79

# Bits per generate call in BitGenerator.chunks.  A multiple of 64, so
# every chunk but the last ends on a byte and on an ascii line, and the
# chunks' file encodings join into the encoding of the whole request.
# BitGenerator.chunks(10^7), medians of 9 interleaved runs in ns per
# bit at the nominal point (2-core x86_64, quartiles 20-30% apart):
#
#                     2^15  2^16  2^17  2^18
#   conv-ap2p          3.5   3.9   3.5   4.1
#   rhs-single         5.5   5.2   4.8   6.2
#   rhs-trng          10.2  10.9  10.8  10.4
#   rhs-parallel(8)    8.3   8.7   6.9   7.1
#
# The sizes differ by less than the spread, so memory picks 2^16: a
# chunk's uniforms are at most 512 KiB, and an rhs-trng chunk's other
# temporaries stay under glibc's 128 KiB mmap threshold, so they reuse
# heap pages: `sweep --axis voltage --bits-per-point 1000000` peaks at
# 36.3 MB against 35.1 MB for its imports alone (38.9 MB at 2^18 with
# a kernel call per cell).
CHUNK_BITS = 1 << 16

# Most output lanes the CLI accepts for rhs-parallel, well inside one
# chunk.  Every cell owns a numpy Generator, built before any work, so
# the lane count alone sets the cost of a small request: at 2^18 lanes
# `generate --bits 1000` took 16.8 s and 345 MB peak RSS.  Within the
# bound, `generate --bits 1000` took 0.23 s and 35.7 MB at 8 and at 64
# lanes, 0.24 s and 36.1 MB at 512 and 0.37 s and 40.1 MB at 4,096;
# 10^7 bits took 0.34, 0.33, 0.49 and 0.92 s, within 0.7 MB of those
# peaks (2-core x86_64, medians of 3).
MAX_LANES = 1 << 12


@dataclass(frozen=True)
class GeneratorConfig:
    """Which TRNG design to simulate.

    lanes is only meaningful for rhs-parallel (number of output
    lanes; lanes + 1 cells are instantiated).
    """

    variant: Variant = Variant.RHS_TRNG
    lanes: int = 1

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")

    @property
    def n_units(self) -> int:
        if self.variant in (Variant.RHS_TRNG, Variant.RHS_PARALLEL):
            return self.bits_per_cycle + 1
        return 1

    @property
    def bits_per_cycle(self) -> int:
        return self.lanes if self.variant is Variant.RHS_PARALLEL else 1

    def unit_probs(self, probs=None) -> list[tuple[float, float]]:
        """probs as one float (p1, p2) per unit, each in [0, 1]; None
        means the nominal DeviceParams() device at Environment() in
        every unit.  The one check of what BitGenerator and
        markov.design_model take."""
        if probs is None:
            probs = [flip_probs(DeviceParams(), Environment())] * self.n_units
        probs = [(float(p1), float(p2)) for p1, p2 in probs]
        if len(probs) != self.n_units:
            raise ValueError(f"{self.variant.value} needs {self.n_units} (p1, p2) pairs")
        if not all(0.0 <= p <= 1.0 for pair in probs for p in pair):
            raise ValueError("flip probabilities must lie in [0, 1]")
        return probs

    @property
    def cycle_ns(self) -> float:
        """Precharge, read and write; conventional designs add a reset write."""
        base = T_PRE_NS + T_RD_NS + PULSE_WIDTH_NS
        if self.variant.is_conventional:
            base += PULSE_WIDTH_NS
        return base

    @property
    def mbps(self) -> float:
        """Generation rate in Mb/s, summed over the lanes."""
        return 1e3 / self.cycle_ns * self.bits_per_cycle

    @property
    def energy_pj_per_bit(self) -> float:
        """The XOR designs amortize n + 1 cells over n lanes, so one lane
        (rhs-trng) is the dual-cell reference and rhs-parallel's figure
        decreases toward the per-unit asymptote.  Conventional designs
        spend a reset write plus the random write on one cell each bit."""
        if self.n_units > 1:
            n = self.bits_per_cycle
            return ENERGY_PJ_PER_BIT_UNIT * (n + 1) / n
        if self.variant.is_conventional:
            return 2.0 * ENERGY_PJ_PER_BIT_UNIT
        return ENERGY_PJ_PER_BIT_UNIT

    @property
    def area_um2_per_bit(self) -> float:
        """The XOR designs amortize n + 1 cells and n XOR gates over n
        lanes; a single-cell design spends one unit."""
        if self.n_units == 1:
            return AREA_UM2_UNIT
        n = self.bits_per_cycle
        xor_area = AREA_UM2_CELL - 2.0 * AREA_UM2_UNIT
        return ((n + 1) * AREA_UM2_UNIT + n * xor_area) / n


@dataclass(frozen=True)
class StreamInfo:
    """What one generate call made.

    Warm-up is excluded: the deterministic initial read never appears
    in the bits, and time/energy cover the emitting cycles only, so the
    steady-state per-bit figures hold exactly.
    """

    n_bits: int
    variant: str
    lanes: int
    seed: object
    simulated_time_ns: float
    energy_pj: float


@dataclass
class BitStream:
    """Generated bits and the record of the call that made them."""

    bits: np.ndarray
    info: StreamInfo


def _chain_states(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """States of a batch of two-state flip chains, one chain per row.

    Row r of a and b holds chain r's comparisons a_t = u_t < p1 and
    b_t = u_t < p2 of its own uniforms and (p1, p2), packed
    little-endian: cycle t at bit t % 64 of word 1 + t // 64.  Word 0
    is the row's guard, 64 draws that each restart the chain to its
    starting state x0: all ones in a and zeros in b for x0 = 1, the
    reverse for x0 = 0.  A last word's padding draws are zero in both,
    so they neither toggle nor restart.  The result is packed the same
    way: bit t of row r is X_t of chain r, bit-identical with the
    sequential recursion X_t = X_{t-1} XOR (u_t < flip_prob(X_{t-1}));
    a and b are overwritten.

    With a_t and b_t both set a draw toggles the state, with neither it
    keeps it, and where they differ it is a restart: it sets X_t = a_t
    whatever the state was.  So with parity_t the running XOR of the
    toggles, X_t XOR parity_t is constant between restarts, and from a
    restart at t on it is a_t XOR parity_t.  Each state is that filled
    value XOR parity.

    Both scans run over the words of all rows as one sequence.  Parity
    is a prefix XOR, in-word by six doubling shifts and across words by
    XORing in the parity of every earlier word; a guard toggles nothing,
    so a row's parity starts wherever the row before left it and the
    guard's restart makes up for it.  The fill is one carry chain.  Read
    propagate = ~restart | value and value as two integers over all the
    words: at bit t of propagate + value, a restart to 1 sets the carry,
    a restart to 0 clears it, and any other draw passes it on, so the
    carry out of bit t is the filled value at t.  That is value at a
    restart and the inverse of the sum bit elsewhere.  A guard restarts
    every one of its bits, so no carry crosses from one row into the
    next.
    """
    shape = a.shape
    a = a.reshape(-1)
    b = b.reshape(-1)
    restart = a ^ b
    parity = np.bitwise_and(a, b, out=b)
    tmp = np.empty_like(parity)
    for shift in (1, 2, 4, 8, 16, 32):
        parity ^= np.left_shift(parity, shift, out=tmp)
    # Bit 63 is each word's own parity; an odd count of them before a
    # word inverts all of it.
    top = parity >> 63
    earlier = np.bitwise_xor.accumulate(top, out=tmp)
    earlier ^= top
    parity ^= np.negative(earlier, out=earlier)
    value = np.bitwise_and(np.bitwise_xor(a, parity, out=a), restart, out=a)
    propagate = np.bitwise_or(np.invert(restart, out=tmp), value, out=tmp)
    total = int.from_bytes(propagate, "little") + int.from_bytes(value, "little")
    sum_bytes = total.to_bytes(8 * a.size + 1, "little")
    carry_sum = np.frombuffer(sum_bytes, dtype="<u8", count=a.size)
    states = np.invert(np.bitwise_or(restart, carry_sum, out=restart), out=restart)
    states |= value
    states ^= parity
    return states.reshape(shape)


def _pack_less(u: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """Write u < p into out: row r of u against p[r], packed
    little-endian with zero padding."""
    packed = np.packbits(u < p[:, None], axis=1, bitorder="little")
    rows = out.view(np.uint8)
    rows[:, : packed.shape[1]] = packed
    rows[:, packed.shape[1] :] = 0


class BitGenerator:
    """Stateful driver for one configured TRNG instance.

    probs holds each unit's (p1, p2) in unit order, as
    GeneratorConfig.unit_probs checks them; None means the nominal
    device in every unit.  Each unit draws from its own
    substream, spawned from seed in unit order, and its chain starts
    at P.
    """

    def __init__(
        self,
        config: GeneratorConfig,
        seed=None,
        probs: list[tuple[float, float]] | None = None,
    ) -> None:
        self.config = config
        self._probs = config.unit_probs(probs)

        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self.seed_entropy = root.entropy
        self._rngs = [np.random.default_rng(ss) for ss in root.spawn(config.n_units)]
        # Every unit's p1 and p2, as the columns its rows compare against.
        self._p1, self._p2 = np.array(self._probs).T
        # Each cell's chain state after the last cycle run.
        self._states = np.full(config.n_units, STATE_P, dtype=np.uint64)
        # rhs-parallel lanes of the last cycle that no call has emitted yet.
        self._carried = np.empty(0, dtype=np.uint8)
        # A call's uniforms, grown as needed and reused by later calls.
        self._uniforms = np.empty(0)

    def realized_flip_probs(self) -> list[tuple[float, float]]:
        """Per-unit (p1, p2) in effect for this run."""
        return list(self._probs)

    def _cell_states(self, n_cycles: int) -> np.ndarray:
        """Every unit's states over the next n_cycles cycles, one row
        per unit, packed little-endian: cycle t at bit t % 64 of word
        t // 64.  Bits past n_cycles are padding.

        Each unit draws its uniforms from its own substream into a
        shared buffer, as many units at a time as fit in CHUNK_BITS
        doubles, and its comparisons go into its packed rows.  A
        conventional cell's bit is its one comparison; the feedback
        cells' chains all run in one _chain_states call.
        """
        variant = self.config.variant
        n_units = self.config.n_units
        n_words = -(-n_cycles // 64)
        a, b = np.empty((2, n_units, n_words + 1), dtype=np.uint64)
        # Each row's guard restarts its chain where the last call left it.
        a[:, 0] = np.negative(self._states)
        b[:, 0] = ~a[:, 0]
        group = max(1, CHUNK_BITS // max(n_cycles, 1))
        for start in range(0, n_units, group):
            rows = slice(start, min(start + group, n_units))
            n_rows = rows.stop - start
            if self._uniforms.size < n_rows * n_cycles:
                self._uniforms = np.empty(n_rows * n_cycles)
            u = self._uniforms[: n_rows * n_cycles].reshape(n_rows, n_cycles)
            for rng, row in zip(self._rngs[rows], u):
                rng.random(out=row)
            if variant is not Variant.CONV_AP_TO_P:
                _pack_less(u, self._p1[rows], a[rows, 1:])
            if variant is not Variant.CONV_P_TO_AP:
                _pack_less(u, self._p2[rows], b[rows, 1:])
        if variant is Variant.CONV_P_TO_AP:
            return a[:, 1:]
        if variant is Variant.CONV_AP_TO_P:
            return np.invert(b[:, 1:])
        states = _chain_states(a, b)
        if n_cycles:
            last = states[:, n_words] >> np.uint64((n_cycles - 1) % 64)
            self._states = last & np.uint64(1)
        return states[:, 1:]

    def _n_cycles(self, n_bits: int) -> int:
        """Cycles a generate(n_bits) call made now runs, after the
        carried lanes."""
        return -(-max(n_bits - self._carried.size, 0) // self.config.bits_per_cycle)

    def stream_info(self, n_bits: int) -> StreamInfo:
        """The record of a generate(n_bits) call made now: its time
        counts the cycles that call runs, after the carried lanes."""
        config = self.config
        return StreamInfo(
            n_bits=n_bits,
            variant=config.variant.value,
            lanes=config.bits_per_cycle,
            seed=self.seed_entropy,
            simulated_time_ns=self._n_cycles(n_bits) * config.cycle_ns,
            energy_pj=n_bits * config.energy_pj_per_bit,
        )

    def chunks(self, n_bits: int) -> Iterator[np.ndarray]:
        """The next n_bits, as the bits of generate calls of at most
        CHUNK_BITS each; together they are the bits of one
        generate(n_bits) call."""
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        for start in range(0, n_bits, CHUNK_BITS):
            yield self.generate(min(CHUNK_BITS, n_bits - start)).bits

    def generate(self, n_bits: int) -> BitStream:
        """Produce n_bits as a BitStream (vectorized).

        For rhs-parallel the bits are emitted row-major: all lanes of
        cycle 1, then all lanes of cycle 2, and so on, starting with
        the lanes an earlier call left unused.  simulated_time_ns
        counts the cycles this call runs.
        """
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        info = self.stream_info(n_bits)
        carried = self._carried
        n_cycles = self._n_cycles(n_bits)
        rows = self._cell_states(n_cycles)
        if rows.shape[0] > 1:
            # Lane k of a cycle is cell k XOR cell k + 1.
            rows = rows[:-1] ^ rows[1:]
        bits = np.empty(carried.size + n_cycles * rows.shape[0], dtype=np.uint8)
        bits[: carried.size] = carried
        cycles = np.unpackbits(rows.view(np.uint8), axis=1, count=n_cycles, bitorder="little")
        bits[carried.size :].reshape(n_cycles, rows.shape[0])[...] = cycles.T
        self._carried = bits[n_bits:].copy()
        return BitStream(bits[:n_bits], info)


def generate_bitstream(
    config: GeneratorConfig,
    n_bits: int = 1,
    seed=None,
    probs: list[tuple[float, float]] | None = None,
) -> BitStream:
    """One-shot bitstream generation; deterministic for a given seed."""
    return BitGenerator(config, seed=seed, probs=probs).generate(n_bits)
