"""TRNG design variants and bitstream generation.

Two families are modeled:

* Conventional three-phase designs: every cycle resets the cell to a
  fixed source state (deterministic write), applies a 50 percent
  calibrated random write, and reads the post-write state out as the
  bit.  One polarity is exercised per design, so there are two
  variants, conv-ap2p and conv-p2ap.

* Read-half-select feedback designs: every cycle reads the cell, emits
  the read value, and writes the inverted value back with the
  direction-appropriate calibrated pulse.  rhs-single is one such
  cell; rhs-trng XORs two independent cells; rhs-parallel(n) chains
  n + 1 cells into n XOR output lanes.

Every unit consumes exactly one uniform draw from its own substream
per cycle, in cycle order, and BitGenerator.generate turns a block of
those draws into bits in one vectorized pass.  Each feedback cell's
last state stays in its device, so a further generate call continues
the same chains (for rhs-parallel, the unused lanes of a partial last
cycle are dropped, not carried over).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from spintrng.device import (
    DeviceInstance,
    DeviceParams,
    Environment,
    SwitchDirection,
    WritePulse,
    calibrated_pulses,
    sample_device,
    switching_probability,
)


class Variant(str, Enum):
    CONV_AP_TO_P = "conv-ap2p"
    CONV_P_TO_AP = "conv-p2ap"
    RHS_SINGLE = "rhs-single"
    RHS_TRNG = "rhs-trng"
    RHS_PARALLEL = "rhs-parallel"

    @property
    def is_conventional(self) -> bool:
        return self in (Variant.CONV_AP_TO_P, Variant.CONV_P_TO_AP)


@dataclass(frozen=True)
class CycleTiming:
    """Phase durations in nanoseconds.

    The feedback designs run precharge, read, write every cycle; the
    conventional designs additionally spend a reset write.
    """

    t_pre_ns: float = 0.2
    t_rd_ns: float = 0.2
    t_wr_ns: float = 2.9
    t_reset_ns: float = 2.9

    def __post_init__(self) -> None:
        for name in ("t_pre_ns", "t_rd_ns", "t_wr_ns", "t_reset_ns"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    def cycle_ns(self, variant: Variant) -> float:
        base = self.t_pre_ns + self.t_rd_ns + self.t_wr_ns
        if variant.is_conventional:
            base += self.t_reset_ns
        return base


@dataclass(frozen=True)
class GeneratorConfig:
    """Which TRNG design to simulate plus its bookkeeping constants.

    lanes is only meaningful for rhs-parallel (number of output
    lanes; lanes + 1 cells are instantiated).  flip_prob_override
    bypasses the device physics and forces the per-cycle flip
    probabilities (p1, p2) of every unit; it exists for oracle
    comparisons and analysis.
    """

    variant: Variant = Variant.RHS_TRNG
    lanes: int = 1
    timing: CycleTiming = field(default_factory=CycleTiming)
    energy_pj_per_bit_cell: float = 5.3
    energy_pj_per_bit_parallel_asymptote: float = 2.65
    area_um2_cell: float = 24.29
    area_um2_unit: float = 9.79
    area_um2_per_bit_parallel_asymptote: float = 14.5
    write_target_prob: float = 0.5
    pulse_width_ns: float = 2.9
    flip_prob_override: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {self.lanes}")
        for name in (
            "energy_pj_per_bit_cell",
            "energy_pj_per_bit_parallel_asymptote",
            "area_um2_cell",
            "area_um2_unit",
            "area_um2_per_bit_parallel_asymptote",
        ):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 < self.write_target_prob < 1.0:
            raise ValueError("write_target_prob must lie in (0, 1)")
        if not self.pulse_width_ns > 0.0:
            raise ValueError("pulse_width_ns must be > 0")
        if self.flip_prob_override is not None:
            p1, p2 = self.flip_prob_override
            if not (0.0 <= p1 <= 1.0 and 0.0 <= p2 <= 1.0):
                raise ValueError("flip_prob_override values must lie in [0, 1]")

    @property
    def n_units(self) -> int:
        if self.variant is Variant.RHS_TRNG:
            return 2
        if self.variant is Variant.RHS_PARALLEL:
            return self.lanes + 1
        return 1

    @property
    def bits_per_cycle(self) -> int:
        return self.lanes if self.variant is Variant.RHS_PARALLEL else 1


@dataclass
class BitStream:
    """Generated bits plus accounting metadata.

    Warm-up is excluded: the deterministic initial read never appears
    in bits, and time/energy cover the emitting cycles only, so the
    steady-state per-bit figures hold exactly.
    """

    bits: np.ndarray
    n_bits: int
    variant: str
    lanes: int
    seed: object
    simulated_time_ns: float
    energy_pj: float


@dataclass(frozen=True)
class ThroughputReport:
    cycle_ns: float
    mbps_per_lane: float
    lanes: int
    mbps_aggregate: float


@dataclass(frozen=True)
class CostReport:
    energy_pj_per_bit: float
    area_um2_per_bit: float


class _Unit:
    """One MTJ cell with its own uniform substream."""

    __slots__ = ("device", "rng", "p1", "p2")

    def __init__(
        self,
        device: DeviceInstance,
        rng: np.random.Generator,
        pulses: dict[SwitchDirection, WritePulse] | None,
        env: Environment,
        override: tuple[float, float] | None,
    ) -> None:
        self.device = device
        self.rng = rng
        if override is not None:
            self.p1, self.p2 = float(override[0]), float(override[1])
        else:
            self.p1 = switching_probability(device, pulses[SwitchDirection.P_TO_AP], env)
            self.p2 = switching_probability(device, pulses[SwitchDirection.AP_TO_P], env)


def _chain_states(u: np.ndarray, p1: float, p2: float, x0: int) -> np.ndarray:
    """States X_1..X_n of the two-state flip chain driven by uniforms u.

    Equivalent to, and bit-identical with, the sequential recursion
    X_t = X_{t-1} XOR (u_t < flip_prob(X_{t-1})).  Draws where the two
    state-conditional comparisons disagree force the next state
    outright (renewal points); between renewals the state follows the
    parity of both-flip draws.
    """
    a = u < p1
    b = u < p2
    toggle = a & b
    parity = np.cumsum(toggle, dtype=np.int64)
    forced = a != b
    idx = np.arange(u.size, dtype=np.int64)
    last = np.maximum.accumulate(np.where(forced, idx, -1))
    has_renewal = last >= 0
    safe = np.maximum(last, 0)
    base = np.where(has_renewal, a[safe], bool(x0))
    parity_base = np.where(has_renewal, parity[safe], 0)
    return (base ^ (((parity - parity_base) & 1) > 0)).astype(np.uint8)


class BitGenerator:
    """Stateful driver for one configured TRNG instance.

    Pulses are calibrated once on the nominal device at reference
    conditions and then held fixed; the run environment and the unit
    devices shift the realized flip probabilities, which is the
    disturbance mechanism the sweeps measure.
    """

    def __init__(
        self,
        config: GeneratorConfig,
        env: Environment | None = None,
        params: DeviceParams | None = None,
        seed=None,
        devices: list[DeviceInstance] | None = None,
        pulses: dict[SwitchDirection, WritePulse] | None = None,
    ) -> None:
        self.config = config
        self.env = env if env is not None else Environment()
        self.params = params if params is not None else DeviceParams()

        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        self.seed_entropy = root.entropy
        children = root.spawn(config.n_units)

        if devices is None:
            devices = [
                sample_device(self.params, process_variation=False)
                for _ in range(config.n_units)
            ]
        elif len(devices) != config.n_units:
            raise ValueError(
                f"{config.variant.value} needs {config.n_units} devices, got {len(devices)}"
            )

        if config.flip_prob_override is not None:
            pulses = None
        elif pulses is None:
            reference = sample_device(self.params, process_variation=False)
            pulses = calibrated_pulses(
                reference,
                Environment(),
                target_prob=config.write_target_prob,
                width_ns=config.pulse_width_ns,
            )

        self.units = [
            _Unit(dev, np.random.default_rng(ss), pulses, self.env, config.flip_prob_override)
            for dev, ss in zip(devices, children)
        ]

    def realized_flip_probs(self) -> list[tuple[float, float]]:
        """Per-unit (p1, p2) actually in effect for this run."""
        return [(unit.p1, unit.p2) for unit in self.units]

    def _unit_states(self, unit: _Unit, n_cycles: int) -> np.ndarray:
        u = unit.rng.random(n_cycles)
        if self.config.variant.is_conventional:
            if self.config.variant is Variant.CONV_P_TO_AP:
                return (u < unit.p1).astype(np.uint8)
            return (u >= unit.p2).astype(np.uint8)
        return _chain_states(u, unit.p1, unit.p2, unit.device.state)

    def generate(self, n_bits: int, return_unit_states: bool = False):
        """Produce n_bits as a BitStream (vectorized).

        For rhs-parallel the bits are emitted row-major: all lanes of
        cycle 1, then all lanes of cycle 2, and so on.  Optionally also
        returns the per-unit state trajectories for analysis.
        """
        config = self.config
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        n_cycles = -(-n_bits // config.bits_per_cycle)
        states = [self._unit_states(unit, n_cycles) for unit in self.units]

        if config.variant in (Variant.CONV_AP_TO_P, Variant.CONV_P_TO_AP, Variant.RHS_SINGLE):
            bits = states[0]
        elif config.variant is Variant.RHS_TRNG:
            bits = states[0] ^ states[1]
        else:
            stacked = np.stack(states, axis=1)
            bits = (stacked[:, :-1] ^ stacked[:, 1:]).reshape(-1)
        bits = bits[:n_bits]

        # Carry each feedback cell's state into the next generate call.
        for unit, traj in zip(self.units, states):
            if not config.variant.is_conventional:
                unit.device.state = int(traj[-1])

        stream = BitStream(
            bits=bits,
            n_bits=n_bits,
            variant=config.variant.value,
            lanes=config.lanes if config.variant is Variant.RHS_PARALLEL else 1,
            seed=self.seed_entropy,
            simulated_time_ns=n_cycles * config.timing.cycle_ns(config.variant),
            energy_pj=n_bits * cost_report(config).energy_pj_per_bit,
        )
        if return_unit_states:
            return stream, states
        return stream


def generate_bitstream(
    config: GeneratorConfig,
    env: Environment | None = None,
    n_bits: int = 1,
    seed=None,
    params: DeviceParams | None = None,
    devices: list[DeviceInstance] | None = None,
) -> BitStream:
    """One-shot bitstream generation; deterministic for a given seed."""
    return BitGenerator(config, env=env, params=params, seed=seed, devices=devices).generate(
        n_bits
    )


def throughput_report(config: GeneratorConfig) -> ThroughputReport:
    """Per-lane and aggregate generation rate in Mb/s."""
    cycle = config.timing.cycle_ns(config.variant)
    per_lane = 1e3 / cycle
    lanes = config.bits_per_cycle
    return ThroughputReport(
        cycle_ns=cycle,
        mbps_per_lane=per_lane,
        lanes=lanes,
        mbps_aggregate=per_lane * lanes,
    )


def cost_report(config: GeneratorConfig) -> CostReport:
    """Per-bit energy and area bookkeeping.

    The dual-cell XOR design is the reference cell.  rhs-parallel
    amortizes n + 1 cells and n XOR gates over n lanes, so its per-bit
    figures decrease monotonically toward the per-unit asymptotes.
    Conventional designs spend a reset write plus the random write on
    a single cell each bit.
    """
    energy_unit = config.energy_pj_per_bit_parallel_asymptote
    xor_area = config.area_um2_cell - 2.0 * config.area_um2_unit
    if config.variant is Variant.RHS_TRNG:
        return CostReport(config.energy_pj_per_bit_cell, config.area_um2_cell)
    if config.variant is Variant.RHS_SINGLE:
        return CostReport(energy_unit, config.area_um2_unit)
    if config.variant is Variant.RHS_PARALLEL:
        n = config.lanes
        energy = energy_unit * (n + 1) / n
        area = ((n + 1) * config.area_um2_unit + n * xor_area) / n
        return CostReport(energy, area)
    # Conventional: two write operations (reset + random) per bit.
    return CostReport(2.0 * energy_unit, config.area_um2_unit)
