"""Voltage, temperature, and process-variation experiment harness.

Each sweep point runs every requested TRNG variant with the write
pulses calibrated once at reference conditions, then measures the
output statistics under the disturbed environment or device sample.
Rows also log the model flip probabilities realized at that point so a
sweep can be explained without re-simulation.

Seeding is fully keyed: every (axis, variant, point, unit) tuple maps
to its own SeedSequence, so results are byte-identical regardless of
--jobs scheduling, and any single point can be reproduced in
isolation.
"""

from __future__ import annotations

import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from numpy.random import SeedSequence, default_rng

from spintrng.device import (
    DeviceParams,
    Environment,
    SwitchDirection,
    calibrated_pulses,
    sample_device,
    switching_probability,
)
from spintrng.entropy import binary_min_entropy, binary_shannon_entropy
from spintrng.generator import Variant, _chain_states


class Axis(str, Enum):
    VOLTAGE = "voltage"
    TEMPERATURE = "temperature"
    PROCESS = "process"


# Sweep variants in canonical order; also fixes each variant's seeding key.
SWEEP_VARIANTS = (
    Variant.CONV_P_TO_AP,
    Variant.CONV_AP_TO_P,
    Variant.RHS_SINGLE,
    Variant.RHS_TRNG,
)

# Key-space tags keeping device draws and the per-axis bit streams disjoint.
_TAG_DEVICE = 100
_TAG_PROCESS = 200
_TAG_VOLTAGE = 300
_TAG_TEMPERATURE = 400


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and how hard.

    Voltage points run v_min..v_max inclusive in v_step increments;
    temperature likewise in kelvin.  The process study draws n_samples
    device sets and splits bits_per_point evenly across them.
    """

    axis: Axis = Axis.VOLTAGE
    variants: tuple[Variant, ...] = SWEEP_VARIANTS
    v_min: float = -0.10
    v_max: float = 0.10
    v_step: float = 0.02
    t_min_k: float = 280.15
    t_max_k: float = 320.15
    t_step_k: float = 5.0
    n_samples: int = 200
    bits_per_point: int = 1_000_000
    seed: int = 0
    params: DeviceParams = field(default_factory=DeviceParams)

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValueError("variants must be non-empty")
        if Variant.RHS_PARALLEL in self.variants:
            raise ValueError("sweeps cover the single-lane variants only")
        if self.bits_per_point < 10_000:
            raise ValueError("bits_per_point must be >= 10000")
        if self.v_step <= 0 or self.t_step_k <= 0:
            raise ValueError("steps must be > 0")
        if self.v_max < self.v_min or self.t_max_k < self.t_min_k:
            raise ValueError("range upper bound below lower bound")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def points(self) -> list[float]:
        """Axis values for this spec, in sweep order."""
        if self.axis is Axis.VOLTAGE:
            lo, hi, step = self.v_min, self.v_max, self.v_step
        elif self.axis is Axis.TEMPERATURE:
            lo, hi, step = self.t_min_k, self.t_max_k, self.t_step_k
        else:
            return [float(self.n_samples)]
        count = int(round((hi - lo) / step)) + 1
        return [round(lo + k * step, 9) for k in range(count)]


@dataclass(frozen=True)
class SweepRow:
    """One (variant, axis value) cell of a sweep.

    variant is the Variant member itself; the CSV holds its value
    string.  p1_model and p2_model are the model flip probabilities
    realized at the point (population means in the process study).
    """

    variant: Variant
    axis: str
    value: float
    p_one: float
    shannon: float
    min_entropy: float
    p1_model: float
    p2_model: float


@dataclass(frozen=True)
class SweepReport:
    """A sweep's rows and the spec that produced them.

    Voltage and temperature rows are ordered by variant value, then by
    axis value; process-study rows follow spec.variants.
    """

    spec: SweepSpec
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("variant,axis,value,p_one,shannon,min_entropy,p1_model,p2_model\n")
        for r in self.rows:
            out.write(
                f"{r.variant.value},{r.axis},{r.value:.6g},{r.p_one:.8f},"
                f"{r.shannon:.8f},{r.min_entropy:.8f},"
                f"{r.p1_model:.8f},{r.p2_model:.8f}\n"
            )
        return out.getvalue()


def _variant_bits(
    variant: Variant,
    p1: float,
    p2: float,
    n_bits: int,
    key: list[int],
) -> np.ndarray:
    """Bits for one chain at forced flip probabilities.

    key identifies the (seed, tag, point/device, ...) cell; the unit
    index is appended here.  One uniform per unit per cycle, matching
    the generator's draw order exactly.
    """
    u = default_rng(SeedSequence(key + [0])).random(n_bits)
    if variant is Variant.CONV_P_TO_AP:
        return (u < p1).astype(np.uint8)
    if variant is Variant.CONV_AP_TO_P:
        return (u >= p2).astype(np.uint8)
    if variant is Variant.RHS_SINGLE:
        return _chain_states(u, p1, p2, 0)
    raise ValueError(f"unsupported sweep variant {variant}")


def _trng_bits(
    pa: tuple[float, float],
    pb: tuple[float, float],
    n_bits: int,
    key: list[int],
) -> np.ndarray:
    xa = _chain_states(default_rng(SeedSequence(key + [0])).random(n_bits), pa[0], pa[1], 0)
    xb = _chain_states(default_rng(SeedSequence(key + [1])).random(n_bits), pb[0], pb[1], 0)
    return xa ^ xb


def _env_point_row(args) -> SweepRow:
    """One (variant, environment point) cell of a voltage/temperature sweep."""
    spec, tag, env, value, vi = args
    variant = spec.variants[vi]
    nominal = sample_device(spec.params, process_variation=False)
    pulses = calibrated_pulses(nominal, Environment())
    p1 = switching_probability(nominal, pulses[SwitchDirection.P_TO_AP], env)
    p2 = switching_probability(nominal, pulses[SwitchDirection.AP_TO_P], env)
    point_idx = spec.points().index(value)
    key = [spec.seed, tag + vi, point_idx]
    if variant is Variant.RHS_TRNG:
        bits = _trng_bits((p1, p2), (p1, p2), spec.bits_per_point, key)
    else:
        bits = _variant_bits(variant, p1, p2, spec.bits_per_point, key)
    p_one = float(np.count_nonzero(bits)) / bits.size
    return SweepRow(
        variant=variant,
        axis=spec.axis.value,
        value=value,
        p_one=p_one,
        shannon=binary_shannon_entropy(p_one),
        min_entropy=binary_min_entropy(p_one),
        p1_model=p1,
        p2_model=p2,
    )


def _run_env_sweep(spec: SweepSpec, tag: int, jobs: int = 1) -> SweepReport:
    envs = {}
    for value in spec.points():
        if spec.axis is Axis.VOLTAGE:
            envs[value] = Environment(v_variation_rate=value)
        else:
            envs[value] = Environment(temperature_k=value)
    tasks = [
        (spec, tag, envs[value], value, vi)
        for vi in range(len(spec.variants))
        for value in spec.points()
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_env_point_row, tasks))
    else:
        rows = [_env_point_row(t) for t in tasks]
    rows.sort(key=lambda r: (r.variant, r.value))
    return SweepReport(spec=spec, rows=tuple(rows))


def voltage_sweep(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Entropy of each variant across supply-voltage variation rates."""
    if spec.axis is not Axis.VOLTAGE:
        raise ValueError("spec.axis must be voltage")
    return _run_env_sweep(spec, _TAG_VOLTAGE, jobs)


def temperature_sweep(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Entropy of each variant across operating temperature."""
    if spec.axis is not Axis.TEMPERATURE:
        raise ValueError("spec.axis must be temperature")
    return _run_env_sweep(spec, _TAG_TEMPERATURE, jobs)


def _process_device(args) -> tuple[float, float, dict]:
    """One device set of the process study: (p1, p2) of its first cell
    and the count of ones each requested variant produced from it."""
    spec, pulses, env, per_dev, i = args
    dev_a = sample_device(spec.params, True, SeedSequence([spec.seed, _TAG_DEVICE, i, 0]))
    dev_b = sample_device(spec.params, True, SeedSequence([spec.seed, _TAG_DEVICE, i, 1]))
    p1a = switching_probability(dev_a, pulses[SwitchDirection.P_TO_AP], env)
    p2a = switching_probability(dev_a, pulses[SwitchDirection.AP_TO_P], env)
    p1b = switching_probability(dev_b, pulses[SwitchDirection.P_TO_AP], env)
    p2b = switching_probability(dev_b, pulses[SwitchDirection.AP_TO_P], env)
    ones = {}
    for vi, variant in enumerate(SWEEP_VARIANTS):
        if variant not in spec.variants:
            continue
        key = [spec.seed, _TAG_PROCESS + vi, i]
        if variant is Variant.RHS_TRNG:
            bits = _trng_bits((p1a, p2a), (p1b, p2b), per_dev, key)
        else:
            bits = _variant_bits(variant, p1a, p2a, per_dev, key)
        ones[variant] = int(np.count_nonzero(bits))
    return p1a, p2a, ones


def process_variation_study(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Aggregate entropy per variant over a population of device sets.

    Device i's two cells are drawn from keys (seed, 100, i, unit); the
    bit draws for variant v use keys (seed, 200 + v, i, unit).  All
    variants therefore see the same device population, which makes the
    cross-variant entropy ordering a paired comparison.  The reported
    row value column holds n_samples.
    """
    if spec.axis is not Axis.PROCESS:
        raise ValueError("spec.axis must be process")
    env = Environment()
    nominal = sample_device(spec.params, process_variation=False)
    pulses = calibrated_pulses(nominal, env)
    per_dev = spec.bits_per_point // spec.n_samples
    if per_dev < 1:
        raise ValueError("bits_per_point must be >= n_samples")

    tasks = [(spec, pulses, env, per_dev, i) for i in range(spec.n_samples)]
    if jobs > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            devices = list(pool.map(_process_device, tasks))
    else:
        devices = [_process_device(t) for t in tasks]

    # Summed in device order, so the floats do not depend on jobs.
    ones = {v: 0 for v in spec.variants}
    p1_sum = 0.0
    p2_sum = 0.0
    for p1a, p2a, dev_ones in devices:
        p1_sum += p1a
        p2_sum += p2a
        for variant, count in dev_ones.items():
            ones[variant] += count

    total = spec.n_samples * per_dev
    rows = []
    for variant in spec.variants:
        p_one = ones[variant] / total
        rows.append(
            SweepRow(
                variant=variant,
                axis=spec.axis.value,
                value=float(spec.n_samples),
                p_one=p_one,
                shannon=binary_shannon_entropy(p_one),
                min_entropy=binary_min_entropy(p_one),
                p1_model=p1_sum / spec.n_samples,
                p2_model=p2_sum / spec.n_samples,
            )
        )
    return SweepReport(spec=spec, rows=tuple(rows))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Dispatch on spec.axis."""
    if spec.axis is Axis.VOLTAGE:
        return voltage_sweep(spec, jobs)
    if spec.axis is Axis.TEMPERATURE:
        return temperature_sweep(spec, jobs)
    return process_variation_study(spec, jobs)


def spec_for_axis(axis: Axis, **overrides) -> SweepSpec:
    """SweepSpec with defaults for the given axis."""
    return replace(SweepSpec(axis=axis), **overrides)
