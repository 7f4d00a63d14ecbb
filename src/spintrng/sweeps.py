"""Voltage, temperature, and process-variation experiment harness.

run_sweep is the one entry point.  Every sweep is a list of cells, one
variant of SWEEP_VARIANTS on one environment and set of devices, each
run by _cell through BitGenerator with the write currents calibrated at
reference conditions.  The voltage and temperature sweeps run nominal
devices at every point of VOLTAGE_POINTS or TEMPERATURE_POINTS; the
process study runs sampled device sets at reference conditions.  They
differ only in their cell lists and in how they aggregate each cell's
count of ones and first-unit flip probabilities, which the rows log so
a sweep can be explained without re-simulation.

Seeding is fully keyed: every cell seeds its own generator, which
spawns one substream per unit, and a variant's key is its index in
SWEEP_VARIANTS.  Results are therefore byte-identical regardless of
--jobs scheduling, and any single cell can be reproduced in
isolation.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from numpy.random import SeedSequence

from spintrng.device import DeviceParams, Environment, sample_device
from spintrng.entropy import binary_min_entropy, binary_shannon_entropy
from spintrng.generator import BitGenerator, GeneratorConfig, Variant
from spintrng.parallel import ordered_map


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


# Sweep grids: supply deviation fraction, and temperature in kelvin.
VOLTAGE_POINTS = (-0.1, -0.08, -0.06, -0.04, -0.02, 0.0, 0.02, 0.04, 0.06, 0.08, 0.1)
TEMPERATURE_POINTS = (280.15, 285.15, 290.15, 295.15, 300.15, 305.15, 310.15, 315.15, 320.15)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep and how hard.

    Voltage and temperature sweeps run bits_per_point bits at every
    point of their grid.  The process study draws n_samples device
    sets and splits bits_per_point evenly across them.
    """

    axis: Axis = Axis.VOLTAGE
    n_samples: int = 200
    bits_per_point: int = 1_000_000
    seed: int = 0
    params: DeviceParams = field(default_factory=DeviceParams)

    def __post_init__(self) -> None:
        if self.bits_per_point < 10_000:
            raise ValueError("bits_per_point must be >= 10000")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.axis is Axis.PROCESS and self.bits_per_point < self.n_samples:
            raise ValueError("bits_per_point must be >= n_samples")


@dataclass(frozen=True)
class SweepRow:
    """One (variant, axis value) cell of a sweep.

    variant is the Variant member itself; the CSV holds its value
    string.  p1_model and p2_model are the flip probabilities of the
    generator's first unit at the point, as realized_flip_probs()
    reports them (population means of the first cell in the process
    study).
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
    axis value; process-study rows follow SWEEP_VARIANTS.
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


def _row(
    spec: SweepSpec, variant: Variant, value: float, p_one: float, p1: float, p2: float
) -> SweepRow:
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


def _cell(task) -> tuple[int, float, float]:
    """One sweep cell: the count of ones in n_bits of variant's output,
    and the (p1, p2) of its first unit.  devices of None means nominal
    devices.  The ones are counted chunk by chunk as the generator makes
    them, so a cell's memory does not grow with n_bits."""
    variant, env, params, key, devices, n_bits = task
    config = GeneratorConfig(variant=variant)
    gen = BitGenerator(config, env=env, params=params, seed=SeedSequence(key), devices=devices)
    ones = sum(int(np.count_nonzero(bits)) for bits in gen.chunks(n_bits))
    return (ones, *gen.realized_flip_probs()[0])


def _run_env_sweep(spec: SweepSpec, jobs: int) -> SweepReport:
    """Entropy of each variant at every point of the axis's grid."""
    if spec.axis is Axis.VOLTAGE:
        tag, points, setting = _TAG_VOLTAGE, VOLTAGE_POINTS, "v_variation_rate"
    else:
        tag, points, setting = _TAG_TEMPERATURE, TEMPERATURE_POINTS, "temperature_k"
    tasks = [
        (variant, Environment(**{setting: value}), spec.params, [spec.seed, tag + vi, i], None,
         spec.bits_per_point)
        for vi, variant in enumerate(SWEEP_VARIANTS)
        for i, value in enumerate(points)
    ]
    rows = [
        _row(spec, variant, getattr(env, setting), ones / spec.bits_per_point, p1, p2)
        for (variant, env, *_), (ones, p1, p2) in zip(tasks, ordered_map(_cell, tasks, jobs))
    ]
    rows.sort(key=lambda r: (r.variant, r.value))
    return SweepReport(spec=spec, rows=tuple(rows))


def _run_process_study(spec: SweepSpec, jobs: int) -> SweepReport:
    """Aggregate entropy per variant over a population of device sets.

    The device sets are sampled here, and each (device set, variant)
    pair is one task.  Device i's two cells are drawn from keys (seed, 100, i, unit); the
    generator for variant v is seeded with (seed, 200 + v, i), v being
    the variant's index in SWEEP_VARIANTS, and starts those cells in P,
    as sampled.  All variants therefore see the same device
    population, which makes the cross-variant entropy ordering a paired
    comparison.  The reported row value column holds n_samples.
    """
    per_dev = spec.bits_per_point // spec.n_samples
    tasks = []
    for i in range(spec.n_samples):
        devices = [
            sample_device(spec.params, True, SeedSequence([spec.seed, _TAG_DEVICE, i, unit]))
            for unit in range(2)
        ]
        for vi, variant in enumerate(SWEEP_VARIANTS):
            n_units = GeneratorConfig(variant=variant).n_units
            key = [spec.seed, _TAG_PROCESS + vi, i]
            tasks.append((variant, Environment(), spec.params, key, devices[:n_units], per_dev))

    # Summed in device order, so the floats do not depend on jobs.  Every
    # variant's first unit is the device set's first cell, so one (p1, p2)
    # per device set.
    ones = [0] * len(SWEEP_VARIANTS)
    p1_sum = 0.0
    p2_sum = 0.0
    for k, (count, p1, p2) in enumerate(ordered_map(_cell, tasks, jobs)):
        vi = k % len(SWEEP_VARIANTS)
        ones[vi] += count
        if vi == 0:
            p1_sum += p1
            p2_sum += p2

    total = spec.n_samples * per_dev
    rows = [
        _row(
            spec,
            variant,
            float(spec.n_samples),
            ones[vi] / total,
            p1_sum / spec.n_samples,
            p2_sum / spec.n_samples,
        )
        for vi, variant in enumerate(SWEEP_VARIANTS)
    ]
    return SweepReport(spec=spec, rows=tuple(rows))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Every variant of SWEEP_VARIANTS along spec.axis: at each point of
    VOLTAGE_POINTS or TEMPERATURE_POINTS, or over the process study's
    device population."""
    if spec.axis is Axis.PROCESS:
        return _run_process_study(spec, jobs)
    return _run_env_sweep(spec, jobs)


def spec_for_axis(axis: Axis, **overrides) -> SweepSpec:
    """SweepSpec with defaults for the given axis."""
    return replace(SweepSpec(axis=axis), **overrides)
