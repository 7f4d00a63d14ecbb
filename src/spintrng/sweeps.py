"""Voltage, temperature, and process-variation experiment harness.

run_sweep is the one entry point.  Each sweep point runs every variant
of SWEEP_VARIANTS through BitGenerator, with the write pulses
calibrated at reference conditions, then measures the output
statistics under the disturbed environment (the fixed grids
VOLTAGE_POINTS and TEMPERATURE_POINTS) or device sample.  Rows also
log the model flip probabilities realized at that point so a sweep can
be explained without re-simulation.

Seeding is fully keyed: every (axis, variant, point) cell seeds its
own generator, which spawns one substream per unit, and a variant's
key is its index in SWEEP_VARIANTS.  Results are therefore
byte-identical regardless of --jobs scheduling, and any single point
can be reproduced in isolation.
"""

from __future__ import annotations

import io
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
from numpy.random import SeedSequence

from spintrng.device import DeviceParams, Environment, calibrated_pulses, sample_device
from spintrng.entropy import binary_min_entropy, binary_shannon_entropy
from spintrng.generator import BitGenerator, GeneratorConfig, Variant


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


def _env_point_row(args) -> SweepRow:
    """One (variant, environment point) cell of a voltage/temperature sweep.

    The generator's own calibration (nominal device, reference
    conditions) is the sweep's, so only the run environment moves the
    realized flip probabilities.
    """
    spec, tag, variant, point_idx, value = args
    if spec.axis is Axis.VOLTAGE:
        env = Environment(v_variation_rate=value)
    else:
        env = Environment(temperature_k=value)
    key = [spec.seed, tag + SWEEP_VARIANTS.index(variant), point_idx]
    gen = BitGenerator(
        GeneratorConfig(variant=variant), env=env, params=spec.params, seed=SeedSequence(key)
    )
    bits = gen.generate(spec.bits_per_point).bits
    p_one = float(np.count_nonzero(bits)) / bits.size
    return _row(spec, variant, value, p_one, *gen.realized_flip_probs()[0])


def _run_env_sweep(spec: SweepSpec, jobs: int) -> SweepReport:
    """Entropy of each variant at every point of the axis's grid."""
    if spec.axis is Axis.VOLTAGE:
        tag, points = _TAG_VOLTAGE, VOLTAGE_POINTS
    else:
        tag, points = _TAG_TEMPERATURE, TEMPERATURE_POINTS
    tasks = [
        (spec, tag, variant, point_idx, value)
        for variant in SWEEP_VARIANTS
        for point_idx, value in enumerate(points)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_env_point_row, tasks))
    else:
        rows = [_env_point_row(t) for t in tasks]
    rows.sort(key=lambda r: (r.variant, r.value))
    return SweepReport(spec=spec, rows=tuple(rows))


def _process_device(args) -> tuple[float, float, dict]:
    """One device set of the process study: (p1, p2) of its first cell
    and the count of ones each variant produced from it."""
    spec, pulses, per_dev, i = args
    cells = [
        sample_device(spec.params, True, SeedSequence([spec.seed, _TAG_DEVICE, i, unit]))
        for unit in range(2)
    ]
    ones = {}
    for vi, variant in enumerate(SWEEP_VARIANTS):
        config = GeneratorConfig(variant=variant)
        gen = BitGenerator(
            config,
            params=spec.params,
            seed=SeedSequence([spec.seed, _TAG_PROCESS + vi, i]),
            devices=cells[: config.n_units],
            pulses=pulses,
        )
        ones[variant] = int(np.count_nonzero(gen.generate(per_dev).bits))
    p1a, p2a = gen.realized_flip_probs()[0]
    return p1a, p2a, ones


def _run_process_study(spec: SweepSpec, jobs: int) -> SweepReport:
    """Aggregate entropy per variant over a population of device sets.

    Device i's two cells are drawn from keys (seed, 100, i, unit); the
    generator for variant v is seeded with (seed, 200 + v, i), v being
    the variant's index in SWEEP_VARIANTS, and starts those cells in P,
    as sampled.  All variants therefore see the same device
    population, which makes the cross-variant entropy ordering a paired
    comparison.  The reported row value column holds n_samples.
    """
    nominal = sample_device(spec.params, process_variation=False)
    pulses = calibrated_pulses(nominal, Environment())
    per_dev = spec.bits_per_point // spec.n_samples

    tasks = [(spec, pulses, per_dev, i) for i in range(spec.n_samples)]
    if jobs > 1:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            devices = list(pool.map(_process_device, tasks))
    else:
        devices = [_process_device(t) for t in tasks]

    # Summed in device order, so the floats do not depend on jobs.
    ones = {v: 0 for v in SWEEP_VARIANTS}
    p1_sum = 0.0
    p2_sum = 0.0
    for p1a, p2a, dev_ones in devices:
        p1_sum += p1a
        p2_sum += p2a
        for variant, count in dev_ones.items():
            ones[variant] += count

    total = spec.n_samples * per_dev
    rows = [
        _row(
            spec,
            variant,
            float(spec.n_samples),
            ones[variant] / total,
            p1_sum / spec.n_samples,
            p2_sum / spec.n_samples,
        )
        for variant in SWEEP_VARIANTS
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
