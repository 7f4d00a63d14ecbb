"""Voltage, temperature, and process-variation experiment harness.

run_sweep is the one entry point and the one runner for all three
axes.  A sweep is a list of points, each a row value and its device
sets of two cells: one set of nominal devices at every point of
VOLTAGE_POINTS or TEMPERATURE_POINTS, and for the process study one
point at reference conditions holding n_samples sampled sets.  Each
set is held as its cells' flip probabilities in the point's
environment, computed once in this process by device.flip_probs with
the write currents calibrated at reference conditions.  _cell runs one
variant of SWEEP_VARIANTS on one set through BitGenerator and returns
its count of ones.  A row pools its point's counts and logs the mean
flip probabilities of the sets' first cells, so a sweep can be
explained without re-simulation.

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

from spintrng.device import DeviceParams, Environment, flip_probs, sample_device
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
_TAGS = {Axis.PROCESS: 200, Axis.VOLTAGE: 300, Axis.TEMPERATURE: 400}


# Sweep grids: supply deviation fraction, and temperature in kelvin.
VOLTAGE_POINTS = (-0.1, -0.08, -0.06, -0.04, -0.02, 0.0, 0.02, 0.04, 0.06, 0.08, 0.1)
TEMPERATURE_POINTS = (280.15, 285.15, 290.15, 295.15, 300.15, 305.15, 310.15, 315.15, 320.15)
# The Environment field each grid sets.
_GRIDS = {
    Axis.VOLTAGE: ("v_variation_rate", VOLTAGE_POINTS),
    Axis.TEMPERATURE: ("temperature_k", TEMPERATURE_POINTS),
}


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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.axis is Axis.PROCESS and self.bits_per_point < self.n_samples:
            raise ValueError("bits_per_point must be >= n_samples")


@dataclass(frozen=True)
class SweepRow:
    """One (variant, axis value) cell of a sweep.

    variant is the Variant member itself; the CSV holds its value
    string.  p1_model and p2_model are the flip probabilities of the
    point's first cell, as device.flip_probs gives them (their mean
    over the sampled sets in the process study).
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
    """A sweep's rows.

    Voltage and temperature rows are ordered by variant value, then by
    axis value; process-study rows follow SWEEP_VARIANTS.
    """

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


def _points(spec: SweepSpec) -> list[tuple[float, list[list[tuple[float, float]]]]]:
    """The sweep's points: each a row value and its device sets, every
    set the (p1, p2) of its two cells, computed here once.

    A voltage or temperature point holds one set of nominal devices in
    its environment.  The process study is one point at Environment()
    holding n_samples sampled sets; cell u of set i is drawn from key
    (seed, 100, i, u), so every variant sees the same device population
    and the cross-variant entropy ordering is a paired comparison.  Its
    row value is n_samples.
    """
    params = spec.params
    if spec.axis is not Axis.PROCESS:
        setting, grid = _GRIDS[spec.axis]
        envs = [Environment(**{setting: value}) for value in grid]
        return [(value, [[flip_probs(params, env)] * 2]) for value, env in zip(grid, envs)]
    env = Environment()
    sets = []
    for i in range(spec.n_samples):
        keys = (SeedSequence([spec.seed, _TAG_DEVICE, i, u]) for u in range(2))
        sets.append([flip_probs(params, env, sample_device(params, key)) for key in keys])
    return [(float(spec.n_samples), sets)]


def _cell(task) -> int:
    """One sweep cell: the count of ones in n_bits of variant's output,
    its units at the flip probabilities probs.  The ones are counted
    chunk by chunk as the generator makes them, so a cell's memory does
    not grow with n_bits."""
    variant, probs, key, n_bits = task
    gen = BitGenerator(GeneratorConfig(variant=variant), seed=SeedSequence(key), probs=probs)
    return sum(int(np.count_nonzero(bits)) for bits in gen.chunks(n_bits))


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepReport:
    """Every variant of SWEEP_VARIANTS at every point of spec.axis.

    Each point splits bits_per_point evenly over its device sets, and
    each (variant, device set) pair is one _cell task.  A variant's
    k-th cell, counting over points and then sets, is seeded with key
    (seed, tag + v, k), v being the variant's index in SWEEP_VARIANTS.
    A row pools its point's counts, and its p1_model and p2_model are
    the mean (p1, p2) of the sets' first cells.
    """
    tag = _TAGS[spec.axis]
    points = _points(spec)
    cells = [(probs, spec.bits_per_point // len(sets)) for _, sets in points for probs in sets]
    tasks = []
    for vi, variant in enumerate(SWEEP_VARIANTS):
        n_units = GeneratorConfig(variant=variant).n_units
        tasks += [
            (variant, probs[:n_units], [spec.seed, tag + vi, k], n_bits)
            for k, (probs, n_bits) in enumerate(cells)
        ]
    counts = iter(ordered_map(_cell, tasks, jobs))

    rows = []
    for variant in SWEEP_VARIANTS:
        for value, sets in points:
            n_bits = len(sets) * (spec.bits_per_point // len(sets))
            p_one = sum(next(counts) for _ in sets) / n_bits
            rows.append(
                SweepRow(
                    variant=variant,
                    axis=spec.axis.value,
                    value=value,
                    p_one=p_one,
                    shannon=binary_shannon_entropy(p_one),
                    min_entropy=binary_min_entropy(p_one),
                    p1_model=sum(probs[0][0] for probs in sets) / len(sets),
                    p2_model=sum(probs[0][1] for probs in sets) / len(sets),
                )
            )
    if spec.axis is not Axis.PROCESS:
        rows.sort(key=lambda r: (r.variant, r.value))
    return SweepReport(rows=tuple(rows))


def spec_for_axis(axis: Axis, **overrides) -> SweepSpec:
    """SweepSpec with defaults for the given axis."""
    return replace(SweepSpec(axis=axis), **overrides)
