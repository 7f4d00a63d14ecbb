"""Sweep harness: determinism, CSV contract, model/empirical agreement."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from spintrng import parallel
from spintrng.device import (
    PULSE_WIDTH_NS,
    DeviceParams,
    Environment,
    SwitchDirection,
    calibrated_currents,
    flip_probs,
    switching_exponent,
    switching_probability,
)
from spintrng.generator import BitGenerator, GeneratorConfig, Variant
from spintrng.sweeps import (
    SWEEP_VARIANTS,
    TEMPERATURE_POINTS,
    VOLTAGE_POINTS,
    Axis,
    SweepSpec,
    _cell,
    run_sweep,
    spec_for_axis,
)

FAST = dict(bits_per_point=20_000, n_samples=40)


def fast_spec(axis, **overrides):
    merged = {**FAST, **overrides}
    return spec_for_axis(axis, **merged)


def generated_grid(lo, step, count):
    """The grid as the sweeps once computed it from a range and a step."""
    return tuple(round(lo + k * step, 9) for k in range(count))


class TestGrids:
    def test_voltage_points(self):
        assert VOLTAGE_POINTS == generated_grid(-0.10, 0.02, 11)
        assert 0.0 in VOLTAGE_POINTS
        rows = run_sweep(fast_spec(Axis.VOLTAGE, seed=0)).rows
        assert tuple(r.value for r in rows[: len(VOLTAGE_POINTS)]) == VOLTAGE_POINTS

    def test_temperature_points(self):
        assert TEMPERATURE_POINTS == generated_grid(280.15, 5.0, 9)
        rows = run_sweep(fast_spec(Axis.TEMPERATURE, seed=0)).rows
        assert tuple(r.value for r in rows[: len(TEMPERATURE_POINTS)]) == TEMPERATURE_POINTS

    def test_process_uses_sample_count(self):
        report = run_sweep(fast_spec(Axis.PROCESS, seed=0))
        assert all(row.value == 40 for row in report.rows)


class TestDeterminism:
    def test_identical_seeds_identical_csv(self):
        a = run_sweep(fast_spec(Axis.VOLTAGE, seed=5)).to_csv()
        b = run_sweep(fast_spec(Axis.VOLTAGE, seed=5)).to_csv()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_sweep(fast_spec(Axis.VOLTAGE, seed=5)).to_csv()
        b = run_sweep(fast_spec(Axis.VOLTAGE, seed=6)).to_csv()
        assert a != b

    def test_parallel_jobs_change_nothing(self):
        spec = fast_spec(Axis.TEMPERATURE, seed=3)
        serial = run_sweep(spec, jobs=1).to_csv()
        parallel = run_sweep(spec, jobs=4).to_csv()
        assert serial == parallel

    def test_process_study_deterministic(self):
        spec = fast_spec(Axis.PROCESS, seed=9)
        a = run_sweep(spec).to_csv()
        b = run_sweep(spec, jobs=3).to_csv()
        assert a == b

    def test_process_study_parallel_report_equals_serial(self, monkeypatch):
        # jobs > 1 spreads the devices over a pool; their results are
        # added up in index order, so the report is the same
        import concurrent.futures

        pools = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        # the pool never has more workers than usable cores
        monkeypatch.setattr(parallel, "_usable_cores", lambda: 2)
        spec = fast_spec(Axis.PROCESS, seed=4, n_samples=12, bits_per_point=12_000)
        serial = run_sweep(spec, jobs=1)
        assert pools == []
        assert run_sweep(spec, jobs=2) == serial
        assert pools == [2]


# sha256 of the CSV at 10^5 bits per point, 20 device samples, seed 5,
# recorded before the env sweep and the process study shared one cell
# function and one pool.
_PINNED_CSV = {
    (Axis.VOLTAGE, False): "f9ef7fc8e412fa072d8be8c656f781e9ce9bb335e43a60ba71444b4a7a6c7ffc",
    (Axis.TEMPERATURE, False): "e55b0ad6bacee367e195f6ae7ff326ae7b35518bfab4fe39ce85b784f5b6bf91",
    (Axis.PROCESS, False): "fed989b015c810c05a6e130dca20de7a94def9d0e87d0e3919bd3ba3b59f1b03",
    (Axis.PROCESS, True): "a51b068202fb6514552509c33ef30dedf951694630899648e442141dfbda095f",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("axis, custom", sorted(_PINNED_CSV, key=str))
def test_csv_is_pinned(axis, custom, jobs):
    # custom is the device section {"tmr": 1.5, "sigma_tmr": 0.1}
    params = DeviceParams(tmr=1.5, sigma_tmr=0.1) if custom else DeviceParams()
    spec = spec_for_axis(axis, bits_per_point=100_000, n_samples=20, seed=5, params=params)
    csv = run_sweep(spec, jobs=jobs).to_csv()
    assert hashlib.sha256(csv.encode("ascii")).hexdigest() == _PINNED_CSV[axis, custom]


class TestCsvContract:
    def test_header_and_shape(self):
        report = run_sweep(fast_spec(Axis.VOLTAGE, seed=1))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == (
            "variant,axis,value,p_one,shannon,min_entropy,p1_model,p2_model"
        )
        assert len(lines) == 1 + 11 * len(SWEEP_VARIANTS)
        first = lines[1].split(",")
        assert first[0] in {v.value for v in SWEEP_VARIANTS}
        assert first[1] == "voltage"
        float(first[2])
        for cell in first[3:]:
            float(cell)

    def test_rows_sorted_by_variant_then_value(self):
        report = run_sweep(fast_spec(Axis.VOLTAGE, seed=1))
        keys = [(row.variant, row.value) for row in report.rows]
        assert keys == sorted(keys)


class TestModelAgreement:
    def test_empirical_tracks_model_probabilities(self):
        # per-point chain statistics against the device-model
        # predictions, with correlation-corrected tolerances
        spec = spec_for_axis(Axis.VOLTAGE, bits_per_point=50_000, seed=2)
        report = run_sweep(spec)
        for row in report.rows:
            p1, p2 = row.p1_model, row.p2_model
            if row.variant.value == "conv-p2ap":
                expected, lam = p1, 0.0
            elif row.variant.value == "conv-ap2p":
                expected, lam = 1.0 - p2, 0.0
            elif row.variant.value == "rhs-single":
                expected, lam = p1 / (p1 + p2), 1.0 - p1 - p2
            else:
                m = p1 / (p1 + p2)
                expected, lam = 2.0 * m * (1.0 - m), (1.0 - p1 - p2) ** 2
            sigma = np.sqrt(
                expected * (1 - expected) / spec.bits_per_point
                * (1 + lam) / (1 - lam)
            )
            assert row.p_one == pytest.approx(expected, abs=5 * sigma + 1e-9), (
                row.variant,
                row.value,
            )

    def test_conventional_degrades_away_from_nominal(self):
        report = run_sweep(fast_spec(Axis.VOLTAGE, seed=0))
        rows = [r for r in report.rows if r.variant.value == "conv-p2ap"]
        rows.sort(key=lambda r: r.value)
        p1_values = [r.p1_model for r in rows]
        # effective write current rises with the rail, so the flip
        # probability is monotone in the deviation
        assert p1_values == sorted(p1_values)
        biases = {r.value: abs(r.p1_model - 0.5) for r in rows}
        assert biases[0.0] == min(biases.values())
        assert biases[0.0] < 1e-6

    def test_temperature_keeps_polarities_balanced(self):
        # both polarities share the calibrated operating exponent, so
        # thermal rescaling moves them in lockstep: each polarity's
        # exponent ln(tau/tau0) is its 300 K value times 300/T.  The
        # calibration itself is exact only to 1e-6 per polarity, at 300 K.
        spec = fast_spec(Axis.TEMPERATURE, seed=0)
        report = run_sweep(spec)
        params = spec.params
        currents = calibrated_currents(params)
        tau0 = params.tau0_ns
        for direction in SwitchDirection:
            assert switching_probability(
                params, direction, currents[direction], Environment()
            ) == pytest.approx(0.5, abs=1e-6)

        def exponent(p):
            return math.log(PULSE_WIDTH_NS / tau0) - math.log(-math.log1p(-p))

        for row in report.rows:
            for p, direction in (
                (row.p1_model, SwitchDirection.P_TO_AP),
                (row.p2_model, SwitchDirection.AP_TO_P),
            ):
                x_300 = switching_exponent(params, direction, currents[direction], Environment())
                assert exponent(p) == pytest.approx(
                    300.0 / row.value * x_300, rel=1e-9
                ), (row.variant, row.value, direction)

    def test_trng_entropy_dominates_at_every_point(self):
        report = run_sweep(fast_spec(Axis.VOLTAGE, bits_per_point=50_000, seed=4))
        by_point: dict = {}
        for row in report.rows:
            by_point.setdefault(row.value, {})[row.variant.value] = row.shannon
        for value, entry in by_point.items():
            assert entry["rhs-trng"] >= entry["conv-p2ap"] - 1e-4
            assert entry["rhs-trng"] >= entry["conv-ap2p"] - 1e-4


class TestProcessStudy:
    def test_variant_population_is_shared(self):
        report = run_sweep(fast_spec(Axis.PROCESS, seed=7))
        p1_models = {row.p1_model for row in report.rows}
        p2_models = {row.p2_model for row in report.rows}
        assert len(p1_models) == 1  # same device draw for every variant
        assert len(p2_models) == 1

    def test_all_variants_reported(self):
        report = run_sweep(fast_spec(Axis.PROCESS, seed=7))
        assert {row.variant for row in report.rows} == set(SWEEP_VARIANTS)

    def test_xor_recovers_most_entropy(self):
        report = run_sweep(
        spec_for_axis(Axis.PROCESS, bits_per_point=200_000, n_samples=40, seed=7)
        )
        by = {row.variant.value: row for row in report.rows}
        assert by["rhs-trng"].min_entropy > by["rhs-single"].min_entropy
        assert by["rhs-trng"].min_entropy > 0.99


@pytest.mark.parametrize("axis", list(Axis))
def test_calibration_runs_once_per_params(axis):
    # every cell's generator shares the cached currents of its params
    calibrated_currents.cache_clear()
    run_sweep(fast_spec(axis, n_samples=20, seed=1))
    assert calibrated_currents.cache_info().misses == 1
    run_sweep(fast_spec(axis, n_samples=20, seed=1, params=DeviceParams(tmr=1.5)))
    assert calibrated_currents.cache_info().misses == 2



def test_cell_counts_in_flat_memory():
    # Held at once, 4*10^6 rhs-trng bits traced 49.6 MB; chunk by chunk
    # a cell holds one chunk's uniforms, states and bits.
    probs = [flip_probs(DeviceParams(), Environment())] * 2
    task = (Variant.RHS_TRNG, probs, [7, 1], 4_000_000)
    tracemalloc.start()
    try:
        ones = _cell(task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
    gen = BitGenerator(GeneratorConfig(variant=Variant.RHS_TRNG), seed=np.random.SeedSequence([7, 1]))
    assert ones == int(np.count_nonzero(gen.generate(4_000_000).bits))
    assert gen.realized_flip_probs() == probs

class TestValidation:
    def test_minimum_bits_enforced(self):
        with pytest.raises(ValueError):
            SweepSpec(axis=Axis.VOLTAGE, bits_per_point=5000)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            spec_for_axis(Axis.VOLTAGE, seed=-1, bits_per_point=10_000)

    def test_process_study_needs_a_bit_per_device(self):
        with pytest.raises(ValueError, match="bits_per_point must be >= n_samples"):
            SweepSpec(axis=Axis.PROCESS, n_samples=20_000, bits_per_point=10_000)
        # the environment sweeps do not split their bits over n_samples
        SweepSpec(axis=Axis.VOLTAGE, n_samples=20_000, bits_per_point=10_000)
        SweepSpec(axis=Axis.PROCESS, n_samples=10_000, bits_per_point=10_000)

    def test_spec_for_axis_passes_overrides(self):
        spec = spec_for_axis(Axis.PROCESS, n_samples=123, seed=9)
        assert spec.axis is Axis.PROCESS
        assert spec.n_samples == 123
        assert spec.seed == 9

    def test_custom_device_params_accepted(self):
        params = DeviceParams(delta_300=2.0)
        spec = fast_spec(Axis.VOLTAGE, params=params, seed=0)
        report = run_sweep(spec)
        assert len(report.rows) == 11 * 4
