"""RNG instruction semantics, bit sources, cost model and option pricing."""

import numpy as np
import pytest

from spintrng.system import (
    BackendKind,
    FairBitSource,
    OptionSpec,
    SourceExhausted,
    StreamBitSource,
    _box_muller_array,
    _frand_array,
    black_scholes_oracle,
    box_muller,
    frand,
    price_option_mc,
    rand_u15,
    speedup_report,
)


class TestInstructionSemantics:
    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_scalar_frand_stream_equals_array(self, precision):
        source = FairBitSource(3)
        scalar = [frand(source, precision) for _ in range(2000)]
        np.testing.assert_array_equal(scalar, _frand_array(FairBitSource(3), 2000, precision))

    def test_scalar_box_muller_stream_equals_array(self):
        source = FairBitSource(5)
        scalar = [box_muller(source) for _ in range(20_000)]
        np.testing.assert_array_equal(scalar, _box_muller_array(FairBitSource(5), 20_000))

    def test_rand_u15_reads_most_significant_bit_first(self):
        source = StreamBitSource([1] + [0] * 14 + [0] * 14 + [1] + [1] * 15)
        assert [rand_u15(source) for _ in range(3)] == [1 << 14, 1, (1 << 15) - 1]

    def test_frand_scales_into_range(self):
        source = StreamBitSource([1] + [0] * 22)
        assert frand(source, "single", lo=-2.0, hi=6.0) == 2.0

    @pytest.mark.parametrize(
        "kwargs", [dict(lo=1.0, hi=1.0), dict(lo=2.0, hi=1.0), dict(precision="half")]
    )
    def test_frand_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            frand(FairBitSource(0), **kwargs)


class TestBitSources:
    def test_fair_source_split_takes_equal_one_take(self):
        source = FairBitSource(11)
        split = np.concatenate([source.take(n) for n in (7, 0, 70_000, 3)])
        np.testing.assert_array_equal(split, FairBitSource(11).take(70_010))

    def test_stream_source_raises_past_its_end(self):
        source = StreamBitSource(np.ones(20, dtype=np.uint8))
        assert source.take(15).size == 15
        assert source.remaining == 5
        with pytest.raises(SourceExhausted):
            source.take(6)
        assert source.take(5).tolist() == [1] * 5
        with pytest.raises(SourceExhausted):
            rand_u15(source)


class TestPricing:
    def test_black_scholes_reference_value(self):
        assert black_scholes_oracle(OptionSpec()) == pytest.approx(10.450583572185565, abs=1e-9)

    def test_zero_volatility_is_discounted_intrinsic_value(self):
        spec = OptionSpec(volatility=0.0)
        assert black_scholes_oracle(spec) == pytest.approx(100.0 - 100.0 * np.exp(-0.05))

    def test_monte_carlo_price_within_four_standard_errors(self):
        spec = OptionSpec(n_paths=100_000)
        entry = price_option_mc(spec, BackendKind.TRNG_INSTRUCTION, seed=2024)
        assert entry.std_error > 0.0
        assert abs(entry.price - black_scholes_oracle(spec)) < 4.0 * entry.std_error


class TestCostModel:
    def test_hardware_instruction_costs_one_per_draw(self):
        # 17,100 fixed plus, per path, 16 of work and two draws
        costs = {
            BackendKind.TRNG_INSTRUCTION: 1.0,
            BackendKind.SOFTWARE_STDLIB: 23.5,
            BackendKind.SOFTWARE_BOOST_LAGFIB: 77.5,
        }
        for backend, per_draw in costs.items():
            row = price_option_mc(OptionSpec(n_paths=10), backend, seed=0)
            assert row.instruction_count == 17100.0 + 10 * (16.0 + 2.0 * per_draw)
            assert row.ratio_vs_trng == row.instruction_count / 17280.0

    def test_runtime_is_instructions_over_clock(self):
        row = price_option_mc(OptionSpec(n_paths=10), BackendKind.TRNG_INSTRUCTION, seed=0)
        assert row.simulated_runtime_s == pytest.approx(row.instruction_count / 2.0e9)

    def test_report_rows_are_the_seeded_cells_whatever_the_jobs(self):
        report = speedup_report(n_paths_grid=(100, 1000), seed=5)
        assert report.to_csv() == speedup_report(n_paths_grid=(100, 1000), seed=5, jobs=2).to_csv()
        assert [(r.n_paths, r.backend) for r in report.rows] == [
            (n, b.value) for n in (100, 1000) for b in BackendKind
        ]
        cell = price_option_mc(
            OptionSpec(n_paths=1000), BackendKind.SOFTWARE_STDLIB, seed=[5, 1, 1]
        )
        assert report.rows[4] == cell
