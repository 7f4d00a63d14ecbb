"""RNG instruction semantics, bit sources, cost model and option pricing."""

import numpy as np
import pytest

from spintrng.system import (
    BackendKind,
    FairBitSource,
    OptionSpec,
    PipelineConfig,
    RngBackend,
    SourceExhausted,
    StreamBitSource,
    _box_muller_array,
    _frand_array,
    black_scholes_oracle,
    box_muller,
    frand,
    price_option_mc,
    rand_u15,
    trng_backend,
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
        entry = price_option_mc(spec, trng_backend(), seed=2024)
        assert entry.std_error > 0.0
        assert abs(entry.price - black_scholes_oracle(spec)) < 4.0 * entry.std_error


class TestCostModel:
    def test_hardware_instruction_costs_one_per_draw(self):
        with pytest.raises(ValueError):
            RngBackend(kind=BackendKind.TRNG_INSTRUCTION, instructions_per_double=2.0)
        with pytest.raises(ValueError):
            RngBackend(kind=BackendKind.SOFTWARE_STDLIB, instructions_per_double=0.5)

    def test_runtime_is_instructions_over_clock(self):
        pipeline = PipelineConfig(frequency_hz=1.0e9, ipc=2.0)
        entry = price_option_mc(OptionSpec(n_paths=10), trng_backend(), seed=0, pipeline=pipeline)
        assert entry.simulated_runtime_s == pytest.approx(entry.instruction_count / 2.0e9)
        with pytest.raises(ValueError):
            PipelineConfig(frequency_hz=0.0)
