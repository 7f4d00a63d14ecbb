"""RNG instruction semantics, bit source, cost model and option pricing."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from spintrng.system import (
    BackendKind,
    FairBitSource,
    OptionSpec,
    _box_muller_array,
    _uint_array,
    black_scholes_oracle,
    price_option_mc,
    speedup_report,
)


class ListSource:
    """A fixed list of bits, taken front to back."""

    def __init__(self, bits):
        self.bits = list(bits)

    def take(self, n_bits):
        assert n_bits <= len(self.bits)
        out, self.bits = self.bits[:n_bits], self.bits[n_bits:]
        return np.array(out, dtype=np.uint8)


class TestInstructionSemantics:
    def test_integers_read_most_significant_bit_first(self):
        source = ListSource([1] + [0] * 51 + [0] * 51 + [1] + [1] * 52)
        assert _uint_array(source, 3).tolist() == [1 << 51, 1, (1 << 52) - 1]

    def test_integers_equal_their_bits_as_binary_numerals(self):
        bits = FairBitSource(3).take(1000 * 52).reshape(1000, 52)
        expected = [int("".join(map(str, row)), 2) for row in bits]
        assert _uint_array(ListSource(bits.ravel()), 1000).tolist() == expected

    def test_uniforms_are_exact_binary_fractions(self):
        # the normal's two uniforms are (2^52 - 1) / 2^52 and 1/4 exactly;
        # near those points one ulp off moves the result by far more
        source = ListSource([1] * 52 + [0, 1] + [0] * 50)
        u0, u1 = np.float64((2**52 - 1) / 2**52), np.float64(0.25)
        expected = np.sqrt(-2.0 * np.log1p(-u0)) * np.cos(2.0 * np.pi * u1)
        assert _box_muller_array(source, 1).tolist() == [expected]


class TestBitSources:
    def test_fair_source_split_takes_equal_one_take(self):
        source = FairBitSource(11)
        # the sixth take ends on a 2^16 boundary, the last starts past it
        takes = (7, 0, 70_000, 3, 200_000, 57_670, 1)
        split = np.concatenate([source.take(n) for n in takes])
        np.testing.assert_array_equal(split, FairBitSource(11).take(sum(takes)))
        rng = np.random.default_rng(11)
        blocks = [rng.integers(0, 2, size=1 << 16, dtype=np.uint8) for _ in range(6)]
        np.testing.assert_array_equal(split, np.concatenate(blocks)[: split.size])

        # a partial block, then pricing's chunk of 2^16 paths x 104 bits in one take
        seed = np.random.SeedSequence([5, 1, 1])
        source = FairBitSource(seed)
        takes = (1000, 104 << 16, 5)
        split = np.concatenate([source.take(n) for n in takes])
        rng = np.random.default_rng(seed)
        blocks = [rng.integers(0, 2, size=1 << 16, dtype=np.uint8) for _ in range(106)]
        np.testing.assert_array_equal(split, np.concatenate(blocks)[: split.size])

    def test_fair_source_keeps_only_the_bits_it_continues(self):
        # a take of 6.8 MB leaves the 3 bits of its last word buffered,
        # and nothing else: no block, no view of the draw
        source = FairBitSource(11)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            bits = source.take((104 << 16) - 1003)
            del bits
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held - before <= 256
        np.testing.assert_array_equal(
            source.take(3), FairBitSource(11).take(104 << 16)[-1003:-1000]
        )


class TestPricing:
    def test_black_scholes_reference_value(self):
        assert black_scholes_oracle(OptionSpec()) == pytest.approx(10.450583572185565, abs=1e-9)

    def test_zero_volatility_is_discounted_intrinsic_value(self):
        spec = OptionSpec(volatility=0.0)
        assert black_scholes_oracle(spec) == pytest.approx(100.0 - 100.0 * np.exp(-0.05))

    def test_monte_carlo_price_within_four_standard_errors(self):
        spec = OptionSpec(n_paths=100_000)
        entry = price_option_mc(spec, BackendKind.TRNG_INSTRUCTION, FairBitSource(2024))
        assert entry.std_error > 0.0
        assert abs(entry.price - black_scholes_oracle(spec)) < 4.0 * entry.std_error

    def test_many_block_price_is_pinned(self):
        # 100,000 paths of 104 bits take 159 blocks of 2^16 bits over two chunks;
        # the figures were recorded with the per-block integers(0, 2) source
        entry = price_option_mc(
            OptionSpec(n_paths=100_000),
            BackendKind.TRNG_INSTRUCTION,
            FairBitSource(np.random.SeedSequence([5, 2, 0])),
        )
        assert entry.price == 10.47705835806379
        assert entry.std_error == 0.04675383671505544


class TestCostModel:
    def test_hardware_instruction_costs_one_per_draw(self):
        # 17,100 fixed plus, per path, 16 of work and two draws
        costs = {
            BackendKind.TRNG_INSTRUCTION: 1.0,
            BackendKind.SOFTWARE_STDLIB: 23.5,
            BackendKind.SOFTWARE_BOOST_LAGFIB: 77.5,
        }
        for backend, per_draw in costs.items():
            row = price_option_mc(OptionSpec(n_paths=10), backend, FairBitSource(0))
            assert row.instruction_count == 17100.0 + 10 * (16.0 + 2.0 * per_draw)
            assert row.ratio_vs_trng == row.instruction_count / 17280.0

    def test_runtime_is_instructions_over_clock(self):
        row = price_option_mc(
            OptionSpec(n_paths=10), BackendKind.TRNG_INSTRUCTION, FairBitSource(0)
        )
        assert row.simulated_runtime_s == pytest.approx(row.instruction_count / 2.0e9)

    def test_report_rows_are_the_seeded_cells_whatever_the_jobs(self):
        report = speedup_report(n_paths_grid=(100, 1000), seed=5)
        assert report.to_csv() == speedup_report(n_paths_grid=(100, 1000), seed=5, jobs=2).to_csv()
        assert [(r.n_paths, r.backend) for r in report.rows] == [
            (n, b.value) for n in (100, 1000) for b in BackendKind
        ]
        cell = price_option_mc(
            OptionSpec(n_paths=1000), BackendKind.SOFTWARE_STDLIB, FairBitSource([5, 1, 1])
        )
        assert report.rows[4] == cell

    def test_report_is_pinned(self):
        csv = speedup_report(n_paths_grid=(100, 1000), seed=5).to_csv()
        assert hashlib.sha256(csv.encode("ascii")).hexdigest() == (
            "eba12fe532898e73773b122aff102cfb25be2e33140cc82b2c800acdd2757950"
        )
