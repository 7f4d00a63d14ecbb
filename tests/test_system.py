"""RNG instruction semantics, bit source, cost model and option pricing."""

import hashlib
import tracemalloc
from functools import partial

import numpy as np
import pytest

from spintrng.system import (
    BackendKind,
    FairBitSource,
    OptionSpec,
    _box_muller_array,
    _uint_pairs,
    black_scholes_oracle,
    price_option_mc,
    speedup_report,
)


class ListSource:
    """A fixed list of bits, taken front to back."""

    def __init__(self, bits):
        self.bits = np.array(bits, dtype=np.uint8)

    def take(self, n_bits):
        assert n_bits <= self.bits.size
        out, self.bits = self.bits[:n_bits], self.bits[n_bits:]
        return out


def _row_by_row(bits, count):
    """count integers assembled one row at a time: each row of 52 bits
    packed alone, padded to 8 bytes, read big-endian and shifted right
    by 12."""
    rows = np.zeros((count, 8), dtype=np.uint8)
    rows[:, :7] = np.packbits(np.reshape(bits, (count, 52)), axis=1)
    return rows.view(">u8").ravel() >> 12


def _uints(source, n_pairs):
    """The 2 * n_pairs integers of one _uint_pairs call, in take order."""
    return _uint_pairs(source, n_pairs).T.ravel()


def _row_by_row_normals(bits, count):
    u = (_row_by_row(bits, 2 * count) / 2.0**52).reshape(count, 2)
    return np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])


class TestInstructionSemantics:
    def test_integers_read_most_significant_bit_first(self):
        source = ListSource([1] + [0] * 51 + [0] * 51 + [1] + [1] * 52 + [1] * 51 + [0])
        assert _uints(source, 2).tolist() == [1 << 51, 1, (1 << 52) - 1, (1 << 52) - 2]

    def test_integers_equal_their_bits_as_binary_numerals(self):
        bits = FairBitSource(3).take(1000 * 52).reshape(1000, 52)
        expected = [int("".join(map(str, row)), 2) for row in bits]
        assert _uints(ListSource(bits.ravel()), 500).tolist() == expected

    def test_uniforms_are_exact_binary_fractions(self):
        # the normal's two uniforms are (2^52 - 1) / 2^52 and 1/4 exactly;
        # near those points one ulp off moves the result by far more
        source = ListSource([1] * 52 + [0, 1] + [0] * 50)
        u0, u1 = np.float64((2**52 - 1) / 2**52), np.float64(0.25)
        expected = np.sqrt(-2.0 * np.log1p(-u0)) * np.cos(2.0 * np.pi * u1)
        assert _box_muller_array(source, 1).tolist() == [expected]


class TestRecordAssembly:
    """The 13-byte-record assembly against the row-by-row oracle, at
    counts of pairs of integers and of normals."""

    # around the edges of _box_muller_array's 2^13-pair blocks as well
    COUNTS = (0, 1, 2, 3, 13, 1000, (1 << 13) - 1, 1 << 13, (1 << 13) + 1, 3 * (1 << 13) + 5, (1 << 16) + 1)

    @pytest.mark.parametrize("count", COUNTS)
    def test_integers_equal_the_row_by_row_oracle(self, count):
        bits = FairBitSource(count).take(count * 104)
        expected = _row_by_row(bits, 2 * count)
        for source in (FairBitSource(count), ListSource(bits)):
            np.testing.assert_array_equal(_uints(source, count), expected)

    @pytest.mark.parametrize("count", COUNTS)
    def test_normals_equal_the_row_by_row_oracle_bit_for_bit(self, count):
        bits = FairBitSource(count).take(count * 104)
        expected = _row_by_row_normals(bits, count).tobytes()
        for source in (FairBitSource(count), ListSource(bits)):
            assert _box_muller_array(source, count).tobytes() == expected

    def test_normals_take_their_bits_one_block_at_a_time(self):
        takes = []

        class Recording(FairBitSource):
            def take(self, n_bits):
                takes.append(n_bits)
                return super().take(n_bits)

        _box_muller_array(Recording(1), 3 * (1 << 13) + 5)
        assert takes == [104 << 13] * 3 + [104 * 5]

    def test_calls_split_across_takes_equal_the_oracle(self):
        # three bits taken first leave the fair source mid-word, so each
        # later take joins buffered bits to fresh ones
        counts = (1, 13, 2, 1000, 3)
        bits = FairBitSource(7).take(3 + 208 * sum(counts))[3:]
        fair = FairBitSource(7)
        fair.take(3)
        for source in (fair, ListSource(bits)):
            at = 0
            for count in counts:
                ints = _uints(source, count)
                np.testing.assert_array_equal(ints, _row_by_row(bits[at : at + 104 * count], 2 * count))
                at += 104 * count
                z = _box_muller_array(source, count)
                expected = _row_by_row_normals(bits[at : at + 104 * count], count)
                assert z.tobytes() == expected.tobytes()
                at += 104 * count


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


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(OptionSpec, s0=0.0), "s0, strike, and maturity_years must be > 0"),
        (partial(OptionSpec, volatility=-0.2), "volatility must be >= 0"),
        (partial(OptionSpec, n_paths=0), "n_paths must be >= 1"),
        (partial(FairBitSource(1).take, -1), "n_bits must be >= 0"),
    ],
    ids=["s0", "volatility", "n-paths", "take"],
)
def test_bad_arguments_are_rejected(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestPricing:
    def test_black_scholes_reference_value(self):
        assert black_scholes_oracle(OptionSpec()) == pytest.approx(10.450583572185565, abs=1e-9)

    def test_zero_volatility_is_discounted_intrinsic_value(self):
        spec = OptionSpec(volatility=0.0)
        assert black_scholes_oracle(spec) == pytest.approx(100.0 - 100.0 * np.exp(-0.05))

    def test_an_overflowing_volatility_is_named(self):
        spec = OptionSpec(volatility=1e300)
        with pytest.raises(ValueError, match=r"volatility\*\*2 overflows"):
            black_scholes_oracle(spec)
        with pytest.raises(ValueError, match=r"volatility\*\*2 overflows"):
            price_option_mc(spec, BackendKind.TRNG_INSTRUCTION, FairBitSource(1))

    def test_monte_carlo_price_within_four_standard_errors(self):
        spec = OptionSpec(n_paths=100_000)
        entry = price_option_mc(spec, BackendKind.TRNG_INSTRUCTION, FairBitSource(2024))
        assert entry.std_error > 0.0
        assert abs(entry.price - black_scholes_oracle(spec)) < 4.0 * entry.std_error

    def test_one_path_has_no_standard_error(self):
        # nonzero volatility, but one payoff gives no sample variance
        entry = price_option_mc(
            OptionSpec(n_paths=1), BackendKind.TRNG_INSTRUCTION, FairBitSource(0)
        )
        assert entry.price == pytest.approx(24.0524, abs=1e-4)
        assert entry.std_error == 0.0

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

    def test_default_grid_is_pinned(self):
        # every price and stderr of the default grid, 10^6 paths included,
        # to the last bit
        rows = speedup_report(seed=2312).rows
        digest = hashlib.sha256(repr([(r.price, r.std_error) for r in rows]).encode()).hexdigest()
        assert digest == "7d315bffa5d22f4ceb5a9699008b31f8b889e6b1bfa23feab2ae4c7a8f239bbe"

    def test_report_is_pinned(self):
        csv = speedup_report(n_paths_grid=(100, 1000), seed=5).to_csv()
        assert hashlib.sha256(csv.encode("ascii")).hexdigest() == (
            "eba12fe532898e73773b122aff102cfb25be2e33140cc82b2c800acdd2757950"
        )
