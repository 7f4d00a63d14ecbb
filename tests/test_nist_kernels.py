"""The battery's whole-array kernels against scalar references, and the
pooled sub-p-values of every module pinned for one seeded stream."""

import itertools
import json
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erfc, gammaincc
from scipy.stats import chisquare

from conftest import linear_complexity_of
from spintrng.nist import _MODULES, MODULE_NAMES, run_nist_suite
from spintrng.nist import modules as M

POOLED_REFERENCE = Path(__file__).parent / "data" / "nist_pooled_pcg64.json"


def reference_berlekamp_massey(bits) -> int:
    """Textbook Berlekamp-Massey over GF(2), one bit at a time."""
    c = 1  # connection polynomial, bit j = coefficient of x^j
    b = 1
    length = 0
    last_fail = -1
    history = 0  # bit j = bits[i - j] once shifted
    for i, s in enumerate(bits):
        history = (history << 1) | int(s)
        if (c & history).bit_count() & 1:
            t = c
            c ^= b << (i - last_fail)
            if 2 * length <= i:
                length = i + 1 - length
                last_fail = i
                b = t
    return length


def reference_greedy_count(block: np.ndarray, template: int, m: int) -> int:
    """Hits of a template when the scan jumps m bits past every hit."""
    count = 0
    next_free = -1
    for pos in np.flatnonzero(reference_window_codes(block, m) == template):
        if pos >= next_free:
            count += 1
            next_free = pos + m
    return count


def reference_window_codes(arr: np.ndarray, m: int) -> np.ndarray:
    win = np.lib.stride_tricks.sliding_window_view(arr, m)
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    return win.astype(np.int64) @ weights


def biased_blocks(rng, n_blocks: int, n: int, p_one: float) -> np.ndarray:
    return (rng.random((n_blocks, n)) < p_one).astype(np.uint8)


def reference_spectral(bits) -> list[float]:
    """The spectral test with the moduli of the full complex fft."""
    n = bits.size
    x = bits.astype(np.float64) * 2.0 - 1.0
    mods = np.abs(np.fft.fft(x)[: n // 2])
    n1 = int(np.count_nonzero(mods < math.sqrt(n * math.log(1.0 / 0.05))))
    d = (n1 - 0.95 * n / 2.0) / math.sqrt(n * 0.95 * 0.05 / 4.0)
    return [float(erfc(abs(d) / math.sqrt(2.0)))]


def reference_cusum_excursions(bits) -> list[int]:
    """Largest |partial sum| of the +-1 sequence, forward and reversed."""
    x = bits.astype(np.int64) * 2 - 1
    return [int(np.abs(np.cumsum(series)).max()) for series in (x, x[::-1])]


def reference_longest_one_run(row: np.ndarray) -> int:
    if not row.any():
        return 0
    padded = np.concatenate(([0], row, [0]))
    edges = np.flatnonzero(np.diff(padded))
    return int((edges[1::2] - edges[::2]).max())


def random_groups(seed: int, lengths) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 2, size=n, dtype=np.uint8) for n in lengths]


class TestLockstepBerlekampMassey:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 500])
    @pytest.mark.parametrize("p_one", [0.05, 0.5, 0.95])
    def test_lengths_match_scalar_reference(self, n, p_one):
        # Blocks are packed 64 to a word: block counts that fill one
        # word partly, nearly or exactly, spill into a second, or span
        # many; the last block is constant, in the last word's top bits.
        rng = np.random.default_rng(1000 * n + int(100 * p_one))
        for n_blocks in (1, 24, 63, 64, 65, 2001):
            blocks = biased_blocks(rng, n_blocks, n, p_one)
            blocks[-1] = blocks[-1, 0]
            got = M._linear_complexities(blocks)
            assert got.tolist() == [reference_berlekamp_massey(b) for b in blocks], n_blocks

    @pytest.mark.parametrize("n", [1, 64, 500])
    def test_constant_blocks(self, n):
        blocks = np.zeros((3, n), dtype=np.uint8)
        blocks[1] = 1
        blocks[2, -1] = 1  # n - 1 zeros then a one: complexity n
        got = M._linear_complexities(blocks)
        assert got.tolist() == [0, 1, n]
        assert got.tolist() == [reference_berlekamp_massey(b) for b in blocks]

    def test_first_one_at_a_word_boundary(self):
        # a first 1 at bit i leaves shifted = x^(i+1), which crosses into
        # the next word when i = 63 or 127
        rng = np.random.default_rng(9)
        blocks = rng.integers(0, 2, size=(6, 200), dtype=np.uint8)
        for row, first in zip(blocks, (62, 63, 64, 126, 127, 128)):
            row[:first] = 0
            row[first] = 1
        got = M._linear_complexities(blocks)
        assert got.tolist() == [reference_berlekamp_massey(b) for b in blocks]

    def test_single_block_wrapper(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=200, dtype=np.uint8)
        assert linear_complexity_of(bits) == reference_berlekamp_massey(bits)


class TestTemplateCounts:
    def test_greedy_count_equals_window_matches(self):
        # Borderless templates cannot overlap themselves, so the greedy
        # non-overlapping scan counts every matching window; the module's
        # bincount of window codes relies on this.
        m = 9
        rng = np.random.default_rng(21)
        blocks = [biased_blocks(rng, 1, 4000, p)[0] for p in (0.2, 0.5, 0.8)]
        for block in blocks:
            codes = reference_window_codes(block, m)
            for tpl in M.template_codes(m):
                assert reference_greedy_count(block, tpl, m) == np.count_nonzero(codes == tpl)

    def test_periodic_template_would_differ(self):
        # the equality needs borderless templates: 1 1 1 overlaps itself
        block = np.ones(10, dtype=np.uint8)
        assert reference_greedy_count(block, 0b111, 3) == 3
        assert np.count_nonzero(reference_window_codes(block, 3) == 0b111) == 8


class TestWindowCodes:
    @pytest.mark.parametrize("m", [1, 2, 8, 9, 13, 16, 17, 32])
    def test_match_matmul_reference(self, m):
        rng = np.random.default_rng(m)
        arr = rng.integers(0, 2, size=300, dtype=np.uint8)
        assert np.array_equal(M._window_codes(arr, m), reference_window_codes(arr, m))

    def test_rows_are_coded_independently(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 2, size=(4, 50), dtype=np.uint8)
        got = M._window_codes(rows, 9)
        for row, codes in zip(rows, got):
            assert np.array_equal(codes, reference_window_codes(row, 9))

    @pytest.mark.parametrize("m", [33, 56, 57, 58, 62])
    def test_widest_windows_match_reference(self, m):
        # codes of 33 bits and more are uint64, built in six passes
        rng = np.random.default_rng(m)
        rows = rng.integers(0, 2, size=(3, 301), dtype=np.uint8)
        for row, codes in zip(rows, M._window_codes(rows, m)):
            assert np.array_equal(codes, reference_window_codes(row, m))

    @pytest.mark.parametrize("m", [0])
    def test_windows_wider_than_a_word_allows_are_rejected(self, m):
        with pytest.raises(ValueError, match="window length must be 1..64"):
            M._window_codes(np.zeros(100, dtype=np.uint8), m)

    @pytest.mark.parametrize("m", [2, 3, 11, 13])
    def test_dropping_last_bit_gives_shorter_wrapped_counts(self, m):
        rng = np.random.default_rng(m)
        arr = rng.integers(0, 2, size=5000, dtype=np.uint8)
        shorter = M._drop_last_bit(M._wrapped_counts(arr, m))
        assert np.array_equal(shorter, M._wrapped_counts(arr, m - 1))
        assert shorter.sum() == arr.size


class TestLockstepRank:
    def test_ranks_match_single_matrix_elimination(self):
        rng = np.random.default_rng(31)
        # dense, sparse and repeated-row matrices give a spread of ranks
        mats = [rng.integers(0, 2, size=(32, 32)) for _ in range(20)]
        mats += [(rng.random((32, 32)) < 0.03).astype(np.int64) for _ in range(20)]
        mats.append(np.tile(rng.integers(0, 2, size=32), (32, 1)))
        rows = [[int("".join(map(str, r)), 2) for r in mat] for mat in mats]
        got = M._gf2_ranks(rows, 32)
        assert got.tolist() == [M._gf2_ranks([r], 32)[0] for r in rows]
        assert len(set(got.tolist())) > 3


class TestSpectral:
    # every 0/1 sequence of length 2, 3 and 4, then random odd and even n
    SMALL = [
        np.array(b, dtype=np.uint8) for n in (2, 3, 4) for b in itertools.product((0, 1), repeat=n)
    ]
    # The radix is the largest power of two dividing n, capped at 32:
    # lengths 32k (k odd and even), 16 * odd, 8 * odd, 4 * odd, 2 * odd
    # and odd pick every radix from 32 down to 1.
    GROUPS = (
        SMALL
        + random_groups(41, [5, 1001, 1024, 4095, 10_000, 65_537, 100_000, 1_000_000])
        + random_groups(42, [4, 8, 12, 10_004, 1_000_004])
        + random_groups(46, [6, 24, 48, 1000, 1002, 10_002, 100_008, 1_000_008])
        + random_groups(48, [16, 32, 96, 10_016, 10_048, 100_032, 1_000_032])
    )

    @staticmethod
    def spectral_with_recounts(monkeypatch, groups) -> tuple[list, int]:
        """spectral on every group, and how many groups it recounted.

        A recount is an np.fft.fft call on the whole group; the classes
        of the decimation in frequency are shorter."""
        lengths = []
        fft = np.fft.fft

        def counted(a, *args, **kwargs):
            lengths.append(len(a))
            return fft(a, *args, **kwargs)

        results, recounts = [], 0
        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "fft", counted)
            for bits in groups:
                lengths.clear()
                results.append(M.spectral(bits))
                recounts += lengths.count(bits.size)
        return results, recounts

    def test_rfft_moduli_match_fft_far_inside_the_guard(self):
        for bits in self.GROUPS:
            n = bits.size
            x = bits.astype(np.float64) * 2.0 - 1.0
            full = np.abs(np.fft.fft(x)[: n // 2])
            half = np.abs(np.fft.rfft(x)[: n // 2])
            # the moduli spectral counts, in bin order; a missing bin stays nan
            counted = np.full(n // 2, np.nan)
            chunks = list(M._spectral_moduli(bits))
            for bins, mods in chunks:
                counted[bins] = mods
            assert sum(mods.size for _, mods in chunks) == n // 2, n
            for mods in (half, counted):
                assert np.max(np.abs(full - mods), initial=0.0) < M.SPECTRAL_GUARD * 1e-3, n

    def test_rfft_path_equals_fft_path(self, monkeypatch):
        want = [reference_spectral(bits) for bits in self.GROUPS]
        assert self.spectral_with_recounts(monkeypatch, self.GROUPS) == (want, 0)

    def test_forced_fallback_equals_fft_path(self, monkeypatch):
        # a band wider than any modulus puts every group in the fallback
        want = [reference_spectral(bits) for bits in self.GROUPS]
        monkeypatch.setattr(M, "SPECTRAL_GUARD", 1e9)
        assert self.spectral_with_recounts(monkeypatch, self.GROUPS) == (want, len(self.GROUPS))

    @pytest.mark.parametrize("n", [1000, 100_008, 1_000_000])
    def test_a_modulus_in_the_band_sends_the_group_to_fft(self, monkeypatch, n):
        # the band reaches the modulus nearest the threshold at twice
        # its distance, and misses it at half
        (bits,) = random_groups(47, [n])
        mods = np.abs(np.fft.fft(bits * 2.0 - 1.0)[: n // 2])
        gap = float(np.min(np.abs(mods - math.sqrt(n * math.log(1.0 / 0.05)))))
        want = [reference_spectral(bits)]
        for guard, recounts in ((gap / 2, 0), (gap * 2, 1)):
            monkeypatch.setattr(M, "SPECTRAL_GUARD", guard)
            assert self.spectral_with_recounts(monkeypatch, [bits]) == (want, recounts), guard


class TestCumulativeSums:
    GROUPS = (
        # constant groups of 200,000 bits cross three slice boundaries,
        # with partial sums outside the int16 range
        [np.full(n, b, dtype=np.uint8) for n in (1, 1000, 200_000) for b in (0, 1)]
        + random_groups(43, [2, 3, 100, 999, 10_000, 1_000_000])
        # short groups, and a last slice of 2 to 7 bits
        + random_groups(49, [8, 9, 65_538, 65_539, 65_540, 65_541, 65_542, 65_543])
        + [biased_blocks(np.random.default_rng(44), 1, 5000, p)[0] for p in (0.1, 0.9)]
    )

    def test_one_scan_equals_two_cumsums(self):
        for bits in self.GROUPS:
            want = [M._cusum_p_value(z, bits.size) for z in reference_cusum_excursions(bits)]
            assert M.cumulative_sums(bits) == want, bits.size

    def test_reversal_swaps_forward_and_backward(self):
        for bits in self.GROUPS:
            assert M.cumulative_sums(bits[::-1]) == M.cumulative_sums(bits)[::-1], bits.size


class TestLongestRuns:
    @pytest.mark.parametrize("m", [8, 128, 10**4])
    @pytest.mark.parametrize("p_one", [0.02, 0.5, 0.98])
    def test_rows_match_per_row_oracle(self, m, p_one):
        rng = np.random.default_rng(m + int(100 * p_one))
        blocks = biased_blocks(rng, 2000 if m < 10**4 else 60, m, p_one)
        blocks[0] = 0  # empty row
        blocks[1] = 1  # full row
        blocks[2] = 0
        blocks[2, 0] = blocks[2, -1] = 1  # runs of one at both edges
        blocks[3, -3:] = 1  # a run to the end of one row...
        blocks[4, :2] = 1  # ...and one from the start of the next
        blocks[5] = 1
        blocks[5, 1] = 0  # the longest run ends at the row's end
        got = M._longest_one_runs(blocks)
        assert got.tolist() == [reference_longest_one_run(row) for row in blocks]

    def test_no_ones_anywhere(self):
        assert M._longest_one_runs(np.zeros((5, 8), np.uint8)).tolist() == [0] * 5

    @pytest.mark.parametrize("n", [128, 6271, 6272, 10_000, 750_000])
    def test_module_equals_per_block_loop(self, n):
        (bits,) = random_groups(n, [n])
        m, classes, pi = next((t[1:] for t in reversed(M._LONGEST_RUN_TABLES) if n >= t[0]))
        longest = [reference_longest_one_run(row) for row in bits[: n // m * m].reshape(-1, m)]
        clamped = np.clip(longest, classes[0], classes[-1]) - classes[0]
        counts = np.bincount(clamped, minlength=len(classes))
        expected = len(longest) * np.asarray(pi)
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert M.longest_run(bits) == [float(gammaincc(len(classes) / 2.0 - 0.5, chi2 / 2.0))]


def traced_peak(module, bits) -> int:
    """Bytes a module allocates at its peak on bits, once caches are filled."""
    module(bits)
    tracemalloc.start()
    try:
        module(bits)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Named for the bound it first held; it now holds every module under 2 MiB.
@pytest.mark.parametrize("module", [fn for _, fn, _ in _MODULES], ids=MODULE_NAMES)
def test_one_group_allocates_under_4_mib(module):
    # A module's temporaries on a 10^6-bit group, beyond the group
    # itself: slices and one class at a time keep each below 2 bytes
    # per bit, against the 8 of one float64 per bit.
    (bits,) = random_groups(45, [1_000_000])
    peak = traced_peak(module, bits)
    assert peak < 2 * 2**20, peak


SLICED = (
    "cumulative_sums",
    "runs",
    "longest_run",
    "non_overlapping_template",
    "overlapping_template",
    "approximate_entropy",
    "serial",
)


@pytest.fixture(scope="module")
def ten_million_bits():
    (bits,) = random_groups(50, [10_000_000])
    return bits


@pytest.mark.parametrize("name", SLICED)
def test_sliced_modules_allocate_under_1_mib_on_a_long_group(name, ten_million_bits):
    # These modules hold nothing that grows with the group: a 10^7-bit
    # group costs them no more than one slice's temporaries.
    module = {n: fn for n, fn, _ in _MODULES}[name]
    peak = traced_peak(module, ten_million_bits)
    assert peak < 2**20, peak


def class_tables():
    """Every class-probability table the battery fits counts to."""
    p_full = M._rank_probability(32, 32, 32)
    p_minus1 = M._rank_probability(31, 32, 32)
    tables = {f"longest_run_{t[1]}": t[3] for t in M._LONGEST_RUN_TABLES}
    tables["overlapping_template"] = M._OVERLAP_PI
    tables["linear_complexity"] = M._LC_PI
    tables["rank"] = (p_full, p_minus1, 1.0 - p_full - p_minus1)
    return tables


def _de_bruijn(order: int) -> np.ndarray:
    """The binary de Bruijn sequence B(2, order), by the
    Fredricksen-Kessler-Maiorana algorithm (Lyndon words in order)."""
    word, seq = [0] * (order + 1), []
    t = 1
    while True:
        if order % t == 0:
            seq.extend(word[1 : t + 1])
        for j in range(t + 1, order + 1):
            word[j] = word[j - t]
        t = order
        while t > 0 and word[t] == 1:
            t -= 1
        if t == 0:
            return np.array(seq, dtype=np.uint8)
        word[t] = 1


class TestSharedStatistics:
    @pytest.mark.parametrize("name", sorted(class_tables()))
    def test_fit_equals_scipy_chisquare(self, name):
        pi = np.asarray(class_tables()[name])
        rng = np.random.default_rng(len(name))
        for n in (50, 1000, 100_000):
            counts = rng.multinomial(n, pi / pi.sum())
            # The overlapping-template table sums to 0.999999, so its
            # expected counts fall short of n: skip scipy's sum check.
            want = chisquare(counts, n * pi, sum_check=False).pvalue
            assert abs(M.chi2_fit(counts, n * pi) - want) <= 1e-12, n

    @pytest.mark.parametrize("n", [10, 148, 1480])
    def test_composite_fit_of_ten_uniform_bins(self, n):
        # composite_p_value passes one expected count for every bin
        counts = np.random.default_rng(n).multinomial(n, [0.1] * 10)
        want = chisquare(counts, np.full(10, n / 10.0)).pvalue
        assert abs(M.chi2_fit(counts, n / 10.0) - want) <= 1e-12

    @pytest.mark.parametrize("tiles", [1, 64])
    @pytest.mark.parametrize("order", [11, 13, 14])
    def test_balanced_patterns_give_approximate_entropy_one(self, order, tiles):
        # Every 11-bit pattern of a de Bruijn sequence of order >= 11
        # occurs equally often (with wraparound), so ApEn is ln 2 and
        # rounding takes the statistic just below 0.
        bits = np.tile(_de_bruijn(order), tiles)
        assert M.approximate_entropy(bits) == [1.0]

    def test_two_dof_tail_is_exponential(self):
        x = np.linspace(0.0, 60.0, 241)
        assert np.max(np.abs(M.chi2_tail(x, 2) - np.exp(-x / 2.0))) <= 1e-15

    @pytest.mark.parametrize(
        "module, block_len",
        [
            (M.block_frequency, 128),
            (M.rank, 1024),
            (M.overlapping_template, 1032),
            (M.linear_complexity, 500),
        ],
    )
    def test_one_bit_short_of_a_block(self, module, block_len):
        with pytest.raises(ValueError) as exc:
            module(np.ones(block_len - 1, dtype=np.uint8))
        assert str(exc.value) == f"need at least {block_len} bits, got {block_len - 1}"

    @pytest.mark.parametrize(
        "call, message",
        [
            (partial(M._as_bits, []), "empty bit sequence"),
            (partial(M._as_bits, [0, 2]), "bit values must be 0 or 1"),
            (partial(M.runs, [1]), "need at least 2 bits"),
            (partial(M.spectral, [1]), "need at least 2 bits"),
            (partial(M.template_codes, 1), "template length must be >= 2, got 1"),
            (
                partial(M.non_overlapping_templates, np.ones(72, dtype=np.uint8)),
                "blocks of 9 bits are too short for m=9",
            ),
            (partial(M.approximate_entropy, np.ones(10, dtype=np.uint8)), "need more than 10 bits, got 10"),
            (partial(M.serial, np.ones(12, dtype=np.uint8)), "need at least 13 bits, got 12"),
            (partial(M.serial, np.ones(100, dtype=np.uint8), m=1), "m must be >= 2, got 1"),
        ],
        ids=[
            "empty",
            "not-a-bit",
            "runs-one-bit",
            "spectral-one-bit",
            "template-length",
            "template-blocks",
            "apen-short",
            "serial-short",
            "serial-m",
        ],
    )
    def test_an_infeasible_input_is_rejected(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "bits",
        [
            np.array([256, 1, 1, 0]),
            np.array([0.5, 1.0, 1.0, 0.0]),
            np.array([0, 1, -1, 1]),
            [0, 1, 2],
            np.array([0, 1, 2] * 50, dtype=np.uint8),
        ],
        ids=["wraps-to-zero", "fraction", "negative", "list", "uint8"],
    )
    def test_a_value_that_is_not_a_bit_is_rejected_before_the_cast(self, bits):
        for call in (M.frequency, M._as_bits, partial(run_nist_suite, n_groups=1)):
            with pytest.raises(ValueError, match="bit values must be 0 or 1"):
                call(bits)

    def test_bits_of_other_dtypes_equal_uint8_bits(self):
        (bits,) = random_groups(51, [1000])
        for dtype in (bool, np.int64, np.float64, object):
            np.testing.assert_array_equal(M._as_bits(bits.astype(dtype)), bits)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_runs_of_a_constant_sequence_fail_outright(self, n):
        # below 16 bits the monobit screen cannot fire, but pi (1 - pi)
        # is 0: a constant sequence fails as it does from 16 bits on
        for b in (0, 1):
            assert M.runs(np.full(n, b, dtype=np.uint8)) == [0.0]

    def test_blocks_drop_the_partial_tail(self):
        arr = np.arange(11, dtype=np.uint8)
        np.testing.assert_array_equal(M._blocks(arr, 4), arr[:8].reshape(2, 4))


class TestPinnedSubPValues:
    def test_every_module_matches_recorded_values(self):
        # Recorded with the per-block scalar implementations these
        # kernels replaced; any change to a module's integers moves them.
        ref = json.loads(POOLED_REFERENCE.read_text(encoding="utf-8"))
        raw = np.random.PCG64(ref["seed"]).random_raw(ref["bits"] // 64)
        bits = np.unpackbits(raw.astype("<u8").view(np.uint8))
        assert bits.size == ref["bits"]
        results = run_nist_suite(bits, n_groups=ref["groups"])
        assert [r.module_name for r in results] == list(MODULE_NAMES)
        for r in results:
            want = ref["pooled_p_values"][r.module_name]
            assert len(r.group_p_values) == len(want), r.module_name
            assert np.max(np.abs(np.subtract(r.group_p_values, want))) <= 1e-12, r.module_name
