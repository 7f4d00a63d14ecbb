"""Battery internals against exact combinatorial oracles, plus driver
behavior: grouping, verdicts, skips, and report serialization."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaincc

from spintrng.nist import (
    MODULE_NAMES,
    all_pass,
    composite_p_value,
    format_report,
    pass_rate_threshold,
    result_rows,
    run_nist_suite,
)
from conftest import linear_complexity_of
from spintrng.bitio import BitFile, save_stream
from spintrng.generator import BitStream, StreamInfo
from spintrng.nist import modules as M


class TestBerlekampMassey:
    def test_known_small_sequences(self):
        assert linear_complexity_of([0, 0, 0, 0]) == 0
        assert linear_complexity_of([1, 0, 0, 0]) == 1
        # alternating sequence has complexity 2 (x_{i} = x_{i-2})
        assert linear_complexity_of([1, 0, 1, 0, 1, 0]) == 2

    def test_exhaustive_distribution_matches_lfsr_counting_law(self):
        # The number of n-bit sequences with linear complexity L is
        # 2^min(2n-2L, 2L-1) for 1 <= L <= n, plus the single zero
        # sequence at L = 0.  Checking every 12-bit sequence pins the
        # implementation exactly.
        n = 12
        blocks = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
        lengths, tally = np.unique(M._linear_complexities(blocks), return_counts=True)
        counts = dict(zip(lengths.tolist(), tally.tolist()))
        expected = {0: 1}
        for length in range(1, n + 1):
            expected[length] = 2 ** min(2 * n - 2 * length, 2 * length - 1)
        assert counts == expected

    def test_complexity_bounded_by_length(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            bits = rng.integers(0, 2, size=40, dtype=np.uint8)
            assert 0 <= linear_complexity_of(bits) <= 40

    def test_lfsr_reproduces_sequence(self):
        # a maximal-length LFSR stream must come back with its own order
        taps = (5, 3)  # x^5 + x^3 + 1
        state = [1, 0, 0, 1, 1]
        out = []
        for _ in range(40):
            out.append(state[-1])
            fb = state[taps[0] - 1] ^ state[taps[1] - 1]
            state = [fb] + state[:-1]
        assert linear_complexity_of(out) == 5


class TestOverlappingTemplateProbabilities:
    def test_class_table_matches_exact_dp(self):
        # Exact distribution of the (capped) count of overlapping runs
        # of nine ones in a 1032-bit fair block, by dynamic programming
        # over (trailing-ones, capped-count) states with rational
        # arithmetic.  The module's hardcoded class probabilities must
        # agree with this distribution.
        m, n, cap = 9, 1032, 5
        half = Fraction(1, 2)
        # state: (trailing ones capped at m, occurrences capped at cap)
        dist = {(0, 0): Fraction(1)}
        for _ in range(n):
            nxt: dict = {}
            for (run, cnt), prob in dist.items():
                p = prob * half
                # next bit 0
                key = (0, cnt)
                nxt[key] = nxt.get(key, Fraction(0)) + p
                # next bit 1
                new_run = min(run + 1, m)
                new_cnt = min(cnt + 1, cap) if run + 1 >= m else cnt
                key = (new_run, new_cnt)
                nxt[key] = nxt.get(key, Fraction(0)) + p
            dist = nxt
        class_probs = [Fraction(0)] * (cap + 1)
        for (_, cnt), prob in dist.items():
            class_probs[cnt] += prob
        for expected, hardcoded in zip(class_probs, M._OVERLAP_PI):
            assert abs(float(expected) - hardcoded) < 5e-7
        assert sum(class_probs) == 1

    def test_constant_ones_block_fails(self):
        # every window matches: all mass in the top class
        assert M.overlapping_template(np.ones(1032 * 10, dtype=np.uint8))[0] < 1e-10


class TestRank:
    def test_rank_probability_formula(self):
        # P(rank = r) for a random m x q GF(2) matrix, checked against
        # the standard product formula and normalization.
        total = sum(M._rank_probability(r, 32, 32) for r in range(33))
        assert total == pytest.approx(1.0, abs=1e-12)
        # full-rank probability of a square random GF(2) matrix tends
        # to prod_{i>=1} (1 - 2^-i) ~ 0.288788
        assert M._rank_probability(32, 32, 32) == pytest.approx(0.2887880951, abs=1e-9)

    def test_gf2_rank_against_independent_elimination(self):
        rng = np.random.default_rng(11)

        def reference_rank(mat: np.ndarray) -> int:
            a = mat.copy() % 2
            rank = 0
            rows, cols = a.shape
            for col in range(cols):
                pivot = None
                for row in range(rank, rows):
                    if a[row, col]:
                        pivot = row
                        break
                if pivot is None:
                    continue
                a[[rank, pivot]] = a[[pivot, rank]]
                for row in range(rows):
                    if row != rank and a[row, col]:
                        a[row] ^= a[rank]
                rank += 1
            return rank

        mats = [rng.integers(0, 2, size=(32, 32), dtype=np.uint8) for _ in range(40)]
        rows = [[int("".join(map(str, row)), 2) for row in mat] for mat in mats]
        assert M._gf2_ranks(rows, 32).tolist() == [reference_rank(mat) for mat in mats]

    def test_identity_and_degenerate_ranks(self):
        eye = [1 << i for i in range(32)]
        assert M._gf2_ranks([eye, [0] * 32], 32).tolist() == [32, 0]
        assert M._gf2_ranks([[7, 7, 7]], 3).tolist() == [1]


def reference_template_codes(m: int) -> list[int]:
    """MSB-first codes of the length-m bit tuples in which no proper
    prefix equals the suffix of the same length, ascending."""
    return [
        int("".join(map(str, bits)), 2)
        for bits in itertools.product((0, 1), repeat=m)
        if all(bits[:k] != bits[m - k :] for k in range(1, m))
    ]


class TestTemplates:
    def test_counts_by_length(self):
        expected = {2: 2, 3: 4, 4: 6, 5: 12, 6: 20, 7: 40, 8: 74, 9: 148, 10: 284}
        for m, count in expected.items():
            assert len(M.template_codes(m)) == count
        for m in range(2, 12):
            assert M.template_codes(m).tolist() == reference_template_codes(m)

    def test_templates_have_no_periodic_overlap(self):
        # an aperiodic template never matches a shifted copy of itself
        for code in M.template_codes(9):
            s = format(code, "09b")
            for shift in range(1, len(s)):
                assert s[:shift] != s[-shift:]

    def test_sorted_and_binary(self):
        codes = M.template_codes(5)
        assert codes.tolist() == sorted(codes.tolist())
        assert codes.min() >= 0 and codes.max() < 2**5
        assert not codes.flags.writeable


class TestComposite:
    def test_perfectly_uniform_histogram(self):
        # one p-value per decile: chi-square 0, tail probability 1
        p_values = [0.05 + 0.1 * k for k in range(10)]
        assert composite_p_value(p_values) == pytest.approx(1.0)

    def test_degenerate_histogram(self):
        p_values = [0.999] * 10
        chi2 = (9 * 1.0 + (10 - 1) ** 2 / 1.0)
        expected = gammaincc(4.5, chi2 / 2.0)
        assert composite_p_value(p_values) == pytest.approx(float(expected))
        assert composite_p_value(p_values) < 1e-4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            composite_p_value([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        # np.histogram would drop it silently
        with pytest.raises(ValueError, match="p-values must be finite"):
            composite_p_value([0.5] * 9 + [bad])


class TestSuiteDriver:
    def test_group_divisibility_enforced(self):
        with pytest.raises(ValueError):
            run_nist_suite(np.zeros(1001, dtype=np.uint8), n_groups=10)

    @pytest.mark.parametrize(
        "n_bits, n_groups, message",
        [
            (1000, 0, "n_groups must be >= 1, got 0"),
            (0, 10, "stream of 0 bits does not divide into 10 groups"),
        ],
        ids=["no-groups", "no-bits"],
    )
    def test_a_stream_that_cannot_be_grouped_is_rejected(self, n_bits, n_groups, message):
        with pytest.raises(ValueError) as exc:
            run_nist_suite(np.zeros(n_bits, dtype=np.uint8), n_groups=n_groups)
        assert str(exc.value) == message

    def test_short_groups_are_skipped_not_failed(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        results = run_nist_suite(bits, n_groups=10)  # groups of 10^4
        by_name = {r.module_name: r for r in results}
        expected_skips = {
            "rank",
            "non_overlapping_template",
            "overlapping_template",
            "approximate_entropy",
            "serial",
            "linear_complexity",
        }
        for name in expected_skips:
            assert by_name[name].verdict == "skipped"
            assert by_name[name].p_value is None
        for name in set(MODULE_NAMES) - expected_skips:
            assert by_name[name].verdict in ("pass", "fail")

    def test_skips_do_not_fail_the_battery(self):
        # seed chosen so the runnable modules all pass at this length
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        results = run_nist_suite(bits, n_groups=10)
        runnable = [r for r in results if r.verdict != "skipped"]
        assert all(r.verdict == "pass" for r in runnable)
        assert all_pass(results)

    def test_battery_where_nothing_ran_does_not_pass(self):
        rng = np.random.default_rng(14)
        results = run_nist_suite(rng.integers(0, 2, size=64, dtype=np.uint8), n_groups=1)
        assert {r.verdict for r in results} == {"skipped"}
        assert not all_pass(results)
        assert "no module ran" in format_report(results)

    def test_alternating_stream_is_rejected(self):
        bits = np.tile(np.array([0, 1], dtype=np.uint8), 50_000)
        results = run_nist_suite(bits, n_groups=10)
        by_name = {r.module_name: r for r in results}
        # balanced, so every group's frequency sub-p is 1.0, but the
        # composite uniformity check catches the degenerate histogram
        assert by_name["frequency"].pass_count == 10
        assert by_name["frequency"].p_value < 1e-4
        assert by_name["frequency"].verdict == "fail"
        # total predictability shows up directly in the runs statistic
        assert by_name["runs"].verdict == "fail"
        assert max(by_name["runs"].group_p_values) < 0.01
        assert not all_pass(results)

    def test_constant_stream_is_rejected(self):
        results = run_nist_suite(np.zeros(100_000, dtype=np.uint8), n_groups=10)
        by_name = {r.module_name: r for r in results}
        assert by_name["frequency"].verdict == "fail"
        assert max(by_name["frequency"].group_p_values) < 1e-10
        assert not all_pass(results)

    def test_pass_rate_property(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        results = run_nist_suite(bits, n_groups=10)
        for r in results:
            if r.verdict == "skipped":
                assert r.pass_rate == 0.0
            else:
                assert r.pass_rate == r.pass_count / r.group_count
                assert r.group_count >= 10

    def test_cusum_and_serial_pool_two_per_group(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        by_name = {r.module_name: r for r in run_nist_suite(bits, n_groups=10)}
        assert by_name["cumulative_sums"].group_count == 20

    def test_template_module_pools_per_template(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=1_000_000, dtype=np.uint8)
        by_name = {r.module_name: r for r in run_nist_suite(bits, n_groups=10)}
        assert by_name["non_overlapping_template"].group_count == 148 * 10

    def test_a_file_read_group_by_group_gives_the_same_results(self, tmp_path):
        # 10^6 bits in 10 groups: every module runs, and every pooled
        # sub-p-value comes out in the same order
        bits = np.random.default_rng(5).integers(0, 2, size=1_000_000, dtype=np.uint8)
        path = str(tmp_path / "s.bin")
        save_stream(BitStream(bits, StreamInfo(bits.size, "rhs-trng", 1, 0, 0.0, 0.0)), path)
        stream = BitFile(path)
        from_file = run_nist_suite(stream, n_groups=10)
        assert from_file == run_nist_suite(bits, n_groups=10)
        assert all(r.verdict != "skipped" for r in from_file)
        assert stream.ones == int(bits.sum())

    def test_report_formats(self):
        rng = np.random.default_rng(14)
        bits = rng.integers(0, 2, size=100_000, dtype=np.uint8)
        results = run_nist_suite(bits, n_groups=10)
        text = format_report(results)
        for name in MODULE_NAMES:
            assert name in text
        payload = json.loads(json.dumps(result_rows(results)))
        assert len(payload) == len(MODULE_NAMES)
        entry = {item["module"]: item for item in payload}["frequency"]
        assert entry["verdict"] in ("pass", "fail")
        assert 0.0 <= entry["p_value"] <= 1.0
        assert entry["pass_rate"] == entry["pass_count"] / entry["group_count"]


    def test_pass_rate_threshold_follows_sp800_22(self):
        # p - 3 sqrt(p (1 - p) / m), p = 0.99: one low sub-p in ten passes
        assert pass_rate_threshold(10) == pytest.approx(0.8956072, abs=1e-7)
        assert pass_rate_threshold(1480) == pytest.approx(0.9822410, abs=1e-7)
        assert 9 / 10 >= pass_rate_threshold(10)
        assert 8 / 10 < pass_rate_threshold(10)

    def test_false_alarm_rate_on_ideal_bits_is_bounded(self):
        # 20 ideal 10^6-bit streams in groups of 10^5 bits: 4 fail with
        # the threshold computed from m; a fixed 0.91, which one low
        # sub-p in ten already misses, failed 14.  A quarter is the bound.
        failed = 0
        for seed in range(20):
            bits = np.random.default_rng(seed).integers(0, 2, size=10**6, dtype=np.uint8)
            failed += not all_pass(run_nist_suite(bits, n_groups=10))
        assert failed <= 5


class TestLinearComplexityLaw:
    def test_mean_complexity_tracks_theory(self):
        # for 500-bit blocks of fair bits the mean complexity is close
        # to M/2 + 4/18 (even M), far from any degenerate value
        rng = np.random.default_rng(8)
        lengths = [
            linear_complexity_of(rng.integers(0, 2, size=500, dtype=np.uint8))
            for _ in range(80)
        ]
        mean = sum(lengths) / len(lengths)
        mu = 500 / 2 + (9 + 1) / 36 - (500 / 3 + 2 / 9) / 2**500
        assert mean == pytest.approx(mu, abs=0.6)

    def test_module_passes_fair_bits(self):
        rng = np.random.default_rng(12)
        bits = rng.integers(0, 2, size=200 * 500, dtype=np.uint8)
        p = M.linear_complexity(bits)[0]
        assert p > 0.01
