"""Statistical modules against independently verified reference p-values.

Every module with a published worked example is pinned here to the
reference value; the two modules without usable worked examples
(overlapping template, linear complexity) are pinned by exact
combinatorial oracles in test_nist_suite.py instead.
"""

import math

import numpy as np
import pytest

from conftest import GOLDEN_CASES, bits_from_string, golden_input
from spintrng.nist import modules as M


@pytest.mark.parametrize(
    "module_name,kwargs,selector,expected",
    GOLDEN_CASES,
    ids=[f"{name}-{sel[:12]}" for name, _, sel, _ in GOLDEN_CASES],
)
def test_golden_p_values(module_name, kwargs, selector, expected, pi_bits_100, e_bits_100k):
    bits = golden_input(selector, pi_bits_100, e_bits_100k)
    got = getattr(M, module_name)(bits, **kwargs)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1.5e-6)
        # the documented reproduction requirement: 4-decimal agreement
        assert round(g, 4) == round(e, 4)


class TestAnalyticCrossChecks:
    """Cases small enough to solve in closed form by hand."""

    def test_frequency_is_erfc_of_scaled_excess(self):
        # 6 ones, 4 zeros: |S| = 2, p = erfc(2 / sqrt(20))
        bits = bits_from_string("1011010101")
        expected = math.erfc(2.0 / math.sqrt(10) / math.sqrt(2))
        assert M.frequency(bits)[0] == pytest.approx(expected, abs=1e-12)

    def test_serial_second_difference_is_exponential(self):
        # nabla^2 psi = 0.8 with one degree of freedom: p2 = exp(-0.4)
        p1, p2 = M.serial(bits_from_string("0011011101"), m=3)
        assert p2 == pytest.approx(math.exp(-0.4), abs=1e-12)

    def test_non_overlapping_template_hand_value(self):
        # two 10-bit blocks, template 001: W = (2, 1), chi2 = 32/15
        bits = bits_from_string("10100100101110010110")
        p_values = M.non_overlapping_templates(bits, m=3, n_blocks=2)
        assert len(p_values) == 4  # aperiodic 3-bit templates
        assert p_values[0] == pytest.approx(math.exp(-16.0 / 15.0), abs=1e-12)

    def test_runs_statistic(self):
        # "1001101011": 10 bits, 6 ones, 7 runs
        bits = bits_from_string("1001101011")
        pi = 0.6
        num = abs(7 - 2 * 10 * pi * (1 - pi))
        den = 2 * math.sqrt(2 * 10) * pi * (1 - pi)
        assert M.runs(bits)[0] == pytest.approx(math.erfc(num / den), abs=1e-12)

    def test_runs_screen_degenerate_imbalance(self):
        # heavily biased block is screened out before the runs statistic
        bits = np.zeros(100, dtype=np.uint8)
        bits[:2] = 1
        assert M.runs(bits)[0] == 0.0

    def test_cumulative_sums_symmetric_input(self):
        # palindromic-excursion stream: forward and reverse agree
        f, r = M.cumulative_sums(bits_from_string("1011010111"))
        assert f == r

    def test_spectral_constant_stream_fails(self):
        assert M.spectral(np.ones(1000, dtype=np.uint8))[0] < 1e-6

    def test_approximate_entropy_of_constant_stream(self):
        # ApEn = 0 for a constant stream: chi2 = 2 n ln 2, m+1 dof groups
        bits = np.zeros(64, dtype=np.uint8)
        from scipy.special import gammaincc

        expected = gammaincc(2 ** (3 - 1), 64 * math.log(2.0))
        assert M.approximate_entropy(bits, m=3)[0] == pytest.approx(
            expected, abs=1e-12
        )


class TestModuleBehavior:
    def test_all_modules_accept_fair_bits(self):
        rng = np.random.default_rng(2024)
        bits = rng.integers(0, 2, size=2**17, dtype=np.uint8)
        for p in (
            M.frequency(bits)
            + M.block_frequency(bits)
            + M.cumulative_sums(bits)
            + M.runs(bits)
            + M.longest_run(bits)
            + M.rank(bits)
            + M.spectral(bits)
            + M.approximate_entropy(bits)
            + M.serial(bits)
        ):
            assert 0.0 <= p <= 1.0

    def test_block_frequency_perfect_blocks(self):
        # every 4-bit block exactly half ones: chi2 = 0, p = 1
        bits = bits_from_string("0101" * 8)
        assert M.block_frequency(bits, m=4)[0] == pytest.approx(1.0)

    def test_longest_run_rejects_short_input(self):
        with pytest.raises(ValueError):
            M.longest_run(np.ones(64, dtype=np.uint8))
