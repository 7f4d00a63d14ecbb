"""Two-state chain closed forms: steady state, XOR combining, correlation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintrng.entropy import binary_min_entropy, binary_shannon_entropy
from spintrng.markov import (
    FlipProbs,
    lag1_autocorrelation,
    steady_state,
    xor_output_prob,
)

probs = st.floats(0.0, 1.0, allow_nan=False)


class TestSteadyState:
    def test_symmetric_chain_is_fair(self):
        assert steady_state(FlipProbs(0.5, 0.5)) == pytest.approx(0.5)

    def test_hand_value(self):
        # pi_AP = p1 / (p1 + p2)
        assert steady_state(FlipProbs(0.3, 0.7)) == pytest.approx(0.3)

    def test_unequal_rates(self):
        assert steady_state(FlipProbs(0.2, 0.6)) == pytest.approx(0.25)

    def test_absorbing_chain_rejected(self):
        with pytest.raises(ValueError):
            steady_state(FlipProbs(0.0, 0.0))

    @given(p1=probs, p2=probs)
    @settings(max_examples=200, deadline=None)
    def test_is_stationary_fixed_point(self, p1, p2):
        if p1 + p2 == 0.0:
            return
        p_ap = steady_state(FlipProbs(p1, p2))
        # one transition step leaves the distribution unchanged
        next_ap = (1.0 - p_ap) * p1 + p_ap * (1.0 - p2)
        assert next_ap == pytest.approx(p_ap, abs=1e-12)
        assert 0.0 <= p_ap <= 1.0


class TestXorCombining:
    def test_fair_inputs_stay_fair(self):
        assert xor_output_prob(0.5, 0.5) == pytest.approx(0.5)

    def test_known_bias(self):
        # 0.45/0.45 -> 2*0.45*0.55 = 0.495
        assert xor_output_prob(0.45, 0.45) == pytest.approx(0.495)

    @given(pa=probs, pb=probs)
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_two_bit_enumeration(self, pa, pb):
        expected = pa * (1.0 - pb) + pb * (1.0 - pa)
        assert xor_output_prob(pa, pb) == pytest.approx(expected, abs=1e-12)

    @given(pa=probs, pb=probs)
    @settings(max_examples=200, deadline=None)
    def test_bias_product_identity(self, pa, pb):
        # deviation from fair multiplies: d_out = -2 d_a d_b
        d_out = xor_output_prob(pa, pb) - 0.5
        assert d_out == pytest.approx(-2.0 * (pa - 0.5) * (pb - 0.5), abs=1e-12)

    @given(pa=probs, pb=probs)
    @settings(max_examples=200, deadline=None)
    def test_self_stabilization(self, pa, pb):
        # combined output is never farther from fair than either input
        d_out = abs(xor_output_prob(pa, pb) - 0.5)
        assert d_out <= abs(pa - 0.5) + 1e-12
        assert d_out <= abs(pb - 0.5) + 1e-12


class TestAutocorrelation:
    def test_iid_chain_uncorrelated(self):
        assert lag1_autocorrelation(FlipProbs(0.5, 0.5)) == pytest.approx(0.0)

    def test_sticky_chain_positive(self):
        assert lag1_autocorrelation(FlipProbs(0.1, 0.1)) == pytest.approx(0.8)

    def test_alternating_chain_negative(self):
        assert lag1_autocorrelation(FlipProbs(1.0, 1.0)) == pytest.approx(-1.0)

    @given(p1=probs, p2=probs)
    @settings(max_examples=100, deadline=None)
    def test_equals_one_minus_flip_sum(self, p1, p2):
        if p1 + p2 == 0.0:
            return
        assert lag1_autocorrelation(FlipProbs(p1, p2)) == pytest.approx(
            1.0 - p1 - p2, abs=1e-12
        )

    def test_absorbing_chain_rejected(self):
        with pytest.raises(ValueError):
            lag1_autocorrelation(FlipProbs(0.0, 0.0))


def predicted(p1: float, p2: float, xor_of_two: bool = False) -> tuple[float, float]:
    """(Shannon, min-entropy) of the stationary output marginal, as
    `analyze` computes them; with xor_of_two, of two such cells XORed."""
    p = steady_state(FlipProbs(p1, p2))
    if xor_of_two:
        p = xor_output_prob(p, p)
    return binary_shannon_entropy(p), binary_min_entropy(p)


class TestPredictedEntropy:
    def test_fair_point(self):
        shannon, min_entropy = predicted(0.5, 0.5)
        assert shannon == pytest.approx(1.0)
        assert min_entropy == pytest.approx(1.0)

    def test_biased_hand_values(self):
        shannon, min_entropy = predicted(0.3, 0.7)
        p = 0.3
        expected_shannon = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert shannon == pytest.approx(expected_shannon)
        assert min_entropy == pytest.approx(-math.log2(0.7))

    def test_xor_of_two_improves_entropy(self):
        single = predicted(0.4, 0.5)
        combined = predicted(0.4, 0.5, xor_of_two=True)
        assert combined[0] > single[0]
        assert combined[1] > single[1]

    @given(
        p1=st.floats(0.01, 1.0, allow_nan=False),
        p2=st.floats(0.01, 1.0, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_xor_never_hurts(self, p1, p2):
        single = predicted(p1, p2)
        combined = predicted(p1, p2, xor_of_two=True)
        assert combined[0] >= single[0] - 1e-12
        assert combined[1] >= single[1] - 1e-12


class TestValidation:
    @pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.1), (2.0, 2.0)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            FlipProbs(*bad)
