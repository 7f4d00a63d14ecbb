"""design_model: each design's (p_one, lag1) per lane, by hand values,
identities and against the simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence

from spintrng.device import DeviceParams, Environment, flip_probs, sample_device
from spintrng.entropy import binary_min_entropy, binary_shannon_entropy
from spintrng.generator import BitGenerator, GeneratorConfig, Variant
from spintrng.markov import design_model

probs = st.floats(0.0, 1.0, allow_nan=False)

SINGLE = GeneratorConfig(Variant.RHS_SINGLE)
TRNG = GeneratorConfig(Variant.RHS_TRNG)


def chain(p1: float, p2: float) -> tuple[float, float]:
    """(p_one, lag1) of one feedback cell."""
    [lane] = design_model(SINGLE, [(p1, p2)])
    return lane


def xor_p_one(pa: float, pb: float) -> float:
    """p_one of two cells XORed whose bits are independent draws of
    marginals pa and pb: a cell at (m, 1 - m) emits Bernoulli(m) bits."""
    [(p_one, _)] = design_model(TRNG, [(pa, 1.0 - pa), (pb, 1.0 - pb)])
    return p_one


class TestSteadyState:
    def test_symmetric_chain_is_fair(self):
        assert chain(0.5, 0.5)[0] == pytest.approx(0.5)

    def test_hand_value(self):
        # pi_AP = p1 / (p1 + p2)
        assert chain(0.3, 0.7)[0] == pytest.approx(0.3)

    def test_unequal_rates(self):
        assert chain(0.2, 0.6)[0] == pytest.approx(0.25)

    def test_absorbing_chain_rejected(self):
        with pytest.raises(ValueError, match="absorbing"):
            chain(0.0, 0.0)

    @pytest.mark.parametrize("config", [TRNG, GeneratorConfig(Variant.RHS_PARALLEL, 3)])
    def test_absorbing_cell_rejected_in_xor_designs(self, config):
        with pytest.raises(ValueError, match="absorbing"):
            design_model(config, [(0.5, 0.5)] + [(0.0, 0.0)] * (config.n_units - 1))

    @given(p1=probs, p2=probs)
    @settings(max_examples=200, deadline=None)
    def test_is_stationary_fixed_point(self, p1, p2):
        if p1 + p2 == 0.0:
            return
        p_ap = chain(p1, p2)[0]
        # one transition step leaves the distribution unchanged
        next_ap = (1.0 - p_ap) * p1 + p_ap * (1.0 - p2)
        assert next_ap == pytest.approx(p_ap, abs=1e-12)
        assert 0.0 <= p_ap <= 1.0


class TestConventional:
    def test_hand_values(self):
        assert design_model(GeneratorConfig(Variant.CONV_P_TO_AP), [(0.3, 0.6)]) == [(0.3, 0.0)]
        assert design_model(GeneratorConfig(Variant.CONV_AP_TO_P), [(0.3, 0.6)]) == [(0.4, 0.0)]

    def test_no_flips_is_a_constant_not_an_error(self):
        assert design_model(GeneratorConfig(Variant.CONV_P_TO_AP), [(0.0, 0.0)]) == [(0.0, 0.0)]


class TestXorCombining:
    def test_fair_inputs_stay_fair(self):
        assert xor_p_one(0.5, 0.5) == pytest.approx(0.5)

    def test_known_bias(self):
        # 0.45/0.45 -> 2*0.45*0.55 = 0.495
        assert xor_p_one(0.45, 0.45) == pytest.approx(0.495)

    @given(pa=probs, pb=probs)
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_two_bit_enumeration(self, pa, pb):
        expected = pa * (1.0 - pb) + pb * (1.0 - pa)
        assert xor_p_one(pa, pb) == pytest.approx(expected, abs=1e-12)

    @given(pa=probs, pb=probs)
    @settings(max_examples=200, deadline=None)
    def test_bias_product_identity(self, pa, pb):
        # deviation from fair multiplies: d_out = -2 d_a d_b
        d_out = xor_p_one(pa, pb) - 0.5
        assert d_out == pytest.approx(-2.0 * (pa - 0.5) * (pb - 0.5), abs=1e-12)

    @given(pa=probs, pb=probs)
    @settings(max_examples=200, deadline=None)
    def test_self_stabilization(self, pa, pb):
        # combined output is never farther from fair than either input
        d_out = abs(xor_p_one(pa, pb) - 0.5)
        assert d_out <= abs(pa - 0.5) + 1e-12
        assert d_out <= abs(pb - 0.5) + 1e-12


class TestAutocorrelation:
    def test_iid_chain_uncorrelated(self):
        assert chain(0.5, 0.5)[1] == pytest.approx(0.0)

    def test_sticky_chain_positive(self):
        assert chain(0.1, 0.1)[1] == pytest.approx(0.8)

    def test_alternating_chain_negative(self):
        assert chain(1.0, 1.0)[1] == pytest.approx(-1.0)

    @given(p1=probs, p2=probs)
    @settings(max_examples=100, deadline=None)
    def test_equals_one_minus_flip_sum(self, p1, p2):
        if p1 + p2 == 0.0:
            return
        # a chain absorbed in one state (m = 0 or 1) is constant: lag1 0
        m = p1 / (p1 + p2)
        expected = 1.0 - p1 - p2 if 0.0 < m < 1.0 else 0.0
        assert chain(p1, p2)[1] == pytest.approx(expected, abs=1e-12)

    def test_absorbing_chain_rejected(self):
        with pytest.raises(ValueError):
            chain(0.0, 0.0)

    def test_xor_of_fair_cells_multiplies_eigenvalues(self):
        # e = 0 in both cells, so lag1 = E_a E_b = rho_a rho_b
        [(p_one, lag1)] = design_model(TRNG, [(0.1, 0.1), (0.3, 0.3)])
        assert p_one == pytest.approx(0.5)
        assert lag1 == pytest.approx(0.8 * 0.4)

    def test_xor_hand_value_with_biased_cells(self):
        # cells (0.2, 0.6) and (0.5, 0.25): m = 1/4 and 2/3, e = 1/2 and
        # -1/3, rho = 0.2 and 0.25; E = 0.4 and 1/3; e_a^2 e_b^2 = 1/36
        [(p_one, lag1)] = design_model(TRNG, [(0.2, 0.6), (0.5, 0.25)])
        assert p_one == pytest.approx(0.25 / 3 + 2 * 0.75 / 3)
        assert lag1 == pytest.approx((0.4 / 3 - 1 / 36) / (1 - 1 / 36))

    def test_constant_lane_has_zero_lag1(self):
        assert design_model(TRNG, [(0.5, 0.0)] * 2) == [(0.0, 0.0)]

    @pytest.mark.parametrize("probs,p_one", [((0.5, 0.0), 1.0), ((0.0, 0.5), 0.0)])
    def test_constant_cell_has_zero_lag1(self, probs, p_one):
        # absorbed in AP or in P, as a constant XOR lane is
        assert design_model(SINGLE, [probs]) == [(p_one, 0.0)]


class TestLanes:
    def test_parallel_lane_k_is_cells_k_and_k_plus_1(self):
        cells = [(0.1, 0.3), (0.45, 0.2), (0.3, 0.3), (0.05, 0.6)]
        lanes = design_model(GeneratorConfig(Variant.RHS_PARALLEL, 3), cells)
        assert lanes == [design_model(TRNG, cells[k : k + 2])[0] for k in range(3)]

    def test_none_is_the_nominal_device(self):
        nominal = flip_probs(DeviceParams(), Environment())
        assert design_model(TRNG) == design_model(TRNG, [nominal] * 2)


def predicted(p1: float, p2: float, xor_of_two: bool = False) -> tuple[float, float]:
    """(Shannon, min-entropy) of the stationary output marginal, as
    `analyze` computes them; with xor_of_two, of two such cells XORed."""
    config = TRNG if xor_of_two else SINGLE
    [(p, _)] = design_model(config, [(p1, p2)] * config.n_units)
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
    @pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.1), (2.0, 2.0), (math.nan, 0.5)])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            design_model(SINGLE, [bad])

    def test_one_pair_per_unit(self):
        with pytest.raises(ValueError, match=r"rhs-trng needs 2 \(p1, p2\) pairs"):
            design_model(TRNG, [(0.5, 0.5)])


def measured(bits: np.ndarray, n_batches: int = 50) -> list[tuple[float, float]]:
    """(estimate, standard error) of p_one and of the lag-1 correlation
    of bits, by batch means: the mean of each statistic over n_batches
    consecutive batches and the spread of those batch values, which
    stays honest however correlated the bits are."""
    x = bits[: bits.size // n_batches * n_batches].reshape(n_batches, -1).astype(float)
    a = x[:, :-1] - x[:, :-1].mean(axis=1, keepdims=True)
    b = x[:, 1:] - x[:, 1:].mean(axis=1, keepdims=True)
    lag1 = (a * b).sum(axis=1) / np.sqrt((a * a).sum(axis=1) * (b * b).sum(axis=1))
    return [(v.mean(), v.std(ddof=1) / math.sqrt(n_batches)) for v in (x.mean(axis=1), lag1)]


def assert_agrees(model: tuple[float, float], bits: np.ndarray) -> None:
    for predicted_value, (estimate, se) in zip(model, measured(bits)):
        assert abs(estimate - predicted_value) <= 5 * se, (predicted_value, estimate, se)


CELLS = [(0.1, 0.3), (0.45, 0.2), (0.3, 0.3), (0.05, 0.6)]


class TestModelMatchesSimulation:
    """Each design's lanes at forced, unequal (p1, p2), against
    BitGenerator within 5 standard errors on p_one and lag-1."""

    @pytest.mark.parametrize(
        "config",
        [
            GeneratorConfig(Variant.CONV_P_TO_AP),
            GeneratorConfig(Variant.CONV_AP_TO_P),
            SINGLE,
            TRNG,
            GeneratorConfig(Variant.RHS_PARALLEL, 3),
        ],
        ids=lambda c: c.variant.value,
    )
    def test_every_variant(self, config):
        cells = CELLS[: config.n_units]
        lanes = config.bits_per_cycle
        gen = BitGenerator(config, seed=SeedSequence([31]), probs=cells)
        bits = gen.generate(lanes * 500_000).bits
        # de-interleave rhs-parallel's row-major output into its lanes
        for k, model in enumerate(design_model(config, cells)):
            assert_agrees(model, bits.reshape(-1, lanes)[:, k])

    def test_process_sets_at_high_supply(self):
        # Ten sampled device sets at v = +10%, each cell drawn from the
        # process study's device keys.  The cells are unequal enough
        # that the exact lag-1 and the shortcut rho_a * rho_b differ by
        # up to 0.013, which a 2e6-bit stream resolves.
        params, env = DeviceParams(), Environment(v_variation_rate=0.1)
        shortcut_z = []
        for i in range(10):
            keys = (SeedSequence([0, 100, i, u]) for u in range(2))
            cells = [flip_probs(params, env, sample_device(params, key)) for key in keys]
            gen = BitGenerator(TRNG, seed=SeedSequence([5, i]), probs=cells)
            bits = gen.generate(2_000_000).bits
            [model] = design_model(TRNG, cells)
            assert_agrees(model, bits)
            lag1, se = measured(bits)[1]
            shortcut = (1.0 - sum(cells[0])) * (1.0 - sum(cells[1]))
            shortcut_z.append(abs(lag1 - shortcut) / se)
        # the test tells the exact formula from the shortcut
        assert max(shortcut_z) > 5
