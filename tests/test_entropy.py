"""Marginal entropy estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintrng.entropy import (
    EntropyReport,
    binary_min_entropy,
    binary_shannon_entropy,
    counts_report,
    entropy_report,
)


class TestBinaryShannon:
    def test_extremes(self):
        assert binary_shannon_entropy(0.5) == 1.0
        assert binary_shannon_entropy(0.0) == 0.0
        assert binary_shannon_entropy(1.0) == 0.0

    def test_hand_value(self):
        assert binary_shannon_entropy(0.25) == pytest.approx(
            -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        )

    @given(p=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, p):
        h = binary_shannon_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_shannon_entropy(1.0 - p), abs=1e-12)


class TestBinaryMinEntropy:
    def test_fair_is_one(self):
        assert binary_min_entropy(0.5) == pytest.approx(1.0)

    def test_hand_value(self):
        assert binary_min_entropy(0.55) == pytest.approx(-math.log2(0.55))
        assert binary_min_entropy(0.45) == pytest.approx(-math.log2(0.55))

    def test_degenerate_is_zero(self):
        assert binary_min_entropy(1.0) == 0.0
        assert binary_min_entropy(0.0) == 0.0

    @pytest.mark.parametrize("p", [0.0, 1.0, 1e-20])
    def test_certain_bit_is_positive_zero(self, p):
        assert math.copysign(1.0, binary_min_entropy(p)) == 1.0

    @given(p=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_shannon(self, p):
        assert binary_min_entropy(p) <= binary_shannon_entropy(p) + 1e-12


class TestEmpirical:
    def test_constant_stream(self):
        assert entropy_report(np.ones(100, dtype=np.uint8)).shannon == 0.0
        assert entropy_report(np.zeros(100, dtype=np.uint8)).min_entropy == 0.0

    def test_balanced_stream(self):
        bits = np.array([0, 1] * 500, dtype=np.uint8)
        rep = entropy_report(bits)
        assert rep.shannon == 1.0
        assert rep.min_entropy == pytest.approx(1.0)

    def test_report_fields(self):
        bits = np.array([1, 1, 1, 0], dtype=np.uint8)
        rep = entropy_report(bits)
        assert isinstance(rep, EntropyReport)
        assert rep.n_bits == 4
        assert rep.p_one == pytest.approx(0.75)
        assert rep.shannon == pytest.approx(binary_shannon_entropy(0.75))
        assert rep.min_entropy == pytest.approx(-math.log2(0.75))

    def test_accepts_plain_lists(self):
        assert entropy_report([0, 1, 0, 1]).shannon == 1.0


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (binary_shannon_entropy, (-0.1,), "p must lie in [0, 1], got -0.1"),
        (binary_shannon_entropy, (1.5,), "p must lie in [0, 1], got 1.5"),
        (binary_min_entropy, (-0.1,), "p must lie in [0, 1], got -0.1"),
        (binary_min_entropy, (1.5,), "p must lie in [0, 1], got 1.5"),
        (counts_report, (0, 0), "need at least one bit"),
    ],
    ids=["shannon-below", "shannon-above", "min-below", "min-above", "no-bits"],
)
def test_bad_arguments_are_rejected(fn, args, message):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    assert str(exc.value) == message
