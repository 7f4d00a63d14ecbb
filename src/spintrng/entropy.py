"""Marginal entropy estimators for binary streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def binary_shannon_entropy(p: float) -> float:
    """Shannon entropy of a Bernoulli(p) bit, in bits.

    Uses the convention 0 * log2(0) = 0.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def binary_min_entropy(p: float) -> float:
    """Min-entropy of a Bernoulli(p) bit: -log2 of the likelier symbol."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    # 0.0 minus, not unary minus: a certain bit gives +0.0, not -0.0.
    return 0.0 - math.log2(max(p, 1.0 - p))


@dataclass(frozen=True)
class EntropyReport:
    n_bits: int
    p_one: float
    shannon: float
    min_entropy: float


def entropy_report(bits) -> EntropyReport:
    arr = np.asarray(bits, dtype=np.uint8).ravel()
    return counts_report(int(np.count_nonzero(arr)), arr.size)


def counts_report(n_ones: int, n_bits: int) -> EntropyReport:
    """The report of n_bits bits of which n_ones are ones."""
    if n_bits < 1:
        raise ValueError("need at least one bit")
    p = float(n_ones) / n_bits
    return EntropyReport(
        n_bits=n_bits,
        p_one=p,
        shannon=binary_shannon_entropy(p),
        min_entropy=binary_min_entropy(p),
    )
