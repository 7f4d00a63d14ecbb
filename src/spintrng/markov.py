"""Closed-form analysis of the feedback TRNG state machine.

The read-invert-write cell is a two-state Markov chain over {P, AP}
with per-cycle flip probabilities p1 (P to AP) and p2 (AP to P).
These functions give its stationary output distribution, the effect of
XOR-combining two independent cells and the chain's autocorrelation.
They are the ground truth the simulator is verified against.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlipProbs:
    """Per-cycle switching probabilities of one cell.

    p1: probability of a P to AP flip.
    p2: probability of an AP to P flip.
    """

    p1: float
    p2: float

    def __post_init__(self) -> None:
        for name, value in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def steady_state(fp: FlipProbs) -> float:
    """Stationary probability of AP, which is the probability of an
    output 1: p1 / (p1 + p2).

    With both flip probabilities zero the chain is absorbing and has
    no unique stationary distribution, so that case is rejected.
    """
    total = fp.p1 + fp.p2
    if total == 0.0:
        raise ValueError("p1 = p2 = 0 gives an absorbing chain with no unique steady state")
    return fp.p1 / total


def xor_output_prob(p_a: float, p_b: float) -> float:
    """Probability that the XOR of two independent bits is 1."""
    for name, value in (("p_a", p_a), ("p_b", p_b)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return p_a * (1.0 - p_b) + p_b * (1.0 - p_a)


def lag1_autocorrelation(fp: FlipProbs) -> float:
    """Autocorrelation of the state sequence at lag 1.

    Equals the second eigenvalue of the transition matrix,
    1 - p1 - p2; lag-k correlation is this value to the k-th power.
    The XOR of two independent identical cells has lag-1
    autocorrelation equal to the square of this value.
    """
    if fp.p1 + fp.p2 == 0.0:
        raise ValueError("lag-1 autocorrelation undefined for the absorbing chain")
    return 1.0 - fp.p1 - fp.p2

