"""Closed-form model of what each TRNG design emits.

A read-invert-write cell is a two-state Markov chain over {P, AP}
with per-cycle flip probabilities p1 (P to AP) and p2 (AP to P), and
its bit is 1 in AP.  design_model(config, probs) takes a design and
its units' (p1, p2), the list BitGenerator takes, and returns one
(p_one, lag1) per output lane: the stationary probability of a 1 and
the lane's lag-1 correlation over cycles.

* conv-p2ap draws a fresh bit each cycle: (p1, 0); conv-ap2p likewise
  emits (1 - p2, 0).
* rhs-single emits its chain's state: (m, rho) with m = p1 / (p1 + p2)
  and rho = 1 - p1 - p2, the chain's second eigenvalue.  With
  p1 = p2 = 0 the chain is absorbing and has no unique stationary
  distribution, so that case is rejected, in every feedback design.
  A cell absorbed in one state (m = 0 or 1) is constant; its lag1 is 0.
* XOR lane k (rhs-trng's one lane, each rhs-parallel lane) is cells k
  and k + 1 XORed.  In the +-1 encoding s = 1 - 2 * bit a cell has
  mean e = 1 - 2m and lag-1 moment E = e^2 + (1 - e^2) rho, and the
  cells are independent, so by the piling-up lemma the lane has mean
  e_a e_b, which is p_one = m_a (1 - m_b) + m_b (1 - m_a), and
  lag1 = (E_a E_b - e_a^2 e_b^2) / (1 - e_a^2 e_b^2).  A lane whose
  cells are both constant is constant; its lag1 is 0.

This is the oracle the simulator is verified against, and the one
that per-device figures, detection lengths and entropy rates (ROADMAP
items 6, 7, 14 and 15) build on.
"""

from __future__ import annotations

from spintrng.generator import GeneratorConfig, Variant


def design_model(config: GeneratorConfig, probs=None) -> list[tuple[float, float]]:
    """One (p_one, lag1) per output lane of config's design, its units
    at probs as GeneratorConfig.unit_probs takes them."""
    probs = config.unit_probs(probs)
    if config.variant is Variant.CONV_P_TO_AP:
        return [(probs[0][0], 0.0)]
    if config.variant is Variant.CONV_AP_TO_P:
        return [(1.0 - probs[0][1], 0.0)]
    cells = []
    for p1, p2 in probs:
        if p1 + p2 == 0.0:
            raise ValueError("p1 = p2 = 0 gives an absorbing chain with no unique steady state")
        cells.append((p1 / (p1 + p2), 1.0 - p1 - p2))
    if config.variant is Variant.RHS_SINGLE:
        return [(m, rho if 0.0 < m < 1.0 else 0.0) for m, rho in cells]
    lanes = []
    for (m_a, rho_a), (m_b, rho_b) in zip(cells, cells[1:]):
        e2_a, e2_b = (1.0 - 2.0 * m_a) ** 2, (1.0 - 2.0 * m_b) ** 2
        moment = (e2_a + (1.0 - e2_a) * rho_a) * (e2_b + (1.0 - e2_b) * rho_b)
        spread = 1.0 - e2_a * e2_b
        lag1 = (moment - e2_a * e2_b) / spread if spread else 0.0
        lanes.append((m_a * (1.0 - m_b) + m_b * (1.0 - m_a), lag1))
    return lanes
