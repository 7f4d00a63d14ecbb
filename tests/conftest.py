"""Shared fixtures: reference bit material, golden p-values and the
one-sequence linear complexity."""

from __future__ import annotations

import numpy as np
import pytest

from spintrng.nist.modules import _sliced_complexities, sliced_blocks


def bits_from_string(s: str) -> np.ndarray:
    s = s.replace(" ", "").replace("\n", "")
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def lockstep_complexities(blocks) -> np.ndarray:
    """Berlekamp-Massey LFSR length of every row of a (blocks, n) 0/1
    array, through the battery's bit-sliced kernel."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    words, count = sliced_blocks(blocks, blocks.shape[1])
    return _sliced_complexities(words)[:count]


def linear_complexity_of(bits) -> int:
    """Berlekamp-Massey LFSR length of one sequence, through the
    battery's lockstep kernel."""
    return int(lockstep_complexities(np.asarray(bits, dtype=np.uint8)[None, :])[0])


def _constant_bits(x, n: int) -> np.ndarray:
    """First n bits of the binary expansion of x in [2, 4), MSB first."""
    import mpmath as mp

    mp.mp.prec = n + 40
    v = int(mp.floor(x * mp.mpf(2) ** (n - 2)))
    s = bin(v)[2:]
    assert len(s) == n
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


@pytest.fixture(scope="session")
def pi_bits_100() -> np.ndarray:
    import mpmath as mp

    bits = _constant_bits(mp.pi, 100)
    # guard against an expansion mix-up: 11.001001000011111101101010100...
    assert "".join(map(str, bits[:14])) == "11001001000011"
    return bits


@pytest.fixture(scope="session")
def e_bits_100k() -> np.ndarray:
    import mpmath as mp

    bits = _constant_bits(mp.e, 100_000)
    assert "".join(map(str, bits[:20])) == "10101101111110000101"
    return bits


# 128-bit worked example used by the longest-run-of-ones module.
LONGEST_RUN_EXAMPLE = (
    "11001100000101010110110001001100111000000000001001"
    "00110101010001000100111101011010000000110101111100"
    "1100111001101101100010110010"
)

# Reference p-values, frozen from independently verified worked
# examples.  Each entry: (module kwargs, input selector, expected).
# Input selectors: literal bit strings, "pi100", or "e100k".
GOLDEN_CASES = [
    ("frequency", {}, "1011010101", [0.527089]),
    ("frequency", {}, "pi100", [0.109599]),
    ("block_frequency", {"m": 3}, "0110011010", [0.801252]),
    ("block_frequency", {"m": 10}, "pi100", [0.706438]),
    ("cumulative_sums", {}, "1011010111", [0.4116586, 0.4116586]),
    ("cumulative_sums", {}, "pi100", [0.219194, 0.114866]),
    ("runs", {}, "1001101011", [0.147232]),
    ("runs", {}, "pi100", [0.500798]),
    ("longest_run", {}, LONGEST_RUN_EXAMPLE, [0.180598]),
    ("rank", {}, "e100k", [0.532069]),
    ("spectral", {}, "1001010011", [0.468160]),
    ("approximate_entropy", {"m": 3}, "0100110101", [0.261961]),
    ("approximate_entropy", {"m": 2}, "pi100", [0.235301]),
    ("serial", {"m": 3}, "0011011101", [0.808792, 0.670320]),
]


def golden_input(selector: str, pi100: np.ndarray, e100k: np.ndarray) -> np.ndarray:
    if selector == "pi100":
        return pi100
    if selector == "e100k":
        return e100k
    return bits_from_string(selector)

