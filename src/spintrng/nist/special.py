"""The special functions behind the battery's p-values, from numpy and
math alone.

* erfc is the C library's complementary error function (math.erfc),
  taken element by element.
* ndtr(z) = erfc(-z / sqrt 2) / 2 is the standard normal distribution
  function.
* chi2_tail(chi2, dof) is the chi-square upper tail Q(dof / 2, chi2 / 2)
  at an integer dof, where it is a finite sum (Abramowitz and Stegun
  26.4.4-5).  With lam = chi2 / 2,

      Q(k, lam) = sum_{j=0..k-1} e^-lam lam^j / j!             (dof = 2k)
      Q(k + 1/2, lam) = erfc(sqrt lam)
                        + sum_{j=1..k} e^-lam lam^(j-1/2) / Gamma(j + 1/2)
                                                              (dof = 2k + 1)

  Every term past the first is a Poisson density e^-lam lam^nu /
  Gamma(nu + 1) at nu = j or j - 1/2, taken in Loader's form
  exp(-stirlerr(nu) - bd0(nu, lam)) / sqrt(2 pi nu) (C. Loader, "Fast
  and accurate computation of binomial probabilities", 2000): stirlerr
  is the error of Stirling's formula for log Gamma(nu + 1), and bd0 the
  deviance nu log(nu / lam) + lam - nu, by a series where nu is near
  lam.  Both keep full relative precision at large nu, where exp(nu log
  lam - lam - lgamma(nu + 1)) loses it to cancellation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_erfc = np.frompyfunc(math.erfc, 1, 1)


def erfc(x):
    """Complementary error function, element by element."""
    return np.asarray(_erfc(x), dtype=np.float64)[()]


def ndtr(z):
    """Standard normal distribution function, element by element."""
    return erfc(np.negative(z) / math.sqrt(2.0)) / 2.0


# stirlerr(nu) = lgamma(nu + 1) - (nu + 1/2) log nu + nu - log sqrt(2 pi)
# at nu = 1/2, 1, ..., 15, rounded from 50-digit values; above 15 five
# terms of its asymptotic series are as close.
_STIRLERR_HALVES = np.array(
    [
        0.15342640972002736,
        0.08106146679532726,
        0.05481412105191765,
        0.0413406959554093,
        0.03316287351993629,
        0.02767792568499834,
        0.023746163656297496,
        0.020790672103765093,
        0.018488450532673187,
        0.016644691189821193,
        0.015134973221917378,
        0.013876128823070748,
        0.012810465242920227,
        0.01189670994589177,
        0.011104559758206917,
        0.010411265261972096,
        0.009799416126158804,
        0.009255462182712733,
        0.008768700134139386,
        0.00833056343336287,
        0.00793411456431402,
        0.007573675487951841,
        0.007244554301320383,
        0.00694284010720953,
        0.006665247032707682,
        0.006408994188004207,
        0.006171712263039458,
        0.0059513701127588475,
        0.0057462165130101155,
        0.005554733551962801,
    ]
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(nu: np.ndarray) -> np.ndarray:
    """stirlerr at positive integers and half-integers nu."""
    nn = nu * nu
    series = (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / nu
    small = _STIRLERR_HALVES[np.minimum(2 * nu, 30).astype(np.intp) - 1]
    return np.where(nu <= 15, small, series)


# 1 / (2j + 3) for j = 7, 6, .., 0: bd0's series in v^2 after its first
# term, highest power first.
_BD0_SERIES = 1.0 / np.arange(17.0, 2.0, -2.0)


def _bd0(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """x log(x / mu) + mu - x for x > 0, mu >= 0.

    Where x is within 10% of mu, the series (x - mu) v + 2x v^3 sum_j
    v^(2j) / (2j + 3) in v = (x - mu) / (x + mu), |v| < 0.1, cut after
    eight terms, which leaves out less than 1e-16 of the sum.  Elsewhere
    the formula as it stands; mu = 0 gives inf.
    """
    d = x - mu
    v = d / (x + mu)
    t = v * v
    series = np.polyval(_BD0_SERIES, t)
    series *= 2.0 * x * v * t
    series += d * v
    with np.errstate(divide="ignore", over="ignore"):
        plain = x * np.log(x / mu) + mu - x
    return np.where(np.abs(v) < 0.1, series, plain)


# A run of the battery takes tails at about nine dofs.
@lru_cache(maxsize=16)
def _poisson_terms(dof: int) -> tuple[np.ndarray, np.ndarray]:
    """nu, and exp(-stirlerr(nu)) / sqrt(2 pi nu), for the terms of the
    tail at dof: nu = 1, 2, .. below dof / 2 when dof is even, 1/2, 3/2,
    .. below it when odd."""
    half, odd = divmod(dof, 2)
    nu = np.arange(half) + 0.5 if odd else np.arange(1.0, half)
    scale = np.exp(-_stirlerr(nu)) / np.sqrt(2.0 * np.pi * nu)
    nu.setflags(write=False)
    scale.setflags(write=False)
    return nu, scale


def chi2_tail(chi2, dof):
    """Chi-square upper tail at dof degrees of freedom, a positive
    integer, element by element over chi2, which must be finite.  A
    statistic that rounding takes below 0 (approximate entropy and
    serial on exactly balanced patterns) counts as 0, with tail 1."""
    if dof < 1 or dof != int(dof):
        raise ValueError(f"degrees of freedom must be a positive integer, got {dof}")
    lam = np.maximum(chi2, 0.0) / 2.0
    if not math.isfinite(np.max(lam)):
        raise ValueError("chi-square statistic must be finite")
    nu, scale = _poisson_terms(int(dof))
    head = erfc(np.sqrt(lam)) if dof % 2 else np.exp(-lam)
    if nu.size == 0:  # dof 1 and 2: the head is the whole tail
        return head
    return head + (scale * np.exp(-_bd0(nu, lam[..., None]))).sum(axis=-1)
