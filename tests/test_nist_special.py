"""The battery's special functions (spintrng.nist.special) against
mpmath at 40 digits and against scipy.special, and the cumulative-sums
p-value's clipped k-range against the full one."""

import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

from spintrng.nist import modules as M
from spintrng.nist.special import chi2_tail, erfc, ndtr

# Every dof the battery takes a tail at: the 2-dof rank fit, the 5- and
# 6-dof class fits, 8 templates' blocks, the 9-dof composite,
# approximate entropy (1024), serial (2048, 4096), and block_frequency's
# block count on 10^6 bits (7812) and on one 10^7-bit group (78125).
BATTERY_DOFS = [2, 5, 6, 8, 9, 1024, 2048, 4096, 7812, 78125]
DOFS = [1, 3, 4, 100, *BATTERY_DOFS]


def chi2_grid(dof: int) -> list[float]:
    """0, 13 points within 9 standard deviations of the mean, and the
    statistics whose tails are 1e-100 and 1e-300."""
    sd = math.sqrt(2.0 * dof)
    around = [max(dof + t * sd, 0.0) for t in np.linspace(-9.0, 9.0, 13)]
    return [0.0, *around, float(sp.chdtri(dof, 1e-100)), float(sp.chdtri(dof, 1e-300))]


def mpmath_tail(chi2: float, dof: int) -> float:
    with mp.workdps(40):
        return float(mp.gammainc(mp.mpf(dof) / 2, mp.mpf(chi2) / 2, mp.inf, regularized=True))


@pytest.mark.parametrize("dof", DOFS)
def test_chi2_tail_is_within_1e_14_of_mpmath(dof):
    grid = chi2_grid(dof)
    want = np.array([mpmath_tail(x, dof) for x in grid])
    got = np.array([float(chi2_tail(x, dof)) for x in grid])
    assert want[0] == got[0] == 1.0
    assert 1e-301 < want[-1] < 1e-299
    assert np.max(np.abs(got - want)) <= 1e-14
    # Relative error in the far tail is set by the conditioning, about
    # chi2 times the unit roundoff.
    assert np.max(np.abs(got - want) / want) <= 1e-11


@pytest.mark.parametrize("dof", DOFS)
def test_chi2_tail_is_within_1e_12_of_scipy(dof):
    rng = np.random.default_rng(dof)
    grid = [*chi2_grid(dof), *rng.chisquare(dof, 50)]
    got = np.array([float(chi2_tail(x, dof)) for x in grid])
    assert np.max(np.abs(got - sp.gammaincc(dof / 2, np.array(grid) / 2))) <= 1e-12


@pytest.mark.parametrize("dof", [1, 8, 9, 1024, 7812])
def test_an_array_call_equals_scalar_calls(dof):
    grid = np.array(chi2_grid(dof))
    assert chi2_tail(grid, dof).tolist() == [float(chi2_tail(x, dof)) for x in grid]


def test_one_and_two_dof_tails_are_their_first_term_alone():
    # Q(1/2, lam) = erfc(sqrt lam) and Q(1, lam) = e^-lam have no
    # Poisson terms after the first, in an array call or a scalar one
    grid = np.array(chi2_grid(1) + chi2_grid(2))
    lam = grid / 2.0
    for dof, want in ((1, erfc(np.sqrt(lam))), (2, np.exp(-lam))):
        assert chi2_tail(grid, dof).tolist() == want.tolist()
        assert [chi2_tail(x, dof) for x in grid] == want.tolist()


def test_a_negative_statistic_counts_as_zero():
    assert chi2_tail(-1e-12, 1024) == chi2_tail(0.0, 1024) == 1.0


@pytest.mark.parametrize("dof", [0, -2, 2.5, 8.000001])
def test_a_dof_that_is_not_a_positive_integer_raises(dof):
    with pytest.raises(ValueError, match="degrees of freedom must be a positive integer"):
        chi2_tail(1.0, dof)


@pytest.mark.parametrize("chi2", [math.inf, math.nan, [1.0, math.nan]])
def test_a_statistic_that_is_not_finite_raises(chi2):
    with pytest.raises(ValueError, match="chi-square statistic must be finite"):
        chi2_tail(chi2, 8)


def test_erfc_and_ndtr_match_mpmath_and_scipy():
    x = np.concatenate([np.random.default_rng(3).normal(0.0, 3.0, 2000), [0.0, -40.0, 26.0, 40.0]])
    with mp.workdps(40):
        want_erfc = np.array([float(mp.erfc(v)) for v in x])
        want_ndtr = np.array([float(mp.ncdf(v)) for v in x])
    assert np.max(np.abs(erfc(x) - want_erfc)) <= 1e-14
    assert np.max(np.abs(ndtr(x) - want_ndtr)) <= 1e-14
    assert np.max(np.abs(erfc(x) - sp.erfc(x))) <= 1e-12
    assert np.max(np.abs(ndtr(x) - sp.ndtr(x))) <= 1e-12
    assert erfc(x).tolist() == [float(erfc(v)) for v in x]
    assert ndtr(-40.0) == 0.0 and ndtr(40.0) == 1.0


def unclipped_cusum_p_value(z: int, n: int) -> float:
    """The cumulative-sums p-value over the whole k-ranges, with scipy's
    ndtr."""
    sqn = math.sqrt(n)
    k = np.arange(int((-n / z + 1) / 4), int((n / z - 1) / 4) + 1)
    total = 1.0 - float(np.sum(sp.ndtr((4 * k + 1) * z / sqn) - sp.ndtr((4 * k - 1) * z / sqn)))
    k = np.arange(int((-n / z - 3) / 4), int((n / z - 1) / 4) + 1)
    total += float(np.sum(sp.ndtr((4 * k + 3) * z / sqn) - sp.ndtr((4 * k + 1) * z / sqn)))
    return min(max(total, 0.0), 1.0)


@pytest.mark.parametrize("n", [100, 10_000, 1_000_000])
@pytest.mark.parametrize("share", [0.0, 0.02, 0.1, 0.5, 1.0, 2.0, 4.0])
def test_clipped_cusum_p_value_equals_the_full_sum(n, share):
    z = max(1, round(share * math.sqrt(n)))
    assert abs(M._cusum_p_value(z, n) - unclipped_cusum_p_value(z, n)) <= 1e-12


def best_time(fn, *args, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def test_cusum_p_value_on_a_low_excursion_group_is_no_slower():
    # A small largest excursion z gives k-ranges of about n / (2z)
    # terms; the clipped ranges hold about 10 sqrt(n) / z.
    n, z = 1_000_000, 20
    assert best_time(M._cusum_p_value, z, n) <= best_time(unclipped_cusum_p_value, z, n)
