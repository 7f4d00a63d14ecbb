"""Behavioral model of a single STT-MTJ storage element.

The element has two stable magnetic states, P (parallel, low
resistance) and AP (anti-parallel, high resistance).  A write of a
given polarity switches it with a probability that follows a
thermally activated switching-time law:

    tau  = tau0 * exp(delta(T) * (1 - I_eff / Ic0_dir)),  tau >= tau0
    P_sw = 1 - exp(-PULSE_WIDTH_NS / tau)

A device is its geometry: a DeviceInstance holds the free-layer
thickness t_fl, the tunnel barrier thickness t_tb and the TMR ratio it
was sampled with.  DeviceParams holds every constant of the law, the
nominal geometry included, and each function of the law takes params
and a device, None meaning the nominal device.  switching_exponent is
the one place that reads the law:

* delta(T) is the polarity's barrier, delta_300 * (1 + delta_asym) for
  P to AP and delta_300 * (1 - delta_asym) for AP to P, scaled by
  free-layer volume and by 300 / T;
* Ic0_dir is the polarity's critical current, scaled by free-layer
  volume;
* I_eff is the write current times the supply shift (1 + v) and the
  divider (R_P + R_load) / (R_source + R_load), where R_source is the
  resistance of the state the write leaves: from P it is
  R_P * exp((t_tb - t_tb_nominal) / tb_decay), as tunneling resistance
  grows exponentially with barrier thickness, and from AP that times
  (1 + tmr).

The design has one operating point: every write lasts PULSE_WIDTH_NS,
and calibrated_currents sets each polarity's current once, on the
nominal device at Environment(), to switch with probability
CALIBRATION_TARGET.  The currents are then held fixed while voltage,
temperature and process vary; sample_device draws a device's geometry
from Gaussians around the nominals.  flip_probs gives what the
generator takes of all this: a device's (p1, p2), the switching
probabilities of its P to AP and AP to P writes in an environment.
Every polarity pair, the currents too, is ordered P to AP first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

# State encoding used for bit output everywhere in the package.
STATE_P = 0
STATE_AP = 1

# The design's one operating point (see the module docstring).
PULSE_WIDTH_NS = 2.9
CALIBRATION_TARGET = 0.5

_CALIBRATION_TOL = 1e-6
_CALIBRATION_MAX_ITER = 200
_CALIBRATION_CURRENT_SPAN = 100.0  # upper bisection bound, multiples of Ic0


class SwitchDirection(IntEnum):
    """Write polarity, named by the transition it drives."""

    P_TO_AP = 0
    AP_TO_P = 1


@dataclass(frozen=True)
class DeviceParams:
    """Nominal device geometry, resistances, and switching constants.

    Thickness/TMR sigmas default to 3 percent of their nominals.  The
    switching constants (delta_300, delta_asym, Ic0 per direction,
    tau0) are behavioral-model values: they only need to admit the
    CALIBRATION_TARGET operating point at PULSE_WIDTH_NS and to produce
    the documented direction asymmetry; the P to AP transition carries
    the higher barrier.
    """

    t_fl_nm: float = 1.3
    sigma_t_fl: float = 0.039
    t_tb_nm: float = 0.85
    sigma_t_tb: float = 0.0255
    tmr: float = 2.00
    sigma_tmr: float = 0.06
    r_p_ohm: float = 5000.0
    r_load_ohm: float = 2000.0
    delta_300: float = 3.5
    delta_asym: float = 0.2
    ic0_ap2p_ua: float = 40.0
    ic0_p2ap_ua: float = 55.0
    tau0_ns: float = 1.0
    tb_decay_nm: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        positive = (
            "t_fl_nm", "t_tb_nm", "tmr", "r_p_ohm", "delta_300",
            "ic0_ap2p_ua", "ic0_p2ap_ua", "tau0_ns", "tb_decay_nm"
        )
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("r_load_ohm", "sigma_t_fl", "sigma_t_tb", "sigma_tmr"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not -1.0 < self.delta_asym < 1.0:
            raise ValueError(f"delta_asym must lie in (-1, 1), got {self.delta_asym}")


@dataclass(frozen=True)
class Environment:
    """Operating conditions: ambient temperature and supply-rail shift.

    v_variation_rate is a signed fraction applied to both supply
    rails, so it scales every write current by (1 + rate).
    """

    temperature_k: float = 300.0
    v_variation_rate: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature_k):
            raise ValueError(f"temperature_k must be finite, got {self.temperature_k}")
        if not self.temperature_k > 0.0:
            raise ValueError(f"temperature_k must be > 0, got {self.temperature_k}")
        if not -0.5 <= self.v_variation_rate <= 0.5:
            raise ValueError(
                f"v_variation_rate must lie in [-0.5, 0.5], got {self.v_variation_rate}"
            )


@dataclass(frozen=True)
class DeviceInstance:
    """One sampled device: its realized geometry.

    It holds no magnetic state: the generator keeps each cell's state.
    """

    t_fl_nm: float
    t_tb_nm: float
    tmr: float


def _sample_positive(rng: np.random.Generator, mean: float, sigma: float) -> float:
    """A draw from N(mean, sigma) redrawn until positive.  DeviceParams
    holds mean > 0, so each draw is positive with probability above 1/2."""
    if sigma == 0.0:
        return mean
    while (value := rng.normal(mean, sigma)) <= 0.0:
        pass
    return value


def sample_device(params: DeviceParams, seed=None) -> DeviceInstance:
    """Draw one device.

    t_fl, t_tb, and tmr are drawn independently from Gaussians centered
    on their nominals; a zero sigma gives the nominal value, and draws
    that land at or below zero are rejected and redrawn.  Deterministic
    for a given seed.
    """
    rng = np.random.default_rng(seed)
    return DeviceInstance(
        t_fl_nm=_sample_positive(rng, params.t_fl_nm, params.sigma_t_fl),
        t_tb_nm=_sample_positive(rng, params.t_tb_nm, params.sigma_t_tb),
        tmr=_sample_positive(rng, params.tmr, params.sigma_tmr),
    )


def switching_exponent(
    params: DeviceParams,
    direction: SwitchDirection,
    current_ua: float,
    env: Environment,
    device: DeviceInstance | None = None,
) -> float:
    """Activation exponent ln(tau/tau0) of a write of current_ua in
    direction on device, the nominal device of params when None,
    floored at zero.

    The floor implements the tau >= tau0 clamp for overdrive currents
    at or above the critical current.
    """
    # params carries the nominal geometry under the device's field names.
    geometry = params if device is None else device
    # Tunneling resistance grows exponentially with barrier thickness.
    r_from = params.r_p_ohm * math.exp((geometry.t_tb_nm - params.t_tb_nm) / params.tb_decay_nm)
    if direction is SwitchDirection.P_TO_AP:
        delta_300 = params.delta_300 * (1.0 + params.delta_asym)
        ic0 = params.ic0_p2ap_ua
    else:
        delta_300 = params.delta_300 * (1.0 - params.delta_asym)
        ic0, r_from = params.ic0_ap2p_ua, r_from * (1.0 + geometry.tmr)
    # Barrier and critical current scale with free-layer volume.
    scale = geometry.t_fl_nm / params.t_fl_nm
    delta_t = delta_300 * scale * (300.0 / env.temperature_k)
    r_load = params.r_load_ohm
    divider = (params.r_p_ohm + r_load) / (r_from + r_load)
    i_eff = current_ua * (1.0 + env.v_variation_rate) * divider
    exponent = delta_t * (1.0 - i_eff / (ic0 * scale))
    return max(0.0, exponent)


def switching_probability(
    params: DeviceParams,
    direction: SwitchDirection,
    current_ua: float,
    env: Environment,
    device: DeviceInstance | None = None,
) -> float:
    """Probability that a PULSE_WIDTH_NS write of current_ua in
    direction switches device (the nominal device of params when None)
    sitting in the direction's source state.  Defined for any device
    state; the caller decides applicability."""
    exponent = switching_exponent(params, direction, current_ua, env, device)
    try:
        tau = params.tau0_ns * math.exp(exponent)
    except OverflowError:
        # tau beyond every float: the law's limit is a write that never switches.
        return 0.0
    return -math.expm1(-PULSE_WIDTH_NS / tau)


def _calibrate(params: DeviceParams, direction: SwitchDirection, hi: float) -> float:
    """Bisect the write current in [0, hi] until the nominal device's
    switching probability at Environment() hits CALIBRATION_TARGET to
    within 1e-6, so two polarities can differ by up to about 2e-6.
    Raises ValueError if the target is unreachable: above the
    saturation 1 - exp(-PULSE_WIDTH_NS / tau0), or below what a write
    at zero current already switches."""

    def probe(current: float) -> float:
        return switching_probability(params, direction, current, Environment())

    target = CALIBRATION_TARGET
    lo = 0.0
    p_lo, p_hi = probe(lo), probe(hi)
    if not p_lo - _CALIBRATION_TOL <= target <= p_hi + _CALIBRATION_TOL:
        raise ValueError(
            f"target probability {target} unreachable at width "
            f"{PULSE_WIDTH_NS} ns (attainable range is {p_lo:.6f} to {p_hi:.6f})"
        )
    for _ in range(_CALIBRATION_MAX_ITER):
        current = 0.5 * (lo + hi)
        p_mid = probe(current)
        if abs(p_mid - target) <= _CALIBRATION_TOL:
            return current
        if p_mid < target:
            lo = current
        else:
            hi = current
    raise ValueError(
        f"calibration did not converge to {target} in {_CALIBRATION_MAX_ITER} iterations"
    )


@functools.lru_cache
def calibrated_currents(params: DeviceParams) -> tuple[float, ...]:
    """The design's write currents for params in microamps, indexed by
    SwitchDirection: each polarity calibrated on the nominal device at
    Environment() to switch with probability CALIBRATION_TARGET in
    PULSE_WIDTH_NS, searching up to _CALIBRATION_CURRENT_SPAN times its
    critical current.  Cached, so generators of equal params share one
    immutable tuple."""
    ic0 = (params.ic0_p2ap_ua, params.ic0_ap2p_ua)  # indexed by SwitchDirection
    return tuple(
        _calibrate(params, direction, _CALIBRATION_CURRENT_SPAN * ic0[direction])
        for direction in SwitchDirection
    )


def flip_probs(
    params: DeviceParams, env: Environment, device: DeviceInstance | None = None
) -> tuple[float, float]:
    """(p1, p2) of device, the nominal device of params when None, under
    calibrated_currents(params) in env: the switching probabilities of
    the P to AP and the AP to P write."""
    currents = calibrated_currents(params)
    return tuple(
        switching_probability(params, d, currents[d], env, device) for d in SwitchDirection
    )
