"""Behavioral model of a single STT-MTJ storage element.

The element has two stable magnetic states, P (parallel, low
resistance) and AP (anti-parallel, high resistance).  A write pulse of
a given polarity switches it with a probability that follows a
thermally activated switching-time law:

    tau  = tau0 * exp(delta(T) * (1 - I_eff / Ic0_dir)),  tau >= tau0
    P_sw = 1 - exp(-width / tau)

Drive current is divided by the series resistance of the selected cell,
so the two switching polarities see different effective currents, and
supply-rail variation scales the drive linearly.  Process variation is
modeled by Gaussian sampling of the free-layer thickness, the tunnel
barrier thickness, and the TMR ratio, each propagated to the switching
parameters through first-order physical dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

# State encoding used for bit output everywhere in the package.
STATE_P = 0
STATE_AP = 1

# The design's write pulse: every write lasts PULSE_WIDTH_NS, and the
# current of each polarity is calibrated on the nominal device so that
# the pulse switches with probability CALIBRATION_TARGET.
PULSE_WIDTH_NS = 2.9
CALIBRATION_TARGET = 0.5

_MAX_RESAMPLE = 100
_CALIBRATION_TOL = 1e-6
_CALIBRATION_MAX_ITER = 200
_CALIBRATION_CURRENT_SPAN = 100.0  # upper bisection bound, multiples of Ic0


class SwitchDirection(IntEnum):
    """Write polarity, named by the transition it drives."""

    AP_TO_P = 0
    P_TO_AP = 1

    @property
    def source_state(self) -> int:
        return STATE_AP if self is SwitchDirection.AP_TO_P else STATE_P

    @property
    def target_state(self) -> int:
        return STATE_P if self is SwitchDirection.AP_TO_P else STATE_AP


@dataclass(frozen=True)
class DeviceParams:
    """Nominal device geometry, resistances, and switching constants.

    Thickness/TMR sigmas default to 3 percent of their nominals.  The
    switching constants (delta_300, delta_asym, Ic0 per direction,
    tau0) are behavioral-model calibration values: they only need to
    admit the CALIBRATION_TARGET operating point at the PULSE_WIDTH_NS
    write pulse and to produce the documented direction asymmetry.
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
        positive = (
            ("t_fl_nm", self.t_fl_nm),
            ("t_tb_nm", self.t_tb_nm),
            ("tmr", self.tmr),
            ("r_p_ohm", self.r_p_ohm),
            ("delta_300", self.delta_300),
            ("ic0_ap2p_ua", self.ic0_ap2p_ua),
            ("ic0_p2ap_ua", self.ic0_p2ap_ua),
            ("tau0_ns", self.tau0_ns),
            ("tb_decay_nm", self.tb_decay_nm),
        )
        for name, value in positive:
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.r_load_ohm < 0.0:
            raise ValueError(f"r_load_ohm must be >= 0, got {self.r_load_ohm}")
        for name, value in (
            ("sigma_t_fl", self.sigma_t_fl),
            ("sigma_t_tb", self.sigma_t_tb),
            ("sigma_tmr", self.sigma_tmr),
        ):
            if value < 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if not -1.0 < self.delta_asym < 1.0:
            raise ValueError(
                f"delta_asym must lie in (-1, 1), got {self.delta_asym}"
            )

    def delta_300_for(self, direction: SwitchDirection) -> float:
        """Thermal stability factor of one polarity at 300 K.

        The P to AP transition carries the higher barrier; the spread
        between polarities is controlled by delta_asym.
        """
        if direction is SwitchDirection.P_TO_AP:
            return self.delta_300 * (1.0 + self.delta_asym)
        return self.delta_300 * (1.0 - self.delta_asym)

    def ic0_for(self, direction: SwitchDirection) -> float:
        if direction is SwitchDirection.P_TO_AP:
            return self.ic0_p2ap_ua
        return self.ic0_ap2p_ua


@dataclass(frozen=True)
class Environment:
    """Operating conditions: ambient temperature and supply-rail shift.

    v_variation_rate is a signed fraction applied to both supply
    rails, so it scales every write current by (1 + rate).
    """

    temperature_k: float = 300.0
    v_variation_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.temperature_k > 0.0:
            raise ValueError(f"temperature_k must be > 0, got {self.temperature_k}")
        if not -0.5 <= self.v_variation_rate <= 0.5:
            raise ValueError(
                f"v_variation_rate must lie in [-0.5, 0.5], got {self.v_variation_rate}"
            )


@dataclass(frozen=True)
class WritePulse:
    direction: SwitchDirection
    current_ua: float
    width_ns: float

    def __post_init__(self) -> None:
        if not self.current_ua > 0.0:
            raise ValueError(f"current_ua must be > 0, got {self.current_ua}")
        if not self.width_ns > 0.0:
            raise ValueError(f"width_ns must be > 0, got {self.width_ns}")


@dataclass
class DeviceInstance:
    """One sampled device: realized geometry plus derived resistances.

    state is the cell's current magnetic state.  apply_write updates it
    per pulse; BitGenerator reads it once, as the cell's initial state,
    and never writes it.
    """

    params: DeviceParams
    t_fl_nm: float
    t_tb_nm: float
    tmr: float
    r_p_eff_ohm: float
    r_ap_eff_ohm: float
    state: int = STATE_P

    def resistance_of(self, state: int) -> float:
        return self.r_ap_eff_ohm if state == STATE_AP else self.r_p_eff_ohm

    def delta_300_for(self, direction: SwitchDirection) -> float:
        # Energy barrier scales with free-layer volume.
        scale = self.t_fl_nm / self.params.t_fl_nm
        return self.params.delta_300_for(direction) * scale

    def ic0_for(self, direction: SwitchDirection) -> float:
        scale = self.t_fl_nm / self.params.t_fl_nm
        return self.params.ic0_for(direction) * scale


def _sample_positive(rng: np.random.Generator, mean: float, sigma: float, name: str) -> float:
    if sigma == 0.0:
        return mean
    for _ in range(_MAX_RESAMPLE):
        value = rng.normal(mean, sigma)
        if value > 0.0:
            return value
    raise ValueError(
        f"could not draw a positive {name} in {_MAX_RESAMPLE} tries "
        f"(mean={mean}, sigma={sigma})"
    )


def _build_instance(
    params: DeviceParams, t_fl: float, t_tb: float, tmr: float
) -> DeviceInstance:
    # Tunneling resistance grows exponentially with barrier thickness.
    r_p_eff = params.r_p_ohm * math.exp((t_tb - params.t_tb_nm) / params.tb_decay_nm)
    r_ap_eff = r_p_eff * (1.0 + tmr)
    return DeviceInstance(
        params=params,
        t_fl_nm=t_fl,
        t_tb_nm=t_tb,
        tmr=tmr,
        r_p_eff_ohm=r_p_eff,
        r_ap_eff_ohm=r_ap_eff,
        state=STATE_P,
    )


def sample_device(
    params: DeviceParams,
    process_variation: bool = True,
    seed=None,
) -> DeviceInstance:
    """Draw one device.

    With process_variation off (or all sigmas zero) the sampled values
    equal the nominals.  Otherwise t_fl, t_tb, and tmr are drawn
    independently from Gaussians centered on their nominals; draws that
    land at or below zero are rejected and retried a bounded number of
    times.  Deterministic for a given seed.  Initial state is P.
    """
    if not process_variation:
        return _build_instance(params, params.t_fl_nm, params.t_tb_nm, params.tmr)
    rng = np.random.default_rng(seed)
    t_fl = _sample_positive(rng, params.t_fl_nm, params.sigma_t_fl, "t_fl_nm")
    t_tb = _sample_positive(rng, params.t_tb_nm, params.sigma_t_tb, "t_tb_nm")
    tmr = _sample_positive(rng, params.tmr, params.sigma_tmr, "tmr")
    return _build_instance(params, t_fl, t_tb, tmr)


def switching_exponent(
    device: DeviceInstance, pulse: WritePulse, env: Environment
) -> float:
    """Activation exponent ln(tau/tau0), floored at zero.

    The floor implements the tau >= tau0 clamp for overdrive currents
    at or above the critical current.
    """
    delta_t = device.delta_300_for(pulse.direction) * (300.0 / env.temperature_k)
    r_from = device.resistance_of(pulse.direction.source_state)
    r_load = device.params.r_load_ohm
    divider = (device.params.r_p_ohm + r_load) / (r_from + r_load)
    i_eff = pulse.current_ua * (1.0 + env.v_variation_rate) * divider
    exponent = delta_t * (1.0 - i_eff / device.ic0_for(pulse.direction))
    return max(0.0, exponent)


def switching_probability(
    device: DeviceInstance, pulse: WritePulse, env: Environment
) -> float:
    """Probability that the pulse switches a device sitting in the
    pulse's source state.  Defined for any device state; the caller
    decides applicability."""
    tau = device.params.tau0_ns * math.exp(switching_exponent(device, pulse, env))
    return -math.expm1(-pulse.width_ns / tau)


def apply_write(
    device: DeviceInstance,
    pulse: WritePulse,
    env: Environment,
    rng: np.random.Generator,
) -> bool:
    """Apply one write pulse; returns True if the state flipped.

    A pulse whose polarity does not oppose the current state is a
    no-op: a same-direction write cannot switch.  Consumes exactly one
    uniform draw from rng when the pulse is applicable.
    """
    if device.state != pulse.direction.source_state:
        return False
    p_sw = switching_probability(device, pulse, env)
    switched = rng.random() < p_sw
    if switched:
        device.state = pulse.direction.target_state
    return switched


def calibrate_pulse(
    direction: SwitchDirection,
    target_prob: float,
    width_ns: float,
    device: DeviceInstance,
    env: Environment,
) -> WritePulse:
    """Bisect the write current until the switching probability hits
    target_prob to within 1e-6.

    The bound holds per call, so per polarity: two polarities
    calibrated to one target can differ by up to about 2e-6.

    Calibration is normally run once at nominal conditions; the
    returned amplitude is then held fixed while the environment or the
    device population is varied, which is exactly the disturbance
    mechanism the sweeps study.  Raises ValueError if the target is
    not reachable inside the current search span, e.g. a saturation
    probability above 1 - exp(-width / tau0).
    """
    if not 0.0 < target_prob < 1.0:
        raise ValueError(f"target_prob must lie in (0, 1), got {target_prob}")
    if not width_ns > 0.0:
        raise ValueError(f"width_ns must be > 0, got {width_ns}")

    def probe(current: float) -> float:
        pulse = WritePulse(direction=direction, current_ua=current, width_ns=width_ns)
        return switching_probability(device, pulse, env)

    lo = 0.0
    hi = _CALIBRATION_CURRENT_SPAN * device.ic0_for(direction)
    p_hi = probe(hi)
    if p_hi < target_prob - _CALIBRATION_TOL:
        raise ValueError(
            f"target probability {target_prob} unreachable at width "
            f"{width_ns} ns (maximum attainable is {p_hi:.6f})"
        )
    current = hi
    for _ in range(_CALIBRATION_MAX_ITER):
        current = 0.5 * (lo + hi)
        p_mid = probe(current)
        if abs(p_mid - target_prob) <= _CALIBRATION_TOL:
            return WritePulse(direction=direction, current_ua=current, width_ns=width_ns)
        if p_mid < target_prob:
            lo = current
        else:
            hi = current
    raise ValueError(
        f"calibration did not converge to {target_prob} in "
        f"{_CALIBRATION_MAX_ITER} iterations"
    )


def calibrated_pulses(
    device: DeviceInstance, env: Environment
) -> dict[SwitchDirection, WritePulse]:
    """Calibrate both polarities to the design's operating point:
    PULSE_WIDTH_NS wide, switching with probability CALIBRATION_TARGET."""
    return {
        direction: calibrate_pulse(direction, CALIBRATION_TARGET, PULSE_WIDTH_NS, device, env)
        for direction in SwitchDirection
    }
