"""Device model: resistances, switching law, calibration, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintrng.device import (
    STATE_AP,
    STATE_P,
    DeviceParams,
    Environment,
    SwitchDirection,
    WritePulse,
    apply_write,
    calibrate_pulse,
    calibrated_pulses,
    sample_device,
    sample_devices,
    switching_exponent,
    switching_probability,
)

NOMINAL = DeviceParams()
ENV = Environment()


def nominal_device():
    return sample_device(NOMINAL, process_variation=False)


class TestResistances:
    def test_nominal_values(self):
        dev = nominal_device()
        assert dev.r_p_eff_ohm == pytest.approx(5000.0)
        assert dev.r_ap_eff_ohm == pytest.approx(15000.0)
        assert dev.resistance_of(STATE_P) == dev.r_p_eff_ohm
        assert dev.resistance_of(STATE_AP) == dev.r_ap_eff_ohm

    def test_tmr_definition(self):
        dev = nominal_device()
        tmr = (dev.r_ap_eff_ohm - dev.r_p_eff_ohm) / dev.r_p_eff_ohm
        assert tmr == pytest.approx(2.0)

    def test_barrier_thickness_scales_resistance_exponentially(self):
        # one decay length of extra barrier multiplies R_P by e
        for seed in range(5):
            dev = sample_device(NOMINAL, seed=seed)
            expected = 5000.0 * math.exp((dev.t_tb_nm - 0.85) / 0.1)
            assert dev.r_p_eff_ohm == pytest.approx(expected, rel=1e-12)
            assert dev.r_ap_eff_ohm == pytest.approx(
                expected * (1.0 + dev.tmr), rel=1e-12
            )

    def test_free_layer_scales_barrier_and_critical_current(self):
        dev = sample_device(NOMINAL, seed=3)
        scale = dev.t_fl_nm / 1.3
        for direction in SwitchDirection:
            assert dev.delta_300_for(direction) == pytest.approx(
                NOMINAL.delta_300_for(direction) * scale
            )
            assert dev.ic0_for(direction) == pytest.approx(
                NOMINAL.ic0_for(direction) * scale
            )


class TestSwitchingLaw:
    def test_barrier_asymmetry(self):
        assert NOMINAL.delta_300_for(SwitchDirection.P_TO_AP) == pytest.approx(4.2)
        assert NOMINAL.delta_300_for(SwitchDirection.AP_TO_P) == pytest.approx(2.8)

    def test_direction_critical_currents(self):
        assert NOMINAL.ic0_for(SwitchDirection.P_TO_AP) == 55.0
        assert NOMINAL.ic0_for(SwitchDirection.AP_TO_P) == 40.0

    def test_exponent_formula_with_load_divider(self):
        dev = nominal_device()
        pulse = WritePulse(SwitchDirection.AP_TO_P, current_ua=30.0, width_ns=2.9)
        # switching from AP: the series load sees the high-R branch
        divider = (5000.0 + 2000.0) / (15000.0 + 2000.0)
        expected = 2.8 * (1.0 - 30.0 * divider / 40.0)
        assert switching_exponent(dev, pulse, ENV) == pytest.approx(expected)

    def test_exponent_clamped_at_zero_for_overdrive(self):
        dev = nominal_device()
        pulse = WritePulse(SwitchDirection.P_TO_AP, current_ua=500.0, width_ns=2.9)
        assert switching_exponent(dev, pulse, ENV) == 0.0

    def test_saturation_probability(self):
        # with the exponent clamped, tau = tau0 and P = 1 - exp(-w/tau0)
        dev = nominal_device()
        pulse = WritePulse(SwitchDirection.P_TO_AP, current_ua=500.0, width_ns=2.9)
        assert switching_probability(dev, pulse, ENV) == pytest.approx(
            1.0 - math.exp(-2.9), abs=1e-12
        )

    def test_temperature_rescales_exponent(self):
        dev = nominal_device()
        pulse = WritePulse(SwitchDirection.P_TO_AP, current_ua=40.0, width_ns=2.9)
        base = switching_exponent(dev, pulse, ENV)
        hot = switching_exponent(dev, pulse, Environment(temperature_k=330.0))
        assert hot == pytest.approx(base * 300.0 / 330.0, rel=1e-12)

    def test_supply_deviation_scales_effective_current(self):
        dev = nominal_device()
        bumped = switching_exponent(
            dev,
            WritePulse(SwitchDirection.P_TO_AP, 40.0, 2.9),
            Environment(v_variation_rate=0.1),
        )
        equivalent = switching_exponent(
            dev, WritePulse(SwitchDirection.P_TO_AP, 44.0, 2.9), ENV
        )
        assert bumped == pytest.approx(equivalent, rel=1e-12)

    @given(
        current=st.floats(1.0, 200.0),
        width=st.floats(0.1, 10.0),
        temp=st.floats(200.0, 400.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_probability_bounded_by_saturation(self, current, width, temp):
        dev = nominal_device()
        env = Environment(temperature_k=temp)
        for direction in SwitchDirection:
            p = switching_probability(
                dev, WritePulse(direction, current, width), env
            )
            assert 0.0 <= p <= 1.0 - math.exp(-width) + 1e-12

    def test_longer_pulse_switches_more(self):
        dev = nominal_device()
        probs = [
            switching_probability(
                dev, WritePulse(SwitchDirection.P_TO_AP, 45.0, w), ENV
            )
            for w in (1.0, 2.0, 4.0, 8.0)
        ]
        assert probs == sorted(probs)
        assert all(np.diff(probs) > 0)


class TestCalibration:
    @pytest.mark.parametrize("direction", list(SwitchDirection))
    @pytest.mark.parametrize("target", [0.3, 0.5, 0.9])
    def test_hits_target(self, direction, target):
        dev = nominal_device()
        pulse = calibrate_pulse(direction, target, 2.9, dev, ENV)
        assert pulse.width_ns == 2.9
        assert switching_probability(dev, pulse, ENV) == pytest.approx(
            target, abs=1e-6
        )

    def test_half_probability_operating_exponent(self):
        # P = 0.5 at width w pins the exponent at ln(w / (tau0 ln 2))
        dev = nominal_device()
        pulse = calibrate_pulse(SwitchDirection.P_TO_AP, 0.5, 2.9, dev, ENV)
        expected = math.log(2.9 / math.log(2.0))
        assert switching_exponent(dev, pulse, ENV) == pytest.approx(
            expected, abs=1e-5
        )

    def test_unreachable_target_rejected(self):
        # saturation at width 5 is 1 - exp(-5) = 0.99326, below the ask
        dev = nominal_device()
        with pytest.raises(ValueError):
            calibrate_pulse(SwitchDirection.P_TO_AP, 0.9999, 5.0, dev, ENV)

    def test_invalid_targets_rejected(self):
        dev = nominal_device()
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                calibrate_pulse(SwitchDirection.P_TO_AP, bad, 2.9, dev, ENV)

    def test_calibrated_pulses_covers_both_directions(self):
        dev = nominal_device()
        pulses = calibrated_pulses(dev, ENV)
        assert set(pulses) == set(SwitchDirection)
        for direction, pulse in pulses.items():
            assert pulse.direction is direction
            assert switching_probability(dev, pulse, ENV) == pytest.approx(
                0.5, abs=1e-6
            )


class TestApplyWrite:
    def test_inapplicable_pulse_is_noop_and_draws_nothing(self):
        dev = nominal_device()
        assert dev.state == STATE_P
        pulse = WritePulse(SwitchDirection.AP_TO_P, 40.0, 2.9)
        rng = np.random.default_rng(0)
        probe = np.random.default_rng(0)
        assert apply_write(dev, pulse, ENV, rng) is False
        assert dev.state == STATE_P
        assert rng.random() == probe.random()

    def test_certain_switch_flips_state(self):
        dev = nominal_device()
        pulse = WritePulse(SwitchDirection.P_TO_AP, 500.0, 1e9)
        rng = np.random.default_rng(1)
        assert apply_write(dev, pulse, ENV, rng) is True
        assert dev.state == STATE_AP

    def test_empirical_rate_matches_probability(self):
        pulse = WritePulse(SwitchDirection.P_TO_AP, 50.0, 2.9)
        dev = nominal_device()
        p = switching_probability(dev, pulse, ENV)
        rng = np.random.default_rng(7)
        n, hits = 20000, 0
        for _ in range(n):
            dev.state = STATE_P
            hits += apply_write(dev, pulse, ENV, rng)
        assert hits / n == pytest.approx(p, abs=4.0 * math.sqrt(p * (1 - p) / n))


class TestSampling:
    def test_no_variation_returns_nominals(self):
        dev = sample_device(NOMINAL, process_variation=False)
        assert (dev.t_fl_nm, dev.t_tb_nm, dev.tmr) == (1.3, 0.85, 2.0)

    def test_deterministic_per_seed(self):
        a = sample_device(NOMINAL, seed=11)
        b = sample_device(NOMINAL, seed=11)
        c = sample_device(NOMINAL, seed=12)
        assert (a.t_fl_nm, a.t_tb_nm, a.tmr) == (b.t_fl_nm, b.t_tb_nm, b.tmr)
        assert (a.t_fl_nm, a.t_tb_nm, a.tmr) != (c.t_fl_nm, c.t_tb_nm, c.tmr)

    def test_population_statistics(self):
        devs = sample_devices(NOMINAL, 4000, seed=0)
        t_fl = np.array([d.t_fl_nm for d in devs])
        t_tb = np.array([d.t_tb_nm for d in devs])
        tmr = np.array([d.tmr for d in devs])
        assert t_fl.mean() == pytest.approx(1.3, abs=0.003)
        assert t_fl.std() == pytest.approx(0.039, rel=0.1)
        assert t_tb.mean() == pytest.approx(0.85, abs=0.002)
        assert t_tb.std() == pytest.approx(0.0255, rel=0.1)
        assert tmr.std() == pytest.approx(0.06, rel=0.1)
        assert all(d.state == STATE_P for d in devs[:50])

    def test_zero_sigma_collapses_to_nominal(self):
        params = DeviceParams(sigma_t_fl=0.0, sigma_t_tb=0.0, sigma_tmr=0.0)
        dev = sample_device(params, seed=5)
        assert (dev.t_fl_nm, dev.t_tb_nm, dev.tmr) == (1.3, 0.85, 2.0)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_300": 0.0},
            {"delta_300": -1.0},
            {"tau0_ns": 0.0},
            {"r_p_ohm": -5.0},
            {"sigma_tmr": -0.01},
            {"delta_asym": 1.0},
            {"delta_asym": -1.5},
            {"ic0_p2ap_ua": 0.0},
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeviceParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature_k": 0.0},
            {"temperature_k": -10.0},
            {"v_variation_rate": 0.51},
            {"v_variation_rate": -0.51},
        ],
    )
    def test_bad_environment_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Environment(**kwargs)

    def test_environment_defaults(self):
        assert ENV.temperature_k == 300.0
        assert ENV.v_variation_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"current_ua": 0.0, "width_ns": 2.9},
            {"current_ua": -1.0, "width_ns": 2.9},
            {"current_ua": 40.0, "width_ns": 0.0},
        ],
    )
    def test_bad_pulse_rejected(self, kwargs):
        with pytest.raises(ValueError):
            WritePulse(direction=SwitchDirection.P_TO_AP, **kwargs)
