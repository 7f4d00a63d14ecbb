"""Device model: geometry, switching law, calibration, sampling."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintrng.device import (
    CALIBRATION_TARGET,
    PULSE_WIDTH_NS,
    STATE_AP,
    DeviceInstance,
    DeviceParams,
    Environment,
    SwitchDirection,
    calibrated_currents,
    flip_probs,
    sample_device,
    switching_exponent,
    switching_probability,
)
from spintrng.generator import BitGenerator, GeneratorConfig, Variant

NOMINAL = DeviceParams()
ENV = Environment()
NOMINAL_DEVICE = DeviceInstance(t_fl_nm=1.3, t_tb_nm=0.85, tmr=2.0)


def closed_form_exponent(device, direction, current_ua):
    """NOMINAL's law at ENV, written out for device's geometry."""
    scale = device.t_fl_nm / 1.3
    r_p = 5000.0 * math.exp((device.t_tb_nm - 0.85) / 0.1)
    if direction is SwitchDirection.P_TO_AP:
        barrier, ic0, r_from = 4.2, 55.0, r_p
    else:
        barrier, ic0, r_from = 2.8, 40.0, r_p * (1.0 + device.tmr)
    i_eff = current_ua * 7000.0 / (r_from + 2000.0)
    return barrier * scale * (1.0 - i_eff / (ic0 * scale))


def source_resistance(direction, device=None, current_ua=30.0):
    """The source-state resistance the law reads for device (the
    nominal device when None), recovered from the load divider in the
    exponent of a write of current_ua under NOMINAL at ENV."""
    scale = (device or NOMINAL_DEVICE).t_fl_nm / 1.3
    barrier, ic0 = (4.2, 55.0) if direction is SwitchDirection.P_TO_AP else (2.8, 40.0)
    exponent = switching_exponent(NOMINAL, direction, current_ua, ENV, device)
    divider = ic0 * scale * (1.0 - exponent / (barrier * scale)) / current_ua
    return 7000.0 / divider - 2000.0


class TestResistances:
    def test_nominal_values(self):
        assert source_resistance(SwitchDirection.P_TO_AP) == pytest.approx(5000.0)
        assert source_resistance(SwitchDirection.AP_TO_P) == pytest.approx(15000.0)

    def test_tmr_definition(self):
        for dev in (None, sample_device(NOMINAL, seed=4)):
            r_p = source_resistance(SwitchDirection.P_TO_AP, dev)
            r_ap = source_resistance(SwitchDirection.AP_TO_P, dev)
            assert (r_ap - r_p) / r_p == pytest.approx((dev or NOMINAL_DEVICE).tmr, rel=1e-9)

    def test_barrier_thickness_scales_resistance_exponentially(self):
        # one decay length of extra barrier multiplies R_P by e
        for seed in range(5):
            dev = sample_device(NOMINAL, seed=seed)
            expected = 5000.0 * math.exp((dev.t_tb_nm - 0.85) / 0.1)
            assert source_resistance(SwitchDirection.P_TO_AP, dev) == pytest.approx(
                expected, rel=1e-9
            )
            assert source_resistance(SwitchDirection.AP_TO_P, dev) == pytest.approx(
                expected * (1.0 + dev.tmr), rel=1e-9
            )

    def test_sampled_exponent_is_the_closed_form_of_its_geometry(self):
        for seed in range(5):
            dev = sample_device(NOMINAL, seed=seed)
            for direction in SwitchDirection:
                for current in (0.0, 20.0, 30.0):
                    assert switching_exponent(
                        NOMINAL, direction, current, ENV, dev
                    ) == pytest.approx(closed_form_exponent(dev, direction, current), rel=1e-12)

    def test_free_layer_scales_barrier_and_critical_current(self):
        # barrier and Ic0 both scale by s = t_fl / 1.3, so s times the
        # current gives s times the nominal device's exponent
        scale = sample_device(NOMINAL, seed=3).t_fl_nm / 1.3
        thicker = dataclasses.replace(NOMINAL_DEVICE, t_fl_nm=1.3 * scale)
        for direction in SwitchDirection:
            for current in (0.0, 20.0, 30.0):
                assert switching_exponent(
                    NOMINAL, direction, current * scale, ENV, thicker
                ) == pytest.approx(scale * switching_exponent(NOMINAL, direction, current, ENV))


class TestSwitchingLaw:
    def test_barrier_asymmetry(self):
        # at zero current the exponent is the polarity's whole barrier
        assert switching_exponent(NOMINAL, SwitchDirection.P_TO_AP, 0.0, ENV) == pytest.approx(4.2)
        assert switching_exponent(NOMINAL, SwitchDirection.AP_TO_P, 0.0, ENV) == pytest.approx(2.8)

    def test_direction_critical_currents(self):
        # an effective current of Ic0 / 2 halves the barrier: from P the
        # divider is 1, from AP it is 7000 / 17000
        assert switching_exponent(NOMINAL, SwitchDirection.P_TO_AP, 55.0 / 2, ENV) == pytest.approx(
            4.2 / 2
        )
        from_ap = 40.0 / 2 * 17000.0 / 7000.0
        assert switching_exponent(NOMINAL, SwitchDirection.AP_TO_P, from_ap, ENV) == pytest.approx(
            2.8 / 2
        )

    def test_exponent_formula_with_load_divider(self):
        # switching from AP: the series load sees the high-R branch
        divider = (5000.0 + 2000.0) / (15000.0 + 2000.0)
        expected = 2.8 * (1.0 - 30.0 * divider / 40.0)
        assert switching_exponent(NOMINAL, SwitchDirection.AP_TO_P, 30.0, ENV) == pytest.approx(
            expected
        )
        # switching from P: the divider is the nominal one, 1
        expected = 4.2 * (1.0 - 30.0 / 55.0)
        assert switching_exponent(NOMINAL, SwitchDirection.P_TO_AP, 30.0, ENV) == pytest.approx(
            expected
        )
        # the divider follows the device's own source-state resistance:
        # a TMR of 4 puts R_AP at 25 kohm
        high_ap = dataclasses.replace(NOMINAL_DEVICE, tmr=4.0)
        divider = (5000.0 + 2000.0) / (25000.0 + 2000.0)
        expected = 2.8 * (1.0 - 30.0 * divider / 40.0)
        assert switching_exponent(
            NOMINAL, SwitchDirection.AP_TO_P, 30.0, ENV, high_ap
        ) == pytest.approx(
            expected
        )

    def test_exponent_clamped_at_zero_for_overdrive(self):
        assert switching_exponent(NOMINAL, SwitchDirection.P_TO_AP, 500.0, ENV) == 0.0

    def test_saturation_probability(self):
        # with the exponent clamped, tau = tau0 and P = 1 - exp(-w/tau0)
        assert switching_probability(NOMINAL, SwitchDirection.P_TO_AP, 500.0, ENV) == pytest.approx(
            1.0 - math.exp(-2.9), abs=1e-12
        )

    def test_an_overflowing_law_never_switches(self):
        # exp(1200 * (1 - 0)) overflows a float: tau is past every float
        params = DeviceParams(delta_300=1000.0)
        assert switching_probability(params, SwitchDirection.P_TO_AP, 0.0, ENV) == 0.0
        # so the zero-current probe no longer stops calibration
        currents = calibrated_currents(params)
        for direction in SwitchDirection:
            p = switching_probability(params, direction, currents[direction], ENV)
            assert p == pytest.approx(0.5, abs=1e-6)

    def test_temperature_rescales_exponent(self):
        base = switching_exponent(NOMINAL, SwitchDirection.P_TO_AP, 40.0, ENV)
        hot = switching_exponent(
            NOMINAL, SwitchDirection.P_TO_AP, 40.0, Environment(temperature_k=330.0)
        )
        assert hot == pytest.approx(base * 300.0 / 330.0, rel=1e-12)

    def test_supply_deviation_scales_effective_current(self):
        bumped = switching_exponent(
            NOMINAL, SwitchDirection.P_TO_AP, 40.0, Environment(v_variation_rate=0.1)
        )
        equivalent = switching_exponent(NOMINAL, SwitchDirection.P_TO_AP, 44.0, ENV)
        assert bumped == pytest.approx(equivalent, rel=1e-12)

    @given(current=st.floats(1.0, 200.0), temp=st.floats(200.0, 400.0))
    @settings(max_examples=60, deadline=None)
    def test_probability_bounded_by_saturation(self, current, temp):
        env = Environment(temperature_k=temp)
        for direction in SwitchDirection:
            p = switching_probability(NOMINAL, direction, current, env)
            assert 0.0 <= p <= 1.0 - math.exp(-PULSE_WIDTH_NS) + 1e-12


class TestCalibration:
    @pytest.mark.parametrize("direction", list(SwitchDirection))
    @pytest.mark.parametrize("target", [CALIBRATION_TARGET])
    def test_hits_target(self, direction, target):
        current = calibrated_currents(NOMINAL)[direction]
        assert switching_probability(NOMINAL, direction, current, ENV) == pytest.approx(
            target, abs=1e-6
        )

    def test_half_probability_operating_exponent(self):
        # P = 0.5 at width w pins the exponent at ln(w / (tau0 ln 2))
        current = calibrated_currents(NOMINAL)[SwitchDirection.P_TO_AP]
        expected = math.log(2.9 / math.log(2.0))
        assert switching_exponent(NOMINAL, SwitchDirection.P_TO_AP, current, ENV) == pytest.approx(
            expected, abs=1e-5
        )

    def test_unreachable_target_rejected(self):
        # saturation at tau0 = 5 ns is 1 - exp(-2.9 / 5) = 0.440, below 0.5
        with pytest.raises(ValueError, match="unreachable"):
            calibrated_currents(DeviceParams(tau0_ns=5.0))

    def test_target_below_the_zero_current_probability_rejected(self):
        # with no barrier, a write at zero current already switches with
        # 1 - exp(-2.9) = 0.945, so no current lowers it to 0.5
        with pytest.raises(ValueError, match="unreachable"):
            calibrated_currents(DeviceParams(delta_300=1e-9))

    def test_calibrated_pulses_covers_both_directions(self):
        currents = calibrated_currents(NOMINAL)
        # one immutable tuple, indexed by direction, shared by equal params
        assert isinstance(currents, tuple)
        assert calibrated_currents(DeviceParams()) is currents
        assert currents == (36.257751286029816, 47.48821258544922)
        for direction in SwitchDirection:
            assert switching_probability(NOMINAL, direction, currents[direction], ENV) == (
                pytest.approx(0.5, abs=1e-6)
            )


class TestFlipProbs:
    def test_currents_come_from_params(self):
        # a sampled device sees the currents calibrated on the nominal
        # device of its params, so its writes miss the target
        device = sample_device(NOMINAL, seed=3)
        currents = calibrated_currents(NOMINAL)
        assert flip_probs(NOMINAL, ENV, device) == tuple(
            switching_probability(NOMINAL, d, currents[d], ENV, device) for d in SwitchDirection
        )
        assert abs(flip_probs(NOMINAL, ENV, device)[0] - 0.5) > 1e-3

    def test_no_device_means_the_nominal_device(self):
        env = Environment(temperature_k=320.0, v_variation_rate=0.04)
        assert flip_probs(NOMINAL, env) == flip_probs(NOMINAL, env, NOMINAL_DEVICE)
        assert flip_probs(NOMINAL, ENV) == pytest.approx((0.5, 0.5), abs=1e-6)


class TestApplyWrite:
    """A write applied by the generator switches its cell with the
    write's switching probability."""

    @staticmethod
    def use_current(monkeypatch, current_ua):
        """Make every write, as flip_probs sees it, use this current in
        both directions instead of the calibrated ones."""
        currents = (current_ua,) * len(SwitchDirection)
        monkeypatch.setattr("spintrng.device.calibrated_currents", lambda params: currents)

    def test_certain_switch_flips_state(self, monkeypatch):
        # an overdriven write on a 1 fs tau0 switches with P = 1
        params = DeviceParams(tau0_ns=1e-6)
        self.use_current(monkeypatch, 500.0)
        assert switching_probability(params, SwitchDirection.P_TO_AP, 500.0, ENV) == 1.0
        # conv-p2ap resets to P, writes towards AP and emits the state
        probs = [flip_probs(params, ENV)]
        gen = BitGenerator(GeneratorConfig(Variant.CONV_P_TO_AP), seed=1, probs=probs)
        assert gen.generate(64).bits.tolist() == [STATE_AP] * 64

    def test_empirical_rate_matches_probability(self, monkeypatch):
        self.use_current(monkeypatch, 50.0)
        p = switching_probability(NOMINAL, SwitchDirection.P_TO_AP, 50.0, ENV)
        gen = BitGenerator(GeneratorConfig(Variant.CONV_P_TO_AP), seed=7)
        n = 20000
        hits = int(gen.generate(n).bits.sum())
        assert hits / n == pytest.approx(p, abs=4.0 * math.sqrt(p * (1 - p) / n))


class TestSampling:
    def test_no_variation_returns_nominals(self):
        # with every sigma zero a draw is the nominal device, and the
        # law gives it exactly what it gives no device
        params = DeviceParams(sigma_t_fl=0.0, sigma_t_tb=0.0, sigma_tmr=0.0)
        env = Environment(temperature_k=320.0, v_variation_rate=0.04)
        for seed in range(3):
            dev = sample_device(params, seed=seed)
            assert dev == NOMINAL_DEVICE
            assert flip_probs(params, env, dev) == flip_probs(params, env)

    def test_devices_are_frozen_and_stateless(self):
        dev = sample_device(NOMINAL, seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            dev.t_fl_nm = 2.0
        # a device is its geometry alone
        assert [f.name for f in dataclasses.fields(dev)] == ["t_fl_nm", "t_tb_nm", "tmr"]

    def test_deterministic_per_seed(self):
        a = sample_device(NOMINAL, seed=11)
        b = sample_device(NOMINAL, seed=11)
        c = sample_device(NOMINAL, seed=12)
        assert (a.t_fl_nm, a.t_tb_nm, a.tmr) == (b.t_fl_nm, b.t_tb_nm, b.tmr)
        assert (a.t_fl_nm, a.t_tb_nm, a.tmr) != (c.t_fl_nm, c.t_tb_nm, c.tmr)

    def test_population_statistics(self):
        rng = np.random.default_rng(0)
        devs = [sample_device(NOMINAL, seed=rng) for _ in range(4000)]
        t_fl = np.array([d.t_fl_nm for d in devs])
        t_tb = np.array([d.t_tb_nm for d in devs])
        tmr = np.array([d.tmr for d in devs])
        assert t_fl.mean() == pytest.approx(1.3, abs=0.003)
        assert t_fl.std() == pytest.approx(0.039, rel=0.1)
        assert t_tb.mean() == pytest.approx(0.85, abs=0.002)
        assert t_tb.std() == pytest.approx(0.0255, rel=0.1)
        assert tmr.std() == pytest.approx(0.06, rel=0.1)

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
            {"r_load_ohm": math.nan},
            {"sigma_tmr": math.nan},
            {"tmr": math.inf},
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
            {"temperature_k": math.inf},
            {"temperature_k": math.nan},
        ],
    )
    def test_bad_environment_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Environment(**kwargs)

    def test_environment_defaults(self):
        assert ENV.temperature_k == 300.0
        assert ENV.v_variation_rate == 0.0
