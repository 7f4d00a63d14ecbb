"""Bitstream generators: cycle semantics, XOR wiring, timing, cost."""

import hashlib

import numpy as np
import pytest
from numpy.random import SeedSequence

from spintrng.device import (
    STATE_P,
    DeviceParams,
    Environment,
    SwitchDirection,
    apply_write,
    calibrated_pulses,
    sample_device,
)
from spintrng.generator import (
    BitGenerator,
    GeneratorConfig,
    Variant,
    cost_report,
    generate_bitstream,
    throughput_report,
)


def cfg(variant, **kwargs):
    return GeneratorConfig(variant=variant, **kwargs)


class TestCycleSemantics:
    def test_certain_flips_alternate_single_unit(self):
        # p1 = p2 = 1 toggles the state every cycle; first write leaves AP
        config = cfg(Variant.RHS_SINGLE, flip_prob_override=(1.0, 1.0))
        bits = generate_bitstream(config, n_bits=10, seed=0).bits
        assert bits.tolist() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_synchronized_alternators_cancel_under_xor(self):
        config = cfg(Variant.RHS_TRNG, flip_prob_override=(1.0, 1.0))
        bits = generate_bitstream(config, n_bits=64, seed=0).bits
        assert not bits.any()

    def test_frozen_chain_never_leaves_written_state(self):
        # p1 = 1, p2 = 0: one switch into AP, then stuck
        config = cfg(Variant.RHS_SINGLE, flip_prob_override=(1.0, 0.0))
        bits = generate_bitstream(config, n_bits=20, seed=3).bits
        assert bits.tolist() == [1] * 20

    def test_conventional_certain_write(self):
        config = cfg(Variant.CONV_P_TO_AP, flip_prob_override=(1.0, 1.0))
        assert generate_bitstream(config, n_bits=16, seed=0).bits.tolist() == [1] * 16
        config = cfg(Variant.CONV_AP_TO_P, flip_prob_override=(1.0, 1.0))
        assert generate_bitstream(config, n_bits=16, seed=0).bits.tolist() == [0] * 16

    def test_conventional_bits_are_iid_with_write_probability(self):
        config = cfg(Variant.CONV_P_TO_AP, flip_prob_override=(0.3, 0.5))
        bits = generate_bitstream(config, n_bits=200_000, seed=5).bits
        assert bits.mean() == pytest.approx(0.3, abs=0.004)
        # independence: lag-1 product expectation factorizes
        corr = np.corrcoef(bits[:-1], bits[1:])[0, 1]
        assert abs(corr) < 0.01

    def test_single_unit_matches_chain_steady_state(self):
        config = cfg(Variant.RHS_SINGLE, flip_prob_override=(0.3, 0.5))
        bits = generate_bitstream(config, n_bits=400_000, seed=9).bits
        assert bits.mean() == pytest.approx(0.3 / 0.8, abs=0.004)


class TestXorWiring:
    def test_trng_is_xor_of_unit_trajectories(self):
        gen = BitGenerator(
            cfg(Variant.RHS_TRNG, flip_prob_override=(0.4, 0.6)), seed=21
        )
        stream, states = gen.generate(5000, return_unit_states=True)
        assert len(states) == 2
        np.testing.assert_array_equal(stream.bits, states[0] ^ states[1])

    def test_parallel_adjacent_xor_row_major(self):
        lanes = 3
        gen = BitGenerator(
            cfg(Variant.RHS_PARALLEL, lanes=lanes, flip_prob_override=(0.4, 0.6)),
            seed=4,
        )
        n_bits = 3 * lanes * 7
        stream, states = gen.generate(n_bits, return_unit_states=True)
        assert len(states) == lanes + 1
        stacked = np.stack(states, axis=1)
        expected = (stacked[:, :-1] ^ stacked[:, 1:]).reshape(-1)[:n_bits]
        np.testing.assert_array_equal(stream.bits, expected)

    def test_unit_streams_are_independent(self):
        gen = BitGenerator(
            cfg(Variant.RHS_TRNG, flip_prob_override=(0.5, 0.5)), seed=33
        )
        _, states = gen.generate(200_000, return_unit_states=True)
        corr = np.corrcoef(states[0], states[1])[0, 1]
        assert abs(corr) < 0.01


def reference_bits(config, entropy, n_bits):
    """Cycle-by-cycle reference for BitGenerator.generate at nominal
    devices and conditions.

    Each unit draws from its own default_rng, spawned from
    SeedSequence(entropy) in unit order, and every cycle applies one
    write pulse to it: device.apply_write on the physics path, a
    comparison u < p with flip_prob_override.  A conventional cycle
    first resets the cell to the pulse's source state; a feedback cycle
    writes the inverse of the state it reads.  The emitted value is the
    post-write state (XORed across adjacent cells), so the
    deterministic initial state never reaches the stream.
    """
    rngs = [np.random.default_rng(s) for s in SeedSequence(entropy).spawn(config.n_units)]
    devices = [sample_device(DeviceParams(), process_variation=False) for _ in rngs]
    pulses = calibrated_pulses(devices[0], Environment())
    override = config.flip_prob_override

    def write(device, direction, rng):
        if override is None:
            apply_write(device, pulses[direction], Environment(), rng)
            return
        p = override[0] if direction is SwitchDirection.P_TO_AP else override[1]
        if rng.random() < p:
            device.state = direction.target_state

    bits = []
    while len(bits) < n_bits:
        if config.variant.is_conventional:
            direction = (
                SwitchDirection.AP_TO_P
                if config.variant is Variant.CONV_AP_TO_P
                else SwitchDirection.P_TO_AP
            )
            devices[0].state = direction.source_state
            write(devices[0], direction, rngs[0])
            bits.append(devices[0].state)
            continue
        for device, rng in zip(devices, rngs):
            direction = (
                SwitchDirection.P_TO_AP if device.state == STATE_P else SwitchDirection.AP_TO_P
            )
            write(device, direction, rng)
        states = [device.state for device in devices]
        if config.variant is Variant.RHS_SINGLE:
            bits.append(states[0])
        else:
            bits.extend(a ^ b for a, b in zip(states, states[1:]))
    return np.array(bits[:n_bits], dtype=np.uint8)


class TestFastSlowEquivalence:
    @pytest.mark.parametrize(
        "variant,lanes",
        [
            (Variant.RHS_SINGLE, 1),
            (Variant.RHS_TRNG, 1),
            (Variant.CONV_P_TO_AP, 1),
            (Variant.CONV_AP_TO_P, 1),
            (Variant.RHS_PARALLEL, 3),
        ],
    )
    def test_step_and_generate_agree(self, variant, lanes):
        config = cfg(variant, lanes=lanes, flip_prob_override=(0.37, 0.61))
        n_bits = 257
        fast = BitGenerator(config, seed=SeedSequence([17])).generate(n_bits).bits
        np.testing.assert_array_equal(fast, reference_bits(config, [17], n_bits))

    def test_physics_path_step_and_generate_agree(self):
        config = cfg(Variant.RHS_TRNG)
        fast = BitGenerator(config, seed=SeedSequence([8])).generate(123).bits
        np.testing.assert_array_equal(fast, reference_bits(config, [8], 123))


# sha256 of generate_bitstream(...).bits.tobytes() at seed 2024, 10^5 bits.
# A change to these is a change to every stream the tool has ever written.
_PINNED_SHA256 = {
    (Variant.CONV_P_TO_AP, None): "011d3c3cf2fc9e48361c18c10f2de6a75039d8f5c3363695035e0b1b6b735757",
    (Variant.CONV_AP_TO_P, None): "76f007709915b83afbd26f82f7bef396e095d90097a2c3ba816e2cb3210a2348",
    (Variant.RHS_SINGLE, None): "b5fab97e5f6dcf00bb1efb329644b5cd7fd66c398e85b4b35c02ee71998e22d1",
    (Variant.RHS_TRNG, None): "216428c6023f4a3ecbacef7e5375cd198df6d5e5b68a34ec720d6d639e7a2028",
    (Variant.RHS_PARALLEL, None): "3661e6b9ced2f548654fea48aa35656d6634f6ced5e1fa7874896397c4e90722",
    (Variant.CONV_P_TO_AP, (0.37, 0.61)): "9eb2c657db2fe45f9a6a834bcf1ebdccb240cbfbb9552428ac0e08ad2918290d",
    (Variant.CONV_AP_TO_P, (0.37, 0.61)): "5c1320c48bf5a47110bb4c73ce8b3ea90068bb78882b29d56414bc09c8b460fb",
    (Variant.RHS_SINGLE, (0.37, 0.61)): "5ddee95db8915605147e132f8e83b72002adbc120f5a83e921682ba0429e84fa",
    (Variant.RHS_TRNG, (0.37, 0.61)): "ad5e8daef322686451aa31a232d2d210dce404e98181a73df65edae5235e2c00",
    (Variant.RHS_PARALLEL, (0.37, 0.61)): "4cb6721c309d730a39978e397fe4128d8c55eef82b5c5f84003d3ac6dd31dcf2",
}


@pytest.mark.parametrize(
    "variant,override",
    list(_PINNED_SHA256),
    ids=lambda x: x.value if isinstance(x, Variant) else ("physics" if x is None else "override"),
)
def test_generate_output_is_pinned(variant, override):
    lanes = 3 if variant is Variant.RHS_PARALLEL else 1
    config = cfg(variant, lanes=lanes, flip_prob_override=override)
    bits = generate_bitstream(config, n_bits=100_000, seed=2024).bits
    assert hashlib.sha256(bits.tobytes()).hexdigest() == _PINNED_SHA256[(variant, override)]


class TestCalibrationAndPhysics:
    def test_nominal_operating_point_is_balanced(self):
        gen = BitGenerator(cfg(Variant.RHS_TRNG), seed=0)
        for p1, p2 in gen.realized_flip_probs():
            assert p1 == pytest.approx(0.5, abs=1e-6)
            assert p2 == pytest.approx(0.5, abs=1e-6)

    def test_nominal_stream_is_nearly_fair(self):
        bits = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=200_000, seed=1).bits
        assert bits.mean() == pytest.approx(0.5, abs=0.005)


class TestDeterminism:
    def test_same_seed_same_bits(self):
        a = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=4096, seed=42).bits
        b = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=4096, seed=42).bits
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=4096, seed=42).bits
        b = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=4096, seed=43).bits
        assert (a != b).any()

    def test_prefix_stability(self):
        # a longer request extends, never rewrites, the shorter one
        short = generate_bitstream(
            cfg(Variant.RHS_SINGLE, flip_prob_override=(0.4, 0.6)),
            n_bits=500,
            seed=SeedSequence([5]),
        ).bits
        long = generate_bitstream(
            cfg(Variant.RHS_SINGLE, flip_prob_override=(0.4, 0.6)),
            n_bits=1500,
            seed=SeedSequence([5]),
        ).bits
        np.testing.assert_array_equal(short, long[:500])

    @pytest.mark.parametrize(
        "variant", [Variant.RHS_TRNG, Variant.CONV_AP_TO_P, Variant.RHS_PARALLEL]
    )
    def test_generate_calls_continue_one_run(self, variant):
        # each cell's state and substream carry over between calls, and
        # so do the rhs-parallel lanes a call leaves unused
        config = cfg(variant, lanes=3 if variant is Variant.RHS_PARALLEL else 1)
        gen = BitGenerator(config, seed=SeedSequence([6]))
        parts = [gen.generate(n).bits for n in (300, 1, 199, 1, 1)]
        whole = generate_bitstream(config, n_bits=502, seed=SeedSequence([6])).bits
        np.testing.assert_array_equal(np.concatenate(parts), whole)


class TestTimingAndCost:
    def test_default_cycle_times(self):
        # exact: the sidecar's simulated time is a multiple of these
        assert throughput_report(cfg(Variant.RHS_TRNG)).cycle_ns == 3.3
        assert throughput_report(cfg(Variant.RHS_SINGLE)).cycle_ns == 3.3
        assert throughput_report(cfg(Variant.CONV_P_TO_AP)).cycle_ns == 6.199999999999999

    def test_single_cell_rate(self):
        rep = throughput_report(cfg(Variant.RHS_SINGLE))
        assert rep.mbps_per_lane == pytest.approx(1000.0 / 3.3)
        assert round(rep.mbps_per_lane) == 303

    def test_conventional_rate(self):
        rep = throughput_report(cfg(Variant.CONV_AP_TO_P))
        assert rep.mbps_per_lane == pytest.approx(1000.0 / 6.2)

    def test_parallel_aggregate_rate(self):
        rep = throughput_report(cfg(Variant.RHS_PARALLEL, lanes=8))
        assert rep.lanes == 8
        assert rep.mbps_aggregate == pytest.approx(8 * 1000.0 / 3.3)

    def test_simulated_time_accounting(self):
        stream = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=1_000_000, seed=0)
        assert stream.simulated_time_ns == pytest.approx(3.3e6)
        stream = generate_bitstream(cfg(Variant.CONV_P_TO_AP), n_bits=1000, seed=0)
        assert stream.simulated_time_ns == pytest.approx(6200.0)

    def test_parallel_time_rounds_up_to_whole_cycles(self):
        config = cfg(Variant.RHS_PARALLEL, lanes=4, flip_prob_override=(0.5, 0.5))
        stream = generate_bitstream(config, n_bits=10, seed=0)
        assert stream.simulated_time_ns == pytest.approx(3 * 3.3)

    def test_reference_cost_points(self):
        trng = cost_report(cfg(Variant.RHS_TRNG))
        assert (trng.energy_pj_per_bit, trng.area_um2_per_bit) == (5.3, 24.29)
        single = cost_report(cfg(Variant.RHS_SINGLE))
        assert (single.energy_pj_per_bit, single.area_um2_per_bit) == (2.65, 9.79)
        conv = cost_report(cfg(Variant.CONV_P_TO_AP))
        assert conv.energy_pj_per_bit == pytest.approx(5.3)
        assert conv.area_um2_per_bit == pytest.approx(9.79)

    def test_parallel_amortization_formula(self):
        xor_area = 24.29 - 2 * 9.79
        for n in (1, 2, 8, 64, 1024):
            rep = cost_report(cfg(Variant.RHS_PARALLEL, lanes=n))
            assert rep.energy_pj_per_bit == pytest.approx(2.65 * (n + 1) / n)
            assert rep.area_um2_per_bit == pytest.approx(
                ((n + 1) * 9.79 + n * xor_area) / n
            )

    def test_parallel_costs_decrease_toward_asymptotes(self):
        energies, areas = [], []
        for n in (1, 2, 4, 16, 256, 65536):
            rep = cost_report(cfg(Variant.RHS_PARALLEL, lanes=n))
            energies.append(rep.energy_pj_per_bit)
            areas.append(rep.area_um2_per_bit)
        assert energies == sorted(energies, reverse=True)
        assert areas == sorted(areas, reverse=True)
        assert energies[-1] == pytest.approx(2.65, rel=1e-4)
        assert areas[-1] == pytest.approx(14.5, rel=1e-3)

    def test_energy_accounting_follows_cost_report(self):
        for variant in (Variant.RHS_TRNG, Variant.RHS_SINGLE, Variant.CONV_AP_TO_P):
            config = cfg(variant, flip_prob_override=(0.5, 0.5))
            stream = generate_bitstream(config, n_bits=1000, seed=0)
            assert stream.energy_pj == pytest.approx(
                1000 * cost_report(config).energy_pj_per_bit
            )


class TestStreamMetadata:
    def test_fields(self):
        stream = generate_bitstream(
            cfg(Variant.RHS_PARALLEL, lanes=2, flip_prob_override=(0.5, 0.5)),
            n_bits=100,
            seed=77,
        )
        assert stream.n_bits == 100
        assert len(stream.bits) == 100
        assert stream.variant == "rhs-parallel"
        assert stream.lanes == 2
        assert stream.seed == 77

    def test_bits_are_binary_uint8(self):
        stream = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=1000, seed=0)
        assert stream.bits.dtype == np.uint8
        assert set(np.unique(stream.bits)) <= {0, 1}


class TestValidation:
    def test_bad_lanes(self):
        with pytest.raises(ValueError):
            GeneratorConfig(variant=Variant.RHS_PARALLEL, lanes=0)

    def test_bad_override(self):
        with pytest.raises(ValueError):
            GeneratorConfig(variant=Variant.RHS_TRNG, flip_prob_override=(1.2, 0.5))

    def test_bad_bit_count(self):
        with pytest.raises(ValueError):
            generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=0, seed=0)

    def test_unit_counts(self):
        assert cfg(Variant.RHS_TRNG).n_units == 2
        assert cfg(Variant.RHS_SINGLE).n_units == 1
        assert cfg(Variant.CONV_P_TO_AP).n_units == 1
        assert cfg(Variant.RHS_PARALLEL, lanes=5).n_units == 6
        assert cfg(Variant.RHS_PARALLEL, lanes=5).bits_per_cycle == 5
