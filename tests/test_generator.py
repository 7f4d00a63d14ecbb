"""Bitstream generators: cycle semantics, XOR wiring, timing, cost."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SeedSequence

from spintrng.device import (
    STATE_AP,
    STATE_P,
    DeviceParams,
    Environment,
    SwitchDirection,
    calibrated_currents,
    sample_device,
    flip_probs,
    switching_probability,
)
from spintrng.generator import (
    BitGenerator,
    GeneratorConfig,
    Variant,
    _chain_states,
    _pack_less,
    generate_bitstream,
)


def cfg(variant, **kwargs):
    return GeneratorConfig(variant=variant, **kwargs)


def forced(config, pair):
    """pair = (p1, p2) in every unit of config, or None for the
    generator's default."""
    return None if pair is None else [pair] * config.n_units


def forced_bits(variant, pair, n_bits, seed, lanes=1):
    config = cfg(variant, lanes=lanes)
    return generate_bitstream(config, n_bits=n_bits, seed=seed, probs=forced(config, pair)).bits


class TestCycleSemantics:
    def test_certain_flips_alternate_single_unit(self):
        # p1 = p2 = 1 toggles the state every cycle; first write leaves AP
        bits = forced_bits(Variant.RHS_SINGLE, (1.0, 1.0), 10, 0)
        assert bits.tolist() == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_synchronized_alternators_cancel_under_xor(self):
        bits = forced_bits(Variant.RHS_TRNG, (1.0, 1.0), 64, 0)
        assert not bits.any()

    def test_frozen_chain_never_leaves_written_state(self):
        # p1 = 1, p2 = 0: one switch into AP, then stuck
        bits = forced_bits(Variant.RHS_SINGLE, (1.0, 0.0), 20, 3)
        assert bits.tolist() == [1] * 20

    def test_conventional_certain_write(self):
        assert forced_bits(Variant.CONV_P_TO_AP, (1.0, 1.0), 16, 0).tolist() == [1] * 16
        assert forced_bits(Variant.CONV_AP_TO_P, (1.0, 1.0), 16, 0).tolist() == [0] * 16

    def test_conventional_bits_are_iid_with_write_probability(self):
        bits = forced_bits(Variant.CONV_P_TO_AP, (0.3, 0.5), 200_000, 5)
        assert bits.mean() == pytest.approx(0.3, abs=0.004)
        # independence: lag-1 product expectation factorizes
        corr = np.corrcoef(bits[:-1], bits[1:])[0, 1]
        assert abs(corr) < 0.01

    def test_single_unit_matches_chain_steady_state(self):
        bits = forced_bits(Variant.RHS_SINGLE, (0.3, 0.5), 400_000, 9)
        assert bits.mean() == pytest.approx(0.3 / 0.8, abs=0.004)


def unpack_rows(rows, n_cycles):
    """Packed little-endian rows as one uint8 array of n_cycles bits each."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n_cycles, bitorder="little")


def unit_trajectories(config, pair, seed, n_cycles):
    """Each unit's states over the first n_cycles cycles that a
    generator built with this config, flip probabilities and seed runs."""
    gen = BitGenerator(config, seed=seed, probs=forced(config, pair))
    return list(unpack_rows(gen._cell_states(n_cycles), n_cycles))


class TestXorWiring:
    def test_trng_is_xor_of_unit_trajectories(self):
        config = cfg(Variant.RHS_TRNG)
        stream = BitGenerator(config, seed=21, probs=forced(config, (0.4, 0.6))).generate(5000)
        states = unit_trajectories(config, (0.4, 0.6), 21, 5000)
        assert len(states) == 2
        np.testing.assert_array_equal(stream.bits, states[0] ^ states[1])

    def test_parallel_adjacent_xor_row_major(self):
        lanes = 3
        config = cfg(Variant.RHS_PARALLEL, lanes=lanes)
        n_bits = 3 * lanes * 7
        stream = BitGenerator(config, seed=4, probs=forced(config, (0.4, 0.6))).generate(n_bits)
        states = unit_trajectories(config, (0.4, 0.6), 4, n_bits // lanes)
        assert len(states) == lanes + 1
        stacked = np.stack(states, axis=1)
        expected = (stacked[:, :-1] ^ stacked[:, 1:]).reshape(-1)
        np.testing.assert_array_equal(stream.bits, expected)

    @pytest.mark.parametrize("override", [None, (0.4, 0.6)], ids=["physics", "override"])
    def test_trng_is_the_one_lane_parallel_chain(self, override):
        trng = cfg(Variant.RHS_TRNG)
        one_lane = cfg(Variant.RHS_PARALLEL, lanes=1)
        a = generate_bitstream(trng, n_bits=5000, seed=SeedSequence([9]), probs=forced(trng, override))
        b = generate_bitstream(
            one_lane, n_bits=5000, seed=SeedSequence([9]), probs=forced(one_lane, override)
        )
        np.testing.assert_array_equal(a.bits, b.bits)
        assert (a.info.lanes, a.info.simulated_time_ns, a.info.energy_pj) == (
            b.info.lanes, b.info.simulated_time_ns, b.info.energy_pj
        )
        assert (trng.energy_pj_per_bit, trng.area_um2_per_bit) == (
            one_lane.energy_pj_per_bit, one_lane.area_um2_per_bit
        )

    def test_unit_streams_are_independent(self):
        states = unit_trajectories(cfg(Variant.RHS_TRNG), (0.5, 0.5), 33, 200_000)
        corr = np.corrcoef(states[0], states[1])[0, 1]
        assert abs(corr) < 0.01


def reference_bits(config, entropy, n_bits, override=None):
    """Cycle-by-cycle reference for BitGenerator.generate at nominal
    devices and conditions, or with every unit at override = (p1, p2).

    Each unit draws from its own default_rng, spawned from
    SeedSequence(entropy) in unit order, and every cycle applies one
    write to it: the write switches the cell when its draw u is below
    the write's switching probability (or the override's p).  A
    conventional cycle first resets the cell to the state the write
    leaves (AP for AP to P, P for P to AP); a feedback cycle writes the
    inverse of the state it reads.
    Every cell starts at P.  The emitted value is the post-write state
    (XORed across adjacent cells), so the deterministic initial state
    never reaches the stream.
    """
    rngs = [np.random.default_rng(s) for s in SeedSequence(entropy).spawn(config.n_units)]
    if override is None:
        currents = calibrated_currents(DeviceParams())
        p = {
            d: switching_probability(DeviceParams(), d, currents[d], Environment())
            for d in SwitchDirection
        }
    else:
        p = dict(zip(SwitchDirection, override))

    states = [STATE_P] * config.n_units
    bits = []
    while len(bits) < n_bits:
        if config.variant.is_conventional:
            direction = (
                SwitchDirection.AP_TO_P
                if config.variant is Variant.CONV_AP_TO_P
                else SwitchDirection.P_TO_AP
            )
            source = STATE_AP if direction is SwitchDirection.AP_TO_P else STATE_P
            bits.append(source ^ int(rngs[0].random() < p[direction]))
            continue
        for k, rng in enumerate(rngs):
            direction = SwitchDirection.P_TO_AP if states[k] == STATE_P else SwitchDirection.AP_TO_P
            states[k] ^= int(rng.random() < p[direction])
        if config.variant is Variant.RHS_SINGLE:
            bits.append(states[0])
        else:
            bits.extend(a ^ b for a, b in zip(states, states[1:]))
    return np.array(bits[:n_bits], dtype=np.uint8)


# Override pairs for the oracle comparison: (0, 0) never flips, (1, 1)
# flips every cycle, (0, 1) and (1, 0) force every draw and (0.5, 0.5)
# never does.  Cases for (0.37, 0.61) are named by variant and lanes only.
_ORACLE_OVERRIDES = ((0.37, 0.61), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5))


class TestFastSlowEquivalence:
    @pytest.mark.parametrize(
        "variant,lanes,override",
        [
            pytest.param(
                variant,
                lanes,
                override,
                id=f"{variant.value}-{lanes}"
                + ("" if override == (0.37, 0.61) else "-{:g}-{:g}".format(*override)),
            )
            for variant, lanes in (
                (Variant.RHS_SINGLE, 1),
                (Variant.RHS_TRNG, 1),
                (Variant.CONV_P_TO_AP, 1),
                (Variant.CONV_AP_TO_P, 1),
                (Variant.RHS_PARALLEL, 3),
            )
            for override in _ORACLE_OVERRIDES
        ],
    )
    def test_step_and_generate_agree(self, variant, lanes, override):
        config = cfg(variant, lanes=lanes)
        n_bits = 257
        gen = BitGenerator(config, seed=SeedSequence([17]), probs=forced(config, override))
        fast = gen.generate(n_bits).bits
        np.testing.assert_array_equal(fast, reference_bits(config, [17], n_bits, override))

    def test_physics_path_step_and_generate_agree(self):
        config = cfg(Variant.RHS_TRNG)
        fast = BitGenerator(config, seed=SeedSequence([8])).generate(123).bits
        np.testing.assert_array_equal(fast, reference_bits(config, [8], 123))


def sequential_states(u, p1, p2, x0):
    """X_t = X_{t-1} ^ (u_t < (p1 if X_{t-1} == 0 else p2)), one cycle
    at a time from X_0 = x0."""
    states = []
    x = x0
    for draw in u.tolist():
        x ^= draw < (p2 if x else p1)
        states.append(x)
    return np.array(states, dtype=np.uint8)


def word_boundary_uniforms(n, p1, p2, rng):
    """n draws that restart (fall between p1 and p2) only at bit 0 of
    every tenth word of 64 cycles and at bit 63 of the word three after
    it, so the six words between carry state across every boundary;
    every other draw toggles or keeps the state at random."""
    lo, hi = min(p1, p2), max(p1, p2)
    below = lo * rng.random(n)
    above = np.minimum(hi + (1.0 - hi) * rng.random(n), np.nextafter(1.0, 0.0))
    u = np.where(rng.random(n) < 0.5, below, above)
    word, bit = np.divmod(np.arange(n), 64)
    u[((word % 10 == 0) & (bit == 0)) | ((word % 10 == 3) & (bit == 63))] = (lo + hi) / 2
    return u


def batch_states(chains):
    """States of chains = [(u, p1, p2, x0), ...] of equal length, all
    stepped in one _chain_states call, one uint8 row per chain."""
    n = chains[0][0].size
    a, b = np.empty((2, len(chains), 1 + -(-n // 64)), dtype=np.uint64)
    for k, (u, p1, p2, x0) in enumerate(chains):
        a[k, 0] = np.negative(np.uint64(x0))
        b[k, 0] = ~a[k, 0]
        _pack_less(u[None], np.array([p1]), a[k : k + 1, 1:])
        _pack_less(u[None], np.array([p2]), b[k : k + 1, 1:])
    states = _chain_states(a, b)
    assert states.dtype == np.uint64
    return unpack_rows(states[:, 1:], n)


_KERNEL_PAIRS = [*_ORACLE_OVERRIDES, (0.3, 0.3)]


def batch_neighbours(n, p1, p2, x0, rng):
    """Two chains of n draws to batch around one with (p1, p2, x0):
    other flip probabilities, one starting from the other state."""
    i = _KERNEL_PAIRS.index((p1, p2))
    before = _KERNEL_PAIRS[(i + 1) % len(_KERNEL_PAIRS)]
    after = _KERNEL_PAIRS[(i + 3) % len(_KERNEL_PAIRS)]
    return (
        (word_boundary_uniforms(n, *before, rng), *before, 1 - x0),
        (rng.random(n), *after, x0),
    )


class TestChainState:
    @pytest.mark.parametrize("x0", [0, 1])
    @pytest.mark.parametrize("p1,p2", _KERNEL_PAIRS, ids=lambda p: f"{p:g}")
    @pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 128, 129, 5000, (1 << 18) + 1])
    def test_chain_kernel_matches_the_recursion(self, n, p1, p2, x0):
        # Each chain alone, then between two with other flip
        # probabilities and starting states, each checked as well.
        rng, neighbour_rng = np.random.default_rng(n), np.random.default_rng([n, 1])
        for u in (rng.random(n), word_boundary_uniforms(n, p1, p2, rng)):
            chain = (u, p1, p2, x0)
            before, after = batch_neighbours(n, p1, p2, x0, neighbour_rng)
            for chains in ([chain], [before, chain, after]):
                for states, (v, q1, q2, y0) in zip(batch_states(chains), chains, strict=True):
                    np.testing.assert_array_equal(states, sequential_states(v, q1, q2, y0))

    @pytest.mark.parametrize("p1,p2", [(0.5000005371, 0.4999990962), (0.37, 0.61), (1.0, 0.0)])
    def test_chain_kernel_allocates_few_bytes_per_cycle(self, p1, p2):
        # Packing, stepping and unpacking, over every row's cycles: the
        # chain alone, then between two others.
        rng = np.random.default_rng(3)
        chain = (rng.random(1_000_000), p1, p2, 1)
        others = [(rng.random(1_000_000), 0.37, 0.61, 0), (rng.random(1_000_000), 0.3, 0.3, 1)]
        for chains in ([chain], [others[0], chain, others[1]]):
            tracemalloc.start()
            try:
                batch_states(chains)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * sum(u.size for u, *_ in chains)

    def test_generate_leaves_its_devices_unchanged(self):
        # (1, 1) flips every cycle, so the bits show the chain's phase:
        # it carries over between calls and restarts at P in a new
        # generator on the same flip probabilities
        config = cfg(Variant.RHS_SINGLE)
        probs = [(1.0, 1.0)]
        gen = BitGenerator(config, seed=SeedSequence([4]), probs=probs)
        parts = [gen.generate(n).bits for n in (5, 7)]
        np.testing.assert_array_equal(np.concatenate(parts), np.arange(1, 13) % 2)
        assert probs == [(1.0, 1.0)]
        again = BitGenerator(config, seed=SeedSequence([4]), probs=probs).generate(5).bits
        np.testing.assert_array_equal(again, parts[0])

    def test_physics_generate_leaves_its_devices_unchanged(self):
        config = cfg(Variant.RHS_TRNG)
        devices = [sample_device(DeviceParams(), SeedSequence([9, k])) for k in range(2)]
        before = [replace(dev) for dev in devices]
        probs = [flip_probs(DeviceParams(), Environment(), dev) for dev in devices]
        gen = BitGenerator(config, seed=SeedSequence([9]), probs=probs)
        first = gen.generate(300).bits
        assert devices == before
        assert gen.realized_flip_probs() == probs
        # the same devices start a second generator where the first started
        again = BitGenerator(config, seed=SeedSequence([9]), probs=probs).generate(300).bits
        np.testing.assert_array_equal(first, again)


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
    bits = forced_bits(variant, override, 100_000, 2024, lanes=lanes)
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
        short = forced_bits(Variant.RHS_SINGLE, (0.4, 0.6), 500, SeedSequence([5]))
        long = forced_bits(Variant.RHS_SINGLE, (0.4, 0.6), 1500, SeedSequence([5]))
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
        assert cfg(Variant.RHS_TRNG).cycle_ns == 3.3
        assert cfg(Variant.RHS_SINGLE).cycle_ns == 3.3
        assert cfg(Variant.CONV_P_TO_AP).cycle_ns == 6.199999999999999

    def test_single_cell_rate(self):
        config = cfg(Variant.RHS_SINGLE)
        assert config.mbps == pytest.approx(1000.0 / 3.3)
        assert round(config.mbps) == 303

    def test_conventional_rate(self):
        config = cfg(Variant.CONV_AP_TO_P)
        assert config.mbps == pytest.approx(1000.0 / 6.2)

    def test_parallel_aggregate_rate(self):
        config = cfg(Variant.RHS_PARALLEL, lanes=8)
        assert config.bits_per_cycle == 8
        assert config.mbps == pytest.approx(8 * 1000.0 / 3.3)

    def test_simulated_time_accounting(self):
        stream = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=1_000_000, seed=0)
        assert stream.info.simulated_time_ns == pytest.approx(3.3e6)
        stream = generate_bitstream(cfg(Variant.CONV_P_TO_AP), n_bits=1000, seed=0)
        assert stream.info.simulated_time_ns == pytest.approx(6200.0)

    def test_parallel_time_rounds_up_to_whole_cycles(self):
        config = cfg(Variant.RHS_PARALLEL, lanes=4)
        stream = generate_bitstream(config, n_bits=10, seed=0, probs=forced(config, (0.5, 0.5)))
        assert stream.info.simulated_time_ns == pytest.approx(3 * 3.3)

    def test_reference_cost_points(self):
        trng = cfg(Variant.RHS_TRNG)
        assert (trng.energy_pj_per_bit, trng.area_um2_per_bit) == (5.3, 24.29)
        single = cfg(Variant.RHS_SINGLE)
        assert (single.energy_pj_per_bit, single.area_um2_per_bit) == (2.65, 9.79)
        conv = cfg(Variant.CONV_P_TO_AP)
        assert conv.energy_pj_per_bit == pytest.approx(5.3)
        assert conv.area_um2_per_bit == pytest.approx(9.79)

    def test_parallel_amortization_formula(self):
        xor_area = 24.29 - 2 * 9.79
        for n in (1, 2, 8, 64, 1024):
            config = cfg(Variant.RHS_PARALLEL, lanes=n)
            assert config.energy_pj_per_bit == pytest.approx(2.65 * (n + 1) / n)
            assert config.area_um2_per_bit == pytest.approx(
                ((n + 1) * 9.79 + n * xor_area) / n
            )

    def test_parallel_costs_decrease_toward_asymptotes(self):
        energies, areas = [], []
        for n in (1, 2, 4, 16, 256, 65536):
            config = cfg(Variant.RHS_PARALLEL, lanes=n)
            energies.append(config.energy_pj_per_bit)
            areas.append(config.area_um2_per_bit)
        assert energies == sorted(energies, reverse=True)
        assert areas == sorted(areas, reverse=True)
        assert energies[-1] == pytest.approx(2.65, rel=1e-4)
        assert areas[-1] == pytest.approx(14.5, rel=1e-3)

    def test_energy_accounting_follows_the_per_bit_energy(self):
        for variant in (Variant.RHS_TRNG, Variant.RHS_SINGLE, Variant.CONV_AP_TO_P):
            config = cfg(variant)
            stream = generate_bitstream(config, n_bits=1000, seed=0, probs=forced(config, (0.5, 0.5)))
            assert stream.info.energy_pj == pytest.approx(1000 * config.energy_pj_per_bit)


class TestStreamMetadata:
    def test_fields(self):
        config = cfg(Variant.RHS_PARALLEL, lanes=2)
        stream = generate_bitstream(config, n_bits=100, seed=77, probs=forced(config, (0.5, 0.5)))
        assert stream.info.n_bits == 100
        assert len(stream.bits) == 100
        assert stream.info.variant == "rhs-parallel"
        assert stream.info.lanes == 2
        assert stream.info.seed == 77

    def test_bits_are_binary_uint8(self):
        stream = generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=1000, seed=0)
        assert stream.bits.dtype == np.uint8
        assert set(np.unique(stream.bits)) <= {0, 1}


class TestValidation:
    def test_bad_lanes(self):
        with pytest.raises(ValueError):
            GeneratorConfig(variant=Variant.RHS_PARALLEL, lanes=0)

    def test_bad_override(self):
        config = cfg(Variant.RHS_TRNG)
        for pair in ((1.2, 0.5), (0.5, -0.1), (float("nan"), 0.5)):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                BitGenerator(config, probs=forced(config, pair))
        # one (p1, p2) per unit
        with pytest.raises(ValueError, match=r"rhs-trng needs 2 \(p1, p2\) pairs"):
            BitGenerator(config, probs=[(0.5, 0.5)])

    def test_bad_bit_count(self):
        with pytest.raises(ValueError):
            generate_bitstream(cfg(Variant.RHS_TRNG), n_bits=0, seed=0)

    def test_unit_counts(self):
        assert cfg(Variant.RHS_TRNG).n_units == 2
        assert cfg(Variant.RHS_SINGLE).n_units == 1
        assert cfg(Variant.CONV_P_TO_AP).n_units == 1
        assert cfg(Variant.RHS_PARALLEL, lanes=5).n_units == 6
        assert cfg(Variant.RHS_PARALLEL, lanes=5).bits_per_cycle == 5
