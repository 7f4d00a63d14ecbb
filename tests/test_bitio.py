"""Bitstream file formats and metadata sidecars."""

import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spintrng import bitio, generator
from spintrng.generator import (
    BitGenerator,
    BitStream,
    GeneratorConfig,
    StreamInfo,
    Variant,
    generate_bitstream,
)


@pytest.fixture
def bits():
    rng = np.random.default_rng(123)
    return rng.integers(0, 2, size=1003, dtype=np.uint8)


def sidecar(fmt: str, n_bits: int) -> bitio.StreamMetadata:
    """A sidecar of fmt claiming n_bits rhs-trng bits."""
    return bitio.StreamMetadata(n_bits, "rhs-trng", 1, 0, 0.0, 0.0, format=fmt)


def write_sidecar(path: str, meta: bitio.StreamMetadata) -> None:
    """Write meta as path's sidecar, whatever path holds."""
    Path(bitio.metadata_path(path)).write_text(json.dumps(asdict(meta)))


def write_fixture(path: str, bits, fmt: str, n_bits: int | None = None) -> None:
    """Write the 0/1 array bits to path through save_stream, with a
    sidecar that claims n_bits bits (all of them by default)."""
    bits = np.asarray(bits, dtype=np.uint8)
    bitio.save_stream(BitStream(bits, StreamInfo(bits.size, "rhs-trng", 1, 0, 0.0, 0.0)), path, fmt)
    if n_bits is not None:
        write_sidecar(path, sidecar(fmt, n_bits))


class TestPacked:
    def test_round_trip(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        write_fixture(path, bits, bitio.FORMAT_PACKED)
        np.testing.assert_array_equal(bitio.read_bits(path), bits)

    def test_file_size_is_ceil_bits_over_8(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        write_fixture(path, bits, bitio.FORMAT_PACKED)
        assert (tmp_path / "s.bin").stat().st_size == (len(bits) + 7) // 8

    def test_lsb_first_byte_layout(self, tmp_path):
        # bit k of the stream lands in byte k//8 at bit position k%8
        path = str(tmp_path / "one.bin")
        one_hot = np.zeros(16, dtype=np.uint8)
        one_hot[9] = 1
        write_fixture(path, one_hot, bitio.FORMAT_PACKED)
        raw = (tmp_path / "one.bin").read_bytes()
        assert raw == bytes([0x00, 0x02])

    def test_trim_overflow_rejected(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        write_fixture(path, bits, bitio.FORMAT_PACKED, len(bits) + 100)
        with pytest.raises(ValueError):
            bitio.read_bits(path)

    def test_read_makes_no_copy_of_the_bits(self, tmp_path):
        # 10^7 bits unpack to 10 MB; the 1.25 MB file read comes on top
        n_bits = 10_000_000
        path = str(tmp_path / "s.bin")
        raw = np.random.default_rng(4).integers(0, 256, size=n_bits // 8, dtype=np.uint8)
        (tmp_path / "s.bin").write_bytes(raw.tobytes())
        write_sidecar(path, sidecar("packed", n_bits))
        tracemalloc.start()
        try:
            bits = bitio.read_bits(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.dtype == np.uint8 and bits.size == n_bits
        assert peak <= 12 * 2**20

class TestAscii:
    def test_round_trip(self, tmp_path, bits):
        path = str(tmp_path / "s.txt")
        write_fixture(path, bits, bitio.FORMAT_ASCII)
        np.testing.assert_array_equal(bitio.read_bits(path), bits)

    def test_line_wrapped_text(self, tmp_path):
        path = str(tmp_path / "s.txt")
        write_fixture(path, np.ones(130, dtype=np.uint8), bitio.FORMAT_ASCII)
        text = (tmp_path / "s.txt").read_text()
        lines = text.strip().split("\n")
        assert [len(line) for line in lines] == [64, 64, 2]
        assert set(text) <= {"0", "1", "\n"}

    @pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 129])
    def test_exact_bytes(self, tmp_path, n_bits):
        bits = (np.arange(n_bits) % 3 == 0).astype(np.uint8)
        path = tmp_path / "s.txt"
        write_fixture(str(path), bits, bitio.FORMAT_ASCII)
        text = "".join(str(b) for b in bits)
        lines = [text[i : i + 64] + "\n" for i in range(0, n_bits, 64)]
        assert path.read_bytes() == "".join(lines).encode("ascii")

    def test_sniffs_format_without_sidecar(self, tmp_path, bits):
        path = str(tmp_path / "plain.txt")
        write_fixture(path, bits, bitio.FORMAT_ASCII)
        os.remove(bitio.metadata_path(path))
        np.testing.assert_array_equal(bitio.read_bits(path), bits)

    def test_any_ascii_whitespace_is_skipped(self, tmp_path):
        # str.split's whitespace, including the separators \x1c-\x1f;
        # without a sidecar only space, tab, CR and LF mark a file ascii
        path = tmp_path / "s.txt"
        path.write_bytes(b" 0\t1\r\n1\x0b0\x0c1\x1c0\x1d0\x1e1\x1f")
        write_sidecar(str(path), sidecar("ascii", 8))
        assert bitio.read_bits(str(path)).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
        (tmp_path / "s.txt.json").unlink()
        assert bitio.read_bits(str(path)).size == 8 * len(path.read_bytes())

    @pytest.mark.parametrize("text, bad", [(b"01x1\n2\n", "['2', 'x']"), (b"01\xff1\n", "['\xff']")])
    def test_non_bit_characters_rejected(self, tmp_path, text, bad):
        path = tmp_path / "s.txt"
        path.write_bytes(text)
        write_sidecar(str(path), sidecar("ascii", 1))
        with pytest.raises(ValueError, match="non-bit characters: " + re.escape(bad)):
            bitio.read_bits(str(path))

    def test_ascii_read_holds_the_text_twice_at_most(self, tmp_path):
        # 10^7 bits: the 10.2 MB text, one byte class per character and
        # the 10 MB of bits make 29 MB; decoding through str took 48 MB
        n_bits = 10_000_000
        path = str(tmp_path / "s.txt")
        bits = np.random.default_rng(4).integers(0, 2, size=n_bits, dtype=np.uint8)
        write_fixture(path, bits, bitio.FORMAT_ASCII)
        tracemalloc.start()
        try:
            got = bitio.read_bits(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, bits)
        assert peak <= 32 * 2**20


class TestGroups:
    """BitFile's groups against the rows of the whole read."""

    # Without a sidecar a packed file holds whole bytes, so its streams
    # are a whole number of bytes; the group lengths need not be.
    SHAPES = {
        (bitio.FORMAT_PACKED, True): [(3, 1001), (1, 3003), (5, 13), (2, 4096)],
        (bitio.FORMAT_PACKED, False): [(8, 1001), (1, 3008), (7, 8), (3, 1000)],
        (bitio.FORMAT_ASCII, True): [(3, 1001), (1, 3003), (5, 13)],
        (bitio.FORMAT_ASCII, False): [(3, 1001), (1, 3003), (5, 13)],
    }

    @pytest.mark.parametrize(
        "fmt, with_sidecar, n_groups, group_bits",
        [(*kind, *shape) for kind, shapes in SHAPES.items() for shape in shapes],
    )
    def test_groups_are_the_rows_of_the_whole_read(self, tmp_path, fmt, with_sidecar, n_groups, group_bits):
        n_bits = n_groups * group_bits
        path = str(tmp_path / "s.dat")
        bits = np.random.default_rng(n_bits).integers(0, 2, size=n_bits, dtype=np.uint8)
        write_fixture(path, bits, fmt)
        if not with_sidecar:
            os.remove(bitio.metadata_path(path))
        stream = bitio.BitFile(path)
        assert stream.size == n_bits
        rows = bitio.read_bits(path).reshape(n_groups, -1)
        groups = list(stream.groups(n_groups))
        assert len(groups) == n_groups
        for group, row in zip(groups, rows):
            assert group.dtype == np.uint8
            np.testing.assert_array_equal(group, row)
        np.testing.assert_array_equal(rows.ravel(), bits)
        assert stream.ones == int(bits.sum())

    def test_trailing_bits_past_the_claim_are_not_read(self, tmp_path):
        # 12 claimed bits of two 0xff bytes: the 4 bits past the claim
        # are padding, in no group
        path = tmp_path / "s.bin"
        path.write_bytes(b"\xff\xff")
        write_sidecar(str(path), sidecar("packed", 12))
        stream = bitio.BitFile(str(path))
        assert [g.tolist() for g in stream.groups(3)] == [[1] * 4] * 3
        assert stream.ones == 12

    def test_steps_that_hold_no_bits_are_skipped(self, tmp_path):
        # groups of 16 bits are read in 2-byte steps, most of them blank
        path = tmp_path / "s.txt"
        bits = np.random.default_rng(5).integers(0, 2, size=64, dtype=np.uint8)
        path.write_bytes(b"".join(b"\n\n\n\n\n%d" % bit for bit in bits))
        stream = bitio.BitFile(str(path))
        assert stream.size == 64
        np.testing.assert_array_equal(np.stack(list(stream.groups(4))), bits.reshape(4, 16))

    def test_an_empty_file_gives_empty_groups(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"")
        assert [group.size for group in bitio.BitFile(str(path)).groups(2)] == [0, 0]

    def test_groups_must_divide_the_stream(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        write_fixture(path, bits, bitio.FORMAT_PACKED)
        with pytest.raises(ValueError, match="stream of 1003 bits does not divide into 10 groups"):
            next(bitio.BitFile(path).groups(10))

    def test_overclaiming_sidecar_is_refused_when_opened(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        write_fixture(path, bits, bitio.FORMAT_PACKED, len(bits) + 100)
        with pytest.raises(ValueError, match="file holds 1008 bits but metadata claims 1103"):
            bitio.BitFile(path)

    def test_a_file_that_shrinks_while_it_is_read_is_refused(self, tmp_path):
        # groups of 12.5 kB, more than the reader's buffer holds
        path = tmp_path / "s.bin"
        write_fixture(str(path), np.ones(200_000, dtype=np.uint8), bitio.FORMAT_PACKED)
        groups = bitio.BitFile(str(path)).groups(2)
        next(groups)
        path.write_bytes(path.read_bytes()[:13_000])
        with pytest.raises(ValueError, match="shrank while it was read"):
            next(groups)

    @pytest.mark.parametrize("with_sidecar", [True, False], ids=["sidecar", "no-sidecar"])
    @pytest.mark.parametrize("fmt", [bitio.FORMAT_PACKED, bitio.FORMAT_ASCII])
    def test_a_file_is_read_one_group_at_a_time(self, tmp_path, fmt, with_sidecar):
        # 10^7 bits in 100 groups: each group is 100 kB of bits, read in
        # 12.5 kB steps; the whole read would hold 11.25 MB packed and
        # 29 MB ascii
        n_bits = 10_000_000
        path = str(tmp_path / "s.dat")
        bits = np.random.default_rng(4).integers(0, 2, size=n_bits, dtype=np.uint8)
        write_fixture(path, bits, fmt)
        if not with_sidecar:
            os.remove(bitio.metadata_path(path))
        tracemalloc.start()
        try:
            stream = bitio.BitFile(path)
            n_read = sum(group.size for group in stream.groups(100))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_read == n_bits
        assert stream.ones == int(bits.sum())
        assert peak <= 2**20


class TestMetadata:
    def test_sidecar_round_trip(self, tmp_path):
        path = str(tmp_path / "s.bin")
        meta = bitio.StreamMetadata(
            format="packed",
            n_bits=64,
            variant="rhs-trng",
            lanes=1,
            seed=9,
            simulated_time_ns=211.2,
            energy_pj=339.2,
        )
        write_sidecar(path, meta)
        assert bitio.read_metadata(path) == meta

    def test_sidecar_path_convention(self):
        assert bitio.metadata_path("/x/s.bin") == "/x/s.bin.json"

    def test_missing_sidecar_returns_none(self, tmp_path):
        assert bitio.read_metadata(str(tmp_path / "nope.bin")) is None

    def test_unknown_keys_rejected(self, tmp_path):
        path = str(tmp_path / "s.bin")
        payload = {
            "format": "packed",
            "n_bits": 8,
            "variant": "rhs-trng",
            "lanes": 1,
            "seed": 0,
            "simulated_time_ns": 26.4,
            "energy_pj": 42.4,
            "extra_field": True,
        }
        (tmp_path / "s.bin.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unknown"):
            bitio.read_metadata(path)

    @pytest.mark.parametrize("raw", [b"{n_bits: 8}", b"\xff"])
    def test_sidecar_that_is_not_json_is_named(self, tmp_path, raw):
        (tmp_path / "s.bin.json").write_bytes(raw)
        with pytest.raises(ValueError, match="^metadata is not valid JSON: "):
            bitio.read_metadata(str(tmp_path / "s.bin"))


class TestSaveStream:
    @pytest.mark.parametrize("fmt", [bitio.FORMAT_PACKED, bitio.FORMAT_ASCII])
    def test_stream_round_trip(self, tmp_path, fmt):
        stream = generate_bitstream(
            GeneratorConfig(variant=Variant.RHS_TRNG), n_bits=777, seed=5
        )
        path = str(tmp_path / "s.dat")
        meta = bitio.save_stream(stream, path, fmt)
        assert meta.format == fmt
        assert meta.n_bits == 777
        assert meta.seed == 5
        # sidecar carries everything needed to read the file back
        back = bitio.read_bits(path)
        np.testing.assert_array_equal(back, stream.bits)
        assert bitio.read_metadata(path) == meta

    def test_sidecar_reports_timing_and_energy(self, tmp_path):
        stream = generate_bitstream(
            GeneratorConfig(variant=Variant.RHS_TRNG), n_bits=1000, seed=5
        )
        meta = bitio.save_stream(stream, str(tmp_path / "s.bin"))
        assert meta.simulated_time_ns == pytest.approx(3300.0)
        assert meta.energy_pj == pytest.approx(5300.0)


VARIANT_LANES = [
    (Variant.CONV_AP_TO_P, 1),
    (Variant.CONV_P_TO_AP, 1),
    (Variant.RHS_SINGLE, 1),
    (Variant.RHS_TRNG, 1),
    (Variant.RHS_PARALLEL, 3),
]


class TestWriteGenerated:
    def test_chunk_ends_on_a_byte_and_an_ascii_line(self):
        assert generator.CHUNK_BITS % 64 == 0

    # 5,003 bits end mid-byte and mid-line; no chunk size below is a
    # multiple of rhs-parallel's 3 or 65 lanes, so lanes carry between
    # chunks.  At 64 and 65 lanes a 64-bit chunk holds one cycle or less.
    @pytest.mark.parametrize("chunk_bits", [64, 320, 4096, 8192])
    @pytest.mark.parametrize("fmt", [bitio.FORMAT_PACKED, bitio.FORMAT_ASCII])
    @pytest.mark.parametrize(
        "variant,lanes", [*VARIANT_LANES, (Variant.RHS_PARALLEL, 64), (Variant.RHS_PARALLEL, 65)]
    )
    def test_chunked_file_equals_one_shot(self, tmp_path, monkeypatch, variant, lanes, fmt, chunk_bits):
        config = GeneratorConfig(variant=variant, lanes=lanes)
        one_shot = str(tmp_path / "one.dat")
        chunked = str(tmp_path / "chunked.dat")
        bitio.save_stream(BitGenerator(config, seed=21).generate(5_003), one_shot, fmt)
        monkeypatch.setattr(generator, "CHUNK_BITS", chunk_bits)
        bitio.write_generated(BitGenerator(config, seed=21), 5_003, chunked, fmt)
        for suffix in ("", ".json"):
            with open(chunked + suffix, "rb") as a, open(one_shot + suffix, "rb") as b:
                assert a.read() == b.read()

    def test_sidecar_totals_are_not_summed_over_chunks(self, tmp_path):
        # 10^7 rhs-trng bits in 2^18-bit chunks would sum to 32999999.999999978 ns
        gen = BitGenerator(GeneratorConfig(variant=Variant.RHS_TRNG), seed=1)
        meta = bitio.write_generated(gen, 10_000_000, str(tmp_path / "s.bin"))
        assert meta.simulated_time_ns == 33_000_000.0
        assert meta == bitio.read_metadata(str(tmp_path / "s.bin"))

    def test_time_counts_the_cycles_after_the_carried_lanes(self, tmp_path):
        # generate(5) runs 2 cycles and carries 1 lane, so a next call
        # for 10 bits runs 3 cycles, not the 4 that 10 bits alone need
        config = GeneratorConfig(variant=Variant.RHS_PARALLEL, lanes=3)
        gen, twin = BitGenerator(config, seed=8), BitGenerator(config, seed=8)
        gen.generate(5)
        twin.generate(5)
        stream = gen.generate(10)
        assert stream.info.simulated_time_ns == 3 * 3.3
        saved, written = str(tmp_path / "saved.bin"), str(tmp_path / "written.bin")
        bitio.save_stream(stream, saved)
        bitio.write_generated(twin, 10, written)
        for suffix in ("", ".json"):
            with open(saved + suffix, "rb") as a, open(written + suffix, "rb") as b:
                assert a.read() == b.read()

    @pytest.mark.parametrize("fmt,size", [(bitio.FORMAT_PACKED, 626), (bitio.FORMAT_ASCII, 5_082)])
    def test_output_must_fit_on_its_disk(self, tmp_path, monkeypatch, fmt, size):
        path = tmp_path / "s.dat"
        writers = [
            lambda: bitio.write_generated(BitGenerator(GeneratorConfig(), seed=2), 5_003, str(path), fmt),
            lambda: bitio.save_stream(generate_bitstream(GeneratorConfig(), n_bits=5_003, seed=2), str(path), fmt),
        ]
        for write in writers:
            monkeypatch.setattr(shutil, "disk_usage", lambda _: SimpleNamespace(free=size - 1))
            with pytest.raises(OSError) as info:
                write()
            assert info.value.errno == errno.ENOSPC
            assert sorted(os.listdir(tmp_path)) == []
            monkeypatch.setattr(shutil, "disk_usage", lambda _: SimpleNamespace(free=size))
            write()
            assert path.stat().st_size == size
            for name in os.listdir(tmp_path):
                os.remove(tmp_path / name)

    def test_failed_save_stream_leaves_no_file(self, tmp_path):
        # The file size limit makes the write of 250,000 packed bytes fail
        # partway, with EFBIG, after 100,000 bytes.
        script = """
import errno, os, resource, sys
from spintrng import bitio
from spintrng.generator import GeneratorConfig, generate_bitstream
stream = generate_bitstream(GeneratorConfig(), n_bits=2_000_000, seed=1)
resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))
try:
    bitio.save_stream(stream, "s.bin")
except OSError as exc:
    sys.exit(exc.errno != errno.EFBIG)
sys.exit(3)
"""
        src = str(Path(bitio.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True)
        assert run.returncode == 0, run.stderr
        assert sorted(os.listdir(tmp_path)) == []

    @pytest.mark.parametrize("failing", ["write", "close"])
    def test_a_failed_write_or_close_names_the_path(self, tmp_path, monkeypatch, failing):
        class FullDisk(io.FileIO):
            def write(self, data):
                if failing == "write":
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

            def close(self):
                super().close()
                if failing == "close":
                    raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(bitio, "open", FullDisk, raising=False)
        path = str(tmp_path / "s.bin")
        with pytest.raises(OSError) as exc:
            with bitio.created(path) as (fh,):
                bitio.put(fh, b"bits")
        assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, path)
        assert sorted(os.listdir(tmp_path)) == []


class TestValidation:
    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "x"
        with pytest.raises(ValueError, match="unknown bitstream format 'base64'"):
            bitio.save_stream(generate_bitstream(GeneratorConfig(), n_bits=100), str(path), "base64")
        with pytest.raises(ValueError, match="unknown bitstream format 'base64'"):
            bitio.write_generated(BitGenerator(GeneratorConfig()), 100, str(path), "base64")
        assert sorted(os.listdir(tmp_path)) == []

    def test_empty_request_rejected(self, tmp_path):
        # chunks raises on its first step, after the file is opened
        with pytest.raises(ValueError, match="n_bits must be >= 1, got 0"):
            bitio.write_generated(BitGenerator(GeneratorConfig()), 0, str(tmp_path / "x"))
        assert sorted(os.listdir(tmp_path)) == []
