"""Bitstream file formats and metadata sidecars."""

import json

import numpy as np
import pytest

from spintrng import bitio
from spintrng.generator import GeneratorConfig, Variant, generate_bitstream


@pytest.fixture
def bits():
    rng = np.random.default_rng(123)
    return rng.integers(0, 2, size=1003, dtype=np.uint8)


class TestPacked:
    def test_round_trip(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        bitio.write_bits(path, bits, bitio.FORMAT_PACKED)
        back = bitio.read_bits(path, fmt=bitio.FORMAT_PACKED, n_bits=len(bits))
        np.testing.assert_array_equal(back, bits)

    def test_file_size_is_ceil_bits_over_8(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        bitio.write_bits(path, bits, bitio.FORMAT_PACKED)
        assert (tmp_path / "s.bin").stat().st_size == (len(bits) + 7) // 8

    def test_lsb_first_byte_layout(self, tmp_path):
        # bit k of the stream lands in byte k//8 at bit position k%8
        path = str(tmp_path / "one.bin")
        one_hot = np.zeros(16, dtype=np.uint8)
        one_hot[9] = 1
        bitio.write_bits(path, one_hot, bitio.FORMAT_PACKED)
        raw = (tmp_path / "one.bin").read_bytes()
        assert raw == bytes([0x00, 0x02])

    def test_trim_overflow_rejected(self, tmp_path, bits):
        path = str(tmp_path / "s.bin")
        bitio.write_bits(path, bits, bitio.FORMAT_PACKED)
        with pytest.raises(ValueError):
            bitio.read_bits(path, fmt=bitio.FORMAT_PACKED, n_bits=len(bits) + 100)


class TestAscii:
    def test_round_trip(self, tmp_path, bits):
        path = str(tmp_path / "s.txt")
        bitio.write_bits(path, bits, bitio.FORMAT_ASCII)
        back = bitio.read_bits(path, fmt=bitio.FORMAT_ASCII)
        np.testing.assert_array_equal(back, bits)

    def test_line_wrapped_text(self, tmp_path):
        path = str(tmp_path / "s.txt")
        bitio.write_bits(path, np.ones(130, dtype=np.uint8), bitio.FORMAT_ASCII)
        text = (tmp_path / "s.txt").read_text()
        lines = text.strip().split("\n")
        assert [len(line) for line in lines] == [64, 64, 2]
        assert set(text) <= {"0", "1", "\n"}

    @pytest.mark.parametrize("n_bits", [0, 1, 63, 64, 65, 129])
    def test_exact_bytes(self, tmp_path, n_bits):
        bits = (np.arange(n_bits) % 3 == 0).astype(np.uint8)
        path = tmp_path / "s.txt"
        bitio.write_bits(str(path), bits, bitio.FORMAT_ASCII)
        text = "".join(str(b) for b in bits)
        lines = [text[i : i + 64] + "\n" for i in range(0, n_bits, 64)]
        assert path.read_bytes() == "".join(lines).encode("ascii")

    def test_sniffs_format_without_sidecar(self, tmp_path, bits):
        path = str(tmp_path / "plain.txt")
        bitio.write_bits(path, bits, bitio.FORMAT_ASCII)
        np.testing.assert_array_equal(bitio.read_bits(path), bits)


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
        bitio.write_metadata(path, meta)
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


class TestValidation:
    def test_unknown_format_rejected(self, tmp_path, bits):
        with pytest.raises(ValueError):
            bitio.write_bits(str(tmp_path / "x"), bits, "base64")

    def test_non_binary_values_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bitio.write_bits(
                str(tmp_path / "x"), np.array([0, 1, 2], dtype=np.uint8)
            )
