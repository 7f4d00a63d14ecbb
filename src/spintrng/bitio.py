"""Bitstream file formats and metadata sidecars.

Two interchange formats:

* packed: 8 bits per byte, first-generated bit in the least
  significant bit of byte 0.  Compact, needs the exact bit count from
  the metadata sidecar when the length is not a multiple of 8.
* ascii: '0'/'1' characters; whitespace (including newlines) is
  ignored on read.  This is the format external statistical tooling
  usually consumes.

Every written stream gets a JSON sidecar at <path>.json carrying the
format, bit count, variant, seed, and the simulated time/energy
accounting, so a stream file round-trips without guessing.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from spintrng.generator import BitStream

FORMAT_PACKED = "packed"
FORMAT_ASCII = "ascii"
_FORMATS = (FORMAT_PACKED, FORMAT_ASCII)

_ASCII_LINE_BITS = 64


@dataclass(frozen=True)
class StreamMetadata:
    """Sidecar contents for one bitstream file."""

    format: str
    n_bits: int
    variant: str
    lanes: int
    seed: object
    simulated_time_ns: float
    energy_pj: float


def metadata_path(path: str) -> str:
    return path + ".json"


def write_bits(path: str, bits: np.ndarray, fmt: str = FORMAT_PACKED) -> None:
    """Write a 0/1 array to path in the requested format."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown bitstream format {fmt!r}")
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if bits.size and bits.max() > 1:
        raise ValueError("bitstream values must be 0 or 1")
    if fmt == FORMAT_PACKED:
        with open(path, "wb") as fh:
            fh.write(np.packbits(bits, bitorder="little").tobytes())
        return
    # Lines of _ASCII_LINE_BITS characters, the last possibly shorter,
    # each ending in a newline.
    chars = bits + np.uint8(ord("0"))
    n_full = bits.size // _ASCII_LINE_BITS
    full = np.full((n_full, _ASCII_LINE_BITS + 1), ord("\n"), dtype=np.uint8)
    full[:, :-1] = chars[: n_full * _ASCII_LINE_BITS].reshape(n_full, _ASCII_LINE_BITS)
    tail = chars[n_full * _ASCII_LINE_BITS :]
    with open(path, "wb") as fh:
        fh.write(full)
        if tail.size:
            fh.write(tail)
            fh.write(b"\n")


def read_bits(path: str, fmt: str | None = None, n_bits: int | None = None) -> np.ndarray:
    """Read a bitstream written by write_bits.

    When fmt is None the sidecar (if present) decides; otherwise the
    content is sniffed: a file made only of 0/1/whitespace bytes is
    treated as ascii, anything else as packed.  n_bits trims packed
    padding; it defaults to the sidecar's count or 8 * file size.
    """
    meta = read_metadata(path)
    if fmt is None:
        fmt = meta.format if meta is not None else None
    if n_bits is None and meta is not None:
        n_bits = meta.n_bits

    with open(path, "rb") as fh:
        raw = fh.read()
    if fmt is None:
        fmt = FORMAT_ASCII if raw and not set(raw) - set(b"01 \t\r\n") else FORMAT_PACKED
    if fmt == FORMAT_ASCII:
        text = raw.decode("ascii")
        stripped = "".join(text.split())
        bad = set(stripped) - {"0", "1"}
        if bad:
            raise ValueError(f"ascii bitstream contains non-bit characters: {sorted(bad)}")
        bits = np.frombuffer(stripped.encode("ascii"), dtype=np.uint8) - ord("0")
    elif fmt == FORMAT_PACKED:
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    else:
        raise ValueError(f"unknown bitstream format {fmt!r}")

    if n_bits is not None:
        if n_bits > bits.size:
            raise ValueError(
                f"file holds {bits.size} bits but metadata claims {n_bits}"
            )
        bits = bits[:n_bits]
    return bits.astype(np.uint8)


def write_metadata(path: str, meta: StreamMetadata) -> None:
    with open(metadata_path(path), "w", encoding="utf-8") as fh:
        json.dump(asdict(meta), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_metadata(path: str) -> StreamMetadata | None:
    """Sidecar for path, or None when absent."""
    side = metadata_path(path)
    if not os.path.exists(side):
        return None
    with open(side, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    known = {f for f in StreamMetadata.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown metadata keys: {sorted(unknown)}")
    return StreamMetadata(**payload)


def save_stream(stream: BitStream, path: str, fmt: str = FORMAT_PACKED) -> StreamMetadata:
    """Write a generated stream plus its sidecar; returns the metadata."""
    write_bits(path, stream.bits, fmt)
    meta = StreamMetadata(
        format=fmt,
        n_bits=stream.n_bits,
        variant=stream.variant,
        lanes=stream.lanes,
        seed=stream.seed,
        simulated_time_ns=stream.simulated_time_ns,
        energy_pj=stream.energy_pj,
    )
    write_metadata(path, meta)
    return meta
