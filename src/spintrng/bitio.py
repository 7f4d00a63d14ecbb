"""Bitstream file formats and metadata sidecars.

Two interchange formats:

* packed: 8 bits per byte, first-generated bit in the least
  significant bit of byte 0.  Compact, needs the exact bit count from
  the metadata sidecar when the length is not a multiple of 8.
* ascii: '0'/'1' characters; whitespace (including newlines) is
  ignored on read.  This is the format external statistical tooling
  usually consumes.

Every written stream gets a JSON sidecar at <path>.json: the
StreamMetadata record, which is the generate call's
generator.StreamInfo (bit count, variant, lanes, seed, simulated time
and energy) plus the format, so a stream file round-trips without
guessing.

Every file spintrng writes, a stream, its sidecar or a CLI report, is
made in one transaction, created, which opens a command's outputs
before its work, so an output that cannot be written costs no work,
and removes them all when anything fails.  put is the one write; a
failed write or close raises an OSError that names the path.

Every stream file is written by one writer, _write, which takes the
bits as a sequence of 0/1 chunks and encodes each as it arrives:
save_stream passes a BitStream already in memory as one chunk with its
record, and write_generated, which the CLI uses, passes
BitGenerator.chunks with BitGenerator.stream_info, so memory stays
flat however long the request.  The writer refuses an output its disk
cannot hold before writing anything.  A file holds the bits of one
generate call for the whole request, byte for byte.

Reading mirrors writing: BitFile yields a file's bits as equal groups,
the battery's fixed-length sequences, and reads every file, packed or
ascii, with a sidecar or without, front to back one group's bytes at a
time, so memory stays flat however long the file.  read_bits is its
one group, the whole stream.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import shutil
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from spintrng.generator import BitGenerator, BitStream, StreamInfo

FORMAT_PACKED = "packed"
FORMAT_ASCII = "ascii"
_FORMATS = (FORMAT_PACKED, FORMAT_ASCII)

_ASCII_LINE_BITS = 64
_SCAN_BYTES = 64 * 1024  # per step of _sniff's scan

# Byte classes of an ascii file: the bit characters, the whitespace a
# file without a sidecar may hold, the rest of str.split's ASCII
# whitespace, and everything else.
_BIT, _SNIFF_SPACE, _SPACE, _BAD = range(4)
_ASCII_CLASS = np.full(256, _BAD, dtype=np.uint8)
_ASCII_CLASS[[c for c in range(128) if chr(c).isspace()]] = _SPACE
_ASCII_CLASS[list(b" \t\r\n")] = _SNIFF_SPACE
_ASCII_CLASS[list(b"01")] = _BIT


@dataclass(frozen=True)
class StreamMetadata(StreamInfo):
    """Sidecar contents for one bitstream file: the record of the
    generate call that made its bits, and the file's format."""

    format: str


def metadata_path(path: str) -> str:
    return path + ".json"


def _check_format(fmt: str) -> None:
    if fmt not in _FORMATS:
        raise ValueError(f"unknown bitstream format {fmt!r}")


def _encoded_size(n_bits: int, fmt: str) -> int:
    """Bytes of a fmt file holding n_bits."""
    if fmt == FORMAT_PACKED:
        return -(-n_bits // 8)
    return n_bits - (-n_bits // _ASCII_LINE_BITS)


def _encode(bits: np.ndarray, fmt: str) -> np.ndarray:
    """The bytes of a fmt file holding the 0/1 array bits."""
    if fmt == FORMAT_PACKED:
        return np.packbits(bits, bitorder="little")
    # Lines of _ASCII_LINE_BITS characters, the last possibly shorter,
    # each ending in a newline.
    line = _ASCII_LINE_BITS
    n_full = bits.size // line
    out = np.full(_encoded_size(bits.size, fmt), ord("\n"), dtype=np.uint8)
    full = out[: n_full * (line + 1)].reshape(n_full, line + 1)
    np.add(bits[: n_full * line].reshape(n_full, line), ord("0"), out=full[:, :-1])
    np.add(bits[n_full * line :], ord("0"), out=out[n_full * (line + 1) : -1])
    return out


def _sniff(path: str, meta: StreamMetadata | None) -> tuple[str, int]:
    """The format of the file at path, whose sidecar is meta (or None),
    and the bits it holds.  Unless meta says packed, the file is scanned
    in _SCAN_BYTES steps: without a sidecar, one of only 0, 1, space,
    tab, CR and LF bytes is ascii, any other packed, 8 bits a byte; an
    ascii file may hold no byte that is neither a bit nor whitespace."""
    with open(path, "rb") as fh:
        packed = FORMAT_PACKED, 8 * os.fstat(fh.fileno()).st_size
        if meta is not None and meta.format == FORMAT_PACKED:
            return packed
        n_bits, bad = 0, set()
        while chunk := fh.read(_SCAN_BYTES):
            data = np.frombuffer(chunk, dtype=np.uint8)
            classes = _ASCII_CLASS[data]
            if meta is None and classes.max() > _SNIFF_SPACE:
                return packed
            n_bits += int(np.count_nonzero(classes == _BIT))
            bad.update(data[classes == _BAD].tolist())
    if bad:
        chars = [chr(c) for c in sorted(bad)]
        raise ValueError(f"ascii bitstream contains non-bit characters: {chars}")
    return FORMAT_ASCII, n_bits


class BitFile:
    """A bitstream file, read one group at a time.

    size is the file's bit count, its sidecar's claim when it has one,
    and format its format, from the sidecar or sniffed.  groups(n)
    yields the bits as n equal groups in stream order, each a 0/1 uint8
    array, and counts their ones in ones.  Every file is read front to
    back in steps of one group's bytes, each decoded as it comes, so
    one group's bits are held at a time; a group that one step covers
    is a view of that step's bits.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.ones = 0
        meta = read_metadata(path)
        self.format, self.size = _sniff(path, meta)
        if meta is not None:
            if meta.n_bits > self.size:
                raise ValueError(f"file holds {self.size} bits but metadata claims {meta.n_bits}")
            self.size = meta.n_bits

    def groups(self, n_groups: int):
        if self.size % n_groups:
            raise ValueError(f"{self.size} bits do not divide into {n_groups} groups")
        group_bits = self.size // n_groups
        with open(self.path, "rb") as fh:
            bits = np.empty(0, dtype=np.uint8)  # read, in no group yet
            for _ in range(n_groups):
                if not bits.size and group_bits:
                    bits = self._step(fh, group_bits)
                group, bits = bits[:group_bits], bits[group_bits:]
                held = group.size
                if held < group_bits:
                    group = np.concatenate([group, np.empty(group_bits - held, np.uint8)])
                while held < group_bits:
                    bits = self._step(fh, group_bits)
                    take = bits[: group_bits - held]
                    group[held : held + take.size] = take
                    held, bits = held + take.size, bits[take.size :]
                self.ones += int(np.count_nonzero(group))
                yield group

    def _step(self, fh, group_bits: int) -> np.ndarray:
        """The bits of fh's next step, one group's bytes."""
        data = np.frombuffer(fh.read(-(-group_bits // 8)), dtype=np.uint8)
        if not data.size:
            raise ValueError(f"{self.path} shrank while it was read")
        if self.format == FORMAT_PACKED:
            return np.unpackbits(data, bitorder="little")
        bits = data[_ASCII_CLASS[data] == _BIT]
        bits -= ord("0")
        return bits


def read_bits(path: str) -> np.ndarray:
    """Every bit of a bitstream written by save_stream or
    write_generated, as one 0/1 uint8 array: BitFile's one group."""
    [bits] = BitFile(path).groups(1)
    return bits


def read_metadata(path: str) -> StreamMetadata | None:
    """Sidecar for path, or None when absent."""
    side = metadata_path(path)
    if not os.path.exists(side):
        return None
    with open(side, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"metadata is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("metadata must be a JSON object")
    known = {f for f in StreamMetadata.__dataclass_fields__}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown metadata keys: {sorted(unknown)}")
    missing = known - set(payload)
    if missing:
        raise ValueError(f"missing metadata keys: {sorted(missing)}")
    _check_format(payload["format"])
    n_bits = payload["n_bits"]
    if isinstance(n_bits, bool) or not isinstance(n_bits, int) or n_bits < 0:
        raise ValueError(f"metadata n_bits must be a non-negative integer, got {n_bits!r}")
    return StreamMetadata(**payload)


@contextlib.contextmanager
def created(*paths):
    """Binary files open for writing at paths (None for a path not
    given), opened before the work that fills them.  Closes them on
    success, naming the path of a close that fails; if anything fails,
    the opens included, removes every file opened here."""
    files = []
    try:
        for path in paths:
            files.append(path and open(path, "wb"))
        yield files
        for fh in filter(None, files):
            try:
                fh.close()
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, fh.name) from exc
    except BaseException:
        for fh in filter(None, files):
            with contextlib.suppress(OSError):
                fh.close()
            os.remove(fh.name)
        raise


def put(fh, data) -> None:
    """Write the bytes data to fh, naming fh's path if that fails."""
    try:
        fh.write(data)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, fh.name) from exc


def _write(path: str, chunks: Iterable[np.ndarray], info: StreamInfo, fmt: str) -> StreamMetadata:
    """Write the 0/1 chunks to path in fmt, and the sidecar of info.

    The file and the sidecar are created before the first chunk is
    made, so a path that cannot be opened is named as given.  An output
    that the path's disk cannot hold then raises OSError (ENOSPC), and
    both files are removed, before anything is written."""
    _check_format(fmt)
    meta = StreamMetadata(**asdict(info), format=fmt)
    need = _encoded_size(meta.n_bits, meta.format)
    with created(path, metadata_path(path)) as (fh, side):
        free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
        if need > free:
            raise OSError(errno.ENOSPC, f"needs {need} bytes, its disk has {free} free", path)
        for bits in chunks:
            put(fh, _encode(bits, meta.format))
        put(side, (json.dumps(asdict(meta), indent=2, sort_keys=True) + "\n").encode())
    return meta


def save_stream(stream: BitStream, path: str, fmt: str = FORMAT_PACKED) -> StreamMetadata:
    """Write a generated stream plus its sidecar; returns the metadata."""
    return _write(path, [stream.bits], stream.info, fmt)


def write_generated(
    gen: BitGenerator, n_bits: int, path: str, fmt: str = FORMAT_PACKED
) -> StreamMetadata:
    """Write gen's next n_bits to path as they are made, then the sidecar.

    The file and sidecar equal those save_stream writes for one
    gen.generate(n_bits) call; the simulated time and energy are that
    call's, not a sum over chunks.
    """
    return _write(path, gen.chunks(n_bits), gen.stream_info(n_bits), fmt)
