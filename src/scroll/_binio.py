"""The little-endian binary container shared by the ``SCST``, ``SCBF``, ``SCAD`` and ``SCRL`` files.

Every file is a 4-byte magic, a u16 format version, then its payload, and
ends exactly where the payload does. This module is the one place that
opens a binary file, checks a magic or compares a version; the loaders
read their payload through a :class:`Reader` and the savers write it
through a :class:`Writer`.
"""

import json
import math
import struct

import numpy as np

from .errors import DataError, FormatError, all_finite


class Reader:
    """Cursor over a byte buffer that reports byte offsets on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    @classmethod
    def read_file(cls, path, magic: bytes, version: int, what: str) -> "Reader":
        """A reader over the payload of ``path``, after its magic and ``version``."""
        with open(path, "rb") as fh:
            r = cls(fh.read())
        r.expect_magic(magic)
        (found,) = r.unpack("H", f"{what} version")
        if found != version:
            raise FormatError(f"unsupported {what} version {found} at byte {len(magic)}")
        return r

    def require(self, count: int, what: str) -> int:
        """End of the next ``count`` bytes, checked without moving (before allocating for them)."""
        end = self.offset + count
        if end > len(self.data):
            raise FormatError(
                f"truncated {what}: need bytes [{self.offset}, {end}) "
                f"but data ends at byte {len(self.data)}"
            )
        return end

    def _advance(self, count: int, what: str) -> int:
        """Move past ``count`` bytes and return where they start."""
        start, self.offset = self.offset, self.require(count, what)
        return start

    def take(self, count: int, what: str) -> bytes:
        start = self._advance(count, what)
        return self.data[start:self.offset]

    def expect_magic(self, magic: bytes) -> None:
        raw = self.take(len(magic), "magic")
        if raw != magic:
            raise FormatError(f"bad magic {raw!r} at byte 0, expected {magic!r}")

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        """The next ``count`` items as a read-only view of the buffer, not a copy.

        The view may be unaligned and keeps the whole buffer alive; a caller
        that keeps the values copies them.
        """
        start = self._advance(np.dtype(dtype).itemsize * count, what)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=start)

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        """The next float64 array of ``shape`` (a tuple), owned and finite.

        The byte count is checked before anything is allocated; a NaN or
        infinite entry raises :class:`DataError` naming ``what``.
        """
        values = self.array("<f8", math.prod(shape), what).reshape(shape).copy()
        if not all_finite(values):
            raise DataError(f"non-finite values in {what}")
        return values

    def json(self, what: str, kind: type):
        """A JSON value of type ``kind``, as :meth:`Writer.json` writes it."""
        (count,) = self.unpack("I", f"{what} length")
        try:
            value = json.loads(self.take(count, what))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise FormatError(f"corrupt {what}: {exc}") from exc
        if not isinstance(value, kind):
            raise FormatError(f"{what} must be a {kind.__name__}, got {value!r}")
        return value

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"trailing data: expected end at byte {self.offset}, "
                f"found {len(self.data) - self.offset} extra bytes"
            )


class Writer:
    """Accumulates a file's magic, u16 version and little-endian fields."""

    def __init__(self, magic: bytes, version: int):
        self._parts: list[bytes] = [magic]
        self.pack("H", version)

    def pack(self, fmt: str, *values) -> None:
        self._parts.append(struct.pack("<" + fmt, *values))

    def array(self, values: np.ndarray, dtype: str) -> None:
        self._parts.append(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def json(self, value) -> None:
        """``value`` as a u32 byte count, then JSON with sorted keys."""
        blob = json.dumps(value, sort_keys=True).encode()
        self.pack("I", len(blob))
        self._parts.append(blob)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(b"".join(self._parts))
