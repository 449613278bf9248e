"""Helpers for the little-endian binary container formats."""

import json
import struct

import numpy as np

from .errors import FormatError


class Reader:
    """Cursor over a byte buffer that reports byte offsets on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

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
    """Accumulates little-endian fields into a byte string."""

    def __init__(self):
        self._parts: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def pack(self, fmt: str, *values) -> None:
        self._parts.append(struct.pack("<" + fmt, *values))

    def array(self, values: np.ndarray, dtype: str) -> None:
        self._parts.append(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def json(self, value) -> None:
        """``value`` as a u32 byte count, then JSON with sorted keys."""
        blob = json.dumps(value, sort_keys=True).encode()
        self.pack("I", len(blob))
        self.raw(blob)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)
