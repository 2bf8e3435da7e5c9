"""Binary encoding primitives for the columnar file format.

Little-endian, length-prefixed framing.  These helpers keep the file
format byte-accurate (real serialization round-trips through ``bytes``)
without pulling in pickle, so file sizes honestly reflect encoding
choices — the optimizer's IO cost model depends on them.
"""

from __future__ import annotations

import struct

from ..errors import HiveError


class CorruptFileError(HiveError):
    """Framing or magic-number validation failed."""


class ByteWriter:
    """Append-only binary buffer."""

    def __init__(self):
        self._parts: list[bytes] = []
        self._size = 0

    def write_bytes(self, data: bytes) -> None:
        self._parts.append(data)
        self._size += len(data)

    def write_u8(self, value: int) -> None:
        self.write_bytes(struct.pack("<B", value))

    def write_i32(self, value: int) -> None:
        self.write_bytes(struct.pack("<i", value))

    def write_i64(self, value: int) -> None:
        self.write_bytes(struct.pack("<q", value))

    def write_f64(self, value: float) -> None:
        self.write_bytes(struct.pack("<d", value))

    def write_blob(self, data: bytes) -> None:
        """Length-prefixed byte string."""
        self.write_i32(len(data))
        self.write_bytes(data)

    def write_str(self, text: str) -> None:
        self.write_blob(text.encode("utf-8"))

    def size(self) -> int:
        return self._size

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class ByteReader:
    """Sequential binary reader with bounds checking."""

    def __init__(self, data: bytes, offset: int = 0):
        self._data = data
        self._pos = offset

    def read_bytes(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CorruptFileError(
                f"attempted to read {n} bytes past end of buffer")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def read_u8(self) -> int:
        return struct.unpack("<B", self.read_bytes(1))[0]

    def read_i32(self) -> int:
        return struct.unpack("<i", self.read_bytes(4))[0]

    def read_i64(self) -> int:
        return struct.unpack("<q", self.read_bytes(8))[0]

    def read_f64(self) -> float:
        return struct.unpack("<d", self.read_bytes(8))[0]

    def read_blob(self) -> bytes:
        n = self.read_i32()
        if n < 0:
            raise CorruptFileError(f"negative blob length {n}")
        return self.read_bytes(n)

    def read_str(self) -> str:
        return self.read_blob().decode("utf-8")

    def remaining(self) -> int:
        return len(self._data) - self._pos
