"""The binary layout shared by feature caches and checkpoints.

Little-endian: a 4-byte magic, a u32 version, then fields built by the
encoders `u32`, `text` (u32 byte length + UTF-8) and `f32` (row-major
float32). `write` puts a head of fixed fields and then the records after
the header; `Reader` hands the fields back in order. Every failure to read
a file is a DataError naming its kind.
"""

import math
import struct

import numpy as np

from .errors import DataError


def u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def text(value: str) -> bytes:
    raw = value.encode("utf-8")
    return u32(len(raw)) + raw


def f32(array) -> bytes:
    return np.ascontiguousarray(array, dtype="<f4").tobytes()


def write(path, magic: bytes, version: int, head: bytes, records) -> None:
    with open(path, "wb") as fh:
        fh.write(magic + u32(version) + head)
        fh.writelines(records)


class Reader:
    """The fields of a whole file, read front to back once its magic and
    version check out; `close` rejects bytes after the last field."""

    def __init__(self, path, kind: str, magic: bytes, version: int):
        try:
            with open(path, "rb") as fh:
                self._view = memoryview(fh.read())
        except OSError as exc:
            raise DataError(f"cannot read {kind} {path}: {exc}") from exc
        self._path, self._kind, self._off = path, kind, 0
        if self._take(len(magic)) != magic:
            raise DataError(f"{path} is not a {kind} (bad magic)")
        (found,) = self.u32(1)
        if found != version:
            raise DataError(f"unsupported {kind} version {found} in {path}")

    def _take(self, n: int) -> memoryview:
        if self._off + n > len(self._view):
            raise DataError(f"truncated {self._kind} {self._path}")
        self._off += n
        return self._view[self._off - n : self._off]

    def left(self) -> int:
        """Bytes not read yet."""
        return len(self._view) - self._off

    def u32(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self._take(4 * n))

    def text(self) -> str:
        (n,) = self.u32(1)
        try:
            return bytes(self._take(n)).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"undecodable text in {self._kind} {self._path}: "
                            f"{exc.reason}") from None

    def f32(self, shape: tuple[int, ...]) -> np.ndarray:
        """A copy of the next float32 array of `shape`."""
        return np.frombuffer(self._take(4 * math.prod(shape)), "<f4").reshape(shape).copy()

    def close(self) -> None:
        if self._off != len(self._view):
            raise DataError(f"trailing bytes in {self._kind} {self._path}")
