"""Binary checkpoint container with a bit-exact layout.

Layout, all little-endian:

    magic           4 bytes  b"SKDC"
    version         u32      = 1
    step            u64
    rng_len         u32      followed by a UTF-8 JSON object: a reserved RNG-state
                             block, written as {}; on load it must be an object
                             and its content is discarded
    meta_len        u32      followed by a UTF-8 JSON object: metadata (configs etc.)
    tensor_count    u32
    per tensor:
        name_len    u32      followed by UTF-8 name, unique in the file
        dtype       u8       0 = float64 (the only code)
        rank        u8
        dims        u32 * rank
        payload     float64 little-endian, prod(dims) values

Loading parses the whole file before returning, so a failed load applies
no partial state. Errors carry the byte offset of the problem.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import (
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
)

MAGIC = b"SKDC"
VERSION = 1
DTYPE_FLOAT64 = 0


@dataclass
class Checkpoint:
    step: int = 0
    meta: dict = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)


def _encode_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _write_checkpoint(stream: BinaryIO, ckpt: Checkpoint) -> None:
    """Writes `ckpt` in the layout above. Each payload goes to the stream
    straight from its array's memory; only an array that is not already
    C-ordered little-endian float64 is converted first."""
    stream.write(MAGIC + struct.pack("<IQ", VERSION, ckpt.step))
    for blob in (_encode_json({}), _encode_json(ckpt.meta)):
        stream.write(struct.pack("<I", len(blob)))
        stream.write(blob)
    stream.write(struct.pack("<I", len(ckpt.tensors)))
    for name, arr in ckpt.tensors.items():
        arr = np.asarray(arr, dtype="<f8", order="C")  # ascontiguousarray would promote 0-d to 1-d
        name_bytes = name.encode("utf-8")
        stream.write(struct.pack(f"<I{len(name_bytes)}sBB{arr.ndim}I", len(name_bytes),
                                 name_bytes, DTYPE_FLOAT64, arr.ndim, *arr.shape))
        # a flat view casts at any shape; memoryview refuses to cast a zero extent
        stream.write(memoryview(arr.reshape(-1)).cast("B"))


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    stream = io.BytesIO()
    _write_checkpoint(stream, ckpt)
    return stream.getvalue()


class _Reader:
    """Cursor over a binary stream of `size` bytes. Every read is checked
    against the bytes left before it is made, so a header that claims more
    than the stream holds raises before anything is allocated.

    Payloads go into one buffer, allocated at the first tensor and sized by
    the bytes left: one allocation per checkpoint, not one per tensor. glibc
    keeps such a block's memory for the next load, where it handed per-tensor
    arrays back to the system and every load faulted the payload in afresh.
    The buffer is a bytearray, not `np.empty`: numpy marks arrays of 4 MiB
    or more for transparent huge pages, the heap keeps that mark after the
    checkpoint is freed, and the forward's temporaries placed there later
    ran slower (GELU by about a quarter on the paper-shaped student)."""

    def __init__(self, stream: BinaryIO, size: int):
        self.stream = stream
        self.size = size
        self.offset = 0
        self._payloads: np.ndarray | None = None
        self._used = 0  # floats of `_payloads` handed out

    def _truncated(self, n: int) -> CheckpointTruncatedError:
        return CheckpointTruncatedError(
            f"checkpoint truncated at offset {self.offset}: "
            f"needed {n} bytes, {self.size - self.offset} remain")

    def _advance(self, n: int, got: int) -> None:
        if got != n:  # the stream ended before its stated size
            raise self._truncated(n)
        self.offset += n

    def take(self, n: int) -> bytes:
        if n > self.size - self.offset:
            raise self._truncated(n)
        chunk = self.stream.read(n)
        self._advance(n, len(chunk))
        return chunk

    def float64s(self, dims: tuple[int, ...], dims_offset: int, name: str) -> np.ndarray:
        """A float64 array of shape `dims`, the next slice of the payload
        buffer, read straight into its memory."""
        count = math.prod(dims)
        if 8 * count > self.size - self.offset:
            raise self._truncated(8 * count)
        if self._payloads is None:
            self._payloads = np.frombuffer(bytearray((self.size - self.offset) // 8 * 8), "<f8")
        flat = self._payloads[self._used:self._used + count]
        try:
            # numpy refuses a rank above its limit, and extents whose non-zero
            # product overflows, even when the payload is empty
            arr = flat.reshape(dims)
        except ValueError as exc:
            raise CheckpointFormatError(
                f"bad dims for tensor {name!r} at offset {dims_offset}: {exc}") from exc
        # the flat slice casts at any shape; memoryview refuses to cast a zero extent
        self._advance(8 * count, self.stream.readinto(memoryview(flat).cast("B")))
        self._used += count
        return arr

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def json_object(self, what: str) -> dict:
        """A u32-length-prefixed UTF-8 JSON object."""
        n = self.u32()
        offset = self.offset
        try:
            value = json.loads(str(self.take(n), "utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointFormatError(f"bad {what} JSON at offset {offset}: {exc}") from exc
        if not isinstance(value, dict):
            raise CheckpointFormatError(
                f"{what} at offset {offset} must be a JSON object, got {type(value).__name__}")
        return value


def _read_checkpoint(stream: BinaryIO, size: int) -> Checkpoint:
    r = _Reader(stream, size)
    magic = r.take(4)
    if magic != MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
    version = r.u32()
    if version != VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version} at offset 4, expected {VERSION}")
    step = r.u64()
    r.json_object("RNG state")
    meta = r.json_object("metadata")
    count = r.u32()
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = r.u32()
        name_offset = r.offset
        try:
            name = str(r.take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"bad tensor name at offset {name_offset}: {exc}") from exc
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor {name!r} at offset {name_offset}")
        dtype_offset = r.offset
        dtype = r.u8()
        if dtype != DTYPE_FLOAT64:
            raise CheckpointFormatError(
                f"unknown dtype code {dtype} for tensor {name!r} at offset {dtype_offset}")
        rank = r.u8()
        dims_offset = r.offset
        dims = tuple(r.u32() for _ in range(rank))
        tensors[name] = r.float64s(dims, dims_offset, name)
    if r.offset != size:
        raise CheckpointFormatError(f"{size - r.offset} trailing bytes at offset {r.offset}")
    return Checkpoint(step=step, meta=meta, tensors=tensors)


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    return _read_checkpoint(io.BytesIO(blob), len(blob))


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Writes a sibling temp file, then renames it over `path`: a save that
    raises part-way leaves any old file as it was. The file is made by
    `open`, so its permissions follow the umask."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"  # with_name refuses an empty name
    try:
        with open(tmp, "wb") as f:
            _write_checkpoint(f, ckpt)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Reads the file in place: each payload goes straight into its slice of
    the checkpoint's one payload buffer, which its tensors keep alive."""
    with open(path, "rb") as f:
        return _read_checkpoint(f, os.fstat(f.fileno()).st_size)
