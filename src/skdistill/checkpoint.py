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


def checkpoint_to_bytes(ckpt: Checkpoint) -> bytes:
    parts = [MAGIC, struct.pack("<I", VERSION), struct.pack("<Q", ckpt.step)]
    rng_blob = _encode_json({})
    parts.append(struct.pack("<I", len(rng_blob)))
    parts.append(rng_blob)
    meta_blob = _encode_json(ckpt.meta)
    parts.append(struct.pack("<I", len(meta_blob)))
    parts.append(meta_blob)
    parts.append(struct.pack("<I", len(ckpt.tensors)))
    for name, arr in ckpt.tensors.items():
        arr = np.asarray(arr, dtype=np.float64)  # ascontiguousarray would promote 0-d to 1-d
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<BB", DTYPE_FLOAT64, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    return b"".join(parts)


class _Reader:
    """Cursor over a binary stream of `size` bytes. Every read is checked
    against the bytes left before it is made, so a header that claims more
    than the stream holds raises before anything is allocated."""

    def __init__(self, stream: BinaryIO, size: int):
        self.stream = stream
        self.size = size
        self.offset = 0

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
        """A fresh float64 array of shape `dims`, read straight into its memory."""
        n = 8 * math.prod(dims)
        if n > self.size - self.offset:
            raise self._truncated(n)
        try:
            # numpy refuses a rank above its limit, and extents whose non-zero
            # product overflows, even when the payload is empty
            arr = np.empty(dims, dtype="<f8")
        except ValueError as exc:
            raise CheckpointFormatError(
                f"bad dims for tensor {name!r} at offset {dims_offset}: {exc}") from exc
        # a flat view casts at any shape; memoryview refuses to cast a zero extent
        self._advance(n, self.stream.readinto(memoryview(arr.reshape(-1)).cast("B")))
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
    Path(path).write_bytes(checkpoint_to_bytes(ckpt))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Reads the file in place: each payload goes straight into its array."""
    with open(path, "rb") as f:
        return _read_checkpoint(f, os.fstat(f.fileno()).st_size)
