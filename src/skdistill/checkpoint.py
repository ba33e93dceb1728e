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

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

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
    """Cursor over the blob; `take` returns views, so a payload is copied
    only once, when its array is made."""

    def __init__(self, blob: bytes):
        self.blob = memoryview(blob)
        self.offset = 0

    def take(self, n: int) -> memoryview:
        if self.offset + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"checkpoint truncated at offset {self.offset}: "
                f"needed {n} bytes, {len(self.blob) - self.offset} remain")
        chunk = self.blob[self.offset:self.offset + n]
        self.offset += n
        return chunk

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


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    r = _Reader(blob)
    magic = bytes(r.take(4))
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
        payload = r.take(8 * math.prod(dims))
        try:
            # numpy refuses a rank above its limit, and extents whose non-zero
            # product overflows, even when the payload is empty
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
        except ValueError as exc:
            raise CheckpointFormatError(
                f"bad dims for tensor {name!r} at offset {dims_offset}: {exc}") from exc
    if r.offset != len(blob):
        raise CheckpointFormatError(
            f"{len(blob) - r.offset} trailing bytes at offset {r.offset}")
    return Checkpoint(step=step, meta=meta, tensors=tensors)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    Path(path).write_bytes(checkpoint_to_bytes(ckpt))


def load_checkpoint(path: str | Path) -> Checkpoint:
    return checkpoint_from_bytes(Path(path).read_bytes())
