"""Binary checkpoint container with bit-exact round-tripping.

Layout (all integers little-endian):

    magic   8 bytes   b"MHSSMCK1"
    version u32       currently 1
    mlen    u64       length of the UTF-8 JSON metadata blob
    meta    mlen bytes
    count   u32       number of array entries
    entries           name_len:u16, name:utf8, dtype_len:u8, dtype:ascii,
                      ndim:u8, dims:u64*ndim, offset:u64 (into data section)
    data              raw little-endian array bytes, in entry order

Array bytes are written verbatim from little-endian buffers, so a load
followed by a save reproduces the file exactly.

A save writes a temporary file beside the target, fsyncs it and renames it
over the target, so a crash mid-write leaves the previous checkpoint in
place. A load checks every length, dtype and offset against the file, so a
truncated or corrupt file raises ``ValueError`` and nothing else.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import uuid
from pathlib import Path

import numpy as np

MAGIC = b"MHSSMCK1"
VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None):
    meta_blob = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    entries = []
    offset = 0
    blobs = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        entries.append((name, le.dtype.str, arr.shape, offset))
        blobs.append(raw)
        offset += len(raw)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            fh.write(struct.pack("<Q", len(meta_blob)))
            fh.write(meta_blob)
            fh.write(struct.pack("<I", len(entries)))
            for name, dtype_str, shape, off in entries:
                name_b = name.encode("utf-8")
                dtype_b = dtype_str.encode("ascii")
                fh.write(struct.pack("<H", len(name_b)))
                fh.write(name_b)
                fh.write(struct.pack("<B", len(dtype_b)))
                fh.write(dtype_b)
                fh.write(struct.pack("<B", len(shape)))
                for dim in shape:
                    fh.write(struct.pack("<Q", dim))
                fh.write(struct.pack("<Q", off))
            for raw in blobs:
                fh.write(raw)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """Bounds-checked cursor over a checkpoint's bytes."""

    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if n > len(self.blob) - self.pos:
            raise ValueError(
                f"{self.path}: truncated checkpoint: {what} needs {n} bytes at offset "
                f"{self.pos}, the file has {len(self.blob)}"
            )
        self.pos += n
        return self.blob[self.pos - n:self.pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


# what saves write: a little-endian or byte-order-free bool, signed,
# unsigned, float or complex type with its size in bytes
_DTYPE = re.compile(r"[<|][biufc]\d{1,2}")


def _dtype(text: str, path) -> np.dtype:
    if _DTYPE.fullmatch(text):
        try:
            return np.dtype(text)
        except TypeError:           # a size numpy does not have, e.g. "<f3"
            pass
    raise ValueError(f"{path}: unsupported array dtype {text!r}")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    blob = Path(path).read_bytes()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    rd = _Reader(blob, path)
    rd.take(8, "magic")
    (version,) = rd.unpack("<I", "version")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (mlen,) = rd.unpack("<Q", "metadata length")
    meta = json.loads(rd.take(mlen, "metadata").decode("utf-8"))
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint metadata is not a JSON object")
    (count,) = rd.unpack("<I", "entry count")
    entries = []
    for _ in range(count):
        (name_len,) = rd.unpack("<H", "name length")
        name = rd.take(name_len, "name").decode("utf-8")
        (dtype_len,) = rd.unpack("<B", "dtype length")
        dtype = _dtype(rd.take(dtype_len, "dtype").decode("ascii"), path)
        (ndim,) = rd.unpack("<B", "ndim")
        shape = rd.unpack(f"<{ndim}Q", "shape")
        (offset,) = rd.unpack("<Q", "offset")
        entries.append((name, dtype, shape, offset))
    if len({name for name, *_ in entries}) != len(entries):
        raise ValueError(f"{path}: duplicate array names in the entry table")
    data_start = rd.pos
    arrays = {}
    for name, dtype, shape, offset in entries:
        nbytes = dtype.itemsize * math.prod(shape)
        start = data_start + offset
        if start + nbytes > len(blob):
            raise ValueError(
                f"{path}: array {name!r} ({nbytes} bytes at data offset {offset}) "
                f"runs past the end of the file"
            )
        arr = np.frombuffer(blob, dtype=dtype, count=math.prod(shape), offset=start)
        arrays[name] = arr.reshape(shape).astype(dtype.newbyteorder("="), copy=True)
    return arrays, meta
