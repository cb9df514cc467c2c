"""Versioned binary checkpoints.

Layout (all integers little-endian):
  magic b"SDCK", u32 version,
  u32 epoch,
  u32 config-hash length, hash bytes (utf-8 hex digest),
  u32 extra-json length, json bytes (optimizer moments, rng state, ...),
  u32 tensor count, then per tensor:
    u32 name length, name bytes,
    u32 ndim, u64 dims...,
    float64 data, little-endian, C order.

Round trips are bit exact so training can resume mid-run. A checkpoint
is written under a temporary name and renamed to its own name only
when complete (`files.replacing`), so a run that crashes while it
writes one keeps the previous epoch's checkpoint as its last. Every
length the file declares is checked against the bytes left in it
before it is read, so a truncated or corrupt checkpoint raises
`ValueError`.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..files import read_exact, replacing

MAGIC = b"SDCK"
VERSION = 1


@dataclass
class Checkpoint:
    epoch: int
    weights: dict[str, np.ndarray]
    config_hash: str
    extra: dict = field(default_factory=dict)


def _write_tensor(fh, name: str, arr: np.ndarray):
    nb = name.encode()
    fh.write(struct.pack("<I", len(nb)))
    fh.write(nb)
    arr = np.ascontiguousarray(arr, dtype="<f8")
    fh.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<Q", d))
    fh.write(arr.tobytes())


def _read_tensor(read) -> tuple[str, np.ndarray]:
    (nlen,) = struct.unpack("<I", read(4))
    name = read(nlen).decode()
    (ndim,) = struct.unpack("<I", read(4))
    shape = struct.unpack(f"<{ndim}Q", read(8 * ndim))
    # a Python int: a corrupt dimension cannot overflow the byte count
    arr = np.frombuffer(read(8 * math.prod(shape)), dtype="<f8")
    return name, arr.reshape(shape).astype(float)


def save_checkpoint(path, ckpt: Checkpoint):
    hb = ckpt.config_hash.encode()
    eb = json.dumps(ckpt.extra, sort_keys=True).encode()
    with replacing(path) as fh:
        fh.write(b"".join([
            MAGIC, struct.pack("<III", VERSION, ckpt.epoch, len(hb)), hb,
            struct.pack("<I", len(eb)), eb,
            struct.pack("<I", len(ckpt.weights))]))
        for name in sorted(ckpt.weights):
            _write_tensor(fh, name, ckpt.weights[name])


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        read = functools.partial(read_exact, fh, what="checkpoint")
        if read(4) != MAGIC:
            raise ValueError("not a checkpoint file")
        (version,) = struct.unpack("<I", read(4))
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (epoch,) = struct.unpack("<I", read(4))
        (hlen,) = struct.unpack("<I", read(4))
        chash = read(hlen).decode()
        (elen,) = struct.unpack("<I", read(4))
        extra = json.loads(read(elen).decode())
        (count,) = struct.unpack("<I", read(4))
        weights = dict(_read_tensor(read) for _ in range(count))
    return Checkpoint(epoch=epoch, weights=weights, config_hash=chash,
                      extra=extra)
