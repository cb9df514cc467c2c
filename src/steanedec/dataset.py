"""Binary dataset files for decoder training and evaluation.

Layout (integers little-endian):
  magic b"SDDS", u32 version,
  u32 code-id length, code-id bytes,
  f64 physical error rate, u32 rounds T, u8 basis ("Z" or "X"),
  u64 seed, u64 shot count,
  u32 config-hash length, hash bytes.
Then one record per sample:
  per round, the 12 channel bits packed little-endian into 2 bytes,
  one byte with m_in (bit 0), m_out (bit 1), m_L (bit 2).

A line-delimited text export of the same records is provided for
debugging.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .circuits import N_CHANNELS

MAGIC = b"SDDS"
VERSION = 1
CODE_ID = "steane-713"


@dataclass
class DatasetFile:
    code_id: str
    p_ph: float
    T: int
    basis: str
    seed: int
    volumes: np.ndarray  # (n, T, 12) uint8
    m_in: np.ndarray
    m_out: np.ndarray
    config_hash: str = ""

    @property
    def m_L(self) -> np.ndarray:
        return self.m_in ^ self.m_out

    def __len__(self) -> int:
        return self.volumes.shape[0]


def from_batch(batch, p_ph: float, config_hash: str = "") -> DatasetFile:
    return DatasetFile(code_id=CODE_ID, p_ph=p_ph, T=batch.volumes.shape[1],
                       basis=batch.basis, seed=batch.seed,
                       volumes=batch.volumes.astype(np.uint8),
                       m_in=np.asarray(batch.m_in, dtype=np.uint8),
                       m_out=np.asarray(batch.m_out, dtype=np.uint8),
                       config_hash=config_hash)


def write_dataset(path, ds: DatasetFile):
    n, T, _ = ds.volumes.shape
    packed = np.packbits(ds.volumes, axis=2, bitorder="little")
    flags = (ds.m_in | (ds.m_out << 1) | (ds.m_L << 2)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        cid = ds.code_id.encode()
        fh.write(struct.pack("<I", len(cid)))
        fh.write(cid)
        fh.write(struct.pack("<d", ds.p_ph))
        fh.write(struct.pack("<I", T))
        fh.write(ds.basis.encode()[:1])
        fh.write(struct.pack("<Q", ds.seed))
        fh.write(struct.pack("<Q", n))
        hb = ds.config_hash.encode()
        fh.write(struct.pack("<I", len(hb)))
        fh.write(hb)
        body = np.empty((n, 2 * T + 1), dtype=np.uint8)
        body[:, :2 * T] = packed.reshape(n, 2 * T)
        body[:, 2 * T] = flags
        fh.write(body.tobytes())


def _read_exact(fh, k: int) -> bytes:
    data = fh.read(k)
    if len(data) != k:
        raise ValueError("truncated dataset file")
    return data


def read_dataset(path) -> DatasetFile:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != MAGIC:
            raise ValueError("not a dataset file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        (clen,) = struct.unpack("<I", _read_exact(fh, 4))
        code_id = _read_exact(fh, clen).decode()
        (p_ph,) = struct.unpack("<d", _read_exact(fh, 8))
        (T,) = struct.unpack("<I", _read_exact(fh, 4))
        basis = _read_exact(fh, 1).decode()
        (seed,) = struct.unpack("<Q", _read_exact(fh, 8))
        (n,) = struct.unpack("<Q", _read_exact(fh, 8))
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
        chash = _read_exact(fh, hlen).decode()
        body = np.frombuffer(_read_exact(fh, n * (2 * T + 1)),
                             dtype=np.uint8).reshape(n, 2 * T + 1)
    volumes = np.unpackbits(body[:, :2 * T].reshape(n, T, 2), axis=2,
                            count=N_CHANNELS, bitorder="little")
    flags = body[:, 2 * T]
    ds = DatasetFile(code_id=code_id, p_ph=p_ph, T=T, basis=basis, seed=seed,
                     volumes=volumes, m_in=(flags & 1).astype(np.uint8),
                     m_out=((flags >> 1) & 1).astype(np.uint8),
                     config_hash=chash)
    if not np.array_equal((flags >> 2) & 1, ds.m_L):
        raise ValueError("label consistency violated (m_L != m_in xor m_out)")
    return ds


def export_text(path, ds: DatasetFile):
    """One sample per line: per-round channel bits in the fixed order,
    rounds separated by '|', then m_in m_out m_L."""
    n, T, _ = ds.volumes.shape
    width = (N_CHANNELS + 1) * T
    body = np.empty((n, width + 6), dtype=np.uint8)
    # a round is 12 digits and a separator; the last round's separator is
    # the space before the labels. Splitting the row axis gives a view.
    rounds = body[:, :width].reshape(n, T, N_CHANNELS + 1)
    np.add(ds.volumes, ord("0"), out=rounds[:, :, :N_CHANNELS],
           casting="unsafe")
    rounds[:, :, N_CHANNELS] = ord("|")
    body[:, width - 1:width + 4:2] = ord(" ")
    body[:, width:width + 5:2] = np.stack([ds.m_in, ds.m_out, ds.m_L],
                                          axis=1) + ord("0")
    body[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"# {ds.code_id} p_ph={ds.p_ph} T={ds.T} "
                 f"basis={ds.basis} seed={ds.seed} shots={len(ds)} "
                 f"config={ds.config_hash}\n".encode())
        fh.write(body.tobytes())
