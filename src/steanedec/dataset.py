"""Binary dataset files for decoder training and evaluation.

Layout (integers little-endian):
  magic b"SDDS", u32 version,
  u32 code-id length, code-id bytes,
  f64 physical error rate, u32 rounds T, u8 basis ("Z" or "X"),
  u64 seed, u64 shot count,
  u32 config-hash length, hash bytes.
Then one record per sample:
  per round, its 12-bit round code (`circuits.pack_rounds`: bit c is
  channel c) as a little-endian u16 whose top 4 bits are zero,
  one byte with m_in (bit 0), m_out (bit 1), m_L (bit 2).

A line-delimited text export of the same records is provided for
debugging. Every writer takes a `Header` and then the records in
blocks, so a dataset of any size is written one block at a time, and
writes each file under a temporary name that is renamed to the file's
own name only when it is complete (`files.replacing`). The reader
checks every length the header declares against the bytes left in the
file before it reads them, and every round code against the 12
channels, so a truncated or corrupt file raises `ValueError`.
"""

from __future__ import annotations

import contextlib
import functools
import struct
from dataclasses import dataclass

import numpy as np

from .circuits import N_CHANNELS, ROUND_BITS, RoundRecords
from .files import read_exact, replacing

MAGIC = b"SDDS"
VERSION = 1
CODE_ID = "steane-713"


# shots that ``steanedec gen-data`` samples and writes at a time; the
# files do not depend on it. Time per dataset is flat from 4,096 to
# 16,384 and memory grows with the block (CHANGES.md has the sweep)
BLOCK_SHOTS = 8192


@dataclass(frozen=True)
class Header:
    """The fields of a dataset file before its records; ``shots`` is
    the number of records that follow."""

    code_id: str
    p_ph: float
    T: int
    basis: str
    seed: int
    shots: int
    config_hash: str = ""


@dataclass
class DatasetFile(RoundRecords):
    code_id: str
    p_ph: float
    T: int
    basis: str
    seed: int
    codes: np.ndarray  # (n, T) uint16 round codes
    m_in: np.ndarray
    m_out: np.ndarray
    config_hash: str = ""


def _file_header(head) -> bytes:
    cid = head.code_id.encode()
    hb = head.config_hash.encode()
    return b"".join([
        MAGIC, struct.pack("<I", VERSION),
        struct.pack("<I", len(cid)), cid,
        struct.pack("<d", head.p_ph), struct.pack("<I", head.T),
        head.basis.encode()[:1],
        struct.pack("<Q", head.seed), struct.pack("<Q", head.shots),
        struct.pack("<I", len(hb)), hb])


def _records(codes, m_in, m_out) -> np.ndarray:
    """The (n, 2 T + 1) record bytes of the round codes of n samples."""
    n, T = codes.shape
    body = np.empty((n, 2 * T + 1), dtype=np.uint8)
    body[:, :2 * T] = np.ascontiguousarray(codes, "<u2").view(np.uint8)
    body[:, 2 * T] = m_in | (m_out << 1) | ((m_in ^ m_out) << 2)
    return body


def _text_header(head) -> bytes:
    return (f"# {head.code_id} p_ph={head.p_ph} T={head.T} "
            f"basis={head.basis} seed={head.seed} shots={head.shots} "
            f"config={head.config_hash}\n").encode()


# row k: the text of round code k, its 12 channel digits and a separator
_DIGITS = np.full((len(ROUND_BITS), N_CHANNELS + 1), ord("|"), np.uint8)
np.add(ROUND_BITS, ord("0"), out=_DIGITS[:, :N_CHANNELS])


def _text_lines(codes, m_in, m_out) -> np.ndarray:
    """The (n, 13 T + 6) text-export bytes of the round codes of n
    samples."""
    n, T = codes.shape
    width = (N_CHANNELS + 1) * T
    body = np.empty((n, width + 6), dtype=np.uint8)
    body[:, :width] = _DIGITS[codes].reshape(n, width)
    # the last round's separator is the space before the labels
    body[:, width - 1:width + 4:2] = ord(" ")
    body[:, width:width + 5:2] = np.stack([m_in, m_out, m_in ^ m_out],
                                          axis=1) + ord("0")
    body[:, -1] = ord("\n")
    return body


# (header format, records format) of each file a dataset is written to
_BINARY = (_file_header, _records)
_TEXT = (_text_header, _text_lines)


def _write(head, blocks, targets):
    """Write to each (path, format) of ``targets`` the header ``head``,
    then the records of every block of ``blocks`` in order, holding one
    block at a time. Each file is written through `replacing`, so it
    appears only when complete. Raises `ValueError`, and leaves no
    file, if the blocks do not hold ``head.shots`` samples of ``head.T``
    rounds, or if a round code sets bits past the 12 channels, which
    `read_dataset` would reject."""
    mismatch = ValueError(f"the blocks are not the {head.shots} samples "
                          f"of {head.T} rounds that the header declares")
    with contextlib.ExitStack() as stack:
        sinks = [(stack.enter_context(replacing(path)), fmt)
                 for path, fmt in targets]
        for fh, (header, _) in sinks:
            fh.write(header(head))
        n = 0
        for block in blocks:
            n += len(block.codes)
            if block.codes.shape[1:] != (head.T,) or n > head.shots:
                raise mismatch
            if block.codes.max(initial=0) >= len(ROUND_BITS):
                raise ValueError("a round sets bits past its 12 channels")
            m_in = np.asarray(block.m_in, dtype=np.uint8)
            m_out = np.asarray(block.m_out, dtype=np.uint8)
            for fh, (_, records) in sinks:
                fh.write(records(block.codes, m_in, m_out))
        if n != head.shots:
            raise mismatch


def write_dataset(path, head: Header, blocks):
    """Write the dataset file ``path``: the header ``head``, then the
    records of ``blocks``, each an object with ``codes``, ``m_in`` and
    ``m_out`` such as a `DatasetFile` or a `MemoryBatch`."""
    _write(head, blocks, [(path, _BINARY)])


def export_text(path, head: Header, blocks):
    """One sample per line: per-round channel bits in the fixed order,
    rounds separated by '|', then m_in m_out m_L. ``head`` and
    ``blocks`` are as in `write_dataset`."""
    _write(head, blocks, [(path, _TEXT)])


def write_with_text(path, head: Header, blocks):
    """Write the dataset file ``path`` and its text export ``path +
    ".txt"`` (as `write_dataset` and `export_text` would) in one pass
    over ``blocks``."""
    _write(head, blocks, [(path, _BINARY), (f"{path}.txt", _TEXT)])


def read_dataset(path) -> DatasetFile:
    """The dataset file ``path``; raises `ValueError` if it is not one,
    or is cut short or corrupt."""
    with open(path, "rb") as fh:
        read = functools.partial(read_exact, fh, what="dataset file")
        if read(4) != MAGIC:
            raise ValueError("not a dataset file")
        (version,) = struct.unpack("<I", read(4))
        if version != VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        (clen,) = struct.unpack("<I", read(4))
        code_id = read(clen).decode()
        (p_ph,) = struct.unpack("<d", read(8))
        (T,) = struct.unpack("<I", read(4))
        basis = read(1).decode()
        (seed,) = struct.unpack("<Q", read(8))
        (n,) = struct.unpack("<Q", read(8))
        (hlen,) = struct.unpack("<I", read(4))
        chash = read(hlen).decode()
        body = np.frombuffer(read(n * (2 * T + 1)),
                             dtype=np.uint8).reshape(n, 2 * T + 1)
        if fh.read(1):
            raise ValueError(f"bytes past the {n} records the header "
                             "declares")
    codes = np.ascontiguousarray(body[:, :2 * T]).view("<u2")
    if codes.max(initial=0) >= len(ROUND_BITS):
        raise ValueError("a round sets bits past its 12 channels")
    flags = body[:, 2 * T]
    ds = DatasetFile(code_id=code_id, p_ph=p_ph, T=T, basis=basis, seed=seed,
                     codes=codes, m_in=(flags & 1).astype(np.uint8),
                     m_out=((flags >> 1) & 1).astype(np.uint8),
                     config_hash=chash)
    if not np.array_equal((flags >> 2) & 1, ds.m_L):
        raise ValueError("label consistency violated (m_L != m_in xor m_out)")
    return ds

