"""Flagged syndrome-extraction circuits and single-fault enumeration.

One QEC cycle measures the six generators in the order S_X1..3, S_Z1..3.
Each plaquette is read out with one syndrome ancilla and one flag qubit:

    prep anc |+>, prep flag |0>,
    entangle data_i, flag, data_j, data_k, flag, data_l,
    measure anc in X, measure flag in Z.

X-type plaquettes use CNOT(anc -> data), Z-type plaquettes use CZ; the
flag couplings are CNOT(anc -> flag) in both.

The simulator register has 9 qubits: data 0..6, ancilla 7, flag 8 (the
ancilla/flag pair is reset for every plaquette readout).

A round's 12 channel bits are its round code (bit c is channel c), the
one syndrome form from the sampler through the dataset files to the
decoders: `pack_rounds` packs bits into codes, `ROUND_BITS` unpacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .steane import CodeDefinition

DATA = tuple(range(7))
ANC = 7
FLAG = 8
N_CHANNELS = 12

# channel layout per round: S_X1..3, S_Z1..3, F_X1..3, F_Z1..3
SX = (0, 1, 2)
SZ = (3, 4, 5)
FX = (6, 7, 8)
FZ = (9, 10, 11)

# row k: the 12 channel bits of round code k
ROUND_BITS = np.unpackbits(
    np.arange(1 << N_CHANNELS, dtype="<u2").view(np.uint8).reshape(-1, 2),
    axis=1, count=N_CHANNELS, bitorder="little")
ROUND_BITS.setflags(write=False)


def pack_rounds(bits) -> np.ndarray:
    """The uint16 round codes of the (..., 12) channel ``bits``: bit c of
    a code is channel c of its round."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1,
                         bitorder="little")
    return packed.view("<u2")[..., 0]


class RoundRecords:
    """Shots held as (shots, T) uint16 round ``codes`` with input and
    output labels ``m_in`` and ``m_out``."""

    @property
    def volumes(self) -> np.ndarray:
        """(shots, T, 12) uint8 channel bits, gathered on each read."""
        return ROUND_BITS[self.codes]

    @property
    def m_L(self) -> np.ndarray:
        return self.m_in ^ self.m_out

    def __len__(self) -> int:
        return self.codes.shape[0]


def basis_channels(basis: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(syndrome channels, flag channels) that decoding a logical readout
    in ``basis`` reads. Z-basis readout is spoiled by bit flips: those are
    detected by the Z-type generators and hooked by the X-type (CNOT)
    readouts, so Z reads SZ and FX, and X reads SX and FZ."""
    if basis == "Z":
        return SZ, FX
    if basis == "X":
        return SX, FZ
    raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")


@dataclass(frozen=True)
class Gate:
    """One circuit location.

    kind: prep_plus | prep_zero | cnot | cz | meas_x | meas_z
    qubits: operand register indices (control first for cnot)
    loc: unique, stable location id
    channel: measurement channel index (meas gates only)
    cycle: 0 = preparation round, 1.. = QEC rounds
    """

    kind: str
    qubits: tuple[int, ...]
    loc: int
    channel: int = -1
    cycle: int = -1


def plaquette_gates(code: CodeDefinition, k: int, ptype: str):
    """Entangling schedule of plaquette k: (kind, data_qubit_or_FLAG) pairs."""
    i, j, kk, ll = code.gate_order[k]
    dgate = "cnot" if ptype == "X" else "cz"
    return [
        (dgate, i - 1),
        ("cnot", FLAG),
        (dgate, j - 1),
        (dgate, kk - 1),
        ("cnot", FLAG),
        (dgate, ll - 1),
    ]


def build_qec_cycle(code: CodeDefinition, cycles: int = 1,
                    include_prep: bool = False) -> list[Gate]:
    """Gate list for ``cycles`` QEC cycles (optionally preceded by the
    preparation cycle, labelled cycle 0). Location ids are sequential."""
    gates: list[Gate] = []
    loc = 0
    first = 0 if include_prep else 1
    for cycle in range(first, cycles + 1):
        for ptype, syn, flag in (("X", SX, FX), ("Z", SZ, FZ)):
            for k in range(code.n_stabilizers):
                gates.append(Gate("prep_plus", (ANC,), loc, cycle=cycle))
                loc += 1
                gates.append(Gate("prep_zero", (FLAG,), loc, cycle=cycle))
                loc += 1
                for kind, target in plaquette_gates(code, k, ptype):
                    if kind == "cnot":
                        qubits = (ANC, target)
                    else:  # cz on (data, anc)
                        qubits = (target, ANC)
                    gates.append(Gate(kind, qubits, loc, cycle=cycle))
                    loc += 1
                gates.append(Gate("meas_x", (ANC,), loc,
                                  channel=syn[k], cycle=cycle))
                loc += 1
                gates.append(Gate("meas_z", (FLAG,), loc,
                                  channel=flag[k], cycle=cycle))
                loc += 1
    return gates


# fault sets -----------------------------------------------------------------

# single-qubit Pauli as (x, z) bit pair
PAULI_1Q = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

TWO_QUBIT_PAULIS = [
    (a, b)
    for a in "IXYZ"
    for b in "IXYZ"
    if not (a == "I" and b == "I")
]


@dataclass(frozen=True)
class FaultInjection:
    """Insert a Pauli immediately after the gate at ``loc``.

    For prep locations the Pauli acts right after (re)preparation; for
    measurement locations ``flip_outcome`` flips the recorded bit instead.
    """

    loc: int
    paulis: tuple[str, ...] = ()
    flip_outcome: bool = False


def error_set(gate: Gate) -> list[FaultInjection]:
    if gate.kind in ("cnot", "cz"):
        return [FaultInjection(gate.loc, pq) for pq in TWO_QUBIT_PAULIS]
    if gate.kind in ("prep_plus", "prep_zero"):
        # init flip: the Pauli that flips the eventual measurement outcome
        p = "Z" if gate.kind == "prep_plus" else "X"
        return [FaultInjection(gate.loc, (p,))]
    if gate.kind in ("meas_x", "meas_z"):
        return [FaultInjection(gate.loc, (), flip_outcome=True)]
    raise ValueError(gate.kind)


def enumerate_single_faults(code: CodeDefinition, cycles: int = 2) -> list[FaultInjection]:
    """Every circuit location of ``cycles`` QEC cycles times every
    nontrivial element of its error set, exactly once."""
    faults = []
    for gate in build_qec_cycle(code, cycles=cycles):
        faults.extend(error_set(gate))
    return faults
