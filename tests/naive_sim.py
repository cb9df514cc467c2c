"""Naive, non-bit-packed reference simulator used as a test oracle.

Keeps one Python object per qubit with boolean x/z error attributes and
propagates gates with explicit per-qubit rules, so it shares no state
representation with the packed production engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from steanedec.circuits import (ANC, FLAG, N_CHANNELS, FaultInjection,
                                PAULI_1Q, TWO_QUBIT_PAULIS, build_qec_cycle)
from steanedec.steane import CodeDefinition


@dataclass
class NaiveSample:
    """One oracle run, with the fields of the package's memory sample:
    the (T, 12) volume, the readout basis, the logical input and output,
    the final half syndrome and the preparation round's 12 outcomes."""

    volume: np.ndarray
    basis: str
    m_in: int
    m_out: int
    final_syndrome: int
    prep_row: np.ndarray

    @property
    def m_L(self) -> int:
        return self.m_in ^ self.m_out


class NaiveQubit:
    def __init__(self):
        self.x = False
        self.z = False

    def apply(self, pauli: str):
        px, pz = PAULI_1Q[pauli]
        self.x ^= bool(px)
        self.z ^= bool(pz)

    def reset(self):
        self.x = False
        self.z = False


def naive_run(code: CodeDefinition, noise, T, basis, m_in=0, rng=None,
              fault: FaultInjection | None = None,
              fault_in_prep: bool = False) -> NaiveSample:
    """One memory experiment. ``fault.loc`` counts the locations of the T
    QEC cycles, or with ``fault_in_prep`` those of the preparation cycle
    (the two are numbered separately)."""
    qubits = [NaiveQubit() for _ in range(9)]
    volume = np.zeros((T, N_CHANNELS), dtype=np.uint8)
    outcomes = {}
    prev = [0] * 6

    def maybe_noise(gate):
        if noise is None or rng is None or noise.p_ph == 0.0:
            return 0
        if gate.kind in ("cnot", "cz"):
            if rng.random() < noise.p_ph:
                pa, pb = TWO_QUBIT_PAULIS[rng.integers(15)]
                qubits[gate.qubits[0]].apply(pa)
                qubits[gate.qubits[1]].apply(pb)
            return 0
        if gate.kind == "prep_plus":
            if rng.random() < noise.spam_flip:
                qubits[gate.qubits[0]].apply("Z")
            return 0
        if gate.kind == "prep_zero":
            if rng.random() < noise.spam_flip:
                qubits[gate.qubits[0]].apply("X")
            return 0
        return int(rng.random() < noise.spam_flip)

    program = build_qec_cycle(code, cycles=0, include_prep=True) \
        + build_qec_cycle(code, cycles=T)
    for gate in program:
        if gate.kind == "cnot":
            c, t = gate.qubits
            if qubits[c].x:
                qubits[t].x ^= True
            if qubits[t].z:
                qubits[c].z ^= True
            maybe_noise(gate)
        elif gate.kind == "cz":
            a, b = gate.qubits
            xa, xb = qubits[a].x, qubits[b].x
            if xb:
                qubits[a].z ^= True
            if xa:
                qubits[b].z ^= True
            maybe_noise(gate)
        elif gate.kind in ("prep_plus", "prep_zero"):
            qubits[gate.qubits[0]].reset()
            maybe_noise(gate)
        elif gate.kind == "meas_x":
            out = int(qubits[gate.qubits[0]].z) ^ maybe_noise(gate)
            outcomes[(gate.cycle, gate.channel)] = out
        elif gate.kind == "meas_z":
            out = int(qubits[gate.qubits[0]].x) ^ maybe_noise(gate)
            outcomes[(gate.cycle, gate.channel)] = out
        if fault is not None and gate.loc == fault.loc \
                and (gate.cycle == 0) == fault_in_prep:
            if fault.flip_outcome:
                outcomes[(gate.cycle, gate.channel)] ^= 1
            else:
                for q, p in zip(gate.qubits, fault.paulis):
                    qubits[q].apply(p)

    prep_row = np.array([outcomes[(0, c)] for c in range(12)], dtype=np.uint8)
    prev = [outcomes[(0, c)] for c in range(6)]
    for t in range(1, T + 1):
        for c in range(6):
            volume[t - 1, c] = outcomes[(t, c)] ^ prev[c]
            prev[c] = outcomes[(t, c)]
        for c in range(6, 12):
            volume[t - 1, c] = outcomes[(t, c)]

    if basis == "Z":
        err = sum(int(qubits[q].x) << q for q in range(7))
    else:
        err = sum(int(qubits[q].z) << q for q in range(7))
    syn = code._half_syndrome_int(err)
    residual = err ^ code.pure_error_mask(syn)
    flip = bin(residual & code.logical_mask).count("1") & 1
    return NaiveSample(volume=volume, basis=basis, m_in=m_in,
                       m_out=m_in ^ flip, final_syndrome=syn,
                       prep_row=prep_row)
