"""Steane [[7,1,3]] code: Pauli algebra, syndromes, weight-1 corrections.

Pauli operators are phase-free: only measurement and logical-flip parities
matter anywhere in this package, so a Pauli is just a pair of 7-bit masks
and composition is XOR.

Qubits are numbered 1..7; bit ``q-1`` of a mask corresponds to qubit ``q``.
"""

from __future__ import annotations

from dataclasses import dataclass


def mask_of(qubits) -> int:
    """Bit mask for a collection of 1-based qubit numbers."""
    m = 0
    for q in qubits:
        m |= 1 << (q - 1)
    return m


def qubits_of(mask: int) -> tuple[int, ...]:
    return tuple(q for q in range(1, 8) if mask >> (q - 1) & 1)


def parity(mask: int) -> int:
    return bin(mask).count("1") & 1


@dataclass(frozen=True)
class PauliString:
    """Phase-free 7-qubit Pauli: X support and Z support as bit masks."""

    x_mask: int = 0
    z_mask: int = 0

    def compose(self, other: "PauliString") -> "PauliString":
        return PauliString(self.x_mask ^ other.x_mask, self.z_mask ^ other.z_mask)

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def weight(self) -> int:
        return bin(self.x_mask | self.z_mask).count("1")

    @classmethod
    def from_qubits(cls, x_qubits=(), z_qubits=()) -> "PauliString":
        return cls(mask_of(x_qubits), mask_of(z_qubits))

    def __str__(self) -> str:
        if self.is_identity:
            return "I"
        parts = []
        for q in range(1, 8):
            x = self.x_mask >> (q - 1) & 1
            z = self.z_mask >> (q - 1) & 1
            if x and z:
                parts.append(f"Y{q}")
            elif x:
                parts.append(f"X{q}")
            elif z:
                parts.append(f"Z{q}")
        return "".join(parts)


identity = PauliString()


class CodeDefinition:
    """The Steane code: three weight-4 plaquettes used for both X- and
    Z-type generators, plus a fixed logical representative on qubits 1,4,7.

    ``gate_order[k]`` is the order in which the flagged readout circuit of
    plaquette ``k`` couples its data qubits (i -> j -> k -> l).
    """

    def __init__(self, stabilizer_supports, logical_support, gate_order):
        self.stabilizer_supports = tuple(frozenset(s) for s in stabilizer_supports)
        self.support_masks = tuple(mask_of(s) for s in stabilizer_supports)
        self.logical_support = frozenset(logical_support)
        self.logical_mask = mask_of(logical_support)
        self.gate_order = tuple(tuple(g) for g in gate_order)
        self.n_stabilizers = len(self.support_masks)
        # syndrome (as 3-bit int, generator k -> bit k) -> weight<=1 mask
        self._pure_error = {0: 0}
        for q in range(1, 8):
            qm = 1 << (q - 1)
            s = self._half_syndrome_int(qm)
            self._pure_error[s] = qm

    def _half_syndrome_int(self, mask: int) -> int:
        s = 0
        for k, sup in enumerate(self.support_masks):
            s |= parity(mask & sup) << k
        return s

    def half_syndrome(self, mask: int) -> tuple[int, int, int]:
        """Parities of a single-type error mask against the three plaquettes."""
        s = self._half_syndrome_int(mask)
        return (s & 1, s >> 1 & 1, s >> 2 & 1)

    def syndrome_of(self, p: PauliString) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
        """Return (s_X, s_Z): the X-generators detect Z errors and vice versa."""
        return self.half_syndrome(p.z_mask), self.half_syndrome(p.x_mask)

    def pure_error_mask(self, syndrome) -> int:
        """Unique weight<=1 single-type error mask with the given 3-bit syndrome."""
        if isinstance(syndrome, tuple):
            syndrome = syndrome[0] | syndrome[1] << 1 | syndrome[2] << 2
        return self._pure_error[syndrome]

    def pure_error_correction(self, syndrome, kind: str) -> PauliString:
        """Minimum-weight correction for a half syndrome.

        ``kind`` names the Pauli type of the correction: "X" corrects bit
        flips (syndrome measured by the Z-type generators), "Z" corrects
        phase flips.
        """
        m = self.pure_error_mask(syndrome)
        if kind == "X":
            return PauliString(x_mask=m)
        if kind == "Z":
            return PauliString(z_mask=m)
        raise ValueError(f"kind must be 'X' or 'Z', got {kind!r}")

    def has_trivial_syndrome(self, p: PauliString) -> bool:
        return (self._half_syndrome_int(p.x_mask) == 0
                and self._half_syndrome_int(p.z_mask) == 0)

    def logical_parity(self, residual: PauliString, basis: str) -> int:
        """1 iff the (normalizer) residual flips the logical readout.

        ``basis`` is the measurement basis of the experiment: "Z" readout
        detects bit flips (X part of the residual), "X" readout detects
        phase flips.
        """
        if not self.has_trivial_syndrome(residual):
            raise ValueError(f"residual {residual} has nontrivial syndrome")
        if basis == "Z":
            return parity(residual.x_mask & self.logical_mask)
        if basis == "X":
            return parity(residual.z_mask & self.logical_mask)
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")


def steane_code() -> CodeDefinition:
    return CodeDefinition(
        stabilizer_supports=[{1, 2, 3, 4}, {2, 3, 5, 6}, {3, 4, 6, 7}],
        logical_support={1, 4, 7},
        gate_order=[(1, 2, 3, 4), (2, 3, 5, 6), (3, 4, 6, 7)],
    )
