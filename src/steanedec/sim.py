"""Pauli-frame simulation of flagged Steane-code memory experiments.

One frame engine, `_run_frames`, is the only code that applies the
gates of a circuit (`build_qec_cycle`) to Pauli frames; it propagates
many frames at once. Everything else is built on it:

* noiseless runs with one injected fault per shot (`_fault_batch`):
  the one-shot views `run_memory_experiment` and `run_with_fault`, and
  the cycle response (`_cycle_response`), one run per (code, basis) of
  every generator fault of the preparation cycle in a one-round
  experiment;
* a fault table per (code, T, basis), assembled on first use from the
  cycle response (`_build_fault_table`): every cycle runs the same
  gates, the ancilla and flag are re-prepared for each plaquette, and a
  noiseless cycle leaves a data error as it is, so a fault's record
  depends on its cycle only through where its rounds start.
  Propagation is linear over GF(2), so the record of a noisy shot
  (preparation outcomes, syndrome-increment/flag volume, final half
  syndrome and logical parity) is the XOR of the records of its single
  faults. The table holds one bit-packed row per location and fault,
  and `sample_memory_blocks` (of which `sample_memory_batch` is the
  one-block case) reduces Monte-Carlo sampling to two stages. The draw
  stage (`_fault_events`) lists the faults of a block of shots as
  (shot, table row) events; the apply stage (`_apply_fault_events`)
  XORs the events' rows into the shots' packed records and reads each
  round's 12-bit code (`circuits.pack_rounds`) straight from them;
* single-fault ("DEP") certification: `single_fault_batch` is the rows
  of a table after the preparation cycle's, one shot per row, put
  through the apply stage; `dep_failure_fraction` decodes it as one
  batch.

Noise model (depolarizing circuit-level): after every two-qubit gate one
of the 15 nontrivial two-qubit Paulis with probability p_ph/15 each;
initialization and measurement outcomes invert with probability 2/3 p_ph.
Idling data qubits are not subjected to noise (`NoiseModel.one_q` is
not used by any engine yet).

The draw stage sees the locations of each fault class (two-qubit gates
at rate p_ph; preparations and measurements at 2/3 p_ph) as one
shot-major grid of independent Bernoulli cells, at index
``shot * locations + location``. It places the faulting cells with
geometric gaps, so its work grows with the number of faults, not with
shots x locations. The gaps of a class come from one counter-based
Philox stream keyed by (seed, class), and the Pauli of the i-th
two-qubit fault is draw i of a second stream of that class. Sampling
is therefore reproducible, and stable under growing the shot count:
the faults of the first n shots do not depend on how many shots
follow. Both streams run on across the blocks of
`sample_memory_blocks`, so the shots do not depend on the block size
either.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .circuits import (N_CHANNELS, ROUND_BITS, FaultInjection, Gate,
                       PAULI_1Q, TWO_QUBIT_PAULIS, RoundRecords,
                       build_qec_cycle, error_set)
from .steane import CodeDefinition


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing circuit-level noise with physical rate p_ph."""

    p_ph: float

    def __post_init__(self):
        if not 0.0 <= self.p_ph < 1.0:
            raise ValueError(f"p_ph must be in [0, 1), got {self.p_ph}")

    @property
    def spam_flip(self) -> float:
        return 2.0 / 3.0 * self.p_ph

    @property
    def one_q(self) -> float:
        return self.p_ph / 3.0

    @property
    def two_q(self) -> float:
        return self.p_ph / 15.0


@dataclass
class MemorySample:
    """One memory-experiment run.

    ``volume[t, c]`` holds the 12 channel bits of round t+1 (syndrome
    channels are increments relative to the previous round); ``basis`` is
    the logical readout basis; ``final_syndrome`` is the 3-bit half
    syndrome derived from the perfect final data readout (available to
    sequential decoders, not part of the NN input).
    """

    volume: np.ndarray
    basis: str
    m_in: int
    m_out: int
    final_syndrome: int = 0
    # raw measurement record of the preparation round (12 channels);
    # read by the sequential decoder, never part of the NN input
    prep_row: np.ndarray | None = None

    @property
    def m_L(self) -> int:
        return self.m_in ^ self.m_out


# --- vectorized engine ------------------------------------------------------

_PAR = np.zeros(128, dtype=np.uint8)
for _i in range(128):
    _PAR[_i] = bin(_i).count("1") & 1

# toggle bit tables for the 15 two-qubit Paulis
_PX1 = np.array([PAULI_1Q[a][0] for a, b in TWO_QUBIT_PAULIS], dtype=np.int64)
_PZ1 = np.array([PAULI_1Q[a][1] for a, b in TWO_QUBIT_PAULIS], dtype=np.int64)
_PX2 = np.array([PAULI_1Q[b][0] for a, b in TWO_QUBIT_PAULIS], dtype=np.int64)
_PZ2 = np.array([PAULI_1Q[b][1] for a, b in TWO_QUBIT_PAULIS], dtype=np.int64)


# fault classes of the draw stage (two-qubit gates; preparations and
# measurements) and the two streams of each class (fault gaps; the
# Pauli of each fault, read only where a location has several)
_TWO_QUBIT, _SPAM = 0, 1
_GAPS, _PAULIS = 0, 1


def _class_rng(seed: int, cls: int, stream: int) -> np.random.Generator:
    """The Philox stream ``stream`` of fault class ``cls``, keyed by
    (seed, 2 cls + stream)."""
    # an explicit uint64 key: numpy converts a tuple key through float64,
    # which drops the low bits of seeds at or above 2**63
    key = np.array([int(seed) % 2**64, 2 * cls + stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class MemoryBatch(RoundRecords):
    """Vectorized result of `sample_memory_batch`, each round as its
    12-bit code (`circuits.pack_rounds`); ``volumes`` and ``prep_rows``
    gather the same rounds as bits on each read."""

    codes: np.ndarray          # (shots, T) uint16
    basis: str
    m_in: np.ndarray           # (shots,) uint8
    m_out: np.ndarray          # (shots,) uint8
    final_syndrome: np.ndarray  # (shots,) uint8, 3-bit ints
    seed: int = 0
    prep_codes: np.ndarray | None = None  # (shots,) uint16

    @property
    def prep_rows(self) -> np.ndarray | None:
        """(shots, 12) uint8 preparation-round outcomes, if recorded."""
        return None if self.prep_codes is None \
            else ROUND_BITS[self.prep_codes]

    def sample(self, i: int) -> MemorySample:
        prep = None if self.prep_codes is None \
            else ROUND_BITS[self.prep_codes[i]]
        return MemorySample(volume=ROUND_BITS[self.codes[i]],
                            basis=self.basis,
                            m_in=int(self.m_in[i]), m_out=int(self.m_out[i]),
                            final_syndrome=int(self.final_syndrome[i]),
                            prep_row=prep)


def _check_basis(basis: str):
    if basis not in ("Z", "X"):
        raise ValueError(f"basis must be 'Z' or 'X', got {basis!r}")


def _run_frames(code: CodeDefinition, program: list[Gate], basis: str,
                n: int, inject):
    """Propagate ``n`` Pauli frames through ``program`` (the preparation
    cycle and T QEC cycles) at once.

    After each gate ``inject(gate, x, z)`` applies the faults of that
    location to the frame arrays in place; for measurements it returns
    the outcome flips (an array or 0) instead. Returns (round codes,
    preparation-round codes, final half syndromes, logical flips).
    """
    _check_basis(basis)
    T = program[-1].cycle
    x = np.zeros(n, dtype=np.int64)
    z = np.zeros(n, dtype=np.int64)
    codes = np.zeros((n, T), dtype=np.uint16)
    # this round's outcomes so far, and the last round's
    outc = prev = prep = np.zeros(n, dtype=np.uint16)
    for gate in program:
        kind = gate.kind
        if kind == "cnot":
            c, t = gate.qubits
            x ^= (x >> c & 1) << t
            z ^= (z >> t & 1) << c
        elif kind == "cz":
            a, b = gate.qubits
            znew = ((x >> b & 1) << a) ^ ((x >> a & 1) << b)
            z ^= znew
        elif kind in ("prep_plus", "prep_zero"):
            keep = ~np.int64(1 << gate.qubits[0])
            x &= keep
            z &= keep
        if not kind.startswith("meas"):
            inject(gate, x, z)
            continue
        q = gate.qubits[0]
        out = (z >> q & 1) if kind == "meas_x" else (x >> q & 1)
        out = out.astype(np.uint16)
        out ^= inject(gate, x, z)
        outc = outc | out << gate.channel
        if gate.channel == N_CHANNELS - 1:
            if gate.cycle == 0:
                prep = outc
            else:  # the six syndrome channels (bits 0-5) as increments
                codes[:, gate.cycle - 1] = outc ^ prev & 0x3F
            prev, outc = outc, np.zeros(n, dtype=np.uint16)

    err = (x & 0x7F) if basis == "Z" else (z & 0x7F)
    syn = np.zeros(n, dtype=np.int64)
    for kk, sup in enumerate(code.support_masks):
        syn |= _PAR[err & sup].astype(np.int64) << kk
    pec = np.array([code.pure_error_mask(s) for s in range(8)], dtype=np.int64)
    residual = err ^ pec[syn]
    flip = _PAR[residual & code.logical_mask]
    return codes, prep, syn, flip


# --- fault table ------------------------------------------------------------

_WORD = np.dtype("<u8")  # packed-row word; bit b of word w is row bit 64w + b

# the generators X.I, Z.I, I.X, I.Z of a two-qubit location, and which of
# them compose each Pauli of TWO_QUBIT_PAULIS
_GENERATORS = (("X", "I"), ("Z", "I"), ("I", "X"), ("I", "Z"))
_PAULI_GENERATORS = np.stack([_PX1, _PZ1, _PX2, _PZ2], axis=1).astype(bool)

# fault tables, keyed by the code's definition, T and basis
_TABLES: dict[tuple, "_FaultTable"] = {}


@dataclass(frozen=True)
class _FaultTable:
    """Effects of every single fault of one memory experiment.

    Frame propagation, syndrome increments and the final half syndrome
    are linear over GF(2), so the record of a shot is the XOR of the rows
    of its faults. A row of ``rows`` has ``12 (T + 1) + 4`` bits, packed
    into little-endian 64-bit words: the T + 1 round codes, the
    preparation round's first, the 3 final half-syndrome bits, and
    ``parity(err & logical_mask)`` of the final data error. That parity
    is stored instead of the logical flip because the weight-1
    correction is not linear; ``flip_of_tail`` recovers the flip from
    the last 4 bits (syndrome | parity << 3).

    Rows follow the program order of the locations. A two-qubit gate owns
    15 rows in `TWO_QUBIT_PAULIS` order, a preparation or measurement
    one row (its flip). ``first_rows[cls]`` lists the first row of each
    location of fault class ``cls`` (`_TWO_QUBIT`, `_SPAM`), in program
    order. Every cycle owns the same number of rows, so the rows after
    the preparation cycle's are the single faults of the T QEC cycles
    in `enumerate_single_faults` order (`single_fault_batch`).

    The rows of every T come from one cycle response per (code, basis);
    `_build_fault_table` states the properties of the circuit that
    make this exact.
    """

    rows: np.ndarray
    first_rows: tuple[np.ndarray, np.ndarray]
    flip_of_tail: np.ndarray


def _fault_table(code: CodeDefinition, T: int, basis: str) -> _FaultTable:
    """The fault table of (code, T, basis), built on first use."""
    if T < 1:
        raise ValueError("T must be >= 1")
    _check_basis(basis)
    key = (code.support_masks, code.logical_mask, code.gate_order, T, basis)
    if key not in _TABLES:
        _TABLES[key] = _build_fault_table(code, T, basis)
    return _TABLES[key]


@dataclass(frozen=True)
class _CycleResponse:
    """The records of every generator fault of one cycle, injected in the
    preparation cycle of a one-round experiment.

    Generator faults follow program order: X.I, Z.I, I.X, I.Z of a
    two-qubit gate (`_GENERATORS`), the flip of a preparation or
    measurement. ``rounds[f]`` holds the round codes of fault f: its 12
    outcomes of its own cycle, its next round, and that round with the
    six syndrome increments zeroed, which every later round reads.
    ``syndrome`` and ``flip`` are the final half syndrome and logical
    flip of the final readout.
    """

    two_qubit: np.ndarray  # (locations,) bool, the cycle's two-qubit gates
    rounds: np.ndarray     # (generators, 3) uint16
    syndrome: np.ndarray   # (generators,) uint8, 3-bit ints
    flip: np.ndarray       # (generators,) uint8


# cycle responses, keyed by the code's definition and basis
_RESPONSES: dict[tuple, _CycleResponse] = {}


def _cycle_response(code: CodeDefinition, basis: str) -> _CycleResponse:
    """The cycle response of (code, basis), computed on first use."""
    key = (code.support_masks, code.logical_mask, code.gate_order, basis)
    if key not in _RESPONSES:
        cycle = build_qec_cycle(code, cycles=0, include_prep=True)
        faults = []
        for gate in cycle:
            if gate.kind in ("cnot", "cz"):
                faults += [FaultInjection(gate.loc, g) for g in _GENERATORS]
            else:
                faults += error_set(gate)
        batch = _fault_batch(code, faults, basis, 1, fault_in_prep=True)
        nxt = batch.codes[:, 0]
        rounds = np.stack([batch.prep_codes, nxt, nxt & 0xFC0], axis=1)
        two_qubit = np.array([g.kind in ("cnot", "cz") for g in cycle])
        _RESPONSES[key] = _CycleResponse(two_qubit, rounds,
                                         batch.final_syndrome, batch.m_out)
    return _RESPONSES[key]


def _build_fault_table(code: CodeDefinition, T: int,
                       basis: str) -> _FaultTable:
    """The fault table of (code, T, basis), assembled from the cycle
    response (`_cycle_response`) without running the T + 1 cycles.

    Three properties of `build_qec_cycle` make a fault's record depend
    only on the cycle c it sits in, not on T:

    1. Every cycle, the preparation cycle included, runs the same gate
       list.
    2. The ancilla and flag are re-prepared before each plaquette, so a
       fault's effect on them ends with its cycle.
    3. A noiseless cycle never changes a data error: CNOT(anc -> data)
       and CZ(data, anc) write nothing onto data from a clean ancilla.
       Every later cycle therefore reads the same outcomes, and the
       final readout sees the same residual error.

    So generator fault f of cycle c (0..T) reads nothing before round c,
    its own-cycle outcomes P_f in round c, its next-round row D1_f in
    round c + 1 and the same row without syndrome increments, D2_f, in
    every later round; its final half syndrome and logical flip are
    those of the cycle response for every c. Round 0 is the
    preparation row.
    """
    resp = _cycle_response(code, basis)
    n_faults = len(resp.flip) * (T + 1)
    # round r of a fault of cycle c: nothing before c, then P_f, D1_f,
    # and D2_f from round c + 2 on; faults in cycle-major order
    lag = np.arange(T + 1) - np.arange(T + 1)[:, None]  # [c, r]
    codes = np.where(lag >= 0, resp.rounds[:, np.clip(lag, 0, 2)], 0)
    codes = codes.transpose(1, 0, 2).reshape(n_faults, T + 1)
    # parity of the weight-1 correction of each syndrome with the logical
    pec = np.array([code.pure_error_mask(s) for s in range(8)])
    corr_par = _PAR[pec & code.logical_mask]
    syn = np.tile(resp.syndrome, T + 1)
    # a row's 4-bit nibbles, two to a byte: three per round code, then
    # the tail (syndrome | parity << 3)
    words = -(-(3 * T + 4) // 16)
    nibbles = np.zeros((n_faults, 16 * words), dtype=np.uint8)
    nibbles[:, :3 * T + 3] = (codes[:, :, None] >> np.array(
        [0, 4, 8], np.uint16) & 15).reshape(n_faults, -1)
    nibbles[:, 3 * T + 3] = syn | (np.tile(resp.flip, T + 1)
                                   ^ corr_par[syn]) << 3
    # one row per fault, in program order
    gens = (nibbles[:, ::2] | nibbles[:, 1::2] << 4).view(_WORD)
    two_qubit = np.tile(resp.two_qubit, T + 1)
    n_gen = np.where(two_qubit, 4, 1)
    first_gen = np.cumsum(n_gen) - n_gen
    # XOR each two-qubit location's generator rows into its 15 Paulis
    g2 = gens[first_gen[two_qubit, None] + np.arange(4)]
    paulis = np.bitwise_xor.reduce(
        np.where(_PAULI_GENERATORS[:, :, None], g2[:, None], 0), axis=2)
    width = np.where(two_qubit, 15, 1)
    first = np.cumsum(width) - width
    rows = np.empty((width.sum(), words), dtype=_WORD)
    rows[first[~two_qubit]] = gens[first_gen[~two_qubit]]
    rows[first[two_qubit, None] + np.arange(15)] = paulis
    rows.setflags(write=False)
    first_rows = (first[two_qubit], first[~two_qubit])
    for a in first_rows:
        a.setflags(write=False)
    tail = np.arange(16)
    flip_of_tail = ((tail >> 3) ^ corr_par[tail & 7]).astype(np.uint8)
    flip_of_tail.setflags(write=False)
    return _FaultTable(rows, first_rows, flip_of_tail)


def _fault_cells(rng: np.random.Generator, q: float, size: int,
                 ends) -> Iterator[np.ndarray]:
    """The faulting cells, in increasing order, of a grid of ``size``
    independent Bernoulli(``q``) cells, read in consecutive ranges: for
    each end in ``ends`` (increasing, at most ``size``), the cells below
    it that an earlier end did not yield.

    The gaps between faulting cells are geometric; they are drawn from
    ``rng`` in order, and cells drawn past an end are held for the next
    one, so the cells below any index depend neither on ``size`` nor on
    ``ends``.
    """
    last = -1  # the last cell drawn so far
    ahead = np.empty(0, dtype=np.int64)  # drawn cells not yet yielded
    for end in ends:
        if q == 0.0 or size == 0:
            yield ahead
            continue
        parts = []
        cells = ahead
        while True:
            inside = int(np.searchsorted(cells, end))
            parts.append(cells[:inside])
            if inside < len(cells):
                ahead = cells[inside:]
                break
            mean = (end - 1 - last) * q
            gaps = rng.geometric(q, size=int(mean + 5 * mean ** 0.5 + 64))
            # numpy returns 2**63 - 1 for a gap past the int64 range (tiny
            # q), and two of those wrap the sum; a gap of size + 1 leaves
            # the grid from any cell. Inversion gives a gap of 0 when its
            # underlying draw is exactly 0, which would repeat a cell.
            np.clip(gaps, 1, size + 1, out=gaps)
            cells = np.cumsum(gaps, out=gaps)
            cells += last
            last = int(cells[-1])
        yield np.concatenate(parts)


def _fault_events(table: _FaultTable, noise: NoiseModel, shots: int,
                  seed: int, block: int
                  ) -> Iterator[tuple[int, int,
                                      tuple[np.ndarray, np.ndarray]]]:
    """The draw stage of `sample_memory_blocks`: for each block of
    ``block`` consecutive shots of ``shots`` (at least one block; the
    last one holds the rest), its shots [start, stop) and every fault of
    them as parallel arrays (shot within the block, row of ``table``),
    the two-qubit faults first, each class in shot-major order.

    The locations of a class form a grid of ``shots * L`` cells, cell
    ``shot * L + location``, each faulting independently at the class
    rate. A two-qubit fault takes its Pauli uniformly from the 15:
    fault i gets draw i of the class's Pauli stream. Both streams of a
    class run on from one block to the next, so the faults of a shot do
    not depend on ``block``.
    """
    bounds = [(start, min(start + block, shots))
              for start in range(0, max(shots, 1), block)]
    classes = []
    for cls, q in ((_TWO_QUBIT, noise.p_ph), (_SPAM, noise.spam_flip)):
        first = table.first_rows[cls]
        cells = _fault_cells(_class_rng(seed, cls, _GAPS), q,
                             shots * len(first),
                             [stop * len(first) for _, stop in bounds])
        paulis = _class_rng(seed, cls, _PAULIS) if cls == _TWO_QUBIT \
            else None
        classes.append((first, cells, paulis))
    for start, stop in bounds:
        shot_parts, row_parts = [], []
        for first, cells, paulis in classes:
            shot, loc = np.divmod(next(cells), len(first))
            shot -= start
            row = first[loc]
            if paulis is not None:
                row += paulis.integers(15, size=len(row))
            shot_parts.append(shot)
            row_parts.append(row)
        yield start, stop, (np.concatenate(shot_parts),
                            np.concatenate(row_parts))


def _apply_fault_events(table: _FaultTable, T: int, basis: str,
                        events: tuple[np.ndarray, np.ndarray],
                        m_in: np.ndarray, seed: int) -> MemoryBatch:
    """The apply stage of `sample_memory_blocks` and `single_fault_batch`:
    XOR the rows of the (shot, row) ``events`` into the packed records of
    ``len(m_in)`` shots with input labels ``m_in``, and read the batch's
    round codes from the records."""
    n = len(m_in)
    shot, row = events
    # XOR the rows of each shot's events together into its record
    order = np.argsort(shot, kind="stable")
    shot = shot[order]
    starts = np.flatnonzero(np.diff(shot, prepend=-1))
    acc = np.zeros((n, table.rows.shape[1]), dtype=_WORD)
    if len(shot):
        acc[shot[starts]] = np.bitwise_xor.reduceat(
            table.rows[row[order]], starts, axis=0)
    # round r (0, the preparation round, to T) is the 12 bits from bit
    # 12 r of a record: the little-endian u16 at byte 12 r // 8, shifted
    # by 0 or 4; the 4 tail bits follow the last round
    width = acc.itemsize * acc.shape[1]
    pair = np.ndarray((n, width - 1), "<u2", acc, strides=(width, 1))
    codes = np.empty((n, T), dtype=np.uint16)
    for r in range(1, T + 1):
        np.right_shift(pair[:, 3 * r // 2], 4 * (r & 1), out=codes[:, r - 1])
    codes &= (1 << N_CHANNELS) - 1
    tail = acc.view(np.uint8)[:, 3 * (T + 1) // 2] >> 4 * ((T + 1) & 1) & 15
    return MemoryBatch(codes=codes, basis=basis, m_in=m_in,
                       m_out=m_in ^ table.flip_of_tail[tail],
                       final_syndrome=tail & 7, seed=seed,
                       prep_codes=pair[:, 0] & (1 << N_CHANNELS) - 1)


def sample_memory_blocks(code: CodeDefinition, noise: NoiseModel, T: int,
                         basis: str, shots: int, seed: int,
                         block: int) -> Iterator[MemoryBatch]:
    """`sample_memory_batch` in blocks of ``block`` shots: block k holds
    shots [k block, (k + 1) block) of it, equal in every field, so that
    a caller holds one block at a time. There is at least one block,
    and the last one holds the remaining shots.

    The draw stage (`_fault_events`) lists each block's faults as
    (shot, fault-table row) events, and the apply stage
    (`_apply_fault_events`) XORs their rows into the shots' records.
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) \
            or shots < 0:
        raise ValueError(f"shots must be a non-negative integer, got "
                         f"{shots!r}")
    if block < 1:
        raise ValueError(f"block must be positive, got {block!r}")
    table = _fault_table(code, T, basis)
    for start, stop, events in _fault_events(table, noise, shots, seed,
                                             block):
        # m_in of the shot's index in the whole run
        m_in = (np.arange(start, stop) & 1).astype(np.uint8)
        yield _apply_fault_events(table, T, basis, events, m_in, seed)


def sample_memory_batch(code: CodeDefinition, noise: NoiseModel, T: int,
                        basis: str, shots: int, seed: int) -> MemoryBatch:
    """Sample `shots` memory experiments at once: the one block of
    `sample_memory_blocks`. The result does not depend on the block
    size, so the shots of a run sampled in blocks are these.

    m_in alternates 0/1 so each input state obtains an equal share of
    samples; the label depends only on the accumulated errors.
    """
    return next(sample_memory_blocks(code, noise, T, basis, shots, seed,
                                     block=shots or 1))


def _fault_batch(code: CodeDefinition, faults: list[FaultInjection],
                 basis: str, T: int,
                 fault_in_prep: bool = False) -> MemoryBatch:
    """Noiseless runs with one injected fault each, as one batch (shot i
    carries ``faults[i]``, and ``m_in`` is 0).

    Location ids of the faults refer to ``build_qec_cycle(code,
    cycles=T)``, i.e. exclude the preparation round; with
    ``fault_in_prep`` they address the preparation cycle instead."""
    if T < 1:
        raise ValueError("T must be >= 1")
    program = build_qec_cycle(code, cycles=T, include_prep=True)
    # fault locations count from the first QEC cycle (or, with
    # fault_in_prep, from the preparation cycle); program locations
    # count from the preparation cycle
    offset = 0 if fault_in_prep else len(program) // (T + 1)
    hits: dict[int, list] = {}
    for i, f in enumerate(faults):
        gate = program[f.loc + offset]
        xt = zt = 0
        if not f.flip_outcome:
            for q, pauli in zip(gate.qubits, f.paulis):
                xt ^= PAULI_1Q[pauli][0] << q
                zt ^= PAULI_1Q[pauli][1] << q
        hits.setdefault(gate.loc, []).append((i, xt, zt, int(f.flip_outcome)))
    n = len(faults)
    table = {loc: tuple(np.array(col) for col in zip(*rows))
             for loc, rows in hits.items()}

    def inject(gate: Gate, x: np.ndarray, z: np.ndarray):
        if gate.loc not in table:
            return 0
        shots, xt, zt, flips = table[gate.loc]
        if gate.kind.startswith("meas"):
            out = np.zeros(n, dtype=np.uint8)
            out[shots] = flips
            return out
        x[shots] ^= xt
        z[shots] ^= zt
        return 0

    codes, prep, syn, flip = _run_frames(code, program, basis, n, inject)
    m_in = np.zeros(n, dtype=np.uint8)
    return MemoryBatch(codes=codes, basis=basis, m_in=m_in, m_out=flip,
                       final_syndrome=syn.astype(np.uint8),
                       prep_codes=prep)


def single_fault_batch(code: CodeDefinition, basis: str,
                       cycles: int = 2) -> MemoryBatch:
    """Every enumerated single fault of ``cycles`` QEC cycles as one
    noiseless batch, in `enumerate_single_faults` order (``m_in`` is 0).

    These are the rows of the fault table of ``cycles`` rounds that
    follow the preparation cycle's, one shot per row.
    """
    table = _fault_table(code, cycles, basis)
    n_rows = len(table.rows)
    first = n_rows // (cycles + 1)  # the rows of the preparation cycle
    n = n_rows - first
    return _apply_fault_events(table, cycles, basis,
                               (np.arange(n), np.arange(first, n_rows)),
                               np.zeros(n, dtype=np.uint8), seed=0)


def run_memory_experiment(code: CodeDefinition, noise: NoiseModel | None,
                          T: int, basis: str, m_in: int = 0,
                          fault: FaultInjection | None = None,
                          fault_in_prep: bool = False) -> MemorySample:
    """One noiseless memory experiment (a prep cycle defining s(0), T
    cycles recording syndrome increments and flags, perfect readout),
    with at most one injected ``fault``: shot 0 of `_fault_batch`.

    Noisy experiments are sampled by `sample_memory_batch`; ``noise``
    must be None.
    """
    if noise is not None:
        raise ValueError("run_memory_experiment is noiseless; sample noisy "
                         "runs with sample_memory_batch")
    # the identity fault: a run with nothing injected
    batch = _fault_batch(code, [fault or FaultInjection(0)], basis, T,
                         fault_in_prep)
    sample = batch.sample(0)
    return replace(sample, m_in=m_in, m_out=m_in ^ sample.m_out)


def run_with_fault(code: CodeDefinition, fault: FaultInjection, basis: str,
                   decoder, T: int = 2) -> int:
    """Noiseless run with one injected fault; 1 iff the decoder's logical
    prediction disagrees with the true residual parity."""
    batch = _fault_batch(code, [fault], basis, T)
    return int(decoder.predict_flips_batch(batch)[0] ^ batch.m_L[0])


# --- single-fault certification ---------------------------------------------


def dep_failure_fraction(decoder, code: CodeDefinition, basis: str,
                         cycles: int = 2) -> float:
    """Fraction of enumerated single faults the decoder fails to recover,
    decoded as one batch of all single-fault volumes."""
    batch = single_fault_batch(code, basis, cycles)
    failed = int((decoder.predict_flips_batch(batch) ^ batch.m_L).sum())
    return failed / len(batch)


class BatchDecoder:
    """`predict_flips_batches` for a decoder of one batch at a time: it
    decodes each batch as it arrives, so that it holds one batch."""

    def predict_flips_batches(self, batches) -> list[np.ndarray]:
        # map keeps no batch once it is decoded
        return list(map(self.predict_flips_batch, batches))


class IdentityDecoder(BatchDecoder):
    """Predicts "no logical flip" for every volume (the undecoded baseline)."""

    def predict_flips_batch(self, batch: MemoryBatch) -> np.ndarray:
        return np.zeros(len(batch), dtype=np.uint8)


class AlwaysFlipDecoder(BatchDecoder):
    def predict_flips_batch(self, batch: MemoryBatch) -> np.ndarray:
        return np.ones(len(batch), dtype=np.uint8)
