"""Sequential look-up-table decoder with flag-conditioned hook corrections.

Per decoding basis the decoder walks the syndrome-increment/flag volume
round by round, carrying a signal state:

* NONE: nothing pending. A raised flag sets FLAG; otherwise an
  unexplained cumulative syndrome sets ERROR.
* FLAG: in the next round the unexplained syndrome selects a row of the
  hook-correction table for the flagged plaquette (falling back to the
  plain weight-1 correction when no row matches).
* ERROR: in the next round a persisting unexplained syndrome is
  corrected with the weight-1 look-up table; a vanished one is dismissed
  as a measurement error.

The perfect final data readout enters as one extra virtual round, so
hooks flagged in the last cycle still receive their follow-up syndrome.
The hook table itself is not hard-coded: it is read off one noiseless
batch of the frame engine (`sim._run_frames`) in which each shot puts an
X fault on the ancilla after one entangling gate of an X-type readout.

Compiled form. The round update (`SeqLutDecoder._step`) reads the
correction estimate only through two XOR-linear functions of it: its
half syndrome (3 bits) and its parity against the logical operator
(1 bit). Together with the cumulative syndrome (3 bits) and the signal
(NONE, ERROR or FLAG of one of the three plaquettes) the decoder state
therefore takes 16 * 8 * 5 = 640 values. A round's input is 6 bits: the
three syndrome increments and the three flags of the decoding basis, of
which only the first raised flag counts. Running `_step` on one
representative estimate per state gives a (640, 64) transition table,
and the virtual final round plus the last weight-1 correction give a
(640, 8) readout table indexed by the final half syndrome.
`predict_flips_batch` advances all shots together with one table gather
per round; the scalar `decode_basis` walks the same `_step` on the full
estimate and serves as the reference. The hook table and the compiled
tables are built when a decoder is constructed, once per code per
process.
"""

from __future__ import annotations

import numpy as np

from .circuits import ANC, FLAG, FX, FZ, SX, SZ, Gate, build_qec_cycle
from .sim import MemoryBatch, _run_frames
from .steane import CodeDefinition, parity

# signal values; SIG_FLAG + k means plaquette k raised the first flag
NONE, SIG_ERROR, SIG_FLAG = 0, 1, 2

# round input bits: syndrome increments (bits 0-2), then flags (bits 3-5)
_INPUT_BITS = (1 << np.arange(6)).astype(np.uint8)

# (hook table, transition table, readout table), keyed by the code's
# definition
_COMPILED: dict[tuple, tuple[dict, np.ndarray, np.ndarray]] = {}


def hook_correction_table(code: CodeDefinition) -> dict[tuple[int, int], int]:
    """Map (flagged plaquette k, observed half-syndrome) -> data correction.

    Built by injecting X on the syndrome ancilla after every entangling
    gate of the flagged readout and keeping the cases that both raise the
    flag and leave a data-error tail. The tails are the same data-qubit
    sets for X- and Z-type readouts, so one table serves both bases.

    All injections run as one noiseless batch of one QEC cycle: shot
    6k + g carries the fault after entangling gate g of X-type plaquette
    k (those are read out first), and the tails are read at that
    plaquette's flag measurement, before later readouts act on them.
    """
    program = build_qec_cycle(code, cycles=1)
    n = 6 * code.n_stabilizers
    ent = [g.loc for g in program if g.kind in ("cnot", "cz")]
    shot_of = {loc: i for i, loc in enumerate(ent[:n])}
    table: dict[tuple[int, int], int] = {}

    def inject(gate: Gate, x: np.ndarray, z: np.ndarray):
        if gate.loc in shot_of:
            x[shot_of[gate.loc]] ^= 1 << ANC
        elif gate.channel in FX:  # flag measurement of X-type plaquette k
            k = FX.index(gate.channel)
            for xs in x[6 * k: 6 * k + 6].tolist():
                tail = xs & 0x7F
                if xs >> FLAG & 1 and tail:
                    table[(k, code._half_syndrome_int(tail))] = tail
        return 0

    _run_frames(code, program, "Z", n, inject)  # the final readout is unused
    return table


class SeqLutDecoder:
    """Fault-tolerant sequential look-up-table decoder."""

    def __init__(self, code: CodeDefinition):
        self.code = code
        self._pec = [code.pure_error_mask(s) for s in range(8)]
        key = (code.support_masks, code.logical_mask, code.gate_order)
        if key not in _COMPILED:
            self.table = hook_correction_table(code)
            _COMPILED[key] = (self.table, *self._compile())
        self.table, self._trans, self._final = _COMPILED[key]

    def _channels(self, basis: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(syndrome channels, flag channels) feeding the given readout basis.

        Z-basis readout is spoiled by bit flips: those are detected by the
        Z-type generators and hooked by the X-type (CNOT) readouts.
        """
        if basis == "Z":
            return SZ, FX
        if basis == "X":
            return SX, FZ
        raise ValueError(f"basis must be 'X' or 'Z', got {basis!r}")

    def _step(self, est: int, cum: int, signal: int, delta: int,
              flag: int) -> tuple[int, int, int]:
        """One decoding round: syndrome increment ``delta`` and the
        plaquette of the first raised flag (-1 for none) update the
        correction estimate, the cumulative syndrome and the signal."""
        hs = self.code._half_syndrome_int
        cum ^= delta
        u = cum ^ hs(est)
        if signal >= SIG_FLAG:
            est ^= self.table.get((signal - SIG_FLAG, u), self._pec[u])
            u = cum ^ hs(est)
        elif signal == SIG_ERROR and u:
            est ^= self._pec[u]
            u = 0
        if flag >= 0:
            signal = SIG_FLAG + flag
        elif u:
            signal = SIG_ERROR
        else:
            signal = NONE
        return est, cum, signal

    def _readout(self, est: int, cum: int, signal: int,
                 final_syndrome: int) -> int:
        """Logical-flip bit after the virtual round T+1 (the perfect final
        readout, whose half syndrome is ``final_syndrome``)."""
        code = self.code
        est, _, _ = self._step(est, cum, signal, final_syndrome ^ cum, -1)
        # the final readout is noiseless, so whatever stayed unexplained
        # is a real data error and gets the plain weight-1 correction
        u = final_syndrome ^ code._half_syndrome_int(est)
        est ^= self._pec[u]
        residual = est ^ self._pec[final_syndrome]
        return parity(residual & code.logical_mask)

    def _est_key(self, est: int) -> int:
        """The two XOR-linear functions of the estimate that `_step` and
        `_readout` depend on: half syndrome and logical parity."""
        code = self.code
        return code._half_syndrome_int(est) \
            | parity(est & code.logical_mask) << 3

    def _state_index(self, est: int, cum: int, signal: int) -> int:
        """Row of the compiled tables; the all-zero start state is row 0."""
        n_signals = SIG_FLAG + self.code.n_stabilizers
        return (self._est_key(est) * 8 + cum) * n_signals + signal

    def _compile(self) -> tuple[np.ndarray, np.ndarray]:
        """(transition table over 6-bit round inputs, final readout table
        over final half syndromes), both indexed by `_state_index`."""
        n_flags = self.code.n_stabilizers
        n_signals = SIG_FLAG + n_flags
        n_states = 16 * 8 * n_signals
        reps: dict[int, int] = {}
        for est in range(1 << 7):
            reps.setdefault(self._est_key(est), est)
        if len(reps) != 16:
            raise ValueError("estimate syndromes and logical parities must "
                             "take all 16 values")
        # a round reads the cumulative syndrome and the increment only
        # through their XOR (the final round's is the final syndrome), so
        # both tables follow from (estimate, signal, cum ^ delta, flag)
        nxt = np.zeros((16, n_signals, 8, n_flags + 1), dtype=np.intp)
        out = np.zeros((16, n_signals, 8), dtype=np.uint8)
        for key, est in reps.items():
            for signal in range(n_signals):
                for c in range(8):
                    out[key, signal, c] = self._readout(est, 0, signal, c)
                    for flag in range(-1, n_flags):
                        nxt[key, signal, c, flag + 1] = self._state_index(
                            *self._step(est, 0, signal, c, flag))
        s = np.arange(n_states)[:, None]
        key, cum, signal = s // (8 * n_signals), s // n_signals % 8, \
            s % n_signals
        inp = np.arange(1 << (3 + n_flags))
        # 1 + index of the lowest raised flag, 0 when none is raised
        first = np.array([(f & -f).bit_length()
                          for f in range(1 << n_flags)])[inp >> 3]
        trans = nxt[key, signal, cum ^ (inp & 7), first]
        final = out[key[:, 0], signal[:, 0]]
        trans.setflags(write=False)
        final.setflags(write=False)
        return trans, final

    def decode_basis(self, volume: np.ndarray, basis: str,
                     final_syndrome: int | None = None,
                     prep_row: np.ndarray | None = None) -> int:
        """Predicted logical-flip bit for one basis.

        ``prep_row`` is the measurement record of the preparation round
        (the decoding sequence starts at round 0). ``final_syndrome`` is
        the 3-bit half syndrome of the perfect final data readout; it
        doubles as the syndrome of round T+1. When it is unavailable (the
        other basis was measured) the accumulated measured syndrome
        stands in for it.
        """
        syn_ch, flag_ch = self._channels(basis)
        rows = list(volume) if prep_row is None else [prep_row, *volume]
        rounds: list[tuple[int, int]] = []
        for row in rows:
            delta = sum(int(row[c]) << i for i, c in enumerate(syn_ch))
            flag = next((k for k, c in enumerate(flag_ch) if row[c]), -1)
            rounds.append((delta, flag))
        if final_syndrome is None:
            final_syndrome = 0
            for delta, _ in rounds:
                final_syndrome ^= delta
        est = cum = 0
        signal = NONE
        for delta, flag in rounds:
            est, cum, signal = self._step(est, cum, signal, delta, flag)
        return self._readout(est, cum, signal, final_syndrome)

    def predict_flips_batch(self, batch: MemoryBatch) -> np.ndarray:
        """Logical-flip predictions for every shot, by the compiled tables
        (equal to `decode_basis` shot by shot)."""
        syn_ch, flag_ch = self._channels(batch.basis)
        chans = list(syn_ch + flag_ch)
        inputs = (batch.volumes[:, :, chans] * _INPUT_BITS).sum(
            axis=2, dtype=np.uint8)
        state = np.zeros(len(batch), dtype=np.intp)
        if batch.prep_rows is not None:
            prep = (batch.prep_rows[:, chans] * _INPUT_BITS).sum(
                axis=1, dtype=np.uint8)
            state = self._trans[state, prep]
        for t in range(inputs.shape[1]):
            state = self._trans[state, inputs[:, t]]
        return self._final[state, batch.final_syndrome]
