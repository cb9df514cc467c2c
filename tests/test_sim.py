import functools
import warnings

import numpy as np
import pytest
from scipy import stats

from naive_sim import naive_run
from steanedec.circuits import (ROUND_BITS, SZ, FaultInjection, Gate,
                                build_qec_cycle, enumerate_single_faults,
                                error_set)
from steanedec.seqlut import SeqLutDecoder
from steanedec.sim import (_GAPS, _GENERATORS, _PAR, _PAULI_GENERATORS,
                           _PAULIS, _PX1, _PX2, _PZ1, _PZ2, _RESPONSES, _SPAM,
                           _TABLES, _TWO_QUBIT, _WORD, AlwaysFlipDecoder,
                           IdentityDecoder, MemoryBatch, MemorySample,
                           NoiseModel, _class_rng, _fault_batch, _fault_cells,
                           _fault_events, _fault_table, _run_frames,
                           dep_failure_fraction, run_memory_experiment,
                           run_with_fault, sample_memory_batch,
                           sample_memory_blocks, single_fault_batch)
from steanedec.steane import steane_code


@pytest.fixture(scope="module")
def code():
    return steane_code()


class TestNoiseModel:
    def test_rates(self):
        nm = NoiseModel(p_ph=0.003)
        assert nm.spam_flip == pytest.approx(0.002)
        assert nm.one_q == pytest.approx(0.001)
        assert 15 * nm.two_q == pytest.approx(nm.p_ph)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            NoiseModel(p_ph=1.5)


class TestNoiselessRuns:
    def test_zero_volume_zero_label(self, code):
        for basis in ("Z", "X"):
            s = run_memory_experiment(code, noise=None, T=4, basis=basis)
            assert not s.volume.any()
            assert s.m_L == 0
            assert s.final_syndrome == 0

    def test_rejects_noise(self, code):
        with pytest.raises(ValueError):
            run_memory_experiment(code, noise=NoiseModel(1e-3), T=2,
                                  basis="Z")

    def test_label_consistency(self, code):
        s = run_memory_experiment(code, noise=None, T=2, basis="Z", m_in=1)
        assert s.m_L == s.m_in ^ s.m_out

    def test_x5_data_error_syndrome(self, code):
        # fault with X on the data operand of the first entangling gate of
        # the S_Z2 plaquette that touches qubit 5
        gates = build_qec_cycle(code, cycles=2)
        loc = next(g.loc for g in gates
                   if g.kind == "cz" and g.cycle == 1 and g.qubits[0] == 4)
        s = run_memory_experiment(code, noise=None, T=2, basis="Z",
                                  fault=FaultInjection(loc, ("X", "I")))
        # Z-type syndrome of X5 is (0,1,0), first seen in round 1 or 2
        cum = np.bitwise_xor.reduce(s.volume[:, SZ], axis=0)
        assert list(cum) == [0, 1, 0]
        assert s.final_syndrome == 0b010
        assert s.m_L == 0


class TestOracleAgreement:
    def test_every_single_fault_matches_naive(self, code):
        for fault in enumerate_single_faults(code, cycles=2):
            for basis in ("Z", "X"):
                fast = run_memory_experiment(code, None, T=2, basis=basis,
                                             fault=fault)
                ref = naive_run(code, None, T=2, basis=basis, fault=fault)
                assert np.array_equal(fast.volume, ref.volume), fault
                assert fast.m_L == ref.m_L, fault
                assert fast.final_syndrome == ref.final_syndrome, fault

    def test_noisy_label_rate_matches_naive(self, code):
        noise = NoiseModel(p_ph=0.02)
        shots = 3000
        batch = sample_memory_batch(code, noise, T=3, basis="Z",
                                    shots=shots, seed=11)
        rate_fast = batch.m_L.mean()
        rng = np.random.default_rng(7)
        fails = sum(naive_run(code, noise, T=3, basis="Z", rng=rng).m_L
                    for _ in range(shots))
        rate_naive = fails / shots
        # agreement within combined 3 sigma binomial noise
        p = (rate_fast + rate_naive) / 2
        sigma = np.sqrt(2 * p * (1 - p) / shots)
        assert abs(rate_fast - rate_naive) < 3 * sigma + 1e-9


class TestVectorizedEngine:
    def test_noiseless_batch(self, code):
        batch = sample_memory_batch(code, NoiseModel(0.0), T=3, basis="Z",
                                    shots=16, seed=0)
        assert not batch.volumes.any()
        assert not batch.m_L.any()
        assert list(batch.m_in[:4]) == [0, 1, 0, 1]

    def test_reproducible(self, code):
        a = sample_memory_batch(code, NoiseModel(5e-3), T=4, basis="X",
                                shots=200, seed=42)
        b = sample_memory_batch(code, NoiseModel(5e-3), T=4, basis="X",
                                shots=200, seed=42)
        assert np.array_equal(a.volumes, b.volumes)
        assert np.array_equal(a.m_out, b.m_out)
        c = sample_memory_batch(code, NoiseModel(5e-3), T=4, basis="X",
                                shots=200, seed=43)
        assert not np.array_equal(a.volumes, c.volumes)

    def test_prefix_stability(self, code):
        # growing the shot count keeps earlier shots identical
        small = sample_memory_batch(code, NoiseModel(5e-3), T=3, basis="Z",
                                    shots=50, seed=9)
        big = sample_memory_batch(code, NoiseModel(5e-3), T=3, basis="Z",
                                  shots=120, seed=9)
        assert np.array_equal(big.volumes[:50], small.volumes)

    def test_sample_accessor(self, code):
        batch = sample_memory_batch(code, NoiseModel(5e-3), T=3, basis="Z",
                                    shots=8, seed=1)
        s = batch.sample(3)
        assert isinstance(s, MemorySample)
        assert s.m_L == batch.m_L[3]


def dense_sample_memory_batch(code, noise: NoiseModel, T: int, basis: str,
                              shots: int, seed: int) -> MemoryBatch:
    """The per-gate reference of the apply stage: the faults that the
    draw stage (`_fault_events`) lists are applied to every shot's frame
    right after their gate, while the frames go through every gate."""
    if T < 1:
        raise ValueError("T must be >= 1")
    n = shots
    program = build_qec_cycle(code, cycles=T, include_prep=True)
    # fault-table rows in program order: 15 Paulis per two-qubit gate,
    # one flip per preparation or measurement
    row_fault = [(gate.loc, k) for gate in program
                 for k in range(15 if gate.kind in ("cnot", "cz") else 1)]
    _, _, (shot, row) = next(_fault_events(_fault_table(code, T, basis),
                                           noise, n, seed, block=max(n, 1)))
    events: dict[int, tuple[list, list]] = {}
    for s, r in zip(shot.tolist(), row.tolist()):
        loc, k = row_fault[r]
        events.setdefault(loc, ([], []))[0].append(s)
        events[loc][1].append(k)

    def apply_events(gate: Gate, x: np.ndarray, z: np.ndarray):
        if gate.loc not in events:
            return 0
        shots_hit, k = (np.array(a) for a in events[gate.loc])
        kind = gate.kind
        if kind in ("cnot", "cz"):
            q1, q2 = gate.qubits
            np.bitwise_xor.at(x, shots_hit, (_PX1[k] << q1) | (_PX2[k] << q2))
            np.bitwise_xor.at(z, shots_hit, (_PZ1[k] << q1) | (_PZ2[k] << q2))
        elif kind in ("prep_plus", "prep_zero"):
            np.bitwise_xor.at(z if kind == "prep_plus" else x, shots_hit,
                              1 << gate.qubits[0])
        else:  # measurement flip
            flips = np.zeros(n, dtype=np.uint8)
            np.bitwise_xor.at(flips, shots_hit, 1)
            return flips
        return 0

    codes, prep_codes, syn, flip = _run_frames(code, program, basis, n,
                                               apply_events)
    m_in = (np.arange(n) & 1).astype(np.uint8)
    return MemoryBatch(codes=codes, basis=basis, m_in=m_in,
                       m_out=m_in ^ flip,
                       final_syndrome=syn.astype(np.uint8), seed=seed,
                       prep_codes=prep_codes)


class TestFaultTableSampler:
    @pytest.mark.parametrize("shots", [0, 1, 3000])
    @pytest.mark.parametrize("p_ph", [0.0, 1e-3, 5e-3, 0.03, 0.2])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 8, 12])
    def test_equals_dense_sampler(self, code, T, basis, p_ph, shots):
        # the same fault events applied by the fault table and gate by
        # gate; p_ph = 0.2 stacks many faults per shot (GF(2) linearity);
        # T = 4 rows fill one word exactly, T = 12 rows span three
        seed = 1000 * T + shots + int(1e4 * p_ph)
        got = sample_memory_batch(code, NoiseModel(p_ph), T, basis, shots,
                                  seed)
        ref = dense_sample_memory_batch(code, NoiseModel(p_ph), T, basis,
                                        shots, seed)
        for name in ("volumes", "prep_rows", "m_in", "m_out",
                     "final_syndrome"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
        assert (got.basis, got.seed) == (basis, seed)

    @pytest.mark.parametrize("shots", [-1, 2.5, True])
    def test_rejects_bad_shot_counts(self, code, shots):
        with pytest.raises(ValueError, match="shots"):
            sample_memory_batch(code, NoiseModel(0.01), 2, "Z", shots,
                                seed=1)

    def test_accepts_numpy_shot_count(self, code):
        batch = sample_memory_batch(code, NoiseModel(0.01), 2, "Z",
                                    np.int64(5), seed=1)
        assert len(batch) == 5

    def test_row_width(self, code):
        assert _fault_table(code, 1, "Z").rows.shape[1] == 1
        assert _fault_table(code, 8, "Z").rows.shape[1] == 2
        assert _fault_table(code, 12, "X").rows.shape[1] == 3


def reference_fault_table(code, T: int, basis: str):
    """The fault table built the direct way: every generator fault of
    every one of the T + 1 cycles run through the whole program, one
    noiseless shot each, then packed and XORed into the 15 Paulis of
    each two-qubit location as `_build_fault_table` does."""
    program = build_qec_cycle(code, cycles=T, include_prep=True)
    faults = []
    for gate in program:
        if gate.kind in ("cnot", "cz"):
            faults += [FaultInjection(gate.loc, g) for g in _GENERATORS]
        else:
            faults += error_set(gate)
    batch = _fault_batch(code, faults, basis, T, fault_in_prep=True)
    pec = np.array([code.pure_error_mask(s) for s in range(8)])
    corr_par = _PAR[pec & code.logical_mask]
    syn = batch.final_syndrome
    bits = np.concatenate([
        batch.prep_rows,
        batch.volumes.reshape(len(faults), 12 * T),
        (syn[:, None] >> np.arange(3, dtype=np.uint8)) & 1,
        (batch.m_out ^ corr_par[syn])[:, None],
    ], axis=1)
    words = -(-bits.shape[1] // 64)
    packed = np.zeros((len(faults), 8 * words), dtype=np.uint8)
    packed[:, :-(-bits.shape[1] // 8)] = np.packbits(bits, axis=1,
                                                     bitorder="little")
    gens = packed.view(_WORD)
    two_qubit = np.array([g.kind in ("cnot", "cz") for g in program])
    n_gen = np.where(two_qubit, 4, 1)
    first_gen = np.cumsum(n_gen) - n_gen
    g2 = gens[first_gen[two_qubit, None] + np.arange(4)]
    paulis = np.bitwise_xor.reduce(
        np.where(_PAULI_GENERATORS[:, :, None], g2[:, None], 0), axis=2)
    width = np.where(two_qubit, 15, 1)
    first = np.cumsum(width) - width
    rows = np.empty((width.sum(), words), dtype=_WORD)
    rows[first[~two_qubit]] = gens[first_gen[~two_qubit]]
    rows[first[two_qubit, None] + np.arange(15)] = paulis
    tail = np.arange(16)
    flip_of_tail = ((tail >> 3) ^ corr_par[tail & 7]).astype(np.uint8)
    return rows, (first[two_qubit], first[~two_qubit]), flip_of_tail


class TestCycleResponse:
    """Every T's fault table comes from one cycle's response; these
    tests hold it to the direct per-T frame run and check the
    properties of the circuit that the derivation rests on."""

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("T", range(1, 13))
    def test_table_equals_per_t_frame_run(self, code, T, basis):
        table = _fault_table(code, T, basis)
        rows, first_rows, flip_of_tail = reference_fault_table(code, T,
                                                               basis)
        assert table.rows.dtype == rows.dtype
        assert np.array_equal(table.rows, rows)
        for got, ref in zip(table.first_rows, first_rows):
            assert np.array_equal(got, ref)
        assert np.array_equal(table.flip_of_tail, flip_of_tail)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("T", range(1, 13))
    def test_single_fault_batch_equals_fault_runs(self, code, T, basis):
        got = single_fault_batch(code, basis, T)
        ref = _fault_batch(code, enumerate_single_faults(code, T), basis, T)
        for name in ("volumes", "prep_rows", "m_in", "m_out",
                     "final_syndrome"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name
        assert (got.basis, got.seed) == (ref.basis, ref.seed)

    def test_every_cycle_runs_the_same_gates(self, code):
        # property 1
        program = build_qec_cycle(code, cycles=3, include_prep=True)
        cycles = [[(g.kind, g.qubits, g.channel) for g in program
                   if g.cycle == c] for c in range(4)]
        assert all(c == cycles[0] for c in cycles)

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_noiseless_cycles_keep_every_data_error(self, code, basis):
        # property 3: every static X/Z pattern on the 7 data qubits,
        # injected at the first gate, goes through two noiseless cycles
        # unchanged, raises no flag, and reads the same syndrome twice
        patterns = np.arange(1 << 14)
        xs, zs = patterns & 0x7F, patterns >> 7
        program = build_qec_cycle(code, cycles=1, include_prep=True)
        final = {}

        def inject(gate, x, z):
            if gate is program[0]:
                x ^= xs
                z ^= zs
            if gate is program[-1]:
                final["x"], final["z"] = x.copy(), z.copy()
            return 0

        codes, prep_codes, _, _ = _run_frames(code, program, basis,
                                              len(patterns), inject)
        volumes, prep_rows = ROUND_BITS[codes], ROUND_BITS[prep_codes]
        assert np.array_equal(final["x"] & 0x7F, xs)
        assert np.array_equal(final["z"] & 0x7F, zs)
        assert not prep_rows[:, 6:].any() and not volumes[:, :, 6:].any()
        assert not volumes[:, 0, :6].any()  # no syndrome increment
        # ... on a syndrome that is there to repeat
        assert prep_rows[:, :6].any(axis=1).sum() > 0

    def test_response_is_cached_per_basis(self, code):
        for basis in ("Z", "X"):
            _fault_table(code, 5, basis)
        keys = [k for k in _RESPONSES if k[:3] == (
            code.support_masks, code.logical_mask, code.gate_order)]
        assert sorted(k[3] for k in keys) == ["X", "Z"]


class TestBasisCheck:
    """A basis other than "Z" or "X" is an error, not an X-basis run."""

    @pytest.mark.parametrize("basis", ["z", "x", "Y", ""])
    def test_sample_memory_batch_rejects(self, code, basis):
        with pytest.raises(ValueError, match=repr(basis)):
            sample_memory_batch(code, NoiseModel(0.01), 2, basis, 2000,
                                seed=1)

    @pytest.mark.parametrize("basis", ["z", "Y"])
    def test_single_fault_batch_rejects(self, code, basis):
        with pytest.raises(ValueError, match=repr(basis)):
            single_fault_batch(code, basis, 2)

    def test_lut_decoder_rejects(self, code):
        batch = single_fault_batch(code, "Z", 2)
        batch.basis = "Y"
        with pytest.raises(ValueError, match="'Y'"):
            SeqLutDecoder(code).predict_flips_batch(batch)

    def test_noiseless_run_rejects(self, code):
        with pytest.raises(ValueError, match="'Y'"):
            run_memory_experiment(code, None, 2, "Y")

    def test_no_cache_entry(self, code):
        for basis in ("z", "Y"):
            with pytest.raises(ValueError):
                _fault_table(code, 2, basis)
        assert all(k[-1] in ("Z", "X") for k in _TABLES)
        assert all(k[-1] in ("Z", "X") for k in _RESPONSES)


class TestFaultEvents:
    """The draw stage against the noise model: independent Bernoulli
    cells at the class rate, and uniform Paulis given a fault."""

    T, SHOTS, P_PH = 3, 20_000, 0.02

    @pytest.fixture(scope="class")
    def draw(self, code):
        table = _fault_table(code, self.T, "Z")
        _, _, events = next(_fault_events(table, NoiseModel(self.P_PH),
                                          self.SHOTS, seed=5,
                                          block=self.SHOTS))
        return table, events

    @staticmethod
    def class_events(table, events, cls):
        """(shot, location index, Pauli) of the events of class ``cls``."""
        shot, row = events
        first = table.first_rows[cls]
        width = 15 if cls == _TWO_QUBIT else 1
        loc = np.maximum(np.searchsorted(first, row, side="right") - 1, 0)
        mine = (row >= first[loc]) & (row < first[loc] + width)
        return shot[mine], loc[mine], row[mine] - first[loc[mine]]

    def test_events_are_distinct_cells(self, draw):
        table, events = draw
        total = 0
        for cls in (_TWO_QUBIT, _SPAM):
            shot, loc, _ = self.class_events(table, events, cls)
            assert shot.min() >= 0 and shot.max() < self.SHOTS
            cells = shot * len(table.first_rows[cls]) + loc
            assert len(np.unique(cells)) == len(cells)
            total += len(cells)
        assert total == len(events[0])

    @pytest.mark.parametrize("cls", [_TWO_QUBIT, _SPAM])
    def test_class_total_is_binomial(self, draw, cls):
        table, events = draw
        noise = NoiseModel(self.P_PH)
        q = noise.p_ph if cls == _TWO_QUBIT else noise.spam_flip
        trials = self.SHOTS * len(table.first_rows[cls])
        count = len(self.class_events(table, events, cls)[0])
        assert stats.binomtest(count, trials, q).pvalue > 1e-3

    @pytest.mark.parametrize("cls", [_TWO_QUBIT, _SPAM])
    def test_location_counts_are_uniform(self, draw, cls):
        # every location of a class faults at the same rate
        table, events = draw
        loc = self.class_events(table, events, cls)[1]
        counts = np.bincount(loc, minlength=len(table.first_rows[cls]))
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_shot_counts_are_uniform(self, draw):
        # the grid is shot-major: late shots fault as often as early ones
        table, (shot, _) = draw
        counts = np.bincount(shot // 100, minlength=self.SHOTS // 100)
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_paulis_are_uniform(self, draw):
        table, events = draw
        pauli = self.class_events(table, events, _TWO_QUBIT)[2]
        assert stats.chisquare(np.bincount(pauli, minlength=15)).pvalue > 1e-3


class TestFaultCells:
    class EveryCell:
        """Gaps of 1 whatever the rate, so that the grid takes many
        blocks of draws."""

        def geometric(self, q, size):
            return np.ones(size, dtype=np.int64)

    def test_blocks_continue_from_the_last_cell(self):
        cells = _fault_cells(self.EveryCell(), 1e-3, 1000, [1000])
        assert np.array_equal(next(cells), np.arange(1000))

    @pytest.mark.parametrize("q", [1e-3, 0.2, 0.9])
    def test_cells_are_the_partial_sums_of_the_gaps(self, q):
        got = next(_fault_cells(_class_rng(4, _SPAM, _GAPS), q, 5000,
                                [5000]))
        cells = np.cumsum(_class_rng(4, _SPAM, _GAPS).geometric(q, 10_000))
        assert np.array_equal(got, cells[cells <= 5000] - 1)


    def test_cells_past_an_end_carry_to_the_next(self):
        # each draw of gaps runs 64 or more cells past a short range
        ends = [0, 1, 3, 3, 500, 1000]
        parts = list(_fault_cells(self.EveryCell(), 1e-3, 1000, ends))
        assert len(parts) == len(ends)
        for part, start, end in zip(parts, [0] + ends, ends):
            assert np.array_equal(part, np.arange(start, end))

    @pytest.mark.parametrize("q", [1e-3, 0.2, 0.9])
    def test_ranges_concatenate_to_the_grid(self, q):
        whole = next(_fault_cells(_class_rng(4, _SPAM, _GAPS), q, 5000,
                                  [5000]))
        ends = [1, 2, 700, 701, 4999, 5000]
        parts = list(_fault_cells(_class_rng(4, _SPAM, _GAPS), q, 5000,
                                  ends))
        for part, start, end in zip(parts, [0] + ends, ends):
            assert np.all((part >= start) & (part < end))
        assert np.array_equal(np.concatenate(parts), whole)


class TestSampleBlocks:
    """`sample_memory_blocks` against `sample_memory_batch`: its blocks,
    concatenated, are the batch, whatever the block size."""

    FIELDS = ("volumes", "m_in", "m_out", "final_syndrome", "prep_rows")

    # p_ph = 0.2 takes several draws of gaps per block of one shot
    @pytest.mark.parametrize("shots", [1, 7, 1000, 5000])
    @pytest.mark.parametrize("p_ph", [0.0, 5e-3, 0.2])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_blocks_concatenate_to_the_batch(self, code, basis, p_ph,
                                             shots):
        noise = NoiseModel(p_ph)
        whole = sample_memory_batch(code, noise, 3, basis, shots, seed=17)
        for block in (1, 3, 1024, shots):
            parts = list(sample_memory_blocks(code, noise, 3, basis, shots,
                                              17, block))
            sizes = [min(block, shots - s) for s in range(0, shots, block)]
            assert [len(p) for p in parts] == sizes, block
            assert all((p.basis, p.seed) == (basis, 17) for p in parts)
            for name in self.FIELDS:
                got = np.concatenate([getattr(p, name) for p in parts])
                ref = getattr(whole, name)
                assert got.dtype == ref.dtype, (block, name)
                assert got.shape == ref.shape, (block, name)
                assert np.array_equal(got, ref), (block, name)

    def test_no_shots_is_one_empty_block(self, code):
        parts = list(sample_memory_blocks(code, NoiseModel(0.01), 2, "Z", 0,
                                          seed=1, block=8))
        assert [p.volumes.shape for p in parts] == [(0, 2, 12)]

    @pytest.mark.parametrize("block", [0, -3])
    def test_rejects_non_positive_block(self, code, block):
        with pytest.raises(ValueError, match="block"):
            next(sample_memory_blocks(code, NoiseModel(0.01), 2, "Z", 10,
                                      seed=1, block=block))


class TestRateExtremes:
    @pytest.mark.parametrize("p_ph", [1e-300, 5e-324])
    def test_tiny_rates_sample_no_faults(self, code, p_ph):
        # numpy's geometric gap saturates at 2**63 - 1 for these rates
        noise = NoiseModel(p_ph)
        _, _, (shot, row) = next(_fault_events(
            _fault_table(code, 8, "Z"), noise, 100_000, seed=3,
            block=100_000))
        assert len(shot) == 0
        batch = sample_memory_batch(code, noise, 8, "Z", 1000, seed=3)
        assert not batch.volumes.any() and not batch.m_L.any()

    def test_near_one_rate_is_prefix_stable_and_reproducible(self, code):
        # q >= 1/3 takes numpy's search branch of `geometric`
        noise = NoiseModel(0.999)
        small = sample_memory_batch(code, noise, 3, "X", 40, seed=8)
        big = sample_memory_batch(code, noise, 3, "X", 100, seed=8)
        again = sample_memory_batch(code, noise, 3, "X", 100, seed=8)
        for name in ("volumes", "prep_rows", "m_out", "final_syndrome"):
            assert np.array_equal(getattr(big, name)[:40],
                                  getattr(small, name)), name
            assert np.array_equal(getattr(big, name),
                                  getattr(again, name)), name
        table = _fault_table(code, 3, "X")
        _, _, (shot, row) = next(_fault_events(table, noise, 100, seed=8,
                                               block=100))
        cells = 100 * sum(len(f) for f in table.first_rows)
        assert 0.6 * cells < len(shot) < cells


class TestLocationKeys:
    """Key words of the draw stage's Philox streams."""

    @pytest.mark.parametrize("seed,word", [(0, 0), (7, 7), (np.int64(7), 7),
                                           (-1, 2**64 - 1),
                                           (2**63 - 1, 2**63 - 1),
                                           (2**63 + 3, 2**63 + 3)])
    def test_key_words(self, seed, word):
        key = _class_rng(seed, _SPAM, _PAULIS).bit_generator.state[
            "state"]["key"]
        assert key.tolist() == [word, 3]

    def test_seeds_above_2_63_draw_distinct_streams(self):
        assert not np.array_equal(
            _class_rng(2**63 + 3, _TWO_QUBIT, _GAPS).random(8),
            _class_rng(2**63 + 4, _TWO_QUBIT, _GAPS).random(8))

    def test_largest_seed_converts_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            key = _class_rng(2**64 - 1, _SPAM, _GAPS).bit_generator.state[
                "state"]["key"]
        assert key.tolist() == [2**64 - 1, 2]

    def test_class_streams_have_distinct_keys(self):
        keys = {tuple(_class_rng(11, cls, stream).bit_generator.state[
                    "state"]["key"].tolist())
                for cls in (_TWO_QUBIT, _SPAM) for stream in (_GAPS, _PAULIS)}
        assert len(keys) == 4


class TestDep:
    def test_identity_fault_harmless(self, code):
        gates = build_qec_cycle(code, cycles=2)
        fault = FaultInjection(gates[2].loc, ("I", "I"))
        assert run_with_fault(code, fault, "Z", IdentityDecoder()) == 0

    def test_identity_decoder_fraction(self, code):
        frac = dep_failure_fraction(IdentityDecoder(), code, "Z")
        assert 0.02 <= frac <= 0.06

    def test_always_flip_complement(self, code):
        a = dep_failure_fraction(IdentityDecoder(), code, "Z")
        b = dep_failure_fraction(AlwaysFlipDecoder(), code, "Z")
        assert a + b == pytest.approx(1.0)


@functools.lru_cache(maxsize=None)
def naive_fault_runs(basis: str, T: int, prep: bool) -> tuple:
    """`naive_run` of every single fault of the T QEC cycles (or, with
    ``prep``, of the preparation cycle), in `enumerate_single_faults`
    order; shared by the tests below."""
    code = steane_code()
    faults = enumerate_single_faults(code, cycles=1) if prep \
        else enumerate_single_faults(code, cycles=T)
    return tuple(naive_run(code, None, T=T, basis=basis, fault=f,
                           fault_in_prep=prep) for f in faults)


def assert_batch_matches_scalar(batch, samples):
    for i, s in enumerate(samples):
        assert np.array_equal(batch.volumes[i], s.volume), i
        assert np.array_equal(batch.prep_rows[i], s.prep_row), i
        assert batch.final_syndrome[i] == s.final_syndrome, i
        assert (batch.m_in[i], batch.m_out[i]) == (s.m_in, s.m_out), i


def scalar_flip(decoder, s: MemorySample) -> int:
    """Per-sample reference prediction: the scalar LUT decoder, or the
    constant prediction of a baseline decoder."""
    if isinstance(decoder, SeqLutDecoder):
        return decoder.decode_basis(s.volume, s.basis, s.final_syndrome,
                                    s.prep_row)
    return int(isinstance(decoder, AlwaysFlipDecoder))


class TestSingleFaultBatch:
    """The frame engine's single-fault runs against the naive oracle."""

    @pytest.mark.parametrize("T", [1, 2, 3])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_matches_scalar_injector(self, code, T, basis):
        batch = single_fault_batch(code, basis, T)
        assert len(batch) == len(enumerate_single_faults(code, cycles=T))
        assert batch.basis == basis
        assert_batch_matches_scalar(batch, naive_fault_runs(basis, T, False))

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_preparation_faults_match_scalar_injector(self, code, basis):
        faults = enumerate_single_faults(code, cycles=1)
        for T in (1, 2, 3):
            batch = _fault_batch(code, faults, basis, T, fault_in_prep=True)
            assert_batch_matches_scalar(batch,
                                        naive_fault_runs(basis, T, True))

    @pytest.mark.parametrize("make", [SeqLutDecoder, IdentityDecoder,
                                      AlwaysFlipDecoder])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_batched_dep_equals_per_fault_runs(self, code, make, basis):
        decoder = make(code) if make is SeqLutDecoder else make()
        samples = naive_fault_runs(basis, 2, False)
        failed = sum(scalar_flip(decoder, s) ^ s.m_L for s in samples)
        assert dep_failure_fraction(decoder, code, basis, cycles=2) == \
            failed / len(samples)
