import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steanedec.circuits import (ANC, FX, SZ, FaultInjection, build_qec_cycle,
                                enumerate_single_faults, error_set,
                                pack_rounds)
from steanedec.seqlut import SeqLutDecoder, hook_correction_table
from steanedec.sim import (MemoryBatch, NoiseModel, _fault_batch,
                           dep_failure_fraction, run_memory_experiment,
                           run_with_fault, sample_memory_batch,
                           single_fault_batch)
from steanedec.steane import PauliString, mask_of, parity, steane_code

# the nine flag-conditioned correction rows: per flagged plaquette,
# observed half-syndrome (as 3-bit int, generator k -> bit k) and the
# tabulated replacement correction
TABULATED_ROWS = {
    0: {0b001: mask_of([1]), 0b010: mask_of([3, 4]), 0b101: mask_of([4])},
    1: {0b011: mask_of([2]), 0b100: mask_of([5, 6]), 0b110: mask_of([6])},
    2: {0b111: mask_of([3]), 0b010: mask_of([6, 7]), 0b100: mask_of([7])},
}


@pytest.fixture(scope="module")
def code():
    return steane_code()


@pytest.fixture(scope="module")
def decoder(code):
    return SeqLutDecoder(code)


def hook_faults(code, plaquette, cycle=1):
    """FaultInjections putting X on the syndrome ancilla after the 2nd,
    3rd and 4th entangling gate of an X-type plaquette readout."""
    gates = build_qec_cycle(code, cycles=2)
    block = [g for g in gates if g.cycle == cycle and g.kind == "cnot"
             and g.qubits == (ANC, 8)]
    # flag couplings of plaquette `plaquette` bound its entangling gates
    ent = [g for g in gates if g.cycle == cycle and g.kind in ("cnot", "cz")]
    # entangling gates come in groups of 6 per plaquette, X-type first
    group = ent[6 * plaquette: 6 * plaquette + 6]
    out = []
    for idx in (1, 2, 3):
        g = group[idx]
        paulis = ("X", "I") if g.qubits[0] == ANC else ("I", "X")
        out.append(FaultInjection(g.loc, paulis))
    return out


class TestHookTable:
    def test_nine_rows(self, code):
        table = hook_correction_table(code)
        assert len(table) == 9
        for k in range(3):
            assert set(TABULATED_ROWS[k]) == {s for kk, s in table if kk == k}

    def test_rows_equivalent_to_tabulated(self, code):
        table = hook_correction_table(code)
        for k, rows in TABULATED_ROWS.items():
            for syn, corr in rows.items():
                built = table[(k, syn)]
                assert code._half_syndrome_int(built) == syn
                diff = built ^ corr
                # built and tabulated corrections agree up to a stabilizer
                assert code._half_syndrome_int(diff) == 0
                assert parity(diff & code.logical_mask) == 0

    def test_weight2_rows_exact(self, code):
        table = hook_correction_table(code)
        assert table[(0, 0b010)] == mask_of([3, 4])
        assert table[(1, 0b100)] == mask_of([5, 6])
        assert table[(2, 0b010)] == mask_of([6, 7])

    def test_rows_by_circuit_injection(self, code):
        """Inject each hook class into a full run and compare flag,
        subsequent syndrome, and residual parity with the table rows."""
        for k in range(3):
            syns = sorted(TABULATED_ROWS[k])
            for fault, expect_syn in zip(hook_faults(code, k),
                                         sorted_hook_syns(code, k)):
                s = run_memory_experiment(code, None, T=2, basis="Z",
                                          fault=fault)
                assert s.volume[0, FX[k]] == 1
                cum = 0
                for t in range(2):
                    for i, c in enumerate(SZ):
                        cum ^= int(s.volume[t, c]) << i
                assert cum == expect_syn
                assert s.final_syndrome == expect_syn
                corr = TABULATED_ROWS[k][expect_syn]
                # tabulated correction undoes the fault's logical effect
                residual = corr ^ code.pure_error_mask(expect_syn)
                assert parity(residual & code.logical_mask) == s.m_L


def sorted_hook_syns(code, k):
    """Expected syndromes of the three hook classes, in injection order
    (after 2nd, 3rd, 4th entangling gate)."""
    i, j, kk, ll = code.gate_order[k]
    tails = [mask_of([j, kk, ll]), mask_of([kk, ll]), mask_of([ll])]
    return [code._half_syndrome_int(t) for t in tails]


class TestDecode:
    def test_all_zero(self, decoder):
        vol = np.zeros((4, 12), dtype=np.uint8)
        for basis in ("Z", "X"):
            assert decoder.decode_basis(vol, basis) == 0

    def test_hook_signature_volume(self, code, decoder):
        # F_X1 and S_Z increment 010 in the same round select X3X4
        vol = np.zeros((2, 12), dtype=np.uint8)
        vol[0, FX[0]] = 1
        vol[0, SZ[1]] = 1
        flip = decoder.decode_basis(vol, "Z", final_syndrome=0b010)
        # plain weight-1 decoding of 010 would predict no flip; the
        # flagged correction X3X4 differs from it by a logical
        assert flip == parity((mask_of([3, 4]) ^ mask_of([5])) & code.logical_mask)
        assert flip == 1

    def test_measurement_error_dismissed(self, code, decoder):
        vol = np.zeros((3, 12), dtype=np.uint8)
        vol[0, SZ[1]] = 1
        vol[1, SZ[1]] = 1  # syndrome returns: measurement error
        assert decoder.decode_basis(vol, "Z", final_syndrome=0) == 0

    def test_trailing_zero_rounds_are_neutral(self, code, decoder):
        batch = sample_memory_batch(code, NoiseModel(0.02), T=3, basis="Z",
                                    shots=300, seed=5)
        for i in range(len(batch)):
            vol = batch.volumes[i]
            padded = np.vstack([vol, np.zeros((2, 12), dtype=np.uint8)])
            for basis in ("Z", "X"):
                assert (decoder.decode_basis(vol, basis)
                        == decoder.decode_basis(padded, basis))

    def test_single_measurement_fault_run(self, code, decoder):
        gates = build_qec_cycle(code, cycles=2)
        loc = next(g.loc for g in gates
                   if g.kind == "meas_x" and g.cycle == 1 and g.channel in SZ)
        fault = FaultInjection(loc, (), flip_outcome=True)
        assert run_with_fault(code, fault, "Z", decoder) == 0


class TestDepCertification:
    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_seqlut_dep_zero(self, code, decoder, basis):
        assert dep_failure_fraction(decoder, code, basis) == 0.0

    def test_hook_fault_recovered(self, code, decoder):
        for k in range(3):
            for fault in hook_faults(code, k):
                assert run_with_fault(code, fault, "Z", decoder) == 0

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_preparation_cycle_faults_recovered(self, code, decoder, basis):
        # the prep round is addressed through its own round-0 record:
        # its hooks must be recovered too, or first-order failures leak
        # into the logical error rate
        faults = enumerate_single_faults(code, cycles=1)
        batch = _fault_batch(code, faults, basis, 2, fault_in_prep=True)
        failed = np.flatnonzero(decoder.predict_flips_batch(batch)
                                ^ batch.m_L)
        assert not failed.size, [faults[i] for i in failed]


def scalar_flips(decoder, batch):
    """Per-shot `decode_basis`: the reference for the compiled tables."""
    preps = batch.prep_rows
    return np.array([decoder.decode_basis(
        batch.volumes[i], batch.basis, int(batch.final_syndrome[i]),
        None if preps is None else preps[i]) for i in range(len(batch))],
        dtype=np.uint8)


class TestCompiledDecoder:
    def test_table_shapes(self, decoder):
        assert decoder._trans.shape == (640, 64)
        assert decoder._final.shape == (640, 8)
        assert decoder._trans.min() >= 0 and decoder._trans.max() < 640

    def test_tables_shared_between_decoders(self, code, decoder):
        other = SeqLutDecoder(steane_code())
        assert other._trans is decoder._trans
        assert other._final is decoder._final

    @pytest.mark.parametrize("basis", ["Z", "X"])
    def test_every_single_fault_volume(self, code, decoder, basis):
        prep_faults = [f for g in build_qec_cycle(code, cycles=1)
                       for f in error_set(g)]
        for T in range(1, 9):
            for batch in (single_fault_batch(code, basis, T),
                          _fault_batch(code, prep_faults, basis, T,
                                       fault_in_prep=True)):
                assert np.array_equal(decoder.predict_flips_batch(batch),
                                      scalar_flips(decoder, batch)), T

    @pytest.mark.parametrize("p_ph", [1e-3, 5e-3, 0.03])
    def test_sampled_batches(self, code, decoder, p_ph):
        for T, basis in ((1, "Z"), (3, "X"), (8, "Z"), (8, "X")):
            batch = sample_memory_batch(code, NoiseModel(p_ph), T=T,
                                        basis=basis, shots=1500, seed=T)
            assert np.array_equal(decoder.predict_flips_batch(batch),
                                  scalar_flips(decoder, batch)), (T, basis)

    def test_batch_without_prep_rows(self, code, decoder):
        batch = sample_memory_batch(code, NoiseModel(0.03), T=4, basis="Z",
                                    shots=1500, seed=3)
        batch.prep_codes = None
        flips = decoder.predict_flips_batch(batch)
        assert np.array_equal(flips, scalar_flips(decoder, batch))
        assert flips.dtype == np.uint8

    @given(data=st.data(), T=st.integers(1, 10), shots=st.integers(1, 8),
           basis=st.sampled_from("ZX"), with_prep=st.booleans())
    def test_arbitrary_volumes(self, decoder, data, T, shots, basis,
                               with_prep):
        def draw(shape, mask):
            n = int(np.prod(shape))
            raw = data.draw(st.binary(min_size=n, max_size=n))
            return (np.frombuffer(raw, dtype=np.uint8) & mask).reshape(shape)

        zeros = np.zeros(shots, dtype=np.uint8)
        batch = MemoryBatch(codes=pack_rounds(draw((shots, T, 12), 1)),
                            basis=basis, m_in=zeros, m_out=zeros,
                            final_syndrome=draw((shots,), 7),
                            prep_codes=pack_rounds(draw((shots, 12), 1))
                            if with_prep else None)
        assert np.array_equal(decoder.predict_flips_batch(batch),
                              scalar_flips(decoder, batch))
