import pytest

from steanedec.circuits import (ANC, FLAG, FX, FZ, SX, SZ, FaultInjection,
                                Gate, basis_channels, build_qec_cycle,
                                enumerate_single_faults, error_set,
                                plaquette_gates)
from steanedec.steane import steane_code


@pytest.fixture(scope="module")
def code():
    return steane_code()


class TestCycleStructure:
    def test_measurement_counts(self, code):
        gates = build_qec_cycle(code)
        assert sum(g.kind == "meas_x" for g in gates) == 6
        assert sum(g.kind == "meas_z" for g in gates) == 6

    def test_channel_cover(self, code):
        gates = build_qec_cycle(code)
        channels = sorted(g.channel for g in gates if g.channel >= 0)
        assert channels == list(range(12))

    def test_basis_channels(self):
        # Z readout reads SZ and FX; X readout reads SX and FZ
        assert basis_channels("Z") == (SZ, FX)
        assert basis_channels("X") == (SX, FZ)
        for basis in ("Y", "z", ""):
            with pytest.raises(ValueError, match="basis must be"):
                basis_channels(basis)

    def test_location_ids_unique_and_scaling(self, code):
        one = build_qec_cycle(code, cycles=1)
        two = build_qec_cycle(code, cycles=2)
        assert len({g.loc for g in two}) == len(two)
        assert len(two) == 2 * len(one)

    def test_plaquette_schedule_flag_positions(self, code):
        # flag couplings sit after the 1st and before the 4th data gate
        sched = plaquette_gates(code, 0, "X")
        kinds_targets = [t for _, t in sched]
        assert kinds_targets[1] == FLAG and kinds_targets[4] == FLAG
        assert [t + 1 for i, t in enumerate(kinds_targets) if i not in (1, 4)] \
            == [1, 2, 3, 4]

    def test_x_before_z_readout(self, code):
        gates = build_qec_cycle(code)
        first_z = min(i for i, g in enumerate(gates)
                      if g.channel in SZ)
        last_x = max(i for i, g in enumerate(gates)
                     if g.channel in SX)
        assert last_x < first_z

    def test_gate_types_per_plaquette_kind(self, code):
        gates = build_qec_cycle(code)
        for g in gates:
            if g.kind == "cz":
                assert g.qubits[1] == ANC
            if g.kind == "cnot":
                assert g.qubits[0] == ANC

    def test_prep_cycle_labelled_zero(self, code):
        gates = build_qec_cycle(code, cycles=1, include_prep=True)
        assert {g.cycle for g in gates} == {0, 1}


class TestFaultSets:
    def test_cnot_has_15(self, code):
        g = Gate("cnot", (ANC, 0), loc=0)
        es = error_set(g)
        assert len(es) == 15
        assert len({f.paulis for f in es}) == 15

    def test_spam_single_flip(self):
        assert len(error_set(Gate("prep_plus", (ANC,), 0))) == 1
        assert error_set(Gate("meas_x", (ANC,), 0))[0].flip_outcome

    def test_total_count_two_cycles(self, code):
        faults = enumerate_single_faults(code, cycles=2)
        # 12 plaquettes per cycle, each 6 two-qubit gates + 2 preps + 2 meas
        assert len(faults) == 2 * 6 * (6 * 15 + 4)

    def test_empty_for_zero_cycles(self, code):
        assert enumerate_single_faults(code, cycles=0) == []
