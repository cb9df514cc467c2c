import functools
import warnings

import numpy as np
import pytest

from naive_sim import naive_run
from steanedec.circuits import (SZ, FaultInjection, Gate, build_qec_cycle,
                                enumerate_single_faults)
from steanedec.seqlut import SeqLutDecoder
from steanedec.sim import (_PX1, _PX2, _PZ1, _PZ2, AlwaysFlipDecoder,
                           IdentityDecoder, MemoryBatch, MemorySample,
                           NoiseModel, _fault_batch, _fault_table,
                           _loc_rng, _loc_streams, _run_frames,
                           dep_failure_fraction, run_memory_experiment,
                           run_with_fault, sample_memory_batch,
                           single_fault_batch)
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
    """The per-gate sampler that the fault table replaced: every shot's
    frame goes through every gate, and each location's faults are
    applied to the frames right after it."""
    if T < 1:
        raise ValueError("T must be >= 1")
    n = shots
    p = noise.p_ph
    spam = noise.spam_flip

    def sample_noise(gate: Gate, x: np.ndarray, z: np.ndarray):
        if p == 0.0:
            return 0
        rng = _loc_rng(seed, gate.loc)
        kind = gate.kind
        if kind in ("cnot", "cz"):
            u = rng.random(n)
            faulted = u < p
            k = np.minimum((u / noise.two_q).astype(np.int64), 14)
            k[~faulted] = 0
            q1, q2 = gate.qubits
            xt = (_PX1[k] << q1) | (_PX2[k] << q2)
            zt = (_PZ1[k] << q1) | (_PZ2[k] << q2)
            x ^= np.where(faulted, xt, 0)
            z ^= np.where(faulted, zt, 0)
        elif kind in ("prep_plus", "prep_zero"):
            v = (rng.random(n) < spam).astype(np.int64) << gate.qubits[0]
            if kind == "prep_plus":
                z ^= v
            else:
                x ^= v
        else:  # measurement flip
            return (rng.random(n) < spam).astype(np.uint8)
        return 0

    program = build_qec_cycle(code, cycles=T, include_prep=True)
    volumes, prep_rows, syn, flip = _run_frames(code, program, basis, n,
                                                sample_noise)
    m_in = (np.arange(n) & 1).astype(np.uint8)
    return MemoryBatch(volumes=volumes, basis=basis, m_in=m_in,
                       m_out=m_in ^ flip,
                       final_syndrome=syn.astype(np.uint8), seed=seed,
                       prep_rows=prep_rows)


class TestFaultTableSampler:
    @pytest.mark.parametrize("shots", [0, 1, 3000])
    @pytest.mark.parametrize("p_ph", [0.0, 1e-3, 5e-3, 0.03, 0.2])
    @pytest.mark.parametrize("basis", ["Z", "X"])
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 8, 12])
    def test_equals_dense_sampler(self, code, T, basis, p_ph, shots):
        # p_ph = 0.2 stacks many faults per shot (GF(2) linearity);
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

    def test_row_width(self, code):
        assert _fault_table(code, 1, "Z").rows.shape[1] == 1
        assert _fault_table(code, 8, "Z").rows.shape[1] == 2
        assert _fault_table(code, 12, "X").rows.shape[1] == 3

    @pytest.mark.parametrize("seed", [0, 7, -1, 2**63 + 3])
    def test_rekeyed_stream_equals_fresh_generator(self, seed):
        draw = _loc_streams(seed)
        for loc in (0, 1, 539, 5, 0):
            assert np.array_equal(draw(loc, np.empty(37)),
                                  _loc_rng(seed, loc).random(37))


class TestLocationKeys:
    @pytest.mark.parametrize("seed,word", [(0, 0), (7, 7), (np.int64(7), 7),
                                           (-1, 2**64 - 1),
                                           (2**63 - 1, 2**63 - 1),
                                           (2**63 + 3, 2**63 + 3)])
    def test_key_words(self, seed, word):
        key = _loc_rng(seed, 17).bit_generator.state["state"]["key"]
        assert key.tolist() == [word, 17]

    def test_seeds_above_2_63_draw_distinct_streams(self):
        assert not np.array_equal(_loc_rng(2**63 + 3, 5).random(8),
                                  _loc_rng(2**63 + 4, 5).random(8))

    def test_largest_seed_converts_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            key = _loc_rng(2**64 - 1, 5).bit_generator.state["state"]["key"]
        assert key.tolist() == [2**64 - 1, 5]


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
