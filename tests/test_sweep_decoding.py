"""One decoder pass per noise sweep: `predict_flips_batches` of the
network decoders against the per-batch distinct-volume reference
(`distinct_reference.py`) and `Model.forward`, the prefix trie's edge
cases and work, one decoder call per `eval` basis and per monitor
checkpoint, and the memory bounds of sweep scoring."""

import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from distinct_reference import distinct_flips
from steanedec import decoders
from steanedec.analysis import (prepare_monitor, score_batches,
                                sweep_error_rates)
from steanedec.cli import main
from steanedec.circuits import pack_rounds
from steanedec.decoders import NnDecoder
from steanedec.nn import Dense, build_model
from steanedec.nn.model import ROW_BLOCK, spec_by_id
from steanedec.seqlut import SeqLutDecoder
from steanedec.sim import (AlwaysFlipDecoder, MemoryBatch, NoiseModel,
                           sample_memory_batch)
from steanedec.steane import steane_code

# The trie runs `Model.forward`'s arithmetic on every row, but BLAS may
# round a row by its place in a product, so an output may move by a few
# units in the last place (2.2e-16 near 1): this bound leaves 4 or more.
OUTPUT_TOL = 1e-15

SWEEP = (1e-3, 2e-3, 5e-3)
# (spec, basis): srnn and both drnn heads
RECURRENT = [("srnn-z", "Z"), ("drnn", "Z"), ("drnn", "X")]


@pytest.fixture(scope="module")
def code():
    return steane_code()


def perturbed_model(spec_id: str):
    """Trained-looking weights: the init ones, perturbed."""
    model = build_model(spec_by_id(spec_id), seed=3)
    rng = np.random.default_rng(5)
    for w in model.weights_flat().values():
        w += rng.normal(0.0, 0.3, w.shape)
    return model


def sweep(code, basis, seed, rounds=range(1, 9), shots=150):
    """The batches of a 3-rate sweep, as `eval` samples them."""
    return [sample_memory_batch(code, NoiseModel(p), T=t, basis=basis,
                                shots=shots, seed=seed + 1000 * t)
            for p in SWEEP for t in rounds]


def as_batch(volumes, basis="Z") -> MemoryBatch:
    n = len(volumes)
    zeros = np.zeros(n, np.uint8)
    return MemoryBatch(pack_rounds(volumes), basis, zeros, zeros, zeros)


def random_volumes(rng, n, t, density=0.1):
    return (rng.random((n, t, 12)) < density).astype(np.uint8)


def check_outputs(dec, volume_arrays):
    """The flips of `predict_flips_batches` equal the distinct-volume
    reference; the outputs lie within OUTPUT_TOL of `Model.forward`."""
    flips = dec.predict_flips_batches(map(as_batch, volume_arrays))
    assert len(flips) == len(volume_arrays)
    for f, v in zip(flips, volume_arrays):
        assert f.dtype == np.uint8 and f.shape == (len(v),)
        assert np.array_equal(f, distinct_flips(dec, v))
    q, sizes = dec._outputs(map(pack_rounds, volume_arrays))
    assert sizes == [len(v) for v in volume_arrays]
    ref = np.concatenate([dec.model.forward(dec.inputs(v))[:, dec.head]
                          for v in volume_arrays])
    assert np.abs(q - ref).max(initial=0.0) <= OUTPUT_TOL
    return flips


def spy_rows(monkeypatch, obj, method: str, arg: int = 0) -> list:
    """The row count of argument ``arg`` of every later call of
    ``obj``'s ``method``."""
    rows, bound = [], getattr(obj, method)

    def spy(*args, **kwargs):
        rows.append(len(args[arg]))
        return bound(*args, **kwargs)

    monkeypatch.setattr(obj, method, spy)
    return rows


def chunked_prefix_rows(volume_arrays, chunk: int) -> int:
    """The LSTM rows the trie runs: the volumes sorted by their round
    codes, cut into chunks of ``chunk``, and in each chunk one row per
    distinct prefix of each depth, a depth of one prefix taking two."""
    rows = [tuple(int(c) for c in code) for v in volume_arrays
            for code in pack_rounds(v)]
    # past its last round a volume sorts after every round code
    t_max = max(map(len, rows))
    rows.sort(key=lambda r: r + (1 << 12,) * (t_max - len(r)))
    total = 0
    for lo in range(0, len(rows), chunk):
        part = rows[lo:lo + chunk]
        for d in range(1, max(map(len, part)) + 1):
            k = len({r[:d] for r in part if len(r) >= d})
            total += 2 if k == 1 else k
    return total


class TestSampledSweeps:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_recurrent_sweep(self, code, spec_id, basis, seed):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        check_outputs(dec, [b.volumes for b in sweep(code, basis, seed)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_sweep_runs_distinct_rows_once(self, code, seed,
                                                 monkeypatch):
        dec = NnDecoder(perturbed_model("dnn2"), basis="Z")
        vols = [b.volumes for b in sweep(code, "Z", seed, rounds=(2,))]
        rows = spy_rows(monkeypatch, dec.model, "forward")
        check_outputs(dec, vols)
        read = np.concatenate(vols)[:, :, dec.channels]
        distinct = len(np.unique(read.reshape(len(read), -1), axis=0))
        # the first call is predict_flips_batches': one forward over the
        # distinct rows of all three batches
        assert rows[0] == distinct


class TestEdgeCases:
    @pytest.mark.parametrize("spec_id, basis", RECURRENT + [("dnn2", "Z")])
    def test_no_batches(self, spec_id, basis):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        assert dec.predict_flips_batches([]) == []
        assert dec.predict_flips_batches(iter(())) == []

    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_empty_batches(self, spec_id, basis):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        rng = np.random.default_rng(1)
        empty3, empty5 = (np.zeros((0, t, 12), np.uint8) for t in (3, 5))
        flips = check_outputs(dec, [empty3, random_volumes(rng, 40, 2),
                                    empty5])
        assert [len(f) for f in flips] == [0, 40, 0]
        flips = dec.predict_flips_batches([as_batch(empty3)])
        assert len(flips) == 1 and flips[0].shape == (0,)

    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_one_round_only(self, code, spec_id, basis):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        check_outputs(dec, [b.volumes for b in sweep(code, basis, 4,
                                                     rounds=(1,))])

    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_all_volumes_equal(self, spec_id, basis, monkeypatch):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        one = random_volumes(np.random.default_rng(2), 1, 5, density=0.4)
        rounds = spy_rows(monkeypatch, dec.model.layers[1], "_round")
        head = spy_rows(monkeypatch, dec.model.layers[3], "forward")
        check_outputs(dec, [np.repeat(one, 50, axis=0)])
        # check_outputs decodes once before its forward reference: one
        # node per depth and one end node, each beside a copy of itself
        assert rounds[:5] == [2] * 5
        assert head[0] == 2

    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_depths_with_one_node(self, spec_id, basis, monkeypatch):
        # a shared first two rounds, then distinct histories
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        rng = np.random.default_rng(3)
        vols = random_volumes(rng, 60, 4, density=0.3)
        vols[:, :2] = vols[0, :2]
        rounds = spy_rows(monkeypatch, dec.model.layers[1], "_round")
        check_outputs(dec, [vols])
        assert rounds[:2] == [2, 2]
        assert rounds[2] > 2

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_chunk_boundaries(self, code, spec_id, basis, chunk,
                              monkeypatch):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        vols = [b.volumes for b in sweep(code, basis, 5, rounds=(1, 3, 4),
                                         shots=60)]
        monkeypatch.setattr(decoders, "TRIE_CHUNK", chunk)
        rounds = spy_rows(monkeypatch, dec.model.layers[1], "_round")
        dec.predict_flips_batches(map(as_batch, vols))
        ran = sum(rounds)
        assert ran == chunked_prefix_rows(vols, chunk)
        # a boundary repeats at most one node per depth (4 depths), and
        # a lone node runs beside a copy
        n = sum(map(len, vols))
        whole = chunked_prefix_rows(vols, n)
        assert ran <= whole + 2 * 4 * (-(-n // chunk))
        check_outputs(dec, vols)

    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_default_chunks(self, spec_id, basis, monkeypatch):
        # more volumes than one chunk, and more new nodes at a depth than
        # one row block
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        rng = np.random.default_rng(6)
        vols = [random_volumes(rng, 2500, 2, density=0.5),
                random_volumes(rng, 700, 3, density=0.05)]
        assert sum(map(len, vols)) > decoders.TRIE_CHUNK
        rounds = spy_rows(monkeypatch, dec.model.layers[1], "_round")
        # _advance(lstms, states, parent, code): the new nodes of a depth
        nodes = spy_rows(monkeypatch, decoders, "_advance", arg=2)
        dec.predict_flips_batches(map(as_batch, vols))
        assert sum(rounds) == chunked_prefix_rows(vols, decoders.TRIE_CHUNK)
        assert max(nodes) > ROW_BLOCK >= max(rounds)
        check_outputs(dec, vols)

    @pytest.mark.parametrize("spec_id, basis", RECURRENT + [("dnn2", "Z")])
    def test_generator_consumed_once(self, code, spec_id, basis):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        rounds = (2,) if spec_id == "dnn2" else (1, 2, 6)
        batches = sweep(code, basis, 7, rounds=rounds, shots=200)
        handed = []

        def gen():
            for b in batches:
                handed.append(len(handed))
                yield b

        it = gen()
        flips = dec.predict_flips_batches(it)
        assert handed == list(range(len(batches)))
        assert next(it, None) is None
        for f, b in zip(flips, batches, strict=True):
            assert np.array_equal(f, dec.predict_flips(b.volumes))
            assert np.array_equal(f, distinct_flips(dec, b.volumes))

    @pytest.mark.parametrize("spec_id, basis", RECURRENT)
    def test_head_runs_once_per_end_node(self, code, spec_id, basis,
                                         monkeypatch):
        # volumes of several lengths that end at shared nodes: the head
        # sees each distinct volume of the sweep once
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        vols = [b.volumes for b in sweep(code, basis, 8, rounds=(1, 2, 3),
                                         shots=200)]
        assert sum(map(len, vols)) <= decoders.TRIE_CHUNK
        dense = next(layer for layer in dec.model.layers
                     if isinstance(layer, Dense))
        head = spy_rows(monkeypatch, dense, "forward")
        dec.predict_flips_batches(map(as_batch, vols))
        ends = {tuple(int(c) for c in code) for v in vols
                for code in pack_rounds(v)}
        assert sum(head) == len(ends)


class TestOnePassPerSweep:
    def test_eval_one_call_per_basis(self, code, tmp_path, monkeypatch):
        calls = []
        real = SeqLutDecoder.predict_flips_batches

        def counted(self, batches):
            calls.append(self)
            return real(self, batches)

        monkeypatch.setattr(SeqLutDecoder, "predict_flips_batches", counted)
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"seed: 2\nout: {tmp_path / 'run'}\ndecoder: lut\n"
                       "rounds: 3\npph_sweep: [0.002, 0.005]\n"
                       "eval: {shots_per_point: 300}\n")
        r = CliRunner().invoke(main, ["eval", "--config", str(cfg)])
        assert r.exit_code == 0, r.output
        assert len(calls) == 2  # bases Z and X
        assert len(r.output.splitlines()) == 4  # one line per point

    def test_monitor_one_call_per_checkpoint(self, code):
        monitor = prepare_monitor(code, SWEEP, "Z", (1, 2), 200, 3)
        seen = []

        class Counted(AlwaysFlipDecoder):
            def predict_flips_batches(self, batches):
                batches = list(batches)
                seen.append(batches)
                return super().predict_flips_batches(batches)

        for epoch in range(2):
            monitor.score(epoch, Counted())
        assert len(seen) == 2
        for batches in seen:
            points = [b for p in monitor.points.values() for b in p]
            assert len(batches) == 1 + len(points) == 1 + 3 * 2
            assert batches[0] is monitor.faults
            assert all(a is b for a, b in zip(batches[1:], points))

    def test_score_batches_records(self, code):
        batches = sweep(code, "Z", 1, rounds=(1, 3), shots=250)
        dec = SeqLutDecoder(code)
        scored = score_batches(dec, iter(batches))
        assert scored == [
            (b.volumes.shape[1], len(b),
             int((dec.predict_flips_batch(b) ^ b.m_L).sum()))
            for b in batches]


class TestSweepMemory:
    """`tracemalloc` bounds of sweep scoring, stated before running."""

    @staticmethod
    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lut_sweep_holds_one_batch(self, code):
        # The LUT decodes each batch as the sweep samples it. Beyond the
        # sampling and decoding of its largest batch (T = 8 at the
        # highest rate), sweep scoring may hold one m_L and one flip byte
        # per shot of the sweep and 128 kB of bookkeeping; holding the
        # eight batches of a rate, as scoring did rate by rate, took
        # about twice the one-batch peak.
        dec, shots, rounds = SeqLutDecoder(code), 8000, range(1, 9)
        for t in rounds:  # the fault tables
            sample_memory_batch(code, NoiseModel(0.0), T=t, basis="Z",
                                shots=1, seed=0)

        def one():
            dec.predict_flips_batch(sample_memory_batch(
                code, NoiseModel(SWEEP[-1]), T=8, basis="Z", shots=shots,
                seed=8000))

        one_batch = self.peak(one)
        whole = self.peak(lambda: sweep_error_rates(
            dec, code, [NoiseModel(p) for p in SWEEP], "Z", rounds, shots,
            seed=0))
        assert whole <= one_batch + 2 * shots * len(SWEEP) * len(rounds) \
            + 128_000

    def test_srnn_sweep_at_default_size(self, code):
        # 3 rates x T = 1..8 at 20,000 shots per point, the default, in
        # one pass: no higher than the 25.8 MB at which one rate peaked
        # when each rate was scored on its own
        dec = NnDecoder(build_model(spec_by_id("srnn-z"), seed=0))
        for t in range(1, 9):
            sample_memory_batch(code, NoiseModel(0.0), T=t, basis="Z",
                                shots=1, seed=0)
        peak = self.peak(lambda: sweep_error_rates(
            dec, code, [NoiseModel(p) for p in SWEEP], "Z", range(1, 9),
            20_000, seed=0))
        assert peak <= 25.8e6

    def test_prepare_monitor_peak(self, code):
        # the monitor's sample at rounds 1..8, 3 rates x 20,000 shots: it
        # peaked at 36.93 MB while it held 25.92 MB of bit volumes; as
        # round codes it stays under 20 MB
        for t in range(1, 9):
            sample_memory_batch(code, NoiseModel(0.0), T=t, basis="Z",
                                shots=1, seed=0)
        peak = self.peak(lambda: prepare_monitor(
            code, SWEEP, "Z", range(1, 9), 20_000, seed=0))
        assert peak < 20e6
