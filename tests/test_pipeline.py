"""Dataset file format, the network decoder wrapper, and the CLI."""

import builtins
import errno
import importlib
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner

from steanedec import cli
from steanedec import dataset as dsmod
from steanedec import decoders
from steanedec.circuits import pack_rounds
from steanedec.cli import build_cfg, dataset_plan, load_config, main
from steanedec.decoders import DNN2_CHANNELS, NnDecoder
from steanedec.nn import (Checkpoint, Dense, build_model, dnn2_spec,
                          drnn_spec, save_checkpoint, srnn_spec)
from steanedec.nn.losses import MASKED
from steanedec.nn.model import spec_by_id
from steanedec.sim import (NoiseModel, sample_memory_batch,
                           sample_memory_blocks)
from steanedec.steane import steane_code


@pytest.fixture(scope="module")
def batch():
    return sample_memory_batch(steane_code(), NoiseModel(5e-3), T=2,
                               basis="Z", shots=400, seed=11)


class TestDatasetFormat:
    def test_round_trip(self, batch, tmp_path):
        ds = from_batch(batch, 5e-3, "hash123")
        path = tmp_path / "d.sds"
        dsmod.write_dataset(path, header(ds), [ds])
        back = dsmod.read_dataset(path)
        assert np.array_equal(back.volumes, batch.volumes)
        assert np.array_equal(back.m_in, batch.m_in)
        assert np.array_equal(back.m_out, batch.m_out)
        assert np.array_equal(back.m_L, batch.m_L)
        assert (back.p_ph, back.T, back.basis, back.seed) == \
            (5e-3, 2, "Z", 11)
        assert back.config_hash == "hash123"
        assert back.code_id == dsmod.CODE_ID

    def test_label_consistency_enforced(self, batch, tmp_path):
        ds = from_batch(batch, 5e-3)
        path = tmp_path / "d.sds"
        dsmod.write_dataset(path, header(ds), [ds])
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0b100  # corrupt an m_L bit
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            dsmod.read_dataset(path)

    def test_round_bits_past_the_channels_rejected(self, batch, tmp_path):
        # bit 15 of the first round of record 7: no round code has it,
        # so the reader raises, and require_dataset exits 1
        ds = from_batch(batch, 5e-3, "hash123")
        cfg = {"out": str(tmp_path), "hash": "hash123"}
        path = tmp_path / "data" / "train_z_t2.sds"
        assert str(path) == cli.dataset_path(cfg, "train", "Z", 2)
        path.parent.mkdir()
        dsmod.write_dataset(path, header(ds), [ds])
        raw = bytearray(path.read_bytes())
        at = len(raw) - (len(ds) - 7) * (2 * ds.T + 1)
        raw[at + 1] |= 0x80
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="past its 12 channels"):
            dsmod.read_dataset(path)
        with pytest.raises(SystemExit) as exc:
            cli.require_dataset(cfg, "train", "Z", 2)
        assert exc.value.code == 1

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.sds"
        path.write_bytes(b"junk")
        with pytest.raises(ValueError):
            dsmod.read_dataset(path)

    def test_text_export(self, batch, tmp_path):
        ds = from_batch(batch, 5e-3)
        path = tmp_path / "d.txt"
        dsmod.export_text(path, header(ds), [ds])
        lines = path.read_text().splitlines()
        assert len(lines) == len(ds) + 1
        first = lines[1].split()
        rounds = first[0].split("|")
        assert len(rounds) == 2 and len(rounds[0]) == 12
        assert rounds[0] == "".join(str(b) for b in ds.volumes[0][0])
        assert int(first[1]) ^ int(first[2]) == int(first[3])


    @pytest.mark.parametrize("T", [1, 8])
    def test_text_export_bytes_match_line_writer(self, tmp_path, T):
        batch = sample_memory_batch(steane_code(), NoiseModel(0.02), T=T,
                                    basis="X", shots=500, seed=T)
        ds = from_batch(batch, 0.02, "cfghash")
        dsmod.export_text(tmp_path / "fast.txt", header(ds), [ds])
        line_writer_export(tmp_path / "ref.txt", ds)
        assert (tmp_path / "fast.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("T", [1, 8])
    def test_records_match_arithmetic_packing(self, tmp_path, T):
        batch = sample_memory_batch(steane_code(), NoiseModel(0.02), T=T,
                                    basis="X", shots=500, seed=T)
        ds = from_batch(batch, 0.02, "cfghash")
        path = tmp_path / "d.sds"
        dsmod.write_dataset(path, header(ds), [ds])
        raw = path.read_bytes()
        records = arithmetic_records(ds)
        # the header: 45 bytes of fixed fields, the code id and the hash
        assert len(raw) == 45 + len(ds.code_id) + len("cfghash") \
            + len(records)
        assert raw.endswith(records)
        assert np.array_equal(dsmod.read_dataset(path).volumes, ds.volumes)

    @pytest.mark.parametrize("T", [1, 8])
    def test_streamed_files_match_references(self, tmp_path, T):
        # 500 shots in blocks of 64: the last block holds 52
        code, noise = steane_code(), NoiseModel(0.02)
        ds = from_batch(sample_memory_batch(code, noise, T=T, basis="X",
                                            shots=500, seed=T),
                        0.02, "cfghash")
        head = dsmod.Header(dsmod.CODE_ID, 0.02, T, "X", T, 500, "cfghash")

        def blocks():
            return sample_memory_blocks(code, noise, T, "X", 500, seed=T,
                                        block=64)

        path = tmp_path / "d.sds"
        dsmod.write_with_text(str(path), head, blocks())
        raw = path.read_bytes()
        records = arithmetic_records(ds)
        assert len(raw) == 45 + len(ds.code_id) + len("cfghash") \
            + len(records)
        assert raw.endswith(records)
        line_writer_export(tmp_path / "ref.txt", ds)
        text = (tmp_path / "ref.txt").read_bytes()
        assert (tmp_path / "d.sds.txt").read_bytes() == text
        # the one-file writers, in blocks and whole
        dsmod.write_dataset(tmp_path / "b.sds", head, blocks())
        dsmod.export_text(tmp_path / "b.txt", head, blocks())
        dsmod.write_dataset(tmp_path / "w.sds", header(ds), [ds])
        assert (tmp_path / "b.sds").read_bytes() == raw
        assert (tmp_path / "w.sds").read_bytes() == raw
        assert (tmp_path / "b.txt").read_bytes() == text
        assert sorted(os.listdir(tmp_path)) == [
            "b.sds", "b.txt", "d.sds", "d.sds.txt", "ref.txt", "w.sds"]

    @pytest.mark.parametrize("shots,T", [(399, 2), (401, 2), (400, 3)])
    def test_blocks_must_match_the_header(self, batch, tmp_path, shots, T):
        head = dsmod.Header(dsmod.CODE_ID, 5e-3, T, "Z", 11, shots)
        for write in (dsmod.write_dataset, dsmod.export_text):
            with pytest.raises(ValueError, match="header declares"):
                write(tmp_path / "d", head, [batch])
        with pytest.raises(ValueError, match="header declares"):
            dsmod.write_with_text(str(tmp_path / "e.sds"), head, [batch])
        # no target and no temporary file
        assert os.listdir(tmp_path) == []

    def test_writers_refuse_round_bits_past_the_channels(self, batch,
                                                          tmp_path):
        # bit 15 of the first round of record 7, which read_dataset
        # rejects; export_text has no digits for it
        ds = from_batch(batch, 5e-3)
        ds.codes = ds.codes.copy()
        ds.codes[7, 0] |= 0x8000
        for write in (dsmod.write_dataset, dsmod.export_text):
            with pytest.raises(ValueError, match="past its 12 channels"):
                write(tmp_path / "d", header(ds), [ds])
        with pytest.raises(ValueError, match="past its 12 channels"):
            dsmod.write_with_text(str(tmp_path / "e.sds"), header(ds), [ds])
        # no target and no temporary file
        assert os.listdir(tmp_path) == []

    def test_bytes_past_the_records_rejected(self, batch, tmp_path):
        path = tmp_path / "d.sds"
        ds = from_batch(batch, 5e-3)
        dsmod.write_dataset(path, header(ds), [ds])
        raw = path.read_bytes()
        path.write_bytes(raw + b"\0")
        with pytest.raises(ValueError, match="past the 400 records"):
            dsmod.read_dataset(path)
        # a shot count one short of the body
        at = 4 + 4 + 4 + len(dsmod.CODE_ID) + 8 + 4 + 1 + 8
        short = bytearray(raw)
        short[at:at + 8] = struct.pack("<Q", len(batch) - 1)
        path.write_bytes(bytes(short))
        with pytest.raises(ValueError, match="past the 399 records"):
            dsmod.read_dataset(path)


    # a corrupt size field raises ValueError before anything of the size
    # it declares is allocated: the file is 2.5 kB, the bound 1 MB
    @pytest.mark.parametrize("field,value", [("shots", 2 ** 40),
                                             ("shots", 2 ** 62),
                                             ("T", 2 ** 31)])
    def test_corrupt_size_field_raises_in_bounded_memory(
            self, batch, tmp_path, field, value):
        path = tmp_path / "d.sds"
        ds = from_batch(batch, 5e-3)
        dsmod.write_dataset(path, header(ds), [ds])
        raw = bytearray(path.read_bytes())
        t_at = 4 + 4 + 4 + len(dsmod.CODE_ID) + 8
        if field == "T":
            raw[t_at:t_at + 4] = struct.pack("<I", value)
        else:
            at = t_at + 4 + 1 + 8
            raw[at:at + 8] = struct.pack("<Q", value)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated dataset file"):
                dsmod.read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def from_batch(batch, p_ph: float,
               config_hash: str = "") -> dsmod.DatasetFile:
    """The `DatasetFile` of the samples of the `MemoryBatch` ``batch``."""
    return dsmod.DatasetFile(code_id=dsmod.CODE_ID, p_ph=p_ph,
                             T=batch.codes.shape[1], basis=batch.basis,
                             seed=batch.seed, codes=batch.codes,
                             m_in=np.asarray(batch.m_in, dtype=np.uint8),
                             m_out=np.asarray(batch.m_out, dtype=np.uint8),
                             config_hash=config_hash)


def header(ds) -> dsmod.Header:
    """The `Header` of the records of the `DatasetFile` ``ds``."""
    return dsmod.Header(ds.code_id, ds.p_ph, ds.T, ds.basis, ds.seed,
                        len(ds), ds.config_hash)


def arithmetic_records(ds) -> bytes:
    """Reference record packing: each round's 12 channel bits summed
    into a little-endian uint16, then the label byte."""
    n, T, _ = ds.volumes.shape
    rows = ds.volumes.astype(np.uint16)
    packed = (rows << np.arange(12, dtype=np.uint16)).sum(
        axis=2).astype("<u2")
    body = np.empty((n, 2 * T + 1), dtype=np.uint8)
    body[:, :2 * T] = packed.view(np.uint8).reshape(n, 2 * T)
    body[:, 2 * T] = ds.m_in | (ds.m_out << 1) | (ds.m_L << 2)
    return body.tobytes()


def line_writer_export(path, ds):
    """Reference text export, written one line per sample."""
    with open(path, "w") as fh:
        fh.write(f"# {ds.code_id} p_ph={ds.p_ph} T={ds.T} "
                 f"basis={ds.basis} seed={ds.seed} shots={len(ds)} "
                 f"config={ds.config_hash}\n")
        for i in range(len(ds)):
            rounds = "|".join("".join(str(b) for b in row)
                              for row in ds.volumes[i])
            fh.write(f"{rounds} {ds.m_in[i]} {ds.m_out[i]} {ds.m_L[i]}\n")


class TestDatasetSeeds:
    def test_keys_distinct_across_splits_bases_and_rounds(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("seed: 0\ndecoder: drnn\nrounds: 20\n")
        plan = list(dataset_plan(load_config(str(cfg_path), {})))
        # 3 splits x 2 bases x rounds 1..20
        assert len(plan) == 120
        assert len({seed for *_, seed in plan}) == len(plan)


def perturbed_model(spec_id: str):
    """Trained-looking weights: the init ones, perturbed."""
    model = build_model(spec_by_id(spec_id), seed=3)
    rng = np.random.default_rng(5)
    for w in model.weights_flat().values():
        w += rng.normal(0.0, 0.3, w.shape)
    return model


def forward_rows(model, monkeypatch) -> list:
    """The row count of every later `model.forward` call."""
    return call_rows(model, "forward", monkeypatch)


def call_rows(obj, method: str, monkeypatch) -> list:
    """The row count of the first argument of every later call of
    ``obj``'s ``method``."""
    rows, bound = [], getattr(obj, method)

    def spy(x, *args, **kwargs):
        rows.append(len(x))
        return bound(x, *args, **kwargs)

    monkeypatch.setattr(obj, method, spy)
    return rows


# (spec, basis): srnn, both drnn heads, dnn2
NETWORKS = [("srnn-z", "Z"), ("drnn", "Z"), ("drnn", "X"), ("dnn2", "Z")]


class TestDecoderWrapper:
    def test_dnn2_input_channels(self, batch):
        dec = NnDecoder(build_model(dnn2_spec(), seed=1), basis="Z")
        x = dec.inputs(batch.volumes, t_max=5)  # t_max: recurrent only
        assert x.shape == (len(batch), 12)
        chans = list(DNN2_CHANNELS["Z"])
        assert np.array_equal(
            x.reshape(len(batch), 2, 6),
            batch.volumes[:, :, chans].astype(float))

    def test_rnn_padding(self, batch):
        dec = NnDecoder(build_model(srnn_spec("Z"), seed=3), basis="Z")
        x = dec.inputs(batch.volumes, t_max=5)
        assert x.shape == (len(batch), 5, 12)
        assert np.all(x[:, 2:, :] == -1.0)
        assert np.array_equal(x[:, :2, :], batch.volumes.astype(float))
        assert np.array_equal(dec.inputs(batch.volumes, t_max=1),
                              batch.volumes.astype(float))

    @pytest.mark.parametrize("spec_id", ["srnn-z", "drnn", "dnn2"])
    def test_other_basis_raises(self, spec_id):
        model = build_model(spec_by_id(spec_id), seed=0)
        with pytest.raises(ValueError, match="basis must be 'X' or 'Z'"):
            NnDecoder(model, basis="Y")

    def test_drnn_targets(self, batch):
        # the label on the decoding basis's head, no loss on the other
        model = build_model(drnn_spec(), seed=2)
        for basis, head in (("Z", 0), ("X", 1)):
            y = NnDecoder(model, basis=basis).targets(batch.m_L)
            assert y.shape == (len(batch), 2)
            assert np.array_equal(y[:, head], batch.m_L.astype(float))
            assert np.all(y[:, 1 - head] == MASKED)
        y = NnDecoder(build_model(srnn_spec("X"), seed=3),
                      basis="X").targets(batch.m_L)
        assert np.array_equal(y, batch.m_L.astype(float)[:, None])

    def test_grid(self, batch):
        # dnn2 scores land on their volume channels, zeros elsewhere;
        # recurrent scores are the grid already
        dec = NnDecoder(build_model(dnn2_spec(), seed=1), basis="Z")
        scores = np.arange(len(batch) * 12, dtype=float).reshape(-1, 12)
        full = dec.grid(scores)
        chans = list(DNN2_CHANNELS["Z"])
        assert full.shape == (len(batch), 2, 12)
        assert np.array_equal(full[:, :, chans], scores.reshape(-1, 2, 6))
        others = [c for c in range(12) if c not in chans]
        assert not full[:, :, others].any()
        rnn = NnDecoder(build_model(srnn_spec("Z"), seed=3), basis="Z")
        grid = np.ones((3, 4, 12))
        assert rnn.grid(grid) is grid

    @pytest.mark.parametrize("spec_id, t", [("srnn-z", 3), ("dnn2", 2)])
    def test_attributions_of_no_volumes(self, spec_id, t):
        dec = NnDecoder(build_model(spec_by_id(spec_id), seed=0), basis="Z")
        bg = (np.random.default_rng(4).random((6, t, 12)) < 0.2)
        phi, phi0 = dec.attributions(np.zeros((0, t), np.uint16),
                                     pack_rounds(bg))
        assert phi.shape == (0, t, 12) and phi0.shape == (0,)

    def test_predict_matches_forward(self, batch):
        model = build_model(dnn2_spec(), seed=1)
        dec = NnDecoder(model, basis="Z")
        x = batch.volumes[:, :, list(DNN2_CHANNELS["Z"])].reshape(-1, 12)
        q = model.forward(x.astype(float))[:, 0]
        assert np.array_equal(dec.predict_flips_batch(batch),
                              (q > 0.5).astype(np.uint8))

    def test_drnn_head_selection(self, batch):
        model = build_model(drnn_spec(), seed=2)
        z = NnDecoder(model, basis="Z")
        x = NnDecoder(model, basis="X")
        assert (z.head, x.head) == (0, 1)
        q = model.forward(batch.volumes.astype(float))
        assert np.array_equal(z.predict_flips_batch(batch),
                              (q[:, 0] > 0.5).astype(np.uint8))
        assert np.array_equal(x.predict_flips_batch(batch),
                              (q[:, 1] > 0.5).astype(np.uint8))

    def test_unpadded_rounds_match_padded_forward(self):
        # a batch has one round count, so the recurrent decoder runs it
        # unpadded; its outputs equal the width-8 padded forward bit for
        # bit
        model = perturbed_model("srnn-z")
        dec = NnDecoder(model, basis="Z")
        for t in range(1, 8):
            vols = sample_memory_batch(steane_code(), NoiseModel(0.02),
                                       T=t, basis="Z", shots=30,
                                       seed=t).volumes
            padded = model.forward(dec.inputs(vols, t_max=8))
            assert np.array_equal(model.forward(dec.inputs(vols)), padded)
            assert np.array_equal(dec.predict_flips(vols),
                                  (padded[:, 0] > 0.5).astype(np.uint8))

    def test_srnn_single_head(self, batch):
        model = build_model(srnn_spec("Z"), seed=3)
        dec = NnDecoder(model, basis="Z")
        flips = dec.predict_flips_batch(batch)
        assert flips.shape == (len(batch),)


class TestDistinctVolumeDecoding:
    """`predict_flips` runs a dense network once per distinct volume, and
    a recurrent one once per distinct round prefix."""

    @staticmethod
    def volumes(basis, p_ph, t):
        return sample_memory_batch(steane_code(), NoiseModel(p_ph), T=t,
                                   basis=basis, shots=600, seed=7).volumes

    @staticmethod
    def rounds(spec_id):
        return (2,) if spec_id == "dnn2" else (1, 5)

    @pytest.mark.parametrize("p_ph", [0.0, 1e-3, 5e-2])
    @pytest.mark.parametrize("spec_id, basis", NETWORKS)
    def test_matches_full_batch_forward(self, spec_id, basis, p_ph):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        for t in self.rounds(spec_id):
            vols = self.volumes(basis, p_ph, t)
            q = dec.model.forward(dec.inputs(vols))[:, dec.head]
            flips = dec.predict_flips(vols)
            assert flips.dtype == np.uint8
            assert np.array_equal(flips, (q > 0.5).astype(np.uint8))

    @pytest.mark.parametrize("p_ph", [0.0, 1e-3, 5e-2])
    @pytest.mark.parametrize("spec_id, basis", NETWORKS)
    def test_forward_sees_distinct_volumes_only(self, spec_id, basis, p_ph,
                                                monkeypatch):
        # the first Dense layer (a dense network's first layer, a
        # recurrent network's head) sees each distinct volume once; a
        # recurrent network's LSTM rounds see each distinct prefix once
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        dense = next(layer for layer in dec.model.layers
                     if isinstance(layer, Dense))
        rows = call_rows(dense, "forward", monkeypatch)
        recurrent = dec.channels is None
        if recurrent:
            rounds = call_rows(dec.model.layers[1], "_round", monkeypatch)
        for t in self.rounds(spec_id):
            vols = self.volumes(basis, p_ph, t)
            read = vols if dec.channels is None \
                else vols[:, :, dec.channels]
            distinct = len(np.unique(read.reshape(len(vols), -1), axis=0))
            rows.clear()
            dec.predict_flips(vols)
            # a lone distinct volume runs beside a copy of itself
            assert sum(rows) == (distinct if distinct > 1 else 2)
            if recurrent:
                prefixes = [len(np.unique(vols[:, :d].reshape(len(vols), -1),
                                          axis=0)) for d in range(1, t + 1)]
                # 600 volumes make one trie chunk
                assert sum(rounds) == sum(p if p > 1 else 2
                                          for p in prefixes)
                rounds.clear()
            if p_ph == 0.0:
                assert distinct == 1

    @pytest.mark.parametrize("spec_id, basis", NETWORKS)
    def test_permuted_volumes_permute_flips(self, spec_id, basis):
        dec = NnDecoder(perturbed_model(spec_id), basis=basis)
        order = np.random.default_rng(1).permutation(600)
        for t in self.rounds(spec_id):
            vols = self.volumes(basis, 5e-2, t)
            assert np.array_equal(dec.predict_flips(vols[order]),
                                  dec.predict_flips(vols)[order])

    def test_dnn2_unread_channels_share_a_row(self, monkeypatch):
        dec = NnDecoder(perturbed_model("dnn2"), basis="Z")
        rows = forward_rows(dec.model, monkeypatch)
        rng = np.random.default_rng(2)
        base = (rng.random((3, 2, 12)) < 0.5).astype(np.uint8)
        vols = base[rng.integers(0, 3, 90)]
        vols[0:3] = base  # each base volume occurs
        others = [c for c in range(12) if c not in DNN2_CHANNELS["Z"]]
        vols[:, :, others] = rng.integers(0, 2, (90, 2, len(others)))
        assert len(np.unique(vols.reshape(90, -1), axis=0)) > 3
        flips = dec.predict_flips(vols)
        assert rows == [3]
        q = dec.model.forward(dec.inputs(vols))[:, 0]
        assert np.array_equal(flips, (q > 0.5).astype(np.uint8))

    @pytest.mark.parametrize("spec_id, basis", NETWORKS)
    def test_empty_batch(self, spec_id, basis):
        dec = NnDecoder(build_model(spec_by_id(spec_id), seed=0),
                        basis=basis)
        for t in self.rounds(spec_id):
            flips = dec.predict_flips(np.zeros((0, t, 12), np.uint8))
            assert flips.shape == (0,) and flips.dtype == np.uint8
        if spec_id == "dnn2":
            assert dec.inputs(np.zeros((0, 2, 12))).shape == (0, 12)


class TestCli:
    @pytest.fixture()
    def cfg_path(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "seed: 5\n"
            f"out: {tmp_path / 'run'}\n"
            "decoder: dnn2\n"
            "p_ph: 0.005\n"
            "pph_sweep: [0.005]\n"
            "rounds: 2\n"
            "shots: {train: 3000, val: 400, test: 200}\n"
            "train: {epochs: 2, batch_size: 64, lr: 0.001}\n"
            "eval: {shots_per_point: 500}\n"
            "explain: {background: 50, samples: 100}\n")
        return str(cfg)

    def run(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_full_dnn2_pipeline(self, cfg_path, tmp_path, monkeypatch):
        out = tmp_path / "run"
        r = self.run("gen-data", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        assert (out / "data" / "train_z_t2.sds").exists()
        r = self.run("train", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        assert (out / "checkpoints" / "dnn2" / "epoch_0001.ckpt").exists()
        r = self.run("eval", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        payload = json.loads((out / "eval_dnn2.json").read_text())
        assert payload["rows"][0]["p_ph"] == 0.005
        r = self.run("explain", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        lines = (out / "attributions_dnn2.txt").read_text().splitlines()
        assert len(lines) == 101
        # index, T, basis, phi0, the (2, 12) grid, the volume bits
        assert len(lines[1].split()) == 4 + 24 + 1
        phi = np.load(out / "attributions_dnn2.npy")
        assert phi.shape == (100, 2, 12)
        others = [c for c in range(12) if c not in DNN2_CHANNELS["Z"]]
        assert not phi[:, :, others].any()
        closing = re.compile(r"attributed (\d+) distinct pairs in "
                             r"\d+\.\d\d s \(\d+ pairs/s\)$")
        pairs = int(closing.match(r.output.splitlines()[-2]).group(1))
        self.check_explain_progress(out, phi, pairs, monkeypatch, cfg_path)
        r = self.run("report", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        assert "dnn2" in r.output

    def check_explain_progress(self, out, phi, pairs, monkeypatch,
                               cfg_path):
        # one-input tiles and no wait between progress lines: a line per
        # tile but the last, then the closing line, and the same scores
        distinct = []
        real = decoders.deepshap_batch

        def one_input_tiles(model, xs, background, **kwargs):
            distinct.extend(len(np.unique(a, axis=0))
                            for a in (xs, background))
            return real(model, xs, background, **{**kwargs, "max_rows": 1})

        monkeypatch.setattr(cli, "PROGRESS_EVERY_S", 0.0)
        monkeypatch.setattr(decoders, "deepshap_batch", one_input_tiles)
        r = self.run("explain", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        n, nb = distinct
        assert pairs == n * nb and n > 2
        lines = r.output.splitlines()
        assert lines[-2].startswith(f"attributed {pairs} distinct pairs in ")
        step = [line.split() for line in lines[:-2]]
        assert [f[1] for f in step] == [f"{k * nb}/{pairs}"
                                        for k in range(1, n)]
        assert all(f[2:4] == ["distinct", "pairs,"] and f[5] == "s"
                   for f in step)
        assert np.max(np.abs(np.load(out / "attributions_dnn2.npy") - phi)) \
            <= 1e-13

    def test_train_echoes_each_epoch_as_it_ends(self, cfg_path,
                                                 monkeypatch):
        r = self.run("gen-data", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        # steanedec.nn re-exports train(), which shadows the module name
        train_mod = importlib.import_module("steanedec.nn.train")
        real_save = train_mod.save_checkpoint

        def save_then_crash(path, ckpt):
            if ckpt.epoch == 1:
                raise RuntimeError("crash in epoch 1")
            real_save(path, ckpt)

        monkeypatch.setattr(train_mod, "save_checkpoint", save_then_crash)
        r = self.run("train", "--config", cfg_path)
        assert isinstance(r.exception, RuntimeError)
        assert "epoch    0 loss " in r.output
        assert "epoch    1" not in r.output

    def test_resume_after_crash_matches_uninterrupted(self, tmp_path,
                                                      monkeypatch):
        # a run that crashes as epoch 1 of 3 ends and is then resumed
        # leaves the same checkpoints and history, byte for byte, as a run
        # that never stopped (same relative out, so the same config hash)
        real_train = cli.train

        def crash_after_epoch_1(*args, stop_fn, **kwargs):
            def stop(rec):
                stop_fn(rec)
                if rec["epoch"] == 1:
                    raise RuntimeError("crash as epoch 1 ends")
                return False
            return real_train(*args, stop_fn=stop, **kwargs)

        files = {}
        for name in ("straight", "resumed"):
            d = tmp_path / name
            d.mkdir()
            (d / "cfg.yaml").write_text(
                "seed: 3\nout: run\ndecoder: dnn2\nrounds: 2\n"
                "shots: {train: 1200, val: 100, test: 100}\n"
                "train: {epochs: 3, batch_size: 64, lr: 0.001}\n")
            monkeypatch.chdir(d)
            assert self.run("gen-data", "--config", "cfg.yaml").exit_code == 0
            if name == "resumed":
                with monkeypatch.context() as m:
                    m.setattr(cli, "train", crash_after_epoch_1)
                    r = self.run("train", "--config", "cfg.yaml")
                assert isinstance(r.exception, RuntimeError)
                assert sorted(os.listdir(d / "run" / "checkpoints" / "dnn2")) \
                    == ["epoch_0000.ckpt", "epoch_0001.ckpt"]
                r = self.run("train", "--config", "cfg.yaml", "--resume")
                assert "resuming after epoch 1" in r.output
                assert "epoch    1" not in r.output
                assert "epoch    2 loss " in r.output
            else:  # with no checkpoint yet, --resume starts at epoch 0
                r = self.run("train", "--config", "cfg.yaml", "--resume")
            assert r.exit_code == 0, r.output
            files[name] = {str(p.relative_to(d)): p.read_bytes()
                           for p in (d / "run").rglob("*")
                           if p.suffix in (".ckpt", ".json")}
        assert len(files["straight"]) == 4  # three checkpoints, one history
        assert files["resumed"] == files["straight"]

    def test_checkpoint_write_cut_short_resumes_like_uninterrupted(
            self, tmp_path, monkeypatch):
        # the disk fills while epoch 1's checkpoint is half written: no
        # part of it is left, and the resumed run writes the same
        # checkpoints and history, byte for byte, as a run that never
        # stopped (same relative out, so the same config hash)
        real_open = builtins.open

        class FillingFile:
            """A file that takes 1,000 bytes, then fails mid-write."""

            def __init__(self, fh):
                self.fh, self.room = fh, 1000

            def write(self, data):
                self.fh.write(data[:self.room])
                if len(data) > self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.room -= len(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

        def filling_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "epoch_0001.ckpt" in str(file) and "w" in mode:
                return FillingFile(fh)
            return fh

        files = {}
        for name in ("straight", "resumed"):
            d = tmp_path / name
            d.mkdir()
            (d / "cfg.yaml").write_text(
                "seed: 3\nout: run\ndecoder: dnn2\nrounds: 2\n"
                "shots: {train: 1200, val: 100, test: 100}\n"
                "train: {epochs: 3, batch_size: 64, lr: 0.001}\n")
            monkeypatch.chdir(d)
            assert self.run("gen-data", "--config", "cfg.yaml").exit_code == 0
            if name == "resumed":
                with monkeypatch.context() as m:
                    m.setattr(builtins, "open", filling_open)
                    r = self.run("train", "--config", "cfg.yaml")
                assert isinstance(r.exception, OSError), r.output
                assert os.listdir(d / "run" / "checkpoints" / "dnn2") \
                    == ["epoch_0000.ckpt"]
                assert not list((d / "run").rglob("*.tmp"))
                r = self.run("train", "--config", "cfg.yaml", "--resume")
                assert "resuming after epoch 0" in r.output
            else:
                r = self.run("train", "--config", "cfg.yaml")
            assert r.exit_code == 0, r.output
            files[name] = {str(p.relative_to(d)): p.read_bytes()
                           for p in (d / "run").rglob("*")
                           if p.suffix in (".ckpt", ".json")}
        assert len(files["straight"]) == 4  # three checkpoints, one history
        assert files["resumed"] == files["straight"]

    def test_unreadable_dataset_exit_1(self, cfg_path, tmp_path):
        assert self.run("gen-data", "--config", cfg_path).exit_code == 0
        path = tmp_path / "run" / "data" / "val_z_t2.sds"
        path.write_bytes(path.read_bytes()[:-7])
        r = self.run("explain", "--config", cfg_path)
        assert r.exit_code == 1, r.output
        assert isinstance(r.exception, SystemExit)  # not a traceback
        assert f"error: cannot read dataset {path}: truncated dataset file" \
            in r.output

    def test_resume_rejects_foreign_checkpoint_exit_1(self, cfg_path,
                                                      tmp_path):
        assert self.run("gen-data", "--config", cfg_path).exit_code == 0
        weights = build_model(dnn2_spec(), seed=5).weights_flat()
        path = tmp_path / "run" / "checkpoints" / "dnn2" / "epoch_0000.ckpt"
        path.parent.mkdir(parents=True)
        save_checkpoint(str(path), Checkpoint(epoch=0, weights=weights,
                                              config_hash="other"))
        r = self.run("train", "--config", cfg_path, "--resume")
        assert r.exit_code == 1, r.output
        assert "config hash mismatch" in r.output

    def test_dep_lut_passes(self, cfg_path):
        r = self.run("dep", "--config", cfg_path, "--decoder", "lut")
        assert r.exit_code == 0, r.output
        assert "0/1128" in r.output

    def test_dep_untrained_net_fails_with_exit_3(self, cfg_path, tmp_path):
        r = self.run("gen-data", "--config", cfg_path)
        assert r.exit_code == 0
        # one tiny epoch on purpose: not FT yet
        r = self.run("train", "--config", cfg_path)
        assert r.exit_code == 0
        r = self.run("dep", "--config", cfg_path)
        assert r.exit_code == 3, r.output
        # the printed count is exact, the fraction its share of the set
        failed = int(re.search(r"basis Z: (\d+)/1128 faults failed",
                               r.output).group(1))
        report = json.loads((tmp_path / "run" / "dep_dnn2.json").read_text())
        assert failed > 0 and report["n_faults"] == 1128
        assert report["failure_fraction_Z"] == failed / 1128

    def test_interrupted_gen_data_leaves_no_partial_file(
            self, cfg_path, tmp_path, monkeypatch):
        assert self.run("gen-data", "--config", cfg_path).exit_code == 0
        data = tmp_path / "run" / "data"
        before = {p.name: p.read_bytes() for p in data.iterdir()}
        real = cli.sample_memory_blocks

        def fail_after_one_block(*args, **kwargs):
            blocks = real(*args, **{**kwargs, "block": 100})
            yield next(blocks)
            raise RuntimeError("interrupted")

        monkeypatch.setattr(cli, "sample_memory_blocks", fail_after_one_block)
        # over complete files of another seed, and into an empty directory
        for out in (tmp_path / "run", tmp_path / "fresh"):
            r = self.run("gen-data", "--config", cfg_path, "--seed", "6",
                         "--out", str(out))
            assert isinstance(r.exception, RuntimeError), r.output
        assert {p.name: p.read_bytes() for p in data.iterdir()} == before
        assert os.listdir(tmp_path / "fresh" / "data") == []

    def test_gen_data_memory_is_bounded_by_the_block(self, tmp_path):
        # one 200,000-shot T=8 dataset: its volumes alone would take
        # 200,000 x 8 x 12 B = 19.2 MB, and sampling and writing it whole
        # peaked at 85 MB; in blocks of dsmod.BLOCK_SHOTS it peaks at 3.6 MB
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out: {tmp_path / 'run'}\ndecoder: lut\nrounds: 8\n"
                       "shots: {train: 200000, val: 1, test: 1}\n")
        sample_memory_batch(steane_code(), NoiseModel(5e-3), 8, "Z", 1, 0)
        tracemalloc.start()
        try:
            r = self.run("gen-data", "--config", str(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.exit_code == 0, r.output
        assert len(dsmod.read_dataset(tmp_path / "run" / "data"
                                      / "train_z_t8.sds")) == 200_000
        assert peak < 8e6

    def test_train_memory_is_bounded_by_the_int8_inputs(self, tmp_path):
        # the dnn2-monitor benchmark's train split (dnn2, T=2, 20,000
        # shots) and one epoch: stacked as float64 inputs it peaked at
        # 7.9 MB; as int8, converted one minibatch at a time, the bound
        # is 3 MB
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"out: {tmp_path / 'run'}\ndecoder: dnn2\nrounds: 2\n"
                       "shots: {train: 20000, val: 1, test: 1}\n"
                       "train: {epochs: 1, batch_size: 64, lr: 0.001}\n")
        assert self.run("gen-data", "--config", str(cfg)).exit_code == 0
        tracemalloc.start()
        try:
            r = self.run("train", "--config", str(cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.exit_code == 0, r.output
        assert (tmp_path / "run" / "checkpoints" / "dnn2"
                / "epoch_0000.ckpt").exists()
        assert peak < 3e6

    def training_arrays(self, tmp_path, decoder, rounds, shots):
        """(cfg, model, x, y, tracemalloc peak) of `cli._training_arrays`
        on a fresh gen-data run."""
        path = tmp_path / "cfg.yaml"
        path.write_text(f"out: {tmp_path / 'run'}\ndecoder: {decoder}\n"
                        f"rounds: {rounds}\n"
                        f"shots: {{train: {shots}, val: 16, test: 16}}\n")
        assert self.run("gen-data", "--config", str(path)).exit_code == 0
        cfg = load_config(str(path), {})
        model = build_model(spec_by_id(decoder), seed=0)
        tracemalloc.start()
        try:
            x, y = cli._training_arrays(cfg, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return cfg, model, x, y, peak

    @pytest.mark.parametrize("decoder, rounds", [("srnn-z", 4), ("drnn", 3),
                                                 ("dnn2", 2)])
    def test_training_arrays_equal_the_concatenation(self, tmp_path, decoder,
                                                     rounds):
        cfg, model, x, y, _ = self.training_arrays(tmp_path, decoder, rounds,
                                                   1200)
        xs, ys = [], []
        for basis in cli.decoder_bases(decoder):
            dec = NnDecoder(model, basis)
            for t in cli.dataset_rounds(cfg):
                ds = cli.require_dataset(cfg, "train", basis, t)
                xs.append(dec.layout(ds.codes, t_max=rounds))
                ys.append(dec.targets(ds.m_L))
        assert x.dtype == np.int8
        assert np.array_equal(x, np.concatenate(xs))
        assert np.array_equal(y, np.concatenate(ys))

    def test_training_arrays_hold_one_dataset_beside_the_result(self,
                                                                tmp_path):
        # srnn-z at rounds: 8 and 40,000 train shots, 5,000 a dataset:
        # the result plus one dataset, under 1.5 times the result, where
        # stacking the parts with np.concatenate held about twice it
        *_, x, y, peak = self.training_arrays(tmp_path, "srnn-z", 8, 40_000)
        assert len(x) == 40_000
        assert peak < 1.5 * (x.nbytes + y.nbytes)

    def test_train_rejects_a_dataset_of_another_size(self, tmp_path):
        cfg, *_ = self.training_arrays(tmp_path, "dnn2", 2, 300)
        path = cli.dataset_path(cfg, "train", "Z", 2)
        ds = dsmod.read_dataset(path)
        ds.codes, ds.m_in, ds.m_out = ds.codes[1:], ds.m_in[1:], \
            ds.m_out[1:]
        dsmod.write_dataset(path, header(ds), [ds])
        r = self.run("train", "--config", str(tmp_path / "cfg.yaml"))
        assert r.exit_code == 1
        assert "holds 299 shots, not the 300" in r.output

    def test_invalid_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("decoder: nosuch\n")
        r = self.run("eval", "--config", str(bad))
        assert r.exit_code == 1

    def test_exponent_notation_rates(self, cfg_path, tmp_path):
        # YAML 1.1 loads 5e-3 and 1e-3 as strings; both must still work
        # and hash like the decimal spelling
        text = open(cfg_path).read()
        exp = tmp_path / "exp.yaml"
        exp.write_text(text.replace("p_ph: 0.005", "p_ph: 5e-3")
                       .replace("lr: 0.001", "lr: 1e-3"))
        cfg = load_config(str(exp), {})
        assert (cfg["p_ph"], cfg["train"]["lr"]) == (0.005, 0.001)
        assert cfg["hash"] == load_config(cfg_path, {})["hash"]
        for stage in ("gen-data", "train"):
            r = self.run(stage, "--config", str(exp))
            assert r.exit_code == 0, (stage, r.output)

    @pytest.mark.parametrize("line", [
        "p_ph: often\n", "p_ph: 2.0\n", "train: {lr: fast}\n",
        "train: {lr: 0}\n", "train: {lr: -1.0e-3}\n", "train: {lr: .nan}\n",
        "train: {lr: .inf}\n", "train: {lr: true}\n", "p_ph: false\n",
        "pph_sweep: [false, 0.001]\n", "pph_sweep: '0'\n",
        "pph_sweep: {0.001: 1}\n"])
    def test_bad_rate_exit_1(self, tmp_path, line):
        bad = tmp_path / "bad.yaml"
        bad.write_text(line)
        r = self.run("gen-data", "--config", str(bad))
        assert r.exit_code == 1, r.output

    @pytest.mark.parametrize("sweep", ["[0.005, 0.005]",
                                       "[0.001, 5e-3, 0.005]"])
    def test_repeated_sweep_rate_exit_1(self, tmp_path, sweep):
        # eval would fit b through two points at one rate, while the
        # monitor keys p_L by rate and reports NaN
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"pph_sweep: {sweep}\n")
        r = self.run("eval", "--config", str(bad), "--decoder", "lut")
        assert r.exit_code == 1, r.output
        assert "pph_sweep rates must not repeat" in r.output

    @pytest.mark.parametrize("value", [0, -5, 2.5])
    @pytest.mark.parametrize("field", [
        "shots.train", "shots.val", "shots.test", "train.epochs",
        "train.batch_size", "eval.shots_per_point", "explain.background",
        "explain.samples"])
    def test_non_positive_size_exit_1(self, tmp_path, field, value):
        section, key = field.split(".")
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"{section}: {{{key}: {value}}}\n")
        r = self.run("gen-data", "--config", str(bad))
        assert r.exit_code == 1, r.output
        assert field in r.output

    @pytest.mark.parametrize("field,value", [
        (f, "true") for f in (
            "rounds", "seed", "shots.train", "shots.val", "shots.test",
            "train.epochs", "train.batch_size", "eval.shots_per_point",
            "explain.background", "explain.samples")] + [("seed", "false")])
    def test_boolean_integer_exit_1(self, tmp_path, field, value):
        # YAML booleans load as bool, an int subclass; false is also a
        # valid-looking seed 0
        section, _, key = field.rpartition(".")
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"{section}: {{{key}: {value}}}\n" if section
                       else f"decoder: lut\n{key}: {value}\n")
        r = self.run("dep", "--config", str(bad))
        assert r.exit_code == 1, r.output
        assert field in r.output

    def test_empty_sweep_exit_1(self, cfg_path, tmp_path):
        empty = tmp_path / "empty.yaml"
        empty.write_text(open(cfg_path).read()
                         .replace("pph_sweep: [0.005]", "pph_sweep: []"))
        r = self.run("eval", "--config", str(empty), "--decoder", "lut")
        assert r.exit_code == 1, r.output
        assert "pph_sweep" in r.output
        assert not (tmp_path / "run" / "eval_lut.json").exists()

    @pytest.mark.parametrize("stage", ["eval", "monitor"])
    def test_checkpoint_dir_without_checkpoints_exit_2(self, cfg_path,
                                                       tmp_path, stage):
        stray = tmp_path / "run" / "checkpoints" / "dnn2" / "notes.txt"
        stray.parent.mkdir(parents=True)
        stray.write_text("not a checkpoint\n")
        r = self.run(stage, "--config", cfg_path)
        assert r.exit_code == 2, r.output
        assert "no checkpoints" in r.output

    @pytest.mark.parametrize("damage", ["renamed_tensor", "truncated"])
    def test_unloadable_checkpoint_exit_1(self, cfg_path, tmp_path, damage):
        # right config hash, but a tensor the network does not have, or a
        # file cut short
        cfg = load_config(cfg_path, {})
        weights = build_model(dnn2_spec(), seed=cfg["seed"]).weights_flat()
        if damage == "renamed_tensor":
            weights["0.W_old"] = weights.pop("0.W")
        path = tmp_path / "run" / "checkpoints" / "dnn2" / "epoch_0000.ckpt"
        path.parent.mkdir(parents=True)
        save_checkpoint(str(path), Checkpoint(epoch=0, weights=weights,
                                              config_hash=cfg["hash"]))
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        r = self.run("eval", "--config", cfg_path)
        assert r.exit_code == 1, r.output
        assert isinstance(r.exception, SystemExit)  # not a traceback
        assert str(path) in r.output

    def test_zero_shots_flag_exit_1(self, cfg_path):
        r = self.run("gen-data", "--config", cfg_path, "--shots", "0")
        assert r.exit_code == 1, r.output
        assert "shots.train" in r.output

    def test_shots_flag_hashes_like_config_file(self, cfg_path, tmp_path):
        text = open(cfg_path).read()
        edited = tmp_path / "edited.yaml"
        edited.write_text(text.replace("train: 3000", "train: 1234"))
        from_file = load_config(str(edited), {})
        from_flag = build_cfg(cfg_path, seed=None, out=None, decoder=None,
                              shots=1234, pph=None, rounds=None)
        assert from_flag["shots"] == from_file["shots"]
        assert from_flag["hash"] == from_file["hash"]
        assert from_flag["hash"] != load_config(cfg_path, {})["hash"]

    def test_dnn2_other_rounds_exit_1(self, cfg_path):
        r = self.run("gen-data", "--config", cfg_path, "--rounds", "3")
        assert r.exit_code == 1
        assert "dnn2" in r.output

    def test_recurrent_pipeline_at_two_rounds(self, cfg_path, tmp_path):
        # eval and monitor score rounds 1..3, past the training width
        args = ["--config", cfg_path, "--decoder", "srnn-z"]
        for stage in ("gen-data", "train", "eval", "monitor"):
            r = self.run(stage, *args)
            assert r.exit_code == 0, (stage, r.output)
        payload = json.loads((tmp_path / "run" / "eval_srnn-z.json")
                             .read_text())
        assert len(payload["rows"][0]["infidelity"]) == 3
        assert (tmp_path / "run" / "monitor_srnn-z.txt").exists()
        # one progress line per checkpoint as it loads, in epoch order,
        # before the table is written
        lines = r.output.splitlines()
        at = [i for i, line in enumerate(lines)
              if line.startswith("checkpoint ")]
        fields = [lines[i].split() for i in at]
        assert [f[1] for f in fields] == ["1/2", "2/2"]
        assert [os.path.basename(f[2]) for f in fields] == \
            ["epoch_0000.ckpt", "epoch_0001.ckpt"]
        assert all(f[4] == "s" and float(f[3]) >= 0 for f in fields)
        assert at[-1] < lines.index(f"wrote {tmp_path / 'run'}"
                                    "/monitor_srnn-z.txt")
        # the FT contract is a result, echoed and recorded, exit 0 either
        # way
        monitor = json.loads((tmp_path / "run" / "monitor_srnn-z.json")
                             .read_text())
        verdict = monitor["contract"]["verdict"]
        assert verdict in ("HELD", "FAILED")
        assert f"contract {verdict}" in r.output.splitlines()

    def test_lut_eval_omits_b_unless_every_rate_is_positive(
            self, cfg_path, tmp_path):
        # no shot fails at p_ph = 0, so the sweep has no exponent; the
        # two positive points alone do not make one
        sweep = tmp_path / "sweep.yaml"
        sweep.write_text(open(cfg_path).read().replace(
            "pph_sweep: [0.005]", "pph_sweep: [0, 0.01, 0.02]"))
        for stage in ("eval", "report"):
            r = self.run(stage, "--config", str(sweep), "--decoder", "lut")
            assert r.exit_code == 0, r.output
        payload = json.loads((tmp_path / "run" / "eval_lut.json")
                             .read_text())
        assert [row["p_l"] > 0 for row in payload["rows"]
                if row["basis"] == "Z"] == [False, True, True]
        assert not any(k.startswith("scaling_b_") for k in payload)
        assert r.output.splitlines()[1] == "lut Z 0 0 nan"

    @pytest.mark.parametrize("stage", ["train", "explain", "monitor"])
    def test_lut_has_no_network_exit_1(self, cfg_path, stage):
        r = self.run(stage, "--config", cfg_path, "--decoder", "lut")
        assert r.exit_code == 1, r.output
        assert "has no network" in r.output

    def test_negative_seed_exit_1(self, cfg_path):
        r = self.run("gen-data", "--config", cfg_path, "--seed", "-1")
        assert r.exit_code == 1, r.output

    def test_missing_artifact_exit_2(self, cfg_path):
        r = self.run("train", "--config", cfg_path)
        assert r.exit_code == 2

    def test_eval_missing_checkpoint_exit_2(self, cfg_path):
        r = self.run("eval", "--config", cfg_path)
        assert r.exit_code == 2

    def test_config_hash_mismatch_exit_1(self, cfg_path, tmp_path):
        r = self.run("gen-data", "--config", cfg_path)
        assert r.exit_code == 0
        # different seed changes the config hash for the same files
        r = self.run("train", "--config", cfg_path, "--seed", "6")
        assert r.exit_code == 1

