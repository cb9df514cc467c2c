"""Dataset file format, the network decoder wrapper, and the CLI."""

import importlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from steanedec import dataset as dsmod
from steanedec.cli import build_cfg, dataset_plan, load_config, main
from steanedec.decoders import DNN2_CHANNELS, NnDecoder, dnn2_inputs, \
    rnn_inputs
from steanedec.nn import (Checkpoint, build_model, dnn2_spec, drnn_spec,
                          save_checkpoint, srnn_spec)
from steanedec.sim import NoiseModel, sample_memory_batch
from steanedec.steane import steane_code


@pytest.fixture(scope="module")
def batch():
    return sample_memory_batch(steane_code(), NoiseModel(5e-3), T=2,
                               basis="Z", shots=400, seed=11)


class TestDatasetFormat:
    def test_round_trip(self, batch, tmp_path):
        ds = dsmod.from_batch(batch, 5e-3, "hash123")
        path = tmp_path / "d.sds"
        dsmod.write_dataset(path, ds)
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
        ds = dsmod.from_batch(batch, 5e-3)
        path = tmp_path / "d.sds"
        dsmod.write_dataset(path, ds)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0b100  # corrupt an m_L bit
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            dsmod.read_dataset(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "x.sds"
        path.write_bytes(b"junk")
        with pytest.raises(ValueError):
            dsmod.read_dataset(path)

    def test_text_export(self, batch, tmp_path):
        ds = dsmod.from_batch(batch, 5e-3)
        path = tmp_path / "d.txt"
        dsmod.export_text(path, ds)
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
        ds = dsmod.from_batch(batch, 0.02, "cfghash")
        dsmod.export_text(tmp_path / "fast.txt", ds)
        line_writer_export(tmp_path / "ref.txt", ds)
        assert (tmp_path / "fast.txt").read_bytes() == \
            (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("T", [1, 8])
    def test_records_match_arithmetic_packing(self, tmp_path, T):
        batch = sample_memory_batch(steane_code(), NoiseModel(0.02), T=T,
                                    basis="X", shots=500, seed=T)
        ds = dsmod.from_batch(batch, 0.02, "cfghash")
        path = tmp_path / "d.sds"
        dsmod.write_dataset(path, ds)
        raw = path.read_bytes()
        records = arithmetic_records(ds)
        # the header: 45 bytes of fixed fields, the code id and the hash
        assert len(raw) == 45 + len(ds.code_id) + len("cfghash") \
            + len(records)
        assert raw.endswith(records)
        assert np.array_equal(dsmod.read_dataset(path).volumes, ds.volumes)


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


class TestDecoderWrapper:
    def test_dnn2_input_channels(self, batch):
        x = dnn2_inputs(batch.volumes, "Z")
        assert x.shape == (len(batch), 12)
        chans = list(DNN2_CHANNELS["Z"])
        assert np.array_equal(
            x.reshape(len(batch), 2, 6),
            batch.volumes[:, :, chans].astype(float))

    def test_rnn_padding(self, batch):
        x = rnn_inputs(batch.volumes, t_max=5)
        assert x.shape == (len(batch), 5, 12)
        assert np.all(x[:, 2:, :] == -1.0)
        assert np.array_equal(x[:, :2, :], batch.volumes.astype(float))

    def test_predict_matches_forward(self, batch):
        model = build_model(dnn2_spec(), seed=1)
        dec = NnDecoder(model, basis="Z")
        q = model.forward(dnn2_inputs(batch.volumes, "Z"))[:, 0]
        assert np.array_equal(dec.predict_flips_batch(batch),
                              (q > 0.5).astype(np.uint8))

    def test_drnn_head_selection(self, batch):
        model = build_model(drnn_spec(), seed=2)
        z = NnDecoder(model, basis="Z")
        x = NnDecoder(model, basis="X")
        assert (z.head, x.head) == (0, 1)
        q = model.forward(rnn_inputs(batch.volumes, 2))
        assert np.array_equal(z.predict_flips_batch(batch),
                              (q[:, 0] > 0.5).astype(np.uint8))
        assert np.array_equal(x.predict_flips_batch(batch),
                              (q[:, 1] > 0.5).astype(np.uint8))

    def test_unpadded_rounds_match_padded_forward(self):
        # a batch has one round count, so the recurrent decoder runs it
        # unpadded; its outputs equal the width-8 padded forward bit for
        # bit (trained-looking weights: the init ones, perturbed)
        model = build_model(srnn_spec("Z"), seed=3)
        rng = np.random.default_rng(5)
        for w in model.weights_flat().values():
            w += rng.normal(0.0, 0.3, w.shape)
        dec = NnDecoder(model, basis="Z")
        for t in range(1, 8):
            vols = sample_memory_batch(steane_code(), NoiseModel(0.02),
                                       T=t, basis="Z", shots=30,
                                       seed=t).volumes
            padded = model.forward(rnn_inputs(vols, t_max=8))
            assert np.array_equal(model.forward(dec.inputs(vols)), padded)
            assert np.array_equal(dec.predict_flips(vols),
                                  (padded[:, 0] > 0.5).astype(np.uint8))

    def test_srnn_single_head(self, batch):
        model = build_model(srnn_spec("Z"), seed=3)
        dec = NnDecoder(model, basis="Z")
        flips = dec.predict_flips_batch(batch)
        assert flips.shape == (len(batch),)


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

    def test_full_dnn2_pipeline(self, cfg_path, tmp_path):
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
        r = self.run("report", "--config", cfg_path)
        assert r.exit_code == 0, r.output
        assert "dnn2" in r.output

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

    def test_dep_lut_passes(self, cfg_path):
        r = self.run("dep", "--config", cfg_path, "--decoder", "lut")
        assert r.exit_code == 0, r.output
        assert "0/1128" in r.output

    def test_dep_untrained_net_fails_with_exit_3(self, cfg_path):
        r = self.run("gen-data", "--config", cfg_path)
        assert r.exit_code == 0
        # one tiny epoch on purpose: not FT yet
        r = self.run("train", "--config", cfg_path)
        assert r.exit_code == 0
        r = self.run("dep", "--config", cfg_path)
        assert r.exit_code == 3, r.output

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
        # the FT contract is a result, echoed and recorded, exit 0 either
        # way
        monitor = json.loads((tmp_path / "run" / "monitor_srnn-z.json")
                             .read_text())
        verdict = monitor["contract"]["verdict"]
        assert verdict in ("HELD", "FAILED")
        assert f"contract {verdict}" in r.output.splitlines()

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

