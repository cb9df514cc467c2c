"""Command-line pipeline: dataset generation, training, evaluation,
explanation, fault-injection certification, and training monitoring.

All subcommands read one YAML config; selected fields can be overridden
by flags. Every artifact embeds a hash of the effective config and
downstream stages refuse artifacts whose hash disagrees.

Exit codes: 0 success, 1 invalid config, 2 missing artifact, 3 DEP
certification failure.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np
import yaml

from . import dataset as dsmod
from .analysis import (fit_scaling, ft_contract, ft_monitor,
                       logical_error_rate)
from .circuits import enumerate_single_faults
from .decoders import DNN2_CHANNELS, NnDecoder, dnn2_inputs, rnn_inputs
from .nn import (TrainConfig, build_model, config_hash, load_checkpoint,
                 train)
from .nn.model import spec_by_id
from .seqlut import SeqLutDecoder
from .sim import NoiseModel, dep_failure_fraction, sample_memory_batch
from .steane import steane_code
from .xai import deepshap_batch

DEFAULTS = {
    "seed": 0,
    "out": "runs/default",
    "decoder": "lut",
    "p_ph": 5e-3,
    "pph_sweep": [1e-3, 2e-3, 5e-3],
    "rounds": 2,
    "shots": {"train": 100_000, "val": 14_000, "test": 10_000},
    "train": {"epochs": 30, "batch_size": 64, "lr": 1e-3},
    "eval": {"shots_per_point": 20_000},
    "explain": {"background": 1000, "samples": 14_000},
}

VALID_DECODERS = ("lut", "srnn-x", "srnn-z", "drnn", "dnn2")


def fail(code: int, msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(code)


# sizes that must be positive integers, by config section
POSITIVE_SIZES = {
    "shots": ("train", "val", "test"),
    "train": ("epochs", "batch_size"),
    "eval": ("shots_per_point",),
    "explain": ("background", "samples"),
}


def _is_int(v) -> bool:
    # YAML's true/false load as bool, which is an int subclass
    return isinstance(v, int) and not isinstance(v, bool)


def _rate(v, name: str) -> float:
    """``v`` as a float. A numeric string is read as a number, since YAML
    1.1 reads exponent floats without a dot (5e-3) as strings; anything
    else exits 1, YAML's true/false included (float() reads them as 1 and
    0)."""
    if not isinstance(v, bool):
        try:
            return float(v)
        except (TypeError, ValueError):
            pass
    fail(1, f"{name} must be a number, got {v!r}")


def _merge(cfg, updates):
    """Apply ``updates`` to ``cfg``; a mapping updates a section key by
    key."""
    for k, v in updates.items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = v


def load_config(path, overrides) -> dict:
    """Defaults, then the YAML file at ``path``, then the non-None
    ``overrides``; validated, with the hash of the result in ``hash``."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in DEFAULTS.items()}
    if path is not None:
        try:
            with open(path) as fh:
                user = yaml.safe_load(fh) or {}
        except FileNotFoundError:
            fail(1, f"config file not found: {path}")
        except yaml.YAMLError as exc:
            fail(1, f"config parse error: {exc}")
        if not isinstance(user, dict):
            fail(1, "config must be a mapping")
        _merge(cfg, user)
    _merge(cfg, {k: v for k, v in overrides.items() if v is not None})
    if cfg["decoder"] not in VALID_DECODERS:
        fail(1, f"unknown decoder {cfg['decoder']!r}")
    if not _is_int(cfg["rounds"]) or cfg["rounds"] < 1:
        fail(1, "rounds must be a positive integer")
    if cfg["decoder"] == "dnn2" and cfg["rounds"] != 2:
        # dnn2_spec's input is 2 rounds x 6 channels
        fail(1, "decoder dnn2 is fixed at rounds: 2")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        # dataset stream keys are derived from it by SeedSequence
        fail(1, "seed must be a non-negative integer")
    for section, keys in POSITIVE_SIZES.items():
        if not isinstance(cfg[section], dict):
            fail(1, f"{section} must be a mapping")
        for key in keys:
            v = cfg[section].get(key)
            if not _is_int(v) or v < 1:
                fail(1, f"{section}.{key} must be a positive integer")
    if not isinstance(cfg["pph_sweep"], list):
        fail(1, "pph_sweep must be a list of error rates")
    cfg["pph_sweep"] = [_rate(p, "pph_sweep rate") for p in cfg["pph_sweep"]]
    if not cfg["pph_sweep"]:
        fail(1, "pph_sweep must name at least one error rate")
    if any(not 0 <= p < 1 for p in cfg["pph_sweep"]):
        fail(1, "pph_sweep rates must lie in [0, 1)")
    cfg["p_ph"] = _rate(cfg["p_ph"], "p_ph")
    if not 0 <= cfg["p_ph"] < 1:
        fail(1, "p_ph must lie in [0, 1)")
    cfg["train"]["lr"] = _rate(cfg["train"]["lr"], "train.lr")
    if not 0 < cfg["train"]["lr"] < np.inf:
        fail(1, "train.lr must be a positive finite number")
    cfg["hash"] = config_hash({k: v for k, v in sorted(cfg.items())
                               if k != "hash"})
    return cfg


def decoder_bases(decoder: str) -> list[str]:
    return {"lut": ["Z", "X"], "drnn": ["Z", "X"], "srnn-z": ["Z"],
            "srnn-x": ["X"], "dnn2": ["Z"]}[decoder]


def dataset_rounds(cfg) -> list[int]:
    if cfg["decoder"] in ("dnn2", "lut"):
        return [cfg["rounds"]]
    return list(range(1, cfg["rounds"] + 1))


def eval_rounds(cfg) -> list[int]:
    """Round counts ``eval`` and ``monitor`` score: the fixed-width dnn2
    only at its own width (p_L is its failure rate there), every other
    decoder over 1..max(rounds, 3) for the infidelity fit."""
    if cfg["decoder"] == "dnn2":
        return [cfg["rounds"]]
    return list(range(1, max(cfg["rounds"], 3) + 1))


def dataset_plan(cfg):
    """(split, basis, T, shots, seed key) of every dataset ``gen-data``
    writes. Keys are derived from (seed, split, basis, T), so no two
    datasets share random streams."""
    bases = decoder_bases(cfg["decoder"]) if cfg["decoder"] != "lut" \
        else ["Z"]
    rounds = dataset_rounds(cfg)
    for si, split in enumerate(("train", "val", "test")):
        # equal share per (basis, T) family; initial states alternate
        # inside sample_memory_batch
        per = max(1, cfg["shots"][split] // (len(rounds) * len(bases)))
        for basis in bases:
            for t in rounds:
                entropy = [cfg["seed"], si, "ZX".index(basis), t]
                key = np.random.SeedSequence(entropy).generate_state(
                    1, np.uint64)[0]
                yield split, basis, t, per, int(key)


def dataset_path(cfg, split: str, basis: str, t: int) -> str:
    return os.path.join(cfg["out"], "data",
                        f"{split}_{basis.lower()}_t{t}.sds")


def require_dataset(cfg, split: str, basis: str, t: int):
    path = dataset_path(cfg, split, basis, t)
    if not os.path.exists(path):
        fail(2, f"missing dataset {path}; run gen-data first")
    ds = dsmod.read_dataset(path)
    if ds.config_hash != cfg["hash"]:
        fail(1, f"config hash mismatch for {path}")
    return ds


def checkpoint_dir(cfg) -> str:
    return os.path.join(cfg["out"], "checkpoints", cfg["decoder"])


def checkpoint_paths(cfg) -> list[str]:
    """The run's epoch checkpoints in epoch order; exit 2 if none."""
    d = checkpoint_dir(cfg)
    names = sorted(os.listdir(d)) if os.path.isdir(d) else []
    paths = [os.path.join(d, n) for n in names if n.endswith(".ckpt")]
    if not paths:
        fail(2, f"no checkpoints under {d}; run train first")
    return paths


def checkpoint_decoder(cfg, path: str, basis: str):
    """(epoch, NnDecoder) of the network checkpoint at ``path``."""
    try:
        ckpt = load_checkpoint(path)
        if ckpt.config_hash != cfg["hash"]:
            fail(1, "config hash mismatch between config and checkpoint "
                 f"{path}")
        model = build_model(spec_by_id(cfg["decoder"]), seed=cfg["seed"])
        model.set_weights_flat({k: v for k, v in ckpt.weights.items()
                                if not k.startswith("adam.")})
    except ValueError as exc:
        # a truncated file, or tensors of another network layout
        fail(1, f"cannot load checkpoint {path} into the {cfg['decoder']} "
             f"network: {exc}")
    return ckpt.epoch, NnDecoder(model, basis=basis)


def load_decoder(cfg, basis: str):
    if cfg["decoder"] == "lut":
        return SeqLutDecoder(steane_code())
    return checkpoint_decoder(cfg, checkpoint_paths(cfg)[-1], basis)[1]


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_common = [
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="YAML config file."),
    click.option("--seed", type=int, default=None),
    click.option("--out", type=click.Path(), default=None),
    click.option("--decoder",
                 type=click.Choice(VALID_DECODERS), default=None),
    click.option("--shots", type=int, default=None,
                 help="Override the training-split shot count."),
    click.option("--pph", default=None,
                 help="Comma-separated physical error rates."),
    click.option("--rounds", type=int, default=None),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def build_cfg(config_path, seed, out, decoder, shots, pph, rounds) -> dict:
    overrides = {"seed": seed, "out": out, "decoder": decoder,
                 "rounds": rounds}
    if pph is not None:
        overrides["pph_sweep"] = pph.split(",")
    if shots is not None:
        overrides["shots"] = {"train": shots}
    return load_config(config_path, overrides)


@click.group()
def main():
    """Steane-code memory simulation, decoding, and explanation."""


@main.command("gen-data")
@common_options
def cmd_gen_data(**kw):
    """Write train/validation/test datasets with disjoint seeds."""
    cfg = build_cfg(**kw)
    code = steane_code()
    os.makedirs(os.path.join(cfg["out"], "data"), exist_ok=True)
    noise = NoiseModel(cfg["p_ph"])
    for split, basis, t, per, seed in dataset_plan(cfg):
        batch = sample_memory_batch(code, noise, T=t, basis=basis,
                                    shots=per, seed=seed)
        ds = dsmod.from_batch(batch, cfg["p_ph"], cfg["hash"])
        path = dataset_path(cfg, split, basis, t)
        dsmod.write_dataset(path, ds)
        dsmod.export_text(path + ".txt", ds)
        click.echo(f"wrote {path} ({per} samples)")


def _training_arrays(cfg):
    """Stack the train-split datasets into network inputs and labels."""
    decoder = cfg["decoder"]
    bases = decoder_bases(decoder)
    rounds = dataset_rounds(cfg)
    xs, ys = [], []
    for basis in bases:
        for t in rounds:
            ds = require_dataset(cfg, "train", basis, t)
            if decoder == "dnn2":
                xs.append(dnn2_inputs(ds.volumes, basis))
            else:
                xs.append(rnn_inputs(ds.volumes, t_max=cfg["rounds"]))
            label = ds.m_L.astype(float)
            if decoder == "drnn":
                y = np.full((len(ds), 2), -1.0)
                y[:, 0 if basis == "Z" else 1] = label
            else:
                y = label[:, None]
            ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


@main.command("train")
@common_options
def cmd_train(**kw):
    """Train the configured network; one checkpoint per epoch."""
    cfg = build_cfg(**kw)
    if cfg["decoder"] == "lut":
        fail(1, "the look-up-table decoder is not trainable")
    x, y = _training_arrays(cfg)
    model = build_model(spec_by_id(cfg["decoder"]), seed=cfg["seed"])
    ckdir = checkpoint_dir(cfg)
    os.makedirs(ckdir, exist_ok=True)
    tc = TrainConfig(epochs=cfg["train"]["epochs"],
                     batch_size=cfg["train"]["batch_size"],
                     lr=cfg["train"]["lr"], seed=cfg["seed"])

    def echo(rec) -> bool:
        # called as each epoch ends (after its checkpoint); never stops
        click.echo(f"epoch {rec['epoch']:4d} loss {rec['loss']:.6f}")
        return False

    history = train(model, x, y, tc, config_hash=cfg["hash"],
                    checkpoint_dir=ckdir, stop_fn=echo)
    _write_json(os.path.join(cfg["out"], f"train_{cfg['decoder']}.json"),
                {"config_hash": cfg["hash"], "history": history})


@main.command("eval")
@common_options
def cmd_eval(**kw):
    """Logical error rates over the noise sweep, with Wilson error bars."""
    cfg = build_cfg(**kw)
    code = steane_code()
    os.makedirs(cfg["out"], exist_ok=True)
    rows = []
    for basis in decoder_bases(cfg["decoder"]):
        decoder = load_decoder(cfg, basis)
        for p_ph in cfg["pph_sweep"]:
            res = logical_error_rate(
                decoder, code, NoiseModel(p_ph), basis,
                rounds=eval_rounds(cfg),
                shots_per_point=cfg["eval"]["shots_per_point"],
                seed=cfg["seed"])
            rows.append({"basis": basis, "p_ph": p_ph, "p_l": res.p_l,
                         "infidelity": res.infidelity.tolist(),
                         "sigma": res.sigma.tolist()})
            click.echo(f"{cfg['decoder']} basis={basis} p_ph={p_ph:g} "
                       f"p_L={rows[-1]['p_l']:.6g}")
    payload = {"config_hash": cfg["hash"], "decoder": cfg["decoder"],
               "rows": rows}
    for basis in decoder_bases(cfg["decoder"]):
        pts = [(r["p_ph"], r["p_l"]) for r in rows
               if r["basis"] == basis and r["p_l"] > 0]
        if len(pts) >= 2:
            fit = fit_scaling([p for p, _ in pts], [v for _, v in pts])
            payload[f"scaling_b_{basis}"] = fit.params[1]
    _write_json(os.path.join(cfg["out"], f"eval_{cfg['decoder']}.json"),
                payload)


@main.command("explain")
@common_options
def cmd_explain(**kw):
    """Attributions of the trained decoder on validation samples."""
    cfg = build_cfg(**kw)
    if cfg["decoder"] == "lut":
        fail(1, "attributions require a network decoder")
    basis = decoder_bases(cfg["decoder"])[0]
    t = dataset_rounds(cfg)[-1]
    val = require_dataset(cfg, "val", basis, t)
    bg_ds = require_dataset(cfg, "train", basis, t)
    decoder = load_decoder(cfg, basis)
    n = min(cfg["explain"]["samples"], len(val))
    nb = min(cfg["explain"]["background"], len(bg_ds))
    xs = decoder.inputs(val.volumes[:n])
    bg = decoder.inputs(bg_ds.volumes[:nb])
    phi, phi0 = deepshap_batch(decoder.model, xs, bg, head=decoder.head,
                               max_rows=200_000)
    out_path = os.path.join(cfg["out"], f"attributions_{cfg['decoder']}.txt")
    with open(out_path, "w") as fh:
        fh.write(f"# config={cfg['hash']} decoder={cfg['decoder']} "
                 f"basis={basis} phi-grid rows=samples\n")
        for i in range(n):
            grid = " ".join(f"{v:.6g}" for v in phi[i].reshape(-1))
            vol = "".join(str(b) for b in val.volumes[i].reshape(-1))
            fh.write(f"{i} {val.T} {basis} {phi0[i]:.6g} {grid} {vol}\n")
    np.save(os.path.join(cfg["out"], f"attributions_{cfg['decoder']}.npy"),
            phi)
    click.echo(f"wrote {out_path} ({n} samples, {nb} background)")


@main.command("dep")
@common_options
def cmd_dep(**kw):
    """Deterministic single-fault certification; exit 3 on any failure."""
    cfg = build_cfg(**kw)
    code = steane_code()
    os.makedirs(cfg["out"], exist_ok=True)
    n_faults = len(enumerate_single_faults(code, cycles=cfg["rounds"]))
    report = {"config_hash": cfg["hash"], "decoder": cfg["decoder"],
              "cycles": cfg["rounds"], "n_faults": n_faults}
    worst = 0.0
    for basis in decoder_bases(cfg["decoder"]):
        decoder = load_decoder(cfg, basis)
        frac = dep_failure_fraction(decoder, code, basis,
                                    cycles=cfg["rounds"])
        report[f"failure_fraction_{basis}"] = frac
        worst = max(worst, frac)
        click.echo(f"basis {basis}: {round(frac * n_faults)}/{n_faults} "
                   "faults failed")
    _write_json(os.path.join(cfg["out"], f"dep_{cfg['decoder']}.json"),
                report)
    if worst > 0:
        fail(3, "decoder is not fault tolerant under single faults")


@main.command("monitor")
@common_options
def cmd_monitor(**kw):
    """FT-learning tracks for every checkpoint of a training run."""
    cfg = build_cfg(**kw)
    if cfg["decoder"] == "lut":
        fail(1, "monitoring requires a trained run")
    code = steane_code()
    basis = decoder_bases(cfg["decoder"])[0]
    paths = checkpoint_paths(cfg)
    t = dataset_rounds(cfg)[-1]
    val = require_dataset(cfg, "val", basis, t)
    bg_ds = require_dataset(cfg, "train", basis, t)

    n = min(2000, len(val))
    nb = min(200, len(bg_ds))

    def attribution_fn(decoder):
        xs = decoder.inputs(val.volumes[:n])
        bg = decoder.inputs(bg_ds.volumes[:nb])
        phi, _ = deepshap_batch(decoder.model, xs, bg, head=decoder.head,
                                max_rows=100_000)
        if decoder.model.spec.recurrent:
            return phi
        full = np.zeros((n, val.T, 12))
        full[:, :, list(DNN2_CHANNELS[basis])] = phi.reshape(n, val.T, 6)
        return full

    decoders = (checkpoint_decoder(cfg, path, basis) for path in paths)
    rows = ft_monitor(decoders, code, cfg["pph_sweep"], basis,
                      rounds=eval_rounds(cfg),
                      shots_per_point=cfg["eval"]["shots_per_point"],
                      seed=cfg["seed"], attribution_fn=attribution_fn)
    table = os.path.join(cfg["out"], f"monitor_{cfg['decoder']}.txt")
    with open(table, "w") as fh:
        fh.write(f"# config={cfg['hash']}\n")
        fh.write("epoch dep_failure scaling_b hook_mean baseline_mean "
                 + " ".join(f"p_l@{p:g}" for p in cfg["pph_sweep"]) + "\n")
        for r in rows:
            pls = " ".join(f"{r.p_l[p]:.6g}" for p in cfg["pph_sweep"])
            fh.write(f"{r.epoch} {r.dep_failure:.6g} {r.scaling_b:.4g} "
                     f"{r.hook_mean:.4g} {r.baseline_mean:.4g} {pls}\n")
    # the verdict is a result of the run, not an error: exit 0 either way
    contract = ft_contract(rows)
    _write_json(os.path.join(cfg["out"], f"monitor_{cfg['decoder']}.json"),
                {"config_hash": cfg["hash"],
                 "rows": [r.__dict__ for r in rows],
                 "contract": contract.__dict__})
    click.echo(f"wrote {table}")
    for reason in contract.reasons:
        click.echo(f"contract FAILED: {reason}")
    click.echo(f"contract {contract.verdict}")


@main.command("report")
@common_options
def cmd_report(**kw):
    """Consolidated decoder comparison from existing eval artifacts."""
    cfg = build_cfg(**kw)
    lines = ["decoder basis p_ph p_l scaling_b"]
    for dec in VALID_DECODERS:
        path = os.path.join(cfg["out"], f"eval_{dec}.json")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            payload = json.load(fh)
        for row in payload["rows"]:
            b = payload.get(f"scaling_b_{row['basis']}", float("nan"))
            lines.append(f"{dec} {row['basis']} {row['p_ph']:g} "
                         f"{row['p_l']:.6g} {b:.4g}")
    text = "\n".join(lines) + "\n"
    out_path = os.path.join(cfg["out"], "report.txt")
    os.makedirs(cfg["out"], exist_ok=True)
    with open(out_path, "w") as fh:
        fh.write(f"# config={cfg['hash']}\n")
        fh.write(text)
    click.echo(text)


if __name__ == "__main__":
    main()
