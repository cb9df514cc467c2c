"""One closed-loop workload run: the CLI stages in order, in-process.

Started by ``run.py`` as its own process, so that set-up (imports,
config write, ``steane_code()``) and the peak resident set are those of
one workload run. Writes one JSON result file:

    python3 bench/workload.py --workload lut-memory --seed 0 \
        --dir .bench_out/w --result .bench_out/w.json --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time is measured from it to the first stage call.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Sizes are fixed; only the seed varies between runs. Each workload
# mixes stages so that one exercises a layer another one bypasses
# (see README.md for the metric -> layer -> workload map).
SWEEP = [1e-3, 2e-3, 5e-3]
WORKLOADS = {
    # vectorized sampler, per-shot LUT loop, scalar fault injector;
    # never touches nn or xai
    "lut-memory": {
        "stages": ["gen-data", "dep", "eval"],
        "config": {"decoder": "lut", "rounds": 8, "p_ph": 5e-3,
                   "pph_sweep": SWEEP,
                   "shots": {"train": 90_000, "val": 4_000, "test": 4_000},
                   "eval": {"shots_per_point": 8_000}},
    },
    # LSTM forward/BPTT, LSTM inference and DeepSHAP through the LSTM;
    # never calls seqlut
    "srnn-pipeline": {
        "stages": ["gen-data", "train", "eval", "explain"],
        "config": {"decoder": "srnn-z", "rounds": 8, "p_ph": 5e-3,
                   "pph_sweep": SWEEP,
                   "shots": {"train": 4_800, "val": 1_600, "test": 1_600},
                   "train": {"epochs": 2, "batch_size": 64, "lr": 1e-3},
                   "eval": {"shots_per_point": 1_500},
                   "explain": {"background": 100, "samples": 60}},
    },
    # dense layers, batch-of-1 forwards inside the per-epoch DEP, the
    # scalar engine, checkpoint reads; then the DeepSHAP-vs-exact
    # Shapley agreement step on the last checkpoint
    "dnn2-monitor": {
        "stages": ["gen-data", "train", "monitor"],
        "config": {"decoder": "dnn2", "rounds": 2, "p_ph": 5e-3,
                   "pph_sweep": SWEEP,
                   "shots": {"train": 20_000, "val": 1_000, "test": 1_000},
                   "train": {"epochs": 2, "batch_size": 64, "lr": 1e-3},
                   "eval": {"shots_per_point": 4_000}},
        "library": {"inputs": 400, "background": 200, "shapley_chunk": 64},
    },
}

# attribution sums are exact up to float rounding; outputs lie in [0, 1]
SUM_TOL = 1e-6


def workload_config(name: str, seed: int, out: str) -> dict:
    cfg = json.loads(json.dumps(WORKLOADS[name]["config"]))
    cfg.update(seed=seed, out=out)
    return cfg


class Checks:
    def __init__(self):
        self.results: dict[str, bool] = {}

    def add(self, name: str, ok: bool):
        self.results[name] = bool(ok)
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)


def call_stage(stage: str, cfg_path: str) -> int:
    from steanedec.cli import main
    try:
        main.main(args=[stage, "--config", cfg_path], prog_name="steanedec",
                  standalone_mode=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crashing stage is a failed check
        traceback.print_exc()
        return -1
    return 0


def agreement_step(cfg: dict, lib: dict) -> dict:
    """DeepSHAP vs exact Shapley on validation inputs of the last
    checkpoint, and the attribution correlation matrices of both."""
    import numpy as np
    from steanedec.analysis import attribution_correlations
    from steanedec.cli import load_decoder, require_dataset
    from steanedec.decoders import DNN2_CHANNELS
    from steanedec.xai import deepshap_batch, exact_shapley_batch

    decoder = load_decoder(cfg, "Z")
    val = require_dataset(cfg, "val", "Z", cfg["rounds"])
    train = require_dataset(cfg, "train", "Z", cfg["rounds"])
    xs = decoder.inputs(val.volumes[:lib["inputs"]])
    bg = decoder.inputs(train.volumes[:lib["background"]])
    phi_ds, phi0 = deepshap_batch(decoder.model, xs, bg, max_rows=200_000)
    t0 = time.perf_counter()
    phi_ex = exact_shapley_batch(decoder.model, xs, bg,
                                 chunk=lib["shapley_chunk"])
    shapley_s = time.perf_counter() - t0
    chans = list(DNN2_CHANNELS["Z"])
    for phi in (phi_ds, phi_ex):
        full = np.zeros((phi.shape[0], cfg["rounds"], 12))
        full[:, :, chans] = phi.reshape(-1, cfg["rounds"], 6)
        attribution_correlations(full, lag=0)
    return {"model": decoder.model, "xs": xs, "bg": bg, "phi_ds": phi_ds,
            "phi0": phi0, "phi_ex": phi_ex, "shapley_s": shapley_s}


def check_eval(cfg: dict, checks: Checks, result: dict) -> int:
    """p_L finite, positive and rising with p_ph; returns shots run."""
    with open(os.path.join(cfg["out"], f"eval_{cfg['decoder']}.json")) as fh:
        rows = json.load(fh)["rows"]
    shots = 0
    for basis in sorted({r["basis"] for r in rows}):
        pts = sorted((r["p_ph"], r["p_l"]) for r in rows
                     if r["basis"] == basis)
        pls = [p for _, p in pts]
        result.setdefault("eval_p_l", {})[basis] = pls
        checks.add(f"eval.{basis}.p_l_finite_positive",
                   all(math.isfinite(p) and p > 0 for p in pls))
        checks.add(f"eval.{basis}.p_l_rises",
                   all(a < b for a, b in zip(pls, pls[1:])))
    for r in rows:
        shots += len(r["infidelity"]) * cfg["eval"]["shots_per_point"]
    return shots


def sum_to_delta(model, xs, bg, phi, phi0, head=0) -> float:
    """max |sum phi - (f(x) - phi0)| over the explained inputs."""
    out = model.forward(xs)[:, head]
    return float(abs(phi.reshape(len(xs), -1).sum(axis=1)
                     - (out - phi0)).max())


def dep_volumes(code, basis: str, cycles: int):
    import numpy as np
    from steanedec.circuits import enumerate_single_faults
    from steanedec.sim import run_memory_experiment
    vols, labels = [], []
    for f in enumerate_single_faults(code, cycles=cycles):
        s = run_memory_experiment(code, noise=None, T=cycles, basis=basis,
                                  m_in=0, fault=f)
        vols.append(s.volume)
        labels.append(s.m_L)
    return np.array(vols), np.array(labels, dtype=np.uint8)


def run(args) -> dict:
    spec = WORKLOADS[args.workload]
    os.makedirs(args.dir, exist_ok=True)
    import numpy as np
    import yaml
    from steanedec import dataset as dsmod
    from steanedec.cli import dataset_rounds, decoder_bases, load_config
    from steanedec.steane import steane_code

    generated = workload_config(args.workload, args.seed, args.dir)
    cfg_path = os.path.join(args.dir, "config.yaml")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(generated, fh)
    code = steane_code()
    rec = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Recorder
        rec = Recorder(f"{args.workload}-seed{args.seed}-{args.iteration}")
        rec.install()
    t_first = time.monotonic()
    result = {"setup_s": t_first - args.t0, "config": generated}
    if args.setup_only:
        return result

    checks = Checks()
    stage_s = {}
    for stage in spec["stages"]:
        t0 = time.perf_counter()
        rc = call_stage(stage, cfg_path) if rec is None else \
            rec.root(f"cli.{stage}", call_stage, stage, cfg_path)
        stage_s[stage] = time.perf_counter() - t0
        checks.add(f"{stage}.exit_0", rc == 0)
        if rc != 0:
            break
    # effective config (defaults filled in, hash set), as the stages see it
    cfg = load_config(cfg_path, {})
    lib = None
    if "library" in spec and len(stage_s) == len(spec["stages"]):
        t0 = time.perf_counter()
        lib = agreement_step(cfg, spec["library"]) if rec is None else \
            rec.root("lib.agreement", agreement_step, cfg, spec["library"])
        stage_s["library"] = time.perf_counter() - t0
    result["wall_s"] = time.monotonic() - t_first
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["stage_s"] = stage_s
    if rec is not None:
        rec.enabled = False
    if len(stage_s) < len(spec["stages"]):
        result["checks"] = checks.results
        return result

    # --- output checks and throughputs (not timed) ---
    m = {}
    bases = decoder_bases(cfg["decoder"]) if cfg["decoder"] != "lut" \
        else ["Z"]
    shots = 0
    for split in ("train", "val", "test"):
        for basis in bases:
            for t in dataset_rounds(cfg):
                path = os.path.join(args.dir, "data",
                                    f"{split}_{basis.lower()}_t{t}.sds")
                shots += len(dsmod.read_dataset(path))
    m["gen_data_shots_per_s"] = shots / stage_s["gen-data"]
    if "train" in stage_s:
        n_train = sum(len(dsmod.read_dataset(os.path.join(
            args.dir, "data", f"train_{b.lower()}_t{t}.sds")))
            for b in bases for t in dataset_rounds(cfg))
        m["train_samples_per_s"] = \
            n_train * cfg["train"]["epochs"] / stage_s["train"]
    if "dep" in stage_s:
        with open(os.path.join(args.dir, f"dep_{cfg['decoder']}.json")) as fh:
            dep = json.load(fh)
        fracs = {k: v for k, v in dep.items()
                 if k.startswith("failure_fraction_")}
        for k, v in sorted(fracs.items()):
            checks.add(f"dep.{k[-1]}.zero_failures", v == 0)
        m["dep_faults_per_s"] = dep["n_faults"] * len(fracs) / stage_s["dep"]
    if "eval" in stage_s:
        m["eval_shots_per_s"] = check_eval(cfg, checks, result) / stage_s["eval"]
    if "explain" in stage_s:
        from steanedec.cli import load_decoder, require_dataset
        decoder = load_decoder(cfg, bases[0])
        t = dataset_rounds(cfg)[-1]
        val = require_dataset(cfg, "val", bases[0], t)
        bg_ds = require_dataset(cfg, "train", bases[0], t)
        phi = np.load(os.path.join(args.dir,
                                   f"attributions_{cfg['decoder']}.npy"))
        n = phi.shape[0]
        nb = min(cfg["explain"]["background"], len(bg_ds))
        xs = decoder.inputs(val.volumes[:n])
        bg = decoder.inputs(bg_ds.volumes[:nb])
        # inputs of one length share the all-ones padding mask with the
        # background, so phi0 is the plain background mean output
        phi0 = decoder.model.forward(bg)[:, decoder.head].mean()
        resid = sum_to_delta(decoder.model, xs, bg, phi, phi0, decoder.head)
        checks.add("explain.sum_to_delta", resid <= SUM_TOL)
        m["explain_pairs_per_s"] = n * nb / stage_s["explain"]
        result["max_residual"] = resid
    if "monitor" in stage_s:
        from steanedec.decoders import NnDecoder
        from steanedec.nn import build_model, load_checkpoint
        from steanedec.nn.model import spec_by_id
        with open(os.path.join(args.dir,
                               f"monitor_{cfg['decoder']}.json")) as fh:
            rows = json.load(fh)["rows"]
        vols, labels = dep_volumes(code, bases[0], cfg["rounds"])
        ckdir = os.path.join(args.dir, "checkpoints", cfg["decoder"])
        names = sorted(x for x in os.listdir(ckdir) if x.endswith(".ckpt"))
        agree = len(names) == len(rows)
        for name, row in zip(names, rows):
            ck = load_checkpoint(os.path.join(ckdir, name))
            model = build_model(spec_by_id(cfg["decoder"]), seed=cfg["seed"])
            model.set_weights_flat({k: v for k, v in ck.weights.items()
                                    if not k.startswith("adam.")})
            fails = int((NnDecoder(model, basis=bases[0]).predict_flips(vols)
                         ^ labels).sum())
            agree = agree and ck.epoch == row["epoch"] \
                and fails == round(row["dep_failure"] * len(labels))
        checks.add("monitor.dep_matches_batched_decode", agree)
        m["monitor_epoch_s"] = stage_s["monitor"] / max(len(rows), 1)
    if lib is not None:
        model = lib["model"]
        resid = sum_to_delta(model, lib["xs"], lib["bg"], lib["phi_ds"],
                             lib["phi0"])
        checks.add("library.deepshap_sum_to_delta", resid <= SUM_TOL)
        out = model.forward(lib["xs"])[:, 0]
        base = model.forward(lib["bg"].mean(axis=0)[None])[0, 0]
        eff = float(abs(lib["phi_ex"].sum(axis=1) - (out - base)).max())
        checks.add("library.shapley_efficiency", eff <= SUM_TOL)
        m["shapley_inputs_per_s"] = len(lib["xs"]) / lib["shapley_s"]
        result["max_residual"] = max(resid, eff)
    result["metrics"] = m
    result["checks"] = checks.results
    if rec is not None:
        from tracer import layer_metrics, self_times, tree_residuals
        own = self_times(rec.spans)
        resid = tree_residuals(rec.spans, own)
        # the self times of a stage's span tree add up to its wall time
        checks.add("trace.tree_sums", all(
            r <= 1e-6 * max(1.0, result["wall_s"]) for r in resid.values()))
        result["layers"] = layer_metrics(rec.spans)
        result["spans"] = len(rec.spans)
        rec.write(args.result + ".spans.json")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--iteration", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = run(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh, default=float)


if __name__ == "__main__":
    main()
