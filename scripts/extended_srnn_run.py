#!/usr/bin/env python3
"""Extended (hours-scale) recurrent-decoder training run.

Trains the single-output recurrent decoder on memory experiments with
1..8 measurement rounds and tracks, per epoch:

  * the single-fault (DEP) failure fraction,
  * the fitted scaling exponent b of p_L against p_ph,
  * the mean hook-pair and baseline attribution correlations.

It then asserts the co-occurrence contract: the first epoch with a DEP
failure fraction of zero falls within +/-3 epochs of the first epoch
from which b stays inside 2.0 +/- 0.2, and the hook/baseline correlation
curves have diverged before that epoch. Exit code 0 when the contract
holds, 1 otherwise.

This is intentionally not part of the test suite; training epochs and
shot counts are configurable to trade accuracy against runtime.
"""

import argparse
import sys

import numpy as np

from steanedec.analysis import prepare_monitor
from steanedec.decoders import NnDecoder, rnn_inputs
from steanedec.nn import TrainConfig, build_model, srnn_spec, train
from steanedec.sim import NoiseModel, sample_memory_batch
from steanedec.steane import steane_code
from steanedec.xai import deepshap_batch


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epochs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--p-train", type=float, default=5e-3)
    ap.add_argument("--shots-train", type=int, default=100_000)
    ap.add_argument("--shots-eval", type=int, default=20_000)
    ap.add_argument("--attr-samples", type=int, default=2000)
    ap.add_argument("--attr-background", type=int, default=200)
    ap.add_argument("--b-window", type=float, default=0.2)
    ap.add_argument("--epoch-window", type=int, default=3)
    return ap.parse_args()


def main():
    args = parse_args()
    code = steane_code()
    t_max = 8
    noise = NoiseModel(args.p_train)

    xs, ys = [], []
    per = max(1, args.shots_train // t_max)
    for t in range(1, t_max + 1):
        batch = sample_memory_batch(code, noise, T=t, basis="Z",
                                    shots=per, seed=args.seed + 10 * t)
        xs.append(rnn_inputs(batch.volumes, t_max=t_max))
        ys.append(batch.m_L.astype(float)[:, None])
    x = np.concatenate(xs)
    y = np.concatenate(ys)

    val = sample_memory_batch(code, noise, T=t_max, basis="Z",
                              shots=args.attr_samples, seed=args.seed + 901)
    bg = rnn_inputs(
        sample_memory_batch(code, noise, T=t_max, basis="Z",
                            shots=args.attr_background,
                            seed=args.seed + 902).volumes, t_max=t_max)
    val_x = rnn_inputs(val.volumes, t_max=t_max)
    model = build_model(srnn_spec("Z"), seed=args.seed)
    rows = []

    def attribution_fn(decoder):
        return deepshap_batch(decoder.model, val_x, bg, max_rows=4096)[0]

    # every epoch is scored on the same volumes, so sample them once
    monitor = prepare_monitor(code, [1e-3, 2e-3, 5e-3], "Z",
                              rounds=range(1, t_max + 1),
                              shots_per_point=args.shots_eval,
                              seed=args.seed + 7,
                              attribution_fn=attribution_fn)

    def eval_fn(m, epoch):
        r = monitor.score(epoch, NnDecoder(m, basis="Z"))
        rows.append({"epoch": epoch, "dep": r.dep_failure, "b": r.scaling_b,
                     "hook": r.hook_mean, "baseline": r.baseline_mean})
        print("epoch {epoch:3d} dep {dep:.5f} b {b:6.3f} hook {hook:.3f} "
              "baseline {baseline:.3f}".format(**rows[-1]), flush=True)
        return rows[-1]

    train(model, x, y,
          TrainConfig(epochs=args.epochs, batch_size=64, lr=1e-3,
                      seed=args.seed),
          eval_fn=eval_fn)

    dep_epochs = [r["epoch"] for r in rows if r["dep"] == 0.0]
    lo, hi = 2.0 - args.b_window, 2.0 + args.b_window

    def b_stays(i):
        return all(lo <= r["b"] <= hi for r in rows[i:])

    b_epochs = [r["epoch"] for i, r in enumerate(rows) if b_stays(i)]
    ok = True
    if not dep_epochs:
        print("contract FAILED: DEP failure never reached zero")
        ok = False
    if not b_epochs:
        print(f"contract FAILED: b never settled in [{lo}, {hi}]")
        ok = False
    if ok:
        e_dep, e_b = dep_epochs[0], b_epochs[0]
        gap = abs(e_dep - e_b)
        print(f"first DEP-zero epoch {e_dep}, first settled-b epoch {e_b}, "
              f"gap {gap}")
        if gap > args.epoch_window:
            print("contract FAILED: FT and scaling onsets do not co-occur")
            ok = False
        pre = [r for r in rows if r["epoch"] < e_dep]
        early = pre[: max(1, len(pre) // 3)]
        gap_early = np.mean([r["hook"] - r["baseline"] for r in early])
        gap_late = np.mean([r["hook"] - r["baseline"] for r in pre]) \
            if pre else 0.0
        diverged = pre and max(r["hook"] - r["baseline"] for r in pre) \
            > 2 * max(gap_early, 0.0) + 0.05
        print(f"hook-baseline gap early {gap_early:.3f}, "
              f"max before FT {gap_late:.3f}")
        if not diverged:
            print("contract FAILED: hook/baseline curves did not diverge "
                  "before the FT epoch")
            ok = False
    print("contract", "HELD" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
