#!/usr/bin/env python3
"""Layer-by-layer timing of the simulator, the look-up-table decoder and
the recurrent decoder's hot kernels.

Prints one JSON line:

  * ``sample_shots_per_s_t{T}_p{p_ph}``: shots per second of
    `sample_memory_batch` drawing 100,000 shots of a T-round Z-basis
    memory experiment, for T in {2, 8} and p_ph in {1e-3, 5e-3} (the
    fault table is built before timing);
  * ``lut_decodes_per_s_t8``: shots per second that
    `SeqLutDecoder.predict_flips_batch` decodes, on the 100,000 shots of
    T = 8 at p_ph = 5e-3;
  * ``lstm_forward_rows_steps_per_s`` / ``lstm_backward_rows_steps_per_s``:
    rows x rounds per second through the two LSTM layers of the srnn
    decoder (12 -> 36 -> 36 units) at T = 8, for batches of 64 rows (one
    training minibatch) and 1,500 rows (one evaluation point);
  * ``deepshap_pairs_per_s``: (input, background) pairs per second of
    `deepshap_batch` on the srnn decoder, 60 inputs against 100 background
    rows of 8 rounds, in one chunk as ``steanedec explain`` runs it (the
    sizes of the ``srnn-pipeline`` benchmark's explain stage).

Each figure is the best of several repeats, so that a quiet moment of a
shared machine is what is reported; ``<key>_median`` and
``<key>_range`` (slowest, fastest) show the spread of the repeats,
which can reach 30%. Network inputs are sparse random bits with a fixed
seed. Run from the root of a checkout:

    PYTHONPATH=src python3 scripts/kernel_bench.py
"""

import json
import time

import numpy as np

from steanedec.nn import build_model, srnn_spec
from steanedec.seqlut import SeqLutDecoder
from steanedec.sim import NoiseModel, sample_memory_batch
from steanedec.steane import steane_code
from steanedec.xai import deepshap_batch

T = 8
REPEATS = 7
SHOTS = 100_000


def repeat_seconds(fn, calls: int) -> np.ndarray:
    """Mean time per call of ``fn`` in each of REPEATS runs of ``calls``."""
    seconds = np.empty(REPEATS)
    for i in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        seconds[i] = (time.perf_counter() - t0) / calls
    return seconds


def rate_figures(key: str, work: float, seconds: np.ndarray) -> dict:
    """``work`` per second over the repeats: the best under ``key``, the
    median and the (min, max) range."""
    rates = work / seconds
    return {key: round(rates.max()),
            f"{key}_median": round(float(np.median(rates))),
            f"{key}_range": [round(rates.min()), round(rates.max())]}


def lstm_rates(model, rng, rows: int, calls: int) -> dict:
    lstms = model.layers[1:3]
    x = (rng.random((rows, T, 12)) < 0.1).astype(float)

    def forward():
        h = x
        for layer in lstms:
            h = layer.forward(h)
        return h

    dout = rng.normal(size=forward().shape)

    def backward():
        d = dout
        for layer in reversed(lstms):
            d = layer.backward(d)

    return {**rate_figures(f"lstm_forward_rows_steps_per_s_b{rows}",
                           rows * T, repeat_seconds(forward, calls)),
            **rate_figures(f"lstm_backward_rows_steps_per_s_b{rows}",
                           rows * T, repeat_seconds(backward, calls))}


def sampler_and_lut_rates() -> dict:
    code = steane_code()
    out = {}
    for t in (2, 8):
        for p_ph in (1e-3, 5e-3):
            noise = NoiseModel(p_ph)
            sample_memory_batch(code, noise, t, "Z", 1, seed=0)  # the table
            sec = repeat_seconds(lambda: sample_memory_batch(
                code, noise, t, "Z", SHOTS, seed=1), 1)
            out.update(rate_figures(f"sample_shots_per_s_t{t}_p{p_ph:g}",
                                    SHOTS, sec))
    batch = sample_memory_batch(code, NoiseModel(5e-3), T, "Z", SHOTS, seed=1)
    decoder = SeqLutDecoder(code)
    sec = repeat_seconds(lambda: decoder.predict_flips_batch(batch), 1)
    out.update(rate_figures(f"lut_decodes_per_s_t{T}", SHOTS, sec))
    return out


def main():
    rng = np.random.default_rng(0)
    model = build_model(srnn_spec("Z"), seed=0)
    out = sampler_and_lut_rates()
    for rows, calls in ((64, 40), (1500, 3)):
        out.update(lstm_rates(model, rng, rows, calls))
    xs = (rng.random((60, T, 12)) < 0.1).astype(float)
    bg = (rng.random((100, T, 12)) < 0.1).astype(float)
    sec = repeat_seconds(lambda: deepshap_batch(model, xs, bg,
                                                max_rows=200_000), 1)
    out.update(rate_figures("deepshap_pairs_per_s", 60 * 100, sec))
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
