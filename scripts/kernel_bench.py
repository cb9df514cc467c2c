#!/usr/bin/env python3
"""Layer-by-layer timing of the simulator, the look-up-table decoder and
the recurrent decoder's hot kernels, and of the command line's import.

Prints one JSON line:

  * ``sample_shots_per_s_t{T}_p{p_ph}``: shots per second of
    `sample_memory_batch` drawing 100,000 shots of a T-round Z-basis
    memory experiment, for T in {2, 8} and p_ph in {1e-3, 5e-3} (the
    fault table is built before timing);
  * ``fault_tables_s``: seconds to build the fault tables of T = 1..8 in
    both bases from an empty cache, the tables that the ``lut-memory``
    benchmark's eval stage samples from;
  * ``dep_batch_s_t8``: seconds of `single_fault_batch` at T = 8 in both
    bases from an empty cache, the single-fault sets that ``steanedec
    dep`` decodes;
  * ``lut_decodes_per_s_t8``: shots per second that
    `SeqLutDecoder.predict_flips_batch` decodes, on the 100,000 shots of
    T = 8 at p_ph = 5e-3;
  * ``lstm_forward_rows_steps_per_s`` / ``lstm_backward_rows_steps_per_s``:
    rows x rounds per second through the two LSTM layers of the srnn
    decoder (12 -> 36 -> 36 units) at T = 8, for batches of 64 rows (one
    training minibatch) and 1,500 rows (one evaluation point); the
    forward keeps the caches its backward reads (``trace=True``);
  * ``srnn_train_step_s_mixed``: seconds of one training step of the srnn
    decoder (forward, backward, one Adam update of the flat parameter
    vector) on 64 rows that mix T = 1..8 in equal shares, padded to 8
    rounds as ``steanedec train`` pads them; ``dnn2_train_step_s`` the
    same for the dnn2 decoder on 64 rows of T = 2;
  * ``adam_update_us``: microseconds of one `AdamState.update` on the
    srnn decoder's flat parameter vector (20,833 entries), the optimizer
    part of each training step;
  * ``train_data_peak_mb``: the `tracemalloc` peak, in MB, of stacking
    the train split of an srnn-z run at ``rounds: 8`` and 100,000 train
    shots into ``steanedec train``'s int8 inputs and its labels
    (`cli._training_arrays`), the datasets written by ``gen-data``
    before;
  * ``srnn_eval_sweep_s``: seconds of one
    `NnDecoder.predict_flips_batches` call, as ``steanedec eval`` decodes
    a sweep, on the srnn decoder over the ``srnn-pipeline`` benchmark's
    eval sweep: p_ph in {1e-3, 2e-3, 5e-3} x T = 1..8, 1,500 Z-basis
    memory shots each, drawn by `sample_memory_batch` from stream
    2 + 1000 T; ``srnn_eval_distinct_frac`` is the share of all
    row-rounds that decoding each batch's distinct volumes would run,
    ``srnn_eval_prefix_frac`` the share that the prefix trie runs (its
    first LSTM layer's rows, chunk-boundary repeats and lone-row copies
    included), and ``srnn_eval_peak_mb`` the `tracemalloc` peak of the
    call, in MB;
  * ``deepshap_pairs_per_s``: (input, background) pairs per second of
    `NnDecoder.attributions` (one `deepshap_batch` call, in tiles of the
    default size as ``steanedec explain`` runs it) on the srnn decoder,
    60 inputs against 100 background rows of 8 rounds (the sizes of the
    ``srnn-pipeline`` benchmark's explain stage);
    ``deepshap_peak_mb`` is the `tracemalloc` peak of that call, in MB;
  * ``deepshap_pairs_per_s_bg1000``: the same rate for 20 inputs against
    1,000 background rows, the background size of ``explain``'s
    defaults, where every tile holds one input (best of 3);
  * ``shapley_inputs_per_s``: inputs per second of `exact_shapley_batch`
    on the dnn2 decoder (12 players) at the sizes of the
    ``dnn2-monitor`` benchmark's library step: the network inputs of
    400 T = 2 Z-basis memory shots, drawn by `sample_memory_batch` at
    p_ph = 5e-3 with a fixed seed, against 200 more as background, in
    chunks of 64 distinct inputs; ``shapley_peak_mb`` is the
    `tracemalloc` peak of that call, in MB;
  * ``gen_data_peak_mb``: the `tracemalloc` peak, in MB, of writing one
    90,000-shot T = 8 dataset as ``steanedec gen-data`` writes it
    (`sample_memory_blocks` in blocks of `dataset.BLOCK_SHOTS`, streamed
    into the dataset file and its text export by
    `dataset.write_with_text`), the fault table built before;
  * ``dataset_pack_s``: seconds to pack the records of those 90,000
    shots into the bytes of a dataset file, in one block;
  * ``read_dataset_ms``: milliseconds of `dataset.read_dataset` on that
    90,000-shot T = 8 dataset file, the train split of the
    ``lut-memory`` benchmark's size;
  * ``import_cli_s``: seconds of ``python -c "import steanedec.cli"``
    in a fresh interpreter, interpreter start-up included; every CLI
    stage pays it before its own work.

Each figure is the best of several repeats, so that a quiet moment of a
shared machine is what is reported; ``<key>_median`` and
``<key>_range`` (slowest, fastest) show the spread of the repeats,
which can reach 30%. The inputs of the LSTM layers and of DeepSHAP are
sparse random bits (density 0.1) with a fixed seed. Run from the root of
a checkout:

    PYTHONPATH=src python3 scripts/kernel_bench.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from steanedec import cli
from steanedec import dataset as dsmod
from steanedec.circuits import pack_rounds
from steanedec.decoders import NnDecoder
from steanedec.nn import (AdamState, Lstm, bce_loss_grad, build_model,
                          dnn2_spec, srnn_spec)
from steanedec.seqlut import SeqLutDecoder
from steanedec.sim import (_RESPONSES, _TABLES, NoiseModel,
                           sample_memory_batch, sample_memory_blocks,
                           single_fault_batch)
from steanedec.steane import steane_code
from steanedec.xai import exact_shapley_batch

T = 8
REPEATS = 7
SHOTS = 100_000


def repeat_seconds(fn, calls: int, repeats: int = REPEATS) -> np.ndarray:
    """Mean time per call of ``fn`` in each of ``repeats`` runs of
    ``calls``."""
    seconds = np.empty(repeats)
    for i in range(repeats):
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


def second_figures(key: str, seconds: np.ndarray) -> dict:
    """Seconds over the repeats: the best under ``key``, the median and
    the (slowest, fastest) range."""
    return {key: round(seconds.min(), 6),
            f"{key}_median": round(float(np.median(seconds)), 6),
            f"{key}_range": [round(seconds.max(), 6),
                             round(seconds.min(), 6)]}


def lstm_rates(model, rng, rows: int, calls: int) -> dict:
    lstms = model.layers[1:3]
    x = (rng.random((rows, T, 12)) < 0.1).astype(float)

    def forward():
        h = x
        for layer in lstms:
            h = layer.forward(h, trace=True)
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


def train_step_seconds(spec, rounds) -> np.ndarray:
    """Seconds of one training step of ``spec``'s network on 64 rows of
    sparse random bits, an equal share at each round count of
    ``rounds``, padded to the largest."""
    rng = np.random.default_rng(1)
    model = build_model(spec, seed=0)
    decoder = NnDecoder(model)
    x = np.concatenate([decoder.inputs(
        rng.random((64 // len(rounds), t, 12)) < 0.1, t_max=max(rounds))
        for t in rounds])
    y = decoder.targets(rng.integers(0, 2, len(x)))
    adam = AdamState()

    def step():
        q = model.forward(x, train=True, rng=rng)
        model.zero_grads()
        model.backward(bce_loss_grad(y, q))
        adam.update(model.params, model.grads)

    return repeat_seconds(step, 40)


def train_figures() -> dict:
    out = {**second_figures("srnn_train_step_s_mixed", train_step_seconds(
               srnn_spec("Z"), range(1, T + 1))),
           **second_figures("dnn2_train_step_s", train_step_seconds(
               dnn2_spec(), [2]))}
    model = build_model(srnn_spec("Z"), seed=0)
    model.grads[:] = np.random.default_rng(2).normal(size=model.grads.shape)
    adam = AdamState()
    out.update(second_figures("adam_update_us", 1e6 * repeat_seconds(
        lambda: adam.update(model.params, model.grads), 500)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.yaml")
        with open(path, "w") as fh:
            fh.write(f"out: {tmp}\ndecoder: srnn-z\nrounds: {T}\n"
                     f"shots: {{train: {SHOTS}, val: {T}, test: {T}}}\n")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=["gen-data", "--config", path],
                          standalone_mode=False)
        cfg = cli.load_config(path, {})
        model = build_model(srnn_spec("Z"), seed=0)
        tracemalloc.start()
        try:
            cli._training_arrays(cfg, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    out["train_data_peak_mb"] = round(peak / 1e6, 2)
    return out


def srnn_eval_sweep(model) -> dict:
    decoder = NnDecoder(model)
    code = steane_code()
    batches = [sample_memory_batch(code, NoiseModel(p_ph), t, "Z", 1500,
                                   seed=2 + 1000 * t)
               for p_ph in (1e-3, 2e-3, 5e-3) for t in range(1, T + 1)]
    row_rounds = sum(b.codes.size for b in batches)
    distinct = sum(len(np.unique(b.codes, axis=0)) * b.codes.shape[1]
                   for b in batches)
    lstm, prefix = model.layers[1], []

    def counted(xt, *args):
        prefix.append(len(xt))
        return Lstm._round(lstm, xt, *args)

    # the first LSTM layer's rows over one call
    lstm._round = counted
    try:
        decoder.predict_flips_batches(batches)
    finally:
        del lstm._round

    def sweep():
        decoder.predict_flips_batches(batches)

    tracemalloc.start()
    try:
        sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {**second_figures("srnn_eval_sweep_s", repeat_seconds(sweep, 1)),
            "srnn_eval_distinct_frac": round(distinct / row_rounds, 4),
            "srnn_eval_prefix_frac": round(sum(prefix) / row_rounds, 4),
            "srnn_eval_peak_mb": round(peak / 1e6, 2)}


def deepshap_figures(model, rng) -> dict:
    decoder = NnDecoder(model)
    xs = pack_rounds(rng.random((60, T, 12)) < 0.1)
    bg = pack_rounds(rng.random((100, T, 12)) < 0.1)
    sec = repeat_seconds(lambda: decoder.attributions(xs, bg), 1)
    out = rate_figures("deepshap_pairs_per_s", 60 * 100, sec)
    tracemalloc.start()
    try:
        decoder.attributions(xs, bg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["deepshap_peak_mb"] = round(peak / 1e6, 1)
    bg = pack_rounds(rng.random((1000, T, 12)) < 0.1)
    sec = repeat_seconds(lambda: decoder.attributions(xs[:20], bg), 1,
                         repeats=3)
    out.update(rate_figures("deepshap_pairs_per_s_bg1000", 20 * 1000, sec))
    return out


def shapley_figures() -> dict:
    decoder = NnDecoder(build_model(dnn2_spec(), seed=0))
    batch = sample_memory_batch(steane_code(), NoiseModel(5e-3), 2, "Z", 600,
                                seed=3)
    xs, bg = decoder.inputs(batch.volumes[:400]), decoder.inputs(
        batch.volumes[400:])

    def solve():
        exact_shapley_batch(decoder.model, xs, bg, chunk=64)

    out = rate_figures("shapley_inputs_per_s", len(xs),
                       repeat_seconds(solve, 1))
    tracemalloc.start()
    try:
        solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out["shapley_peak_mb"] = round(peak / 1e6, 2)
    return out


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


def cold(fn):
    """``fn`` run with empty fault-table and cycle-response caches."""
    def run():
        _TABLES.clear()
        _RESPONSES.clear()
        fn()
    return run


def fault_table_figures() -> dict:
    code = steane_code()
    tables = cold(lambda: [sample_memory_batch(code, NoiseModel(0.0), t,
                                               basis, 1, seed=0)
                           for t in range(1, T + 1) for basis in "ZX"])
    dep = cold(lambda: [single_fault_batch(code, basis, T)
                        for basis in "ZX"])
    return {**second_figures("fault_tables_s", repeat_seconds(tables, 1)),
            **second_figures(f"dep_batch_s_t{T}", repeat_seconds(dep, 1))}


def gen_data_figures() -> dict:
    code, noise, shots = steane_code(), NoiseModel(5e-3), 90_000
    head = dsmod.Header(dsmod.CODE_ID, 5e-3, T, "Z", 1, shots)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.sds")

        def write():
            dsmod.write_with_text(path, head, sample_memory_blocks(
                code, noise, T, "Z", shots, seed=1, block=dsmod.BLOCK_SHOTS))

        write()  # the fault table
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        read_ms = 1e3 * repeat_seconds(lambda: dsmod.read_dataset(path), 1)
    batch = sample_memory_batch(code, noise, T, "Z", shots, seed=1)
    return {"gen_data_peak_mb": round(peak / 1e6, 2),
            **second_figures("read_dataset_ms", read_ms),
            **second_figures("dataset_pack_s", repeat_seconds(
                lambda: dsmod._records(batch.codes, batch.m_in,
                                       batch.m_out), 1))}


def main():
    rng = np.random.default_rng(0)
    model = build_model(srnn_spec("Z"), seed=0)
    out = sampler_and_lut_rates()
    out.update(fault_table_figures())
    out.update(gen_data_figures())
    for rows, calls in ((64, 40), (1500, 3)):
        out.update(lstm_rates(model, rng, rows, calls))
    out.update(train_figures())
    out.update(srnn_eval_sweep(model))
    out.update(deepshap_figures(model, rng))
    out.update(shapley_figures())
    out.update(second_figures("import_cli_s", repeat_seconds(
        lambda: subprocess.run([sys.executable, "-c",
                                "import steanedec.cli"], check=True), 1)))
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()
