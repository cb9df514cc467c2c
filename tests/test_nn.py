"""Tests for the from-scratch network stack: layer math against scalar
oracles, finite-difference gradient checks, optimizer and loss
hand-checks, checkpoint round trips, and training behaviour."""

import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from steanedec.decoders import NnDecoder
from steanedec.nn import (AdamState, Checkpoint, Dense, Dropout, Lstm,
                          Masking, Model, NetworkSpec, bce_loss,
                          bce_loss_grad, build_model, config_hash, dnn2_spec,
                          drnn_spec, load_checkpoint, restore,
                          save_checkpoint, srnn_spec, TrainConfig, train)
from steanedec.nn.layers import sigmoid
from steanedec.nn.model import ROW_BLOCK, row_blocks, spec_by_id
from steanedec.circuits import pack_rounds
from steanedec.decoders import _sort_columns, _trie_outputs
from steanedec.sim import NoiseModel, sample_memory_batch
from steanedec.steane import steane_code
from steanedec.xai import deepshap

import lstm_reference
from adam_reference import per_tensor_update


def tiny_recurrent_spec(units=4, heads=1):
    """Two small LSTM layers and a dense head, for gradient checks."""
    return NetworkSpec("tiny", 3, True, (
        {"kind": "masking", "mask_value": -1.0},
        {"kind": "lstm", "units": units, "input_dim": 3,
         "return_sequences": True, "output_gate_activation": "sigmoid"},
        {"kind": "lstm", "units": units, "input_dim": units,
         "return_sequences": False, "output_gate_activation": "sigmoid"},
        {"kind": "dense", "units": heads, "input_dim": units,
         "activation": "sigmoid"},
    ))


def gate_params(lstm, g):
    """(W_x, W_h, b) of gate ``g``: its columns of the fused blocks."""
    k = lstm.FUSED.index(g)
    cols = slice(k * lstm.n, (k + 1) * lstm.n)
    w = lstm.weights
    return w["W_x"][:, cols], w["W_h"][:, cols], w["b"][cols]


class TestLstmStep:
    def test_init_is_per_gate_glorot_draws(self):
        # one Glorot block per gate, input then recurrent, in GATES order
        # from the layer's generator; zero biases except the forget gate
        for units, d, seed in ((5, 3, 0), (36, 12, 11), (36, 36, 12)):
            lstm = Lstm(units, d, return_sequences=True,
                        rng=np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            lim_x = math.sqrt(6.0 / (d + units))
            lim_h = math.sqrt(6.0 / (2 * units))
            for g in ("f", "i", "c", "o"):
                wx, wh, b = gate_params(lstm, g)
                assert np.array_equal(
                    wx, rng.uniform(-lim_x, lim_x, size=(d, units)))
                assert np.array_equal(
                    wh, rng.uniform(-lim_h, lim_h, size=(units, units)))
                assert np.array_equal(b, np.full(units, float(g == "f")))
            assert sorted(lstm.weights) == ["W_h", "W_x", "b"]

    def test_zero_weight_step(self):
        # zero weights keep only the biases: f = sigmoid(1), i = o = 1/2
        # and candidate cell tanh(0.8), whatever the input and h, so
        # c_1 = tanh(0.8)/2, c_2 = f c_1 + tanh(0.8)/2 and h_t = tanh(c_t)/2
        lstm = Lstm(3, 2, return_sequences=True)
        for w in lstm.weights.values():
            w[:] = 0.0
        gate_params(lstm, "f")[2][:] = 1.0
        gate_params(lstm, "c")[2][:] = 0.8
        h = lstm.forward(np.ones((1, 2, 2)), trace=True)
        c = np.stack([s["c"] for s in lstm.cache["steps"]], axis=1)
        f = 1.0 / (1.0 + math.exp(-1.0))
        c1 = 0.5 * math.tanh(0.8)
        assert np.allclose(c, [[[c1] * 3, [f * c1 + c1] * 3]])
        assert np.allclose(h, 0.5 * np.tanh(c))

    def test_scalar_loop_oracle(self):
        # batched forward must equal a plain per-step python recurrence
        rng = np.random.default_rng(7)
        lstm = Lstm(5, 3, return_sequences=True, rng=rng)
        x = rng.normal(size=(4, 6, 3))
        out = lstm.forward(x)
        p = {g: gate_params(lstm, g) for g in lstm.GATES}
        for b in range(4):
            h = np.zeros(5)
            c = np.zeros(5)
            for t in range(6):
                z = {g: x[b, t] @ wx + h @ wh + bias
                     for g, (wx, wh, bias) in p.items()}
                f, i, o = (sigmoid(z[g]) for g in "fio")
                cc = np.tanh(z["c"])
                c = c * f + cc * i
                h = o * np.tanh(c)
                assert np.allclose(out[b, t], h, atol=1e-12)

    def test_scalar_loop_oracle_with_mask(self):
        # a masked round keeps the previous state and outputs zeros
        rng = np.random.default_rng(8)
        lstm = Lstm(5, 3, return_sequences=True, rng=rng)
        x = rng.normal(size=(4, 6, 3))
        mask = (rng.random((4, 6)) < 0.6).astype(float)
        mask[:, 0] = 1.0  # an all-ones round next to mixed ones
        out = lstm.forward(x, mask=mask)
        p = {g: gate_params(lstm, g) for g in lstm.GATES}
        for b in range(4):
            h = np.zeros(5)
            c = np.zeros(5)
            for t in range(6):
                z = {g: x[b, t] @ wx + h @ wh + bias
                     for g, (wx, wh, bias) in p.items()}
                f, i, o = (sigmoid(z[g]) for g in "fio")
                cc = np.tanh(z["c"])
                if mask[b, t]:
                    c = c * f + cc * i
                    h = o * np.tanh(c)
                assert np.allclose(out[b, t], mask[b, t] * h, atol=1e-12)

    @pytest.mark.parametrize("seq", [True, False])
    def test_all_ones_mask_is_no_mask(self, seq):
        # an all-ones mask column is exactly an unmasked round, forward
        # and backward, bit for bit
        rng = np.random.default_rng(9)
        x = rng.normal(size=(7, 5, 3))
        dout = rng.normal(size=(7, 5, 4) if seq else (7, 4))
        runs = []
        for mask in (None, np.ones((7, 5))):
            lstm = Lstm(4, 3, return_sequences=seq,
                        rng=np.random.default_rng(2))
            out = lstm.forward(x, mask=mask, trace=True)
            dx = lstm.backward(dout)
            runs.append([out, dx] + [lstm.grads[k] for k in sorted(
                lstm.grads)])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_final_output_mode(self):
        rng = np.random.default_rng(3)
        seq = Lstm(4, 2, return_sequences=True, rng=np.random.default_rng(3))
        fin = Lstm(4, 2, return_sequences=False, rng=np.random.default_rng(3))
        x = rng.normal(size=(2, 5, 2))
        assert np.allclose(seq.forward(x)[:, -1, :], fin.forward(x))

    def test_relu_output_gate(self):
        lstm = Lstm(3, 2, return_sequences=False,
                    output_gate_activation="relu")
        for w in lstm.weights.values():
            w[:] = 0.0
        gate_params(lstm, "o")[2][:] = np.array([-1.0, 0.5, 2.0])
        gate_params(lstm, "c")[2][:] = 3.0  # candidate ~ tanh(3)
        h = lstm.forward(np.ones((1, 1, 2)))
        i = 0.5
        c = np.tanh(3.0) * i
        expect = np.maximum(np.array([-1.0, 0.5, 2.0]), 0.0) * np.tanh(c)
        assert np.allclose(h[0], expect)


def blend_forward(self, x, mask=None, train=False, rng=None, trace=False):
    """The masked-blend `Lstm.forward` the active-row one replaced, kept as
    its reference: every row runs every round, and a masked row blends
    its previous state back in. Always caches."""
    B, T, _ = x.shape
    wx, wh, b = (self.weights[k] for k in ("W_x", "W_h", "b"))
    h = np.zeros((B, self.n))
    c = np.zeros((B, self.n))
    steps = []
    outs = []
    for t in range(T):
        a = x[:, t] @ wx
        h_prev, c_prev = h, c
        a += h_prev @ wh
        a += b
        o, f, i, cc = self.gates(self._activate(a))
        c_cand = c_prev * f
        c_cand += cc * i
        tc = np.tanh(c_cand)
        h_cand = o * tc
        m = None if mask is None else mask[:, t:t + 1]
        if m is not None and np.all(m == 1.0):
            m = None
        steps.append(dict(x=x[:, t], h_prev=h, c_prev=c, a=a, c=c_cand,
                          tc=tc, m=m))
        if m is None:
            h, c = h_cand, c_cand
        else:
            h = m * h_cand + (1.0 - m) * h
            c = m * c_cand + (1.0 - m) * c
        if self.return_sequences:
            outs.append(h if m is None else m * h)
    self.cache = dict(steps=steps, B=B, T=T)
    return np.stack(outs, axis=1) if self.return_sequences else h


def blend_backward(self, dout):
    """The backward of `blend_forward`: a masked row passes its state
    gradients straight through."""
    steps, B, T = (self.cache[k] for k in ("steps", "B", "T"))
    wx, wh = self.weights["W_x"], self.weights["W_h"]
    gwx, gwh, gb = (self.grads[k] for k in ("W_x", "W_h", "b"))
    dx = np.empty((B, T, self.d))
    dh_next = np.zeros((B, self.n)) if self.return_sequences else dout
    dc_next = np.zeros((B, self.n))
    for t in reversed(range(T)):
        s = steps[t]
        m, a, tc = s["m"], s["a"], s["tc"]
        o, f, i, cc = self.gates(a)
        dh = dh_next
        if self.return_sequences:
            dh = dh + (dout[:, t] if m is None else m * dout[:, t])
        dh_cand = dh if m is None else m * dh
        dc = dc_next + dh_cand * o * (1.0 - tc * tc)
        dc_cand = dc if m is None else m * dc
        dz = self.slopes(a)
        dz_o, dz_f, dz_i, dz_c = self.gates(dz)
        dz_o *= dh_cand * tc
        dz_f *= dc_cand * s["c_prev"]
        dz_i *= dc_cand * cc
        dz_c *= dc_cand * i
        gwx += s["x"].T @ dz
        gwh += s["h_prev"].T @ dz
        gb += dz.sum(axis=0)
        dx[:, t] = dz @ wx.T
        dh_next = dz @ wh.T
        dc_next = dc_cand * f
        if m is not None:
            dh_next += (1.0 - m) * dh
            dc_next += (1.0 - m) * dc
    return dx


def same_bits(a, b) -> bool:
    """Bit-equal arrays, up to the sign of zero (x + 0.0 maps -0.0 to
    0.0): a masked output is 0 * h in the blend, and 0 here."""
    a, b = np.asarray(a) + 0.0, np.asarray(b) + 0.0
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def mask_of(kind, rng, B, T):
    if kind == "tail":
        lengths = rng.integers(1, T, size=B)
        lengths[3] = T  # one row alone holds the last round
        return (np.arange(T)[None, :] < lengths[:, None]).astype(float)
    if kind == "interior":
        return (rng.random((B, T)) < 0.6).astype(float)
    return np.full((B, T), float(kind == "all_ones"))


class TestActiveRowLstm:
    """The layer runs a round only on the rows whose mask is 1; the
    masked blend above is its reference."""

    @pytest.mark.parametrize("seq", [True, False])
    @pytest.mark.parametrize("kind", ["tail", "interior", "all_padded",
                                      "all_ones"])
    @pytest.mark.parametrize("B,T,d,n", [(9, 6, 3, 4), (64, 8, 12, 36)])
    def test_matches_masked_blend(self, kind, seq, B, T, d, n):
        rng = np.random.default_rng(B + T)
        mask = mask_of(kind, rng, B, T)
        x = rng.normal(size=(B, T, d)) * mask[:, :, None]
        dout = rng.normal(size=(B, T, n) if seq else (B, n))
        ref = Lstm(n, d, seq, rng=np.random.default_rng(5))
        new = Lstm(n, d, seq, rng=np.random.default_rng(5))
        out = blend_forward(ref, x, mask)
        dx = blend_backward(ref, dout)
        assert same_bits(new.forward(x, mask=mask), out)
        assert same_bits(new.forward(x, mask=mask, trace=True), out)
        assert np.abs(new.backward(dout) - dx).max() <= 1e-12
        for k, g in ref.grads.items():
            assert np.abs(new.grads[k] - g).max() <= 1e-12, k

    def test_training_matches_masked_blend(self, monkeypatch):
        # 2 epochs on the T = 1..8 equal-share mix padded to 8 rounds, as
        # in the srnn-pipeline benchmark's train stage: the gradient sums
        # skip the masked rows, so weights may move by float rounding
        code, noise = steane_code(), NoiseModel(5e-3)
        dec = NnDecoder(build_model(srnn_spec("Z"), seed=0))
        xs, ys = [], []
        for t in range(1, 9):
            batch = sample_memory_batch(code, noise, T=t, basis="Z",
                                        shots=600, seed=t)
            xs.append(dec.inputs(batch.volumes, t_max=8))
            ys.append(dec.targets(batch.m_L))
        x, y = np.concatenate(xs), np.concatenate(ys)
        cfg = TrainConfig(epochs=2, batch_size=64, lr=1e-3, seed=0)
        new = build_model(srnn_spec("Z"), seed=0)
        train(new, x, y, cfg)
        monkeypatch.setattr(Lstm, "forward", blend_forward)
        monkeypatch.setattr(Lstm, "backward", blend_backward)
        ref = build_model(srnn_spec("Z"), seed=0)
        train(ref, x, y, cfg)
        for k, w in ref.weights_flat().items():
            assert np.abs(new.weights_flat()[k] - w).max() <= 1e-12, k


class TestCaches:
    """Only a training or traced forward keeps caches; a backward after
    any other forward raises instead of reading a stale cache."""

    @pytest.mark.parametrize("layer,shape", [
        (Masking(-1.0), (4, 3, 2)),
        (Lstm(3, 2, return_sequences=True), (4, 3, 2)),
        (Dense(3, 2, "relu"), (4, 2)),
        (Dropout(0.5), (4, 2)),
    ])
    def test_backward_after_uncached_forward_raises(self, layer, shape):
        x = np.random.default_rng(1).normal(size=shape)
        rng = np.random.default_rng(2)
        out = layer.forward(x, train=True, rng=rng)
        layer.backward(np.ones_like(out))
        layer.forward(x)
        assert layer.cache is None
        with pytest.raises(ValueError, match="train=True or trace=True"):
            layer.backward(np.ones_like(out))

    def test_model_forward_keeps_caches_only_when_asked(self):
        model = build_model(srnn_spec("Z"), seed=0)
        x = (np.random.default_rng(3).random((5, 4, 12)) < 0.2) * 1.0
        q = model.forward(x, train=True, rng=np.random.default_rng(4))
        model.backward(np.ones_like(q))
        model.forward(x, trace=True)
        model.backward(np.ones_like(q))
        model.forward(x)
        assert all(layer.cache is None for layer in model.layers)
        with pytest.raises(ValueError, match="train=True or trace=True"):
            model.backward(np.ones_like(q))

    @pytest.mark.parametrize("spec,shape", [
        (srnn_spec("Z"), (ROW_BLOCK + 1, 8, 12)),
        (dnn2_spec(), (2 * ROW_BLOCK + 3, 12)),
    ])
    def test_row_blocks_match_one_cached_pass(self, spec, shape):
        # the forward without caches runs near-equal row blocks, in place;
        # each row's output is that of one cached pass, bit for bit
        model = build_model(spec, seed=6)
        rng = np.random.default_rng(7)
        for w in model.weights_flat().values():
            w += rng.normal(0.0, 0.3, w.shape)
        x = (rng.random(shape) < 0.2).astype(float)
        if x.ndim == 3:  # padded tails of every length
            x[np.arange(8)[None, :] >= rng.integers(1, 9, len(x))[:, None]] \
                = -1.0
        assert np.array_equal(model.forward(x), model.forward(x, trace=True))

    def test_row_blocks(self):
        # edges from 0 to n; the fewest blocks of at most ROW_BLOCK rows
        # (one, if empty), near-equal, so none holds a lone row once
        # there are two rows
        for n in [*range(0, 4 * ROW_BLOCK + 2), 12 * 4096, 256 * 4096]:
            edges = row_blocks(n)
            sizes = np.diff(edges)
            assert edges[0] == 0 and edges[-1] == n
            assert len(sizes) == max(1, -(-n // ROW_BLOCK))
            assert np.all(sizes <= ROW_BLOCK)
            assert sizes.max() - sizes.min() <= 1
            if n >= 2:
                assert sizes.min() >= 2


def masked_sigmoid(z):
    """The boolean-mask form `sigmoid` replaced, kept as its reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_bit_equal_to_masked_form(self):
        edges = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf,
                          np.nan, -np.nan, 1e-300, -1e-300, 36.7, -745.2])
        rng = np.random.default_rng(4)
        for z in (edges, rng.normal(0, 5, (64, 36)),
                  rng.normal(0, 40, (500, 36)), np.zeros((0, 36))):
            got, ref = sigmoid(z), masked_sigmoid(z)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


class TestMasking:
    def test_padding_matches_truncation(self):
        # fully padded trailing rounds must not change the final state
        rng = np.random.default_rng(11)
        model = build_model(tiny_recurrent_spec(), seed=5)
        x_short = rng.integers(0, 2, size=(6, 3, 3)).astype(float)
        pad = np.full((6, 2, 3), -1.0)
        x_long = np.concatenate([x_short, pad], axis=1)
        assert np.allclose(model.forward(x_short), model.forward(x_long),
                           atol=1e-12)

    def test_mask_flags_padded_rounds(self):
        m = Masking(-1.0)
        x = np.array([[[0.0, 1.0], [-1.0, -1.0], [-1.0, 0.0]]])
        assert m.padding(x).tolist() == [[1.0, 0.0, 1.0]]
        assert m.forward(x).tolist() == [[[0.0, 1.0], [0.0, 0.0],
                                          [-1.0, 0.0]]]

    def test_interior_padding_passes_state(self):
        # a masked round in the middle is skipped, not treated as zeros
        model = build_model(tiny_recurrent_spec(), seed=9)
        rng = np.random.default_rng(2)
        x = rng.integers(0, 2, size=(3, 4, 3)).astype(float)
        x_gap = np.concatenate(
            [x[:, :2], np.full((3, 1, 3), -1.0), x[:, 2:]], axis=1)
        assert np.allclose(model.forward(x), model.forward(x_gap), atol=1e-12)

    def test_forced_own_mask_is_identity(self):
        model = build_model(tiny_recurrent_spec(), seed=13)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(8, 5, 3)).astype(float)
        x[np.arange(5)[None, :] >= rng.integers(1, 6, size=8)[:, None]] = -1.0
        x[2, 1] = -1.0  # an interior padded round
        mask = model.layers[0].padding(x)
        assert 0.0 < mask.mean() < 1.0
        assert np.array_equal(model.forward(x, mask=mask), model.forward(x))

    def test_forced_pattern_equals_padded_input(self):
        # one (1, T) pattern forced onto unpadded rows, as DeepSHAP does
        # for a background pass
        model = build_model(tiny_recurrent_spec(), seed=14)
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, size=(6, 5, 3)).astype(float)
        pattern = np.array([[1.0, 0.0, 1.0, 1.0, 0.0]])
        x_pad = x.copy()
        x_pad[:, pattern[0] == 0.0] = -1.0
        assert np.array_equal(model.forward(x, mask=pattern),
                              model.forward(x_pad))
        assert not np.allclose(model.forward(x), model.forward(x_pad))


class TestGradients:
    def fd_check(self, model, x, y, h=1e-5, tol=1e-4):
        q = model.forward(x, trace=True)
        model.zero_grads()
        model.backward(bce_loss_grad(y, q))
        grads = {k: v.copy() for k, v in model.grads_flat().items()}
        weights = model.weights_flat()
        rng = np.random.default_rng(0)
        checked = 0
        for name, w in weights.items():
            flat = w.reshape(-1)
            # probe a handful of coordinates per tensor
            for j in rng.choice(flat.size, size=min(6, flat.size),
                                replace=False):
                orig = flat[j]
                flat[j] = orig + h
                lp = bce_loss(y, model.forward(x))
                flat[j] = orig - h
                lm = bce_loss(y, model.forward(x))
                flat[j] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[name].reshape(-1)[j]
                scale = max(abs(fd), abs(an), 1e-8)
                assert abs(fd - an) / scale < tol, (name, j, fd, an)
                checked += 1
        assert checked > 0

    def test_recurrent_stack_gradients(self):
        rng = np.random.default_rng(21)
        model = build_model(tiny_recurrent_spec(units=4), seed=13)
        x = rng.integers(0, 2, size=(5, 4, 3)).astype(float)
        y = rng.integers(0, 2, size=(5, 1)).astype(float)
        self.fd_check(model, x, y)

    def test_recurrent_gradients_with_padding(self):
        rng = np.random.default_rng(22)
        model = build_model(tiny_recurrent_spec(units=4), seed=17)
        x = rng.integers(0, 2, size=(4, 5, 3)).astype(float)
        x[0, 3:] = -1.0
        x[2, 2:] = -1.0
        y = rng.integers(0, 2, size=(4, 1)).astype(float)
        self.fd_check(model, x, y)

    def test_dense_stack_gradients(self):
        rng = np.random.default_rng(23)
        model = build_model(dnn2_spec(input_dim=6), seed=3)
        # continuous inputs keep the relu pre-activations off their kink
        x = rng.normal(size=(8, 6))
        y = rng.integers(0, 2, size=(8, 1)).astype(float)
        self.fd_check(model, x, y)

    def test_relu_output_gate_gradients(self):
        spec = NetworkSpec("tiny-relu", 3, True, (
            {"kind": "lstm", "units": 4, "input_dim": 3,
             "return_sequences": False, "output_gate_activation": "relu"},
            {"kind": "dense", "units": 1, "input_dim": 4,
             "activation": "sigmoid"},
        ))
        rng = np.random.default_rng(24)
        model = build_model(spec, seed=6)
        x = rng.normal(size=(5, 4, 3))
        y = rng.integers(0, 2, size=(5, 1)).astype(float)
        self.fd_check(model, x, y)

    def test_input_gradient(self):
        # dx from backward must match finite differences on the input
        model = build_model(dnn2_spec(input_dim=4), seed=1)
        rng = np.random.default_rng(25)
        x = rng.normal(size=(3, 4))
        y = rng.integers(0, 2, size=(3, 1)).astype(float)
        q = model.forward(x, trace=True)
        model.zero_grads()
        dx = model.backward(bce_loss_grad(y, q))
        h = 1e-6
        for b in range(3):
            for j in range(4):
                xp = x.copy()
                xp[b, j] += h
                xm = x.copy()
                xm[b, j] -= h
                fd = (bce_loss(y, model.forward(xp))
                      - bce_loss(y, model.forward(xm))) / (2 * h)
                assert abs(fd - dx[b, j]) < 1e-5


class TestWeightWrites:
    """Every pass reads the registry's arrays themselves, so every write
    through the registry shows in the next forward."""

    def test_set_weights_flat(self):
        x = np.random.default_rng(3).integers(0, 2, (6, 4, 3)).astype(float)
        model = build_model(tiny_recurrent_spec(), seed=1)
        model.forward(x)
        other = build_model(tiny_recurrent_spec(), seed=2)
        model.set_weights_flat(other.weights_flat())
        assert np.array_equal(model.forward(x), other.forward(x))

    def test_adam_step(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, (6, 4, 3)).astype(float)
        y = rng.integers(0, 2, (6, 1)).astype(float)
        model = build_model(tiny_recurrent_spec(), seed=1)
        before = model.forward(x, trace=True)
        model.zero_grads()
        model.backward(bce_loss_grad(y, before))
        AdamState(lr=0.05).update(model.params, model.grads)
        fresh = build_model(tiny_recurrent_spec(), seed=7)
        fresh.set_weights_flat(
            {k: v.copy() for k, v in model.weights_flat().items()})
        after = model.forward(x)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, fresh.forward(x))


class TestFlatParameters:
    """Every registered tensor is a view into the model's flat vectors."""

    @pytest.mark.parametrize("spec_id", ["srnn-z", "drnn", "dnn2"])
    def test_layer_tensors_tile_the_flat_buffers(self, spec_id):
        model = build_model(spec_by_id(spec_id), seed=0)
        for flat, kind in ((model.params, "weights"), (model.grads, "grads")):
            tensors = [t for layer in model.layers
                       for t in getattr(layer, kind).values()]
            assert all(np.shares_memory(t, flat) for t in tensors)
            # in layer and registration order, without gap or overlap
            flat[:] = np.arange(flat.size)
            assert np.array_equal(
                np.concatenate([t.ravel() for t in tensors]),
                np.arange(flat.size))

    @pytest.mark.parametrize("spec_id", ["srnn-z", "drnn", "dnn2"])
    def test_names_shapes_and_glorot_draws_unchanged(self, spec_id):
        # the layers built alone, from one rng, hold the model's values
        spec = spec_by_id(spec_id)
        rng = np.random.default_rng(6)
        expect = {}
        for i, desc in enumerate(spec.layers):
            if desc["kind"] == "lstm":
                layer = Lstm(desc["units"], desc["input_dim"],
                             desc["return_sequences"], rng=rng)
            elif desc["kind"] == "dense":
                layer = Dense(desc["units"], desc["input_dim"],
                              desc["activation"], rng=rng)
            else:
                continue
            expect.update((f"{i}.{k}", w) for k, w in layer.weights.items())
        got = build_model(spec, seed=6).weights_flat()
        assert list(got) == list(expect)
        for k, w in expect.items():
            assert np.array_equal(got[k], w), k

    def test_zero_grads_and_flat_writes(self):
        rng = np.random.default_rng(9)
        x = rng.integers(0, 2, (6, 4, 3)).astype(float)
        y = rng.integers(0, 2, (6, 1)).astype(float)
        model = build_model(tiny_recurrent_spec(), seed=1)
        model.backward(bce_loss_grad(y, model.forward(x, trace=True)))
        assert all(g.any() for layer in model.layers
                   for g in layer.grads.values())
        model.zero_grads()
        assert not any(g.any() for layer in model.layers
                       for g in layer.grads.values())
        other = build_model(tiny_recurrent_spec(), seed=2)
        model.params[:] = other.params
        assert np.array_equal(model.forward(x), other.forward(x))
        model.set_weights_flat(build_model(tiny_recurrent_spec(),
                                           seed=3).weights_flat())
        assert np.array_equal(
            model.forward(x),
            build_model(tiny_recurrent_spec(), seed=3).forward(x))


class TestFlatAdam:
    """The flat Adam step against the per-tensor loop it replaced
    (`adam_reference.py`): weights and moments bit-equal at every step,
    and across a checkpoint save and `restore`."""

    def reference(self, x, y, cfg):
        """Weights and (m, v) after each epoch of `train`'s loop with the
        per-tensor step."""
        model = build_model(srnn_spec("Z"), seed=1)
        adam, m, v = AdamState(lr=cfg.lr), {}, {}
        states = []
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng((cfg.seed, epoch))
            order = rng.permutation(len(x))
            for lo in range(0, len(x), cfg.batch_size):
                idx = order[lo:lo + cfg.batch_size]
                q = model.forward(x[idx], train=True, rng=rng)
                model.zero_grads()
                model.backward(bce_loss_grad(y[idx], q))
                per_tensor_update(adam, m, v, model.weights_flat(),
                                  model.grads_flat())
            states.append((model.params.copy(),
                           {k: a.copy() for k, a in m.items()},
                           {k: a.copy() for k, a in v.items()}))
        return states

    def test_single_steps_match(self):
        rng = np.random.default_rng(2)
        model = build_model(srnn_spec("Z"), seed=0)
        weights = {k: w.copy() for k, w in model.weights_flat().items()}
        adam, ref, m, v = AdamState(lr=0.05), AdamState(lr=0.05), {}, {}
        for _ in range(6):
            model.grads[:] = rng.normal(size=model.grads.size)
            adam.update(model.params, model.grads)
            per_tensor_update(ref, m, v, weights, model.grads_flat())
            for k, w in model.weights_flat().items():
                assert np.array_equal(w, weights[k]), k
        for k, mom in model.views(adam.m).items():
            assert np.array_equal(mom, m[k]) and np.array_equal(
                model.views(adam.v)[k], v[k]), k

    def test_matches_per_tensor_loop_across_a_restore(self, tmp_path):
        # 4 epochs of 3 steps on srnn-z (14 tensors), rows of 4 rounds
        # with padded ones; the run stops after epoch 1 and resumes from
        # its checkpoint
        rng = np.random.default_rng(17)
        x = rng.integers(0, 2, (48, 4, 12)).astype(float)
        x[::3, 2:] = -1.0
        y = rng.integers(0, 2, (48, 1)).astype(float)
        cfg = TrainConfig(epochs=4, batch_size=16, lr=1e-2, seed=3)
        states = self.reference(x, y, cfg)
        first = build_model(srnn_spec("Z"), seed=1)
        train(first, x, y, TrainConfig(epochs=2, batch_size=16, lr=1e-2,
                                       seed=3), checkpoint_dir=str(tmp_path))
        assert np.array_equal(first.params, states[1][0])
        resumed = build_model(srnn_spec("Z"), seed=1)
        adam = restore(resumed, load_checkpoint(tmp_path / "epoch_0001.ckpt"))
        assert adam.step_count == 6
        train(resumed, x, y, cfg, start_epoch=2, adam=adam,
              checkpoint_dir=str(tmp_path))
        assert adam.step_count == 12
        assert np.array_equal(resumed.params, states[3][0])
        for epoch in (1, 3):
            ckpt = load_checkpoint(tmp_path / f"epoch_{epoch:04d}.ckpt")
            _, m, v = states[epoch]
            assert sorted(ckpt.weights) == sorted(
                [*resumed.weights_flat(), *(f"adam.m.{k}" for k in m),
                 *(f"adam.v.{k}" for k in v)])
            for k in m:
                assert np.array_equal(ckpt.weights[f"adam.m.{k}"], m[k]), k
                assert np.array_equal(ckpt.weights[f"adam.v.{k}"], v[k]), k

    def test_checkpoint_before_any_step_holds_no_moments(self, tmp_path):
        model = build_model(dnn2_spec(input_dim=4), seed=0)
        train(model, np.zeros((0, 4)), np.zeros((0, 1)),
              TrainConfig(epochs=1), checkpoint_dir=str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "epoch_0000.ckpt")
        assert sorted(ckpt.weights) == sorted(model.weights_flat())
        adam = restore(build_model(dnn2_spec(input_dim=4), seed=0), ckpt)
        assert adam.m is None and adam.v is None

    def test_restore_rejects_moments_of_another_layout(self, tmp_path):
        model = build_model(dnn2_spec(input_dim=4), seed=0)
        train(model, np.ones((4, 4)), np.ones((4, 1)),
              TrainConfig(epochs=1), checkpoint_dir=str(tmp_path))
        ckpt = load_checkpoint(tmp_path / "epoch_0000.ckpt")
        ckpt.weights["adam.m.0.W_old"] = ckpt.weights.pop("adam.m.0.W")
        with pytest.raises(ValueError, match="name mismatch"):
            restore(model, ckpt)


def exact_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestGateSlab:
    """Every LSTM pass activates its gates in a gate-major slab; the
    strided in-place passes of `lstm_reference.py` give the same bits."""

    @pytest.mark.parametrize("mode", ["train", "trace", "no_cache"])
    @pytest.mark.parametrize("kind", ["tail", "interior", "all_padded",
                                      "all_ones"])
    @pytest.mark.parametrize("seq", [True, False])
    @pytest.mark.parametrize("gate", ["sigmoid", "relu"])
    @pytest.mark.parametrize("B,T,d,n", [(9, 6, 3, 4), (64, 8, 12, 36)])
    def test_pass_matches_reference(self, mode, kind, seq, gate, B, T, d, n):
        rng = np.random.default_rng(B + T)
        mask = mask_of(kind, rng, B, T)
        x = rng.normal(size=(B, T, d)) * mask[:, :, None]
        dout = rng.normal(size=(B, T, n) if seq else (B, n))
        new, ref = (Lstm(n, d, seq, rng=np.random.default_rng(5),
                         output_gate_activation=gate) for _ in range(2))
        kw = {"train": dict(train=True), "trace": dict(trace=True),
              "no_cache": {}}[mode]
        out = new.forward(x, mask=mask, **kw)
        assert exact_bits(out, lstm_reference.forward(ref, x, mask, **kw))
        if mode == "no_cache":
            return
        assert exact_bits(new.backward(dout),
                          lstm_reference.backward(ref, dout))
        for k, g in ref.grads.items():
            assert exact_bits(new.grads[k], g), k

    @pytest.mark.parametrize("local", [True, False])
    @pytest.mark.parametrize("make", [
        lambda: build_model(srnn_spec("Z"), seed=3),
        lambda: build_model(drnn_spec(), seed=4),
        lambda: Model(NetworkSpec("relu", 3, True, (
            {"kind": "masking", "mask_value": -1.0},
            {"kind": "lstm", "units": 5, "input_dim": 12,
             "return_sequences": False, "output_gate_activation": "relu"},
            {"kind": "dense", "units": 1, "input_dim": 5,
             "activation": "sigmoid"})), seed=8),
    ], ids=["srnn", "drnn", "relu-gate"])
    def test_deepshap_trace_matches_reference(self, make, local,
                                              monkeypatch):
        # the traced forward's pre-activations and fused activations are
        # the ones the reference trace recomputed
        model = make()
        x = (np.random.default_rng(10).random((17, 6, 12)) < 0.2) * 1.0
        x[3, 4:] = -1.0  # a background row's -1 rounds stay inputs
        out, traces = deepshap._forward_trace(model, x, local)
        monkeypatch.setattr(Lstm, "forward", lstm_reference.forward)
        monkeypatch.setattr(deepshap, "_lstm_trace",
                            lstm_reference.lstm_trace)
        ref_out, ref_traces = deepshap._forward_trace(model, x, local)
        assert exact_bits(out, ref_out)
        keys = ["x", "h_prev", "c_prev", "z", "a", "c", "tc"]
        keys += ["slope", "dtanh"] if local else []
        for layer, tr, rt in zip(model.layers, traces, ref_traces):
            if not isinstance(layer, Lstm):
                continue
            for s, r in zip(tr["steps"], rt["steps"], strict=True):
                assert sorted(s) == sorted(r)
                for k in keys:
                    assert exact_bits(s[k], r[k]), k

    @pytest.mark.parametrize("spec", [srnn_spec("Z"), drnn_spec()],
                             ids=["srnn", "drnn"])
    def test_trie_rounds_match_reference(self, spec, monkeypatch):
        model = build_model(spec, seed=11)
        rng = np.random.default_rng(12)
        codes = [pack_rounds(rng.random((n, t, 12)) < 0.1)
                 for n, t in ((300, 3), (1, 8), (700, 8), (40, 1))]
        cols, lengths = _sort_columns(codes)
        q = _trie_outputs(model, cols, lengths, 0)
        monkeypatch.setattr(Lstm, "_round", lstm_reference.round_)
        assert exact_bits(q, _trie_outputs(model, cols, lengths, 0))

    def test_training_matches_reference(self, monkeypatch):
        # 2 epochs on the T = 1..8 mix padded to 8 rounds, as in the
        # srnn-pipeline benchmark's train stage: the same weight bits
        code, noise = steane_code(), NoiseModel(5e-3)
        dec = NnDecoder(build_model(srnn_spec("Z"), seed=0))
        xs, ys = [], []
        for t in range(1, 9):
            batch = sample_memory_batch(code, noise, T=t, basis="Z",
                                        shots=600, seed=t)
            xs.append(dec.inputs(batch.volumes, t_max=8))
            ys.append(dec.targets(batch.m_L))
        x, y = np.concatenate(xs), np.concatenate(ys)
        cfg = TrainConfig(epochs=2, batch_size=64, lr=1e-3, seed=0)
        new = build_model(srnn_spec("Z"), seed=0)
        history = train(new, x, y, cfg)
        monkeypatch.setattr(Lstm, "forward", lstm_reference.forward)
        monkeypatch.setattr(Lstm, "backward", lstm_reference.backward)
        ref = build_model(srnn_spec("Z"), seed=0)
        assert train(ref, x, y, cfg) == history
        assert exact_bits(new.params, ref.params)


class TestCompactInputs:
    """`train` on the int8 layout of `NnDecoder.layout` gives the bits of
    training on its float64 form."""

    @pytest.mark.parametrize("spec_id, rounds",
                             [("srnn-z", range(1, 9)), ("dnn2", [2])])
    def test_int8_inputs_train_like_float64(self, spec_id, rounds):
        code, noise = steane_code(), NoiseModel(5e-3)
        dec = NnDecoder(build_model(spec_by_id(spec_id), seed=0))
        xs, ys = [], []
        for t in rounds:
            batch = sample_memory_batch(code, noise, T=t, basis="Z",
                                        shots=200, seed=t)
            xs.append(dec.layout(batch.codes, t_max=max(rounds)))
            ys.append(dec.targets(batch.m_L))
        x, y = np.concatenate(xs), np.concatenate(ys)
        assert x.dtype == np.int8
        assert np.array_equal(np.unique(x), [-1, 0, 1] if spec_id != "dnn2"
                              else [0, 1])
        cfg = TrainConfig(epochs=2, batch_size=64, lr=1e-3, seed=0)
        compact = build_model(spec_by_id(spec_id), seed=0)
        wide = build_model(spec_by_id(spec_id), seed=0)
        assert train(compact, x, y, cfg) == train(wide, x.astype(float), y,
                                                   cfg)
        assert np.array_equal(compact.params, wide.params)


class TestAdam:
    def test_first_step_size(self):
        # with g = 1 the bias-corrected first step is almost exactly lr
        adam = AdamState(lr=1e-3)
        w = np.array([0.5])
        adam.update(w, np.array([1.0]))
        assert abs((0.5 - w[0]) - 1e-3) < 1e-9

    def test_scalar_sequence_oracle(self):
        adam = AdamState(lr=0.01)
        w = np.array([0.3])
        grads = [0.4, -1.2, 0.05, 2.0, -0.7]
        m = v = 0.0
        ref = 0.3
        for t, g in enumerate(grads, start=1):
            adam.update(w, np.array([g]))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9 ** t)) \
                / math.sqrt(v / (1 - 0.999 ** t) + 1e-7)
            assert abs(w[0] - ref) < 1e-12


class TestLosses:
    def test_bce_examples(self):
        assert abs(bce_loss([1.0], [0.5]) - math.log(2.0)) < 1e-12
        assert abs(bce_loss([0.0], [0.5]) - math.log(2.0)) < 1e-12
        assert bce_loss([1.0], [1.0]) < 1e-6
        # clamped at 1e-7, never infinite
        assert np.isfinite(bce_loss([1.0], [0.0]))

    def test_bce_grad_matches_fd(self):
        p = np.array([1.0, 0.0, 1.0])
        q = np.array([0.3, 0.6, 0.9])
        g = bce_loss_grad(p, q)
        h = 1e-7
        for j in range(3):
            qp = q.copy()
            qp[j] += h
            qm = q.copy()
            qm[j] -= h
            fd = (bce_loss(p, qp) - bce_loss(p, qm)) / (2 * h)
            assert abs(fd - g[j]) < 1e-6

    def test_masked_reduces_to_plain(self):
        # one live head per sample equals plain BCE on that head
        p = np.array([[1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
        q = np.array([[0.7, 0.2], [0.9, 0.4], [0.1, 0.8]])
        live = np.array([0.7, 0.4, 0.1])
        labels = np.array([1.0, 0.0, 0.0])
        assert abs(bce_loss(p, q) - bce_loss(labels, live)) < 1e-12

    def test_masked_grad_zero_on_masked_heads(self):
        p = np.array([[1.0, -1.0], [-1.0, 0.0]])
        q = np.array([[0.7, 0.2], [0.9, 0.4]])
        g = bce_loss_grad(p, q)
        assert g[0, 1] == 0.0 and g[1, 0] == 0.0
        assert g[0, 0] != 0.0 and g[1, 1] != 0.0


class TestDropout:
    def test_eval_mode_is_identity(self):
        d = Dropout(0.2)
        x = np.random.default_rng(1).normal(size=(5, 7))
        assert np.array_equal(d.forward(x, train=False), x)

    def test_train_mode_scales(self):
        d = Dropout(0.5)
        rng = np.random.default_rng(2)
        x = np.ones((2000, 4))
        out = d.forward(x, train=True, rng=rng)
        kept = out != 0.0
        assert np.allclose(out[kept], 2.0)
        assert abs(kept.mean() - 0.5) < 0.05

    def test_train_mode_requires_rng(self):
        with pytest.raises(ValueError):
            Dropout(0.5).forward(np.ones((1, 2)), train=True)


class TestModel:
    def test_builder_shapes(self):
        m = build_model(srnn_spec("Z"), seed=0)
        out = m.forward(np.zeros((3, 8, 12)))
        assert out.shape == (3, 1)
        m2 = build_model(drnn_spec(), seed=0)
        assert m2.forward(np.zeros((3, 8, 12))).shape == (3, 2)
        m3 = build_model(dnn2_spec(), seed=0)
        assert m3.forward(np.zeros((3, 12))).shape == (3, 1)

    def test_seed_reproducibility(self):
        a = build_model(srnn_spec("Z"), seed=42)
        b = build_model(srnn_spec("Z"), seed=42)
        for k, w in a.weights_flat().items():
            assert np.array_equal(w, b.weights_flat()[k])
        c = build_model(srnn_spec("Z"), seed=43)
        assert any(not np.array_equal(w, c.weights_flat()[k])
                   for k, w in a.weights_flat().items())

    def test_config_hash_sensitivity(self):
        h1 = config_hash(srnn_spec("Z").to_dict(), 0)
        h2 = config_hash(srnn_spec("Z").to_dict(), 0)
        h3 = config_hash(srnn_spec("X").to_dict(), 0)
        assert h1 == h2 and h1 != h3

    def test_glorot_bounds(self):
        m = build_model(dnn2_spec(), seed=0)
        w = m.layers[0].weights["W"]
        limit = math.sqrt(6.0 / (12 + 48))
        assert np.all(np.abs(w) <= limit)
        assert np.max(np.abs(w)) > 0.5 * limit


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = build_model(drnn_spec(), seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(
            epoch=7, weights=model.weights_flat(),
            config_hash="abc123", extra={"note": 1}))
        ckpt = load_checkpoint(path)
        assert ckpt.epoch == 7
        assert ckpt.config_hash == "abc123"
        assert ckpt.extra == {"note": 1}
        for k, w in model.weights_flat().items():
            assert np.array_equal(ckpt.weights[k], w)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    # a corrupt size field raises ValueError before anything of the size
    # it declares is allocated: the file is 0.1 kB, the bound 1 MB
    @pytest.mark.parametrize("field", ["dimension", "name_length"])
    def test_corrupt_size_field_raises_in_bounded_memory(self, tmp_path,
                                                         field):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint(epoch=0, weights={"w": np.ones(3)},
                                         config_hash="abc"))
        raw = bytearray(path.read_bytes())
        # magic, version, epoch, hash, extra "{}", tensor count
        name_at = 4 + 4 + 4 + (4 + 3) + (4 + 2) + 4
        if field == "name_length":
            raw[name_at:name_at + 4] = struct.pack("<I", 2 ** 32 - 1)
        else:  # past the name "w" and ndim 1
            at = name_at + 4 + 1 + 4
            raw[at:at + 8] = struct.pack("<Q", 2 ** 40)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated checkpoint"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_resume_matches_uninterrupted(self, tmp_path):
        rng = np.random.default_rng(31)
        x = rng.integers(0, 2, size=(64, 6)).astype(float)
        y = (x.sum(axis=1) % 2)[:, None].astype(float)
        spec = dnn2_spec(input_dim=6)
        cfg = TrainConfig(epochs=4, batch_size=16, lr=1e-2, seed=9)

        straight = build_model(spec, seed=2)
        train(straight, x, y, cfg, checkpoint_dir=str(tmp_path / "a"))

        resumed = build_model(spec, seed=2)
        os.makedirs(tmp_path / "a", exist_ok=True)
        cfg2 = TrainConfig(epochs=2, batch_size=16, lr=1e-2, seed=9)
        os.makedirs(tmp_path / "b", exist_ok=True)
        train(resumed, x, y, cfg2, checkpoint_dir=str(tmp_path / "b"))
        adam = restore(resumed,
                       load_checkpoint(tmp_path / "b" / "epoch_0001.ckpt"))
        train(resumed, x, y, cfg, start_epoch=2, adam=adam)

        # resume is exact: the flat moments refill bit for bit
        assert np.array_equal(straight.params, resumed.params)

    @pytest.fixture(autouse=True)
    def _mkdirs(self, tmp_path):
        os.makedirs(tmp_path / "a", exist_ok=True)
        os.makedirs(tmp_path / "b", exist_ok=True)


class TestTraining:
    def test_toy_parity_converges(self):
        # 3-bit parity, memorized by a small dense net
        bits = np.array([[b >> 2 & 1, b >> 1 & 1, b & 1]
                         for b in range(8)], dtype=float)
        labels = (bits.sum(axis=1) % 2)[:, None]
        spec = NetworkSpec("toy", 3, False, (
            {"kind": "dense", "units": 16, "input_dim": 3,
             "activation": "relu"},
            {"kind": "dense", "units": 1, "input_dim": 16,
             "activation": "sigmoid"},
        ))
        model = build_model(spec, seed=4)
        hist = train(model, bits, labels,
                     TrainConfig(epochs=200, batch_size=8, lr=0.05, seed=0))
        assert hist[-1]["loss"] < 1e-2

    def test_training_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2, size=(32, 4)).astype(float)
        y = rng.integers(0, 2, size=(32, 1)).astype(float)
        spec = dnn2_spec(input_dim=4)
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-2, seed=1)
        a = build_model(spec, seed=0)
        b = build_model(spec, seed=0)
        ha = train(a, x, y, cfg)
        hb = train(b, x, y, cfg)
        assert [r["loss"] for r in ha] == [r["loss"] for r in hb]
        for k, w in a.weights_flat().items():
            assert np.array_equal(w, b.weights_flat()[k])

    def test_dual_head_both_heads_learn(self):
        # masked dual-head loss must still deliver gradient to each head
        rng = np.random.default_rng(6)
        x = rng.integers(0, 2, size=(40, 3, 12)).astype(float)
        y = np.full((40, 2), -1.0)
        y[::2, 0] = rng.integers(0, 2, size=20)
        y[1::2, 1] = rng.integers(0, 2, size=20)
        model = build_model(tiny_recurrent_spec(heads=1), seed=0)
        spec = NetworkSpec("tiny2", 12, True, (
            {"kind": "masking", "mask_value": -1.0},
            {"kind": "lstm", "units": 6, "input_dim": 12,
             "return_sequences": False,
             "output_gate_activation": "sigmoid"},
            {"kind": "dense", "units": 2, "input_dim": 6,
             "activation": "sigmoid"},
        ))
        model = build_model(spec, seed=0)
        q = model.forward(x, trace=True)
        model.zero_grads()
        model.backward(bce_loss_grad(y, q))
        head_w_grad = model.layers[-1].grads["W"]
        assert np.abs(head_w_grad[:, 0]).sum() > 0
        assert np.abs(head_w_grad[:, 1]).sum() > 0

    def test_early_stop(self):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 2, size=(16, 4)).astype(float)
        y = rng.integers(0, 2, size=(16, 1)).astype(float)
        model = build_model(dnn2_spec(input_dim=4), seed=0)
        hist = train(model, x, y,
                     TrainConfig(epochs=50, batch_size=8, lr=1e-3, seed=0),
                     stop_fn=lambda rec: rec["epoch"] >= 4)
        assert len(hist) == 5
