"""Network layers with explicit forward caches and hand-written backward
passes. Everything is double precision; batch axis first."""

from __future__ import annotations

import numpy as np


def sigmoid(z):
    """Overflow-free logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, both from e = exp(-|z|) without branching.
    (min(z, -z) rather than -abs(z) keeps the sign of a NaN input.)"""
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def glorot_uniform(rng, fan_in, fan_out, shape=None):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape)


class Layer:
    """Common parameter bookkeeping: subclasses register tensors in
    self.weights (name -> array) and matching self.grads."""

    def __init__(self):
        self.weights: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _register(self, name: str, value: np.ndarray):
        self.weights[name] = value
        self.grads[name] = np.zeros_like(value)

    def zero_grads(self):
        for g in self.grads.values():
            g[:] = 0.0

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Masking(Layer):
    """Marks a round as padding when every channel equals mask_value; the
    recurrent layers then skip those rounds entirely."""

    def __init__(self, mask_value: float = -1.0):
        super().__init__()
        self.mask_value = mask_value
        self.mask = None

    def forward(self, x, train=False, rng=None):
        self.mask = (~np.all(x == self.mask_value, axis=2)).astype(float)
        # padded rounds carry no information downstream
        return x * self.mask[:, :, None]

    def backward(self, dout):
        return dout * self.mask[:, :, None]


class Lstm(Layer):
    """LSTM layer; ``return_sequences`` selects sequential vs final-only
    output. The output-gate activation defaults to the logistic function
    and can be switched to ReLU."""

    GATES = ("f", "i", "c", "o")

    def __init__(self, units: int, input_dim: int, return_sequences: bool,
                 rng=None, output_gate_activation: str = "sigmoid"):
        super().__init__()
        self.n = units
        self.d = input_dim
        self.return_sequences = return_sequences
        self.output_gate_activation = output_gate_activation
        rng = rng or np.random.default_rng(0)
        for g in self.GATES:
            self._register(f"W_x{g}", glorot_uniform(rng, input_dim, units))
            self._register(f"W_h{g}", glorot_uniform(rng, units, units,
                                                     shape=(units, units)))
            bias = np.zeros(units)
            if g == "f":
                bias += 1.0  # open forget gate at init
            self._register(f"b_{g}", bias)
        self.cache = None

    def _gate_act(self, z, gate):
        if gate == "o" and self.output_gate_activation == "relu":
            return np.maximum(z, 0.0)
        return sigmoid(z)

    def step(self, x_t, h_prev, c_prev):
        """One recurrence step; returns (h, c) and the gate cache."""
        w = self.weights
        zf = x_t @ w["W_xf"] + h_prev @ w["W_hf"] + w["b_f"]
        zi = x_t @ w["W_xi"] + h_prev @ w["W_hi"] + w["b_i"]
        zc = x_t @ w["W_xc"] + h_prev @ w["W_hc"] + w["b_c"]
        zo = x_t @ w["W_xo"] + h_prev @ w["W_ho"] + w["b_o"]
        f = sigmoid(zf)
        i = sigmoid(zi)
        cc = np.tanh(zc)
        o = self._gate_act(zo, "o")
        c = c_prev * f + cc * i
        tc = np.tanh(c)
        h = o * tc
        return h, c, dict(x=x_t, h_prev=h_prev, c_prev=c_prev, f=f, i=i,
                          cc=cc, o=o, c=c, tc=tc, h=h)

    def forward(self, x, mask=None, train=False, rng=None):
        B, T, _ = x.shape
        h = np.zeros((B, self.n))
        c = np.zeros((B, self.n))
        steps = []
        outs = np.zeros((B, T, self.n))
        for t in range(T):
            h_cand, c_cand, cache = self.step(x[:, t, :], h, c)
            if mask is not None:
                m = mask[:, t:t + 1]
                h_new = m * h_cand + (1.0 - m) * h
                c_new = m * c_cand + (1.0 - m) * c
            else:
                m = None
                h_new, c_new = h_cand, c_cand
            cache["m"] = m
            cache["c_comb"] = c_new
            steps.append(cache)
            outs[:, t, :] = h_new if m is None else m * h_new
            h, c = h_new, c_new
        self.cache = dict(steps=steps, mask=mask, T=T, B=B)
        return outs if self.return_sequences else h

    def backward(self, dout):
        steps = self.cache["steps"]
        mask = self.cache["mask"]
        T, B = self.cache["T"], self.cache["B"]
        w = self.weights
        dx = np.zeros((B, T, self.d))
        dh_next = np.zeros((B, self.n))
        dc_next = np.zeros((B, self.n))
        if not self.return_sequences:
            dh_next = dout.copy()
        for t in reversed(range(T)):
            s = steps[t]
            dh = dh_next.copy()
            if self.return_sequences:
                dh += dout[:, t, :] if mask is None \
                    else s["m"] * dout[:, t, :]
            if mask is None:
                dh_cand, dh_pass = dh, 0.0
            else:
                dh_cand = s["m"] * dh
                dh_pass = (1.0 - s["m"]) * dh
            do = dh_cand * s["tc"]
            # tanh is applied to the combined (mask-aware) memory state
            tc_comb = s["tc"] if mask is None else np.tanh(s["c_comb"])
            dtc = dh_cand * s["o"]
            dc = dc_next + dtc * (1.0 - tc_comb ** 2)
            if mask is None:
                dc_cand, dc_pass = dc, 0.0
            else:
                dc_cand = s["m"] * dc
                dc_pass = (1.0 - s["m"]) * dc
            df = dc_cand * s["c_prev"]
            di = dc_cand * s["cc"]
            dcc = dc_cand * s["i"]
            dzf = df * s["f"] * (1.0 - s["f"])
            dzi = di * s["i"] * (1.0 - s["i"])
            dzc = dcc * (1.0 - s["cc"] ** 2)
            if self.output_gate_activation == "relu":
                dzo = do * (s["o"] > 0)
            else:
                dzo = do * s["o"] * (1.0 - s["o"])
            x_t, h_prev = s["x"], s["h_prev"]
            for g, dz in zip(self.GATES, (dzf, dzi, dzc, dzo)):
                self.grads[f"W_x{g}"] += x_t.T @ dz
                self.grads[f"W_h{g}"] += h_prev.T @ dz
                self.grads[f"b_{g}"] += dz.sum(axis=0)
            dx[:, t, :] = (dzf @ w["W_xf"].T + dzi @ w["W_xi"].T
                           + dzc @ w["W_xc"].T + dzo @ w["W_xo"].T)
            dh_next = (dh_pass + dzf @ w["W_hf"].T + dzi @ w["W_hi"].T
                       + dzc @ w["W_hc"].T + dzo @ w["W_ho"].T)
            dc_next = dc_pass + dc_cand * s["f"]
        return dx


class Dense(Layer):
    def __init__(self, units: int, input_dim: int, activation: str = "linear",
                 rng=None):
        super().__init__()
        if activation not in ("linear", "relu", "sigmoid"):
            raise ValueError(f"unknown activation {activation!r}")
        self.n = units
        self.d = input_dim
        self.activation = activation
        rng = rng or np.random.default_rng(0)
        self._register("W", glorot_uniform(rng, input_dim, units))
        self._register("b", np.zeros(units))
        self.cache = None

    def forward(self, x, train=False, rng=None):
        z = x @ self.weights["W"] + self.weights["b"]
        if self.activation == "relu":
            a = np.maximum(z, 0.0)
        elif self.activation == "sigmoid":
            a = sigmoid(z)
        else:
            a = z
        self.cache = dict(x=x, z=z, a=a)
        return a

    def backward(self, dout):
        z, a = self.cache["z"], self.cache["a"]
        if self.activation == "relu":
            dz = dout * (z > 0)
        elif self.activation == "sigmoid":
            dz = dout * a * (1.0 - a)
        else:
            dz = dout
        self.grads["W"] += self.cache["x"].T @ dz
        self.grads["b"] += dz.sum(axis=0)
        return dz @ self.weights["W"].T


class Dropout(Layer):
    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = rate
        self.keep_mask = None

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self.keep_mask = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        self.keep_mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
        return x * self.keep_mask

    def backward(self, dout):
        if self.keep_mask is None:
            return dout
        return dout * self.keep_mask
