"""Network layers with explicit forward caches and hand-written backward
passes. Everything is double precision; batch axis first."""

from __future__ import annotations

import numpy as np


def sigmoid(z, out=None):
    """Overflow-free logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, both from e = exp(-|z|) without branching.
    (min(z, -z) rather than -abs(z) keeps the sign of a NaN input.) The
    numerator max(e, sign z) is 1 for z >= 0 and e below, as e lies in
    (0, 1]. Writes into ``out`` when given, which may be ``z``."""
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    num = np.sign(z, out=out)
    np.maximum(e, num, out=num)
    return np.divide(num, np.add(e, 1.0, out=e), out=num)


def glorot_uniform(rng, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Layer:
    """Common parameter bookkeeping: subclasses register tensors in
    self.weights (name -> array) and matching self.grads. A layer that
    caches its forward pass puts a new dict in self.cache on every call,
    so a reference to one call's cache stays valid."""

    def __init__(self):
        self.weights: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.cache = None

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

    def padding(self, x):
        """(rows, T) float mask of the non-padded rounds of ``x``."""
        return (~np.all(x == self.mask_value, axis=2)).astype(float)

    @property
    def mask(self):
        """The mask of the last ``forward``."""
        return self.cache["mask"]

    def forward(self, x, mask=None, train=False, rng=None):
        """``mask``, when given, replaces the padding mask of ``x``."""
        if mask is None:
            mask = self.padding(x)
        self.cache = dict(mask=mask)
        # padded rounds carry no information downstream
        return x * mask[:, :, None]

    def backward(self, dout):
        return dout * self.mask[:, :, None]


class Lstm(Layer):
    """LSTM layer; ``return_sequences`` selects sequential vs final-only
    output. The output-gate activation defaults to the logistic function
    and can be switched to ReLU.

    The parameters are three fused gate blocks, W_x (d, 4n), W_h (n, 4n)
    and b (4n,), each with one n-column block per gate in FUSED order,
    which puts the three logistic gates next to each other."""

    # per-gate Glorot draw order: changing it changes every trained number
    GATES = ("f", "i", "c", "o")
    FUSED = ("o", "f", "i", "c")

    def __init__(self, units: int, input_dim: int, return_sequences: bool,
                 rng=None, output_gate_activation: str = "sigmoid"):
        super().__init__()
        self.n = units
        self.d = input_dim
        self.return_sequences = return_sequences
        self.output_gate_activation = output_gate_activation
        rng = rng or np.random.default_rng(0)
        wx = np.empty((input_dim, 4 * units))
        wh = np.empty((units, 4 * units))
        b = np.zeros(4 * units)
        blocks = dict(zip(self.FUSED, zip(self.gates(wx), self.gates(wh))))
        for g in self.GATES:
            bx, bh = blocks[g]
            bx[:] = glorot_uniform(rng, input_dim, units)
            bh[:] = glorot_uniform(rng, units, units)
        _, f, _, _ = self.gates(b)
        f[:] = 1.0  # open forget gate at init
        self._register("W_x", wx)
        self._register("W_h", wh)
        self._register("b", b)

    def gates(self, a):
        """(o, f, i, cc) views of a (.., 4n) gate block."""
        n = self.n
        return tuple(a[..., k * n:(k + 1) * n] for k in range(4))

    def slopes(self, a):
        """Slope of each gate's activation at its pre-activation, from the
        activations of a (.., 4n) gate block."""
        n = self.n
        d = a * (1.0 - a)
        cc = a[..., 3 * n:]
        d[..., 3 * n:] = 1.0 - cc * cc
        if self.output_gate_activation == "relu":
            d[..., :n] = a[..., :n] > 0
        return d

    def _activate(self, z):
        """Gate activations of a (.., 4n) pre-activation block, in place."""
        n = self.n
        lo = 0
        if self.output_gate_activation == "relu":
            np.maximum(z[..., :n], 0.0, out=z[..., :n])
            lo = n
        sigmoid(z[..., lo:3 * n], out=z[..., lo:3 * n])
        np.tanh(z[..., 3 * n:], out=z[..., 3 * n:])
        return z

    def _round(self, a, h_prev, c_prev, wh, b, hw):
        """One recurrence step: ``a`` holds x_t W_x on entry and the gate
        activations on return (``hw`` is scratch for h_prev W_h). Returns
        the candidate output, memory and tanh(memory)."""
        np.matmul(h_prev, wh, out=hw)
        a += hw  # (x W_x + h W_h) + b
        a += b
        o, f, i, cc = self.gates(self._activate(a))
        c = c_prev * f
        c += cc * i
        tc = np.tanh(c)
        return o * tc, c, tc

    def forward(self, x, mask=None, train=False, rng=None):
        B, T, _ = x.shape
        wx, wh, b = (self.weights[k] for k in ("W_x", "W_h", "b"))
        h = np.zeros((B, self.n))
        c = np.zeros((B, self.n))
        hw = np.empty((B, 4 * self.n))
        steps = []
        outs = []  # the rounds' outputs, zero where masked
        for t in range(T):
            # one input product per round keeps every product's shape
            # independent of T, so padding cannot change a result bit
            a = x[:, t] @ wx
            h_cand, c_cand, tc = self._round(a, h, c, wh, b, hw)
            m = None if mask is None else mask[:, t:t + 1]
            if m is not None and np.all(m == 1.0):
                m = None  # exact: 1 * a + 0 * b == a
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

    def backward(self, dout):
        steps, B, T = (self.cache[k] for k in ("steps", "B", "T"))
        n = self.n
        wx, wh = self.weights["W_x"], self.weights["W_h"]
        gwx, gwh, gb = (self.grads[k] for k in ("W_x", "W_h", "b"))
        dx = np.empty((B, T, self.d))
        dh_next = np.zeros((B, n)) if self.return_sequences else dout
        dc_next = np.zeros((B, n))
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
            # dz = (gradient at the gate's output) * (its slope)
            dz = self.slopes(a)
            dz_o, dz_f, dz_i, dz_c = self.gates(dz)
            dz_o *= dh_cand * tc
            dz_f *= dc_cand * s["c_prev"]
            dz_i *= dc_cand * cc
            dz_c *= dc_cand * i
            gwx += s["x"].T @ dz
            gwh += s["h_prev"].T @ dz
            gb += dz.sum(axis=0)
            np.matmul(dz, wx.T, out=dx[:, t])
            dh_next = dz @ wh.T
            dc_next = dc_cand * f
            if m is not None:
                # a masked row passes its state gradients straight through
                dh_next += (1.0 - m) * dh
                dc_next += (1.0 - m) * dc
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
