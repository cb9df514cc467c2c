"""Network layers with hand-written backward passes. Everything is double
precision; batch axis first.

A layer keeps the caches its ``backward`` reads only when its forward is
asked to: a training forward (``train``) or a traced one (``trace``, which
DeepSHAP reads). Any other forward sets ``cache`` to None and computes
what its output needs, in place where it can, so a ``backward`` after it
raises instead of reading another call's cache."""

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
    self.weights (name -> array) and matching self.grads, which a `Model`
    turns into views of its flat vectors. A layer that
    caches its forward pass puts a new dict in self.cache on every such
    call, so a reference to one call's cache stays valid."""

    def __init__(self):
        self.weights: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.cache = None

    def _register(self, name: str, value: np.ndarray):
        self.weights[name] = value
        self.grads[name] = np.zeros_like(value)

    def saved(self) -> dict:
        """The cache of the last forward, which ``backward`` reads."""
        if self.cache is None:
            raise ValueError(
                f"{type(self).__name__}.backward needs the cache of a "
                "forward run with train=True or trace=True")
        return self.cache

    def forward(self, x, train=False, rng=None, trace=False):
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

    def forward(self, x, mask=None, train=False, rng=None, trace=False):
        """``mask``, when given, replaces the padding mask of ``x``."""
        if mask is None:
            mask = self.padding(x)
        self.cache = dict(mask=mask) if train or trace else None
        # padded rounds carry no information downstream
        return x * mask[:, :, None]

    def backward(self, dout):
        return dout * self.saved()["mask"][:, :, None]


class Lstm(Layer):
    """LSTM layer; ``return_sequences`` selects sequential vs final-only
    output. The output-gate activation defaults to the logistic function
    and can be switched to ReLU.

    The parameters are three fused gate blocks, W_x (d, 4n), W_h (n, 4n)
    and b (4n,), each with one n-column block per gate in FUSED order,
    which puts the three logistic gates next to each other. A round forms
    its pre-activations x W_x + h W_h + b in that fused (rows, 4n) layout
    and activates them in a gate-major (4, rows, n) slab, where each gate,
    and the three logistic gates together, are one contiguous block;
    `backward` forms its gate gradients in the slab and turns them to the
    fused layout once for its products. `gates` and `slopes` read either
    layout.

    A round runs only on the rows whose mask is 1: the others keep their
    state, output 0 in the sequence and pass their state gradients
    straight through."""

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
        """(o, f, i, cc) views of a gate block: the leading index of a
        gate-major (4, .., n) slab, or the n-column blocks of a fused
        (.., 4n) block, the layout of the parameters and of DeepSHAP's
        pair grids."""
        n = self.n
        if a.shape[-1] != 4 * n:
            return tuple(a)
        return tuple(a[..., k * n:(k + 1) * n] for k in range(4))

    def fused(self, a):
        """The fused (rows, 4n) layout of a gate block: a copy of a
        (4, rows, n) slab, or ``a`` itself."""
        if a.shape[-1] == 4 * self.n:
            return a
        return a.transpose(1, 0, 2).reshape(a.shape[1], 4 * self.n)

    def slopes(self, a):
        """Slope of each gate's activation at its pre-activation, from the
        activations ``a`` (a slab or a fused block), in a's layout."""
        d = a * (1.0 - a)
        o, _, _, cc = self.gates(a)
        d_o, _, _, d_cc = self.gates(d)
        d_cc[...] = 1.0 - cc * cc
        if self.output_gate_activation == "relu":
            d_o[...] = o > 0
        return d

    def _activate(self, z):
        """Gate activations of a pre-activation block (a slab or a fused
        block), in place."""
        n = self.n
        o, _, _, cc = self.gates(z)
        lo = 0
        if self.output_gate_activation == "relu":
            np.maximum(o, 0.0, out=o)
            lo = 1
        logistic = z[lo:3] if z.shape[-1] != 4 * n else z[..., lo * n:3 * n]
        sigmoid(logistic, out=logistic)
        np.tanh(cc, out=cc)
        return z

    @staticmethod
    def _active(mask, t):
        """(rows, live) of round ``t``: rows None when every row holds the
        round; otherwise the indices of the rows it runs on, whose first
        ``live`` hold it. numpy multiplies a lone row by gemv, which rounds
        its sums unlike the gemm of two or more rows, so a lone row runs
        beside one idle row whose results are dropped: every row then
        gets the bits of an unmasked forward."""
        if mask is None or np.all(mask[:, t] == 1.0):
            return None, 0
        rows = np.flatnonzero(mask[:, t])
        live = len(rows)
        if live == 1:  # then some other row is masked
            rows = np.append(rows, 1 if rows[0] == 0 else 0)
        return rows, live

    def round_buffers(self, rows):
        """Work buffers for `_round` on up to ``rows`` rows."""
        n = self.n
        return (np.empty((rows, 4 * n)), np.empty((rows, 4 * n)),
                np.empty((rows, n)), np.empty((rows, n)))

    def _round(self, xt, h_prev, c_prev, scratch):
        """One recurrence step on the rows of ``xt``. Returns the fused
        pre-activations, the gate-major activation slab, memory,
        tanh(memory) and output. With ``scratch`` (`round_buffers`) it
        writes into them and updates ``h_prev`` and ``c_prev`` in place;
        with None it allocates every array, so that a cache can keep
        them."""
        wx, wh, b = (self.weights[k] for k in ("W_x", "W_h", "b"))
        rows, n = len(xt), self.n
        s_z = s_hw = s_tc = s_ci = s_c = s_h = None
        if scratch is not None:
            s_z, s_hw, s_tc, s_ci = (s[:rows] for s in scratch)
            s_c, s_h = c_prev, h_prev
        z = np.matmul(xt, wx, out=s_z)
        hw = np.matmul(h_prev, wh, out=s_hw)
        z += hw  # (x W_x + h W_h) + b
        z += b
        # the slab takes the spent product's memory
        a = hw.reshape(4, rows, n)
        np.copyto(a, z.reshape(rows, 4, n).transpose(1, 0, 2))
        o, f, i, cc = self._activate(a)
        c = np.multiply(c_prev, f, out=s_c)
        c += np.multiply(cc, i, out=s_ci)
        tc = np.tanh(c, out=s_tc)
        return z, a, c, tc, np.multiply(o, tc, out=s_h)

    def forward(self, x, mask=None, train=False, rng=None, trace=False):
        keep = train or trace
        B, T, _ = x.shape
        n = self.n
        h = np.zeros((B, n))
        c = np.zeros((B, n))
        seq = np.zeros((B, T, n)) if self.return_sequences else None
        # a forward without a cache reuses one set of round buffers
        scratch = None if keep else self.round_buffers(B)
        steps = []
        for t in range(T):
            rows, live = self._active(mask, t)
            if rows is None:
                # one input product per round keeps every product's shape
                # independent of T, so padding cannot change a result bit
                xt, hp, cp = x[:, t], h, c
            elif live == 0:
                steps.append(None)
                continue
            else:
                xt, hp, cp = x[rows, t], h[rows], c[rows]
            z, a, c_new, tc, h_new = self._round(xt, hp, cp, scratch)
            if keep:
                steps.append(dict(x=xt, h_prev=hp, c_prev=cp, a=a, c=c_new,
                                  tc=tc, rows=rows, live=live))
                if trace:  # DeepSHAP reads the pre-activations
                    steps[-1]["z"] = z
            if rows is None:
                h, c = h_new, c_new
                if seq is not None:
                    seq[:, t] = h
                continue
            if keep:
                # the cache holds the previous state arrays
                h, c = h.copy(), c.copy()
            real = rows[:live]
            h[real] = h_new[:live]
            c[real] = c_new[:live]
            if seq is not None:
                seq[real, t] = h_new[:live]
        self.cache = dict(steps=steps, B=B, T=T) if keep else None
        return h if seq is None else seq

    def backward(self, dout):
        steps, B, T = (self.saved()[k] for k in ("steps", "B", "T"))
        n = self.n
        wx, wh = self.weights["W_x"], self.weights["W_h"]
        gwx, gwh, gb = (self.grads[k] for k in ("W_x", "W_h", "b"))
        dx = np.zeros((B, T, self.d))
        dh_next = np.zeros((B, n)) if self.return_sequences else dout.copy()
        dc_next = np.zeros((B, n))
        for t in reversed(range(T)):
            s = steps[t]
            if s is None:
                continue  # no row holds the round: all pass straight through
            rows, live, a, tc = (s[k] for k in ("rows", "live", "a", "tc"))
            o, f, i, cc = self.gates(a)
            if rows is None:
                dh = dh_next
                if self.return_sequences:
                    dh = dh + dout[:, t]
                dc = dc_next
            else:
                dh, dc = dh_next[rows], dc_next[rows]
                if self.return_sequences:
                    dh += dout[rows, t]
                dh[live:] = 0.0  # an idle row adds nothing
                dc[live:] = 0.0
            dc = dc + dh * o * (1.0 - tc * tc)
            # dz = (gradient at the gate's output) * (its slope), formed
            # in a's layout and turned fused once for the four products
            dz = self.slopes(a)
            dz_o, dz_f, dz_i, dz_c = self.gates(dz)
            dz_o *= dh * tc
            dz_f *= dc * s["c_prev"]
            dz_i *= dc * cc
            dz_c *= dc * i
            dz = self.fused(dz)
            gwx += s["x"].T @ dz
            gwh += s["h_prev"].T @ dz
            gb += dz.sum(axis=0)
            if rows is None:
                np.matmul(dz, wx.T, out=dx[:, t])
                dh_next = dz @ wh.T
                dc_next = dc * f
                continue
            real = rows[:live]
            dx[real, t] = (dz @ wx.T)[:live]
            dh_next[real] = (dz @ wh.T)[:live]
            dc_next[real] = (dc * f)[:live]
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

    def forward(self, x, train=False, rng=None, trace=False):
        keep = train or trace
        z = x @ self.weights["W"]
        z += self.weights["b"]
        # without a cache the activation overwrites z
        out = None if keep else z
        if self.activation == "relu":
            a = np.maximum(z, 0.0, out=out)
        elif self.activation == "sigmoid":
            a = sigmoid(z, out=out)
        else:
            a = z
        self.cache = dict(x=x, z=z, a=a) if keep else None
        return a

    def backward(self, dout):
        cache = self.saved()
        z, a = cache["z"], cache["a"]
        if self.activation == "relu":
            dz = dout * (z > 0)
        elif self.activation == "sigmoid":
            dz = dout * a * (1.0 - a)
        else:
            dz = dout
        self.grads["W"] += cache["x"].T @ dz
        self.grads["b"] += dz.sum(axis=0)
        return dz @ self.weights["W"].T


class Dropout(Layer):
    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = rate

    def forward(self, x, train=False, rng=None, trace=False):
        keep_mask = None
        if train and self.rate > 0.0:
            if rng is None:
                raise ValueError("training-mode dropout needs an rng")
            keep_mask = (rng.random(x.shape) >= self.rate) \
                / (1.0 - self.rate)
        self.cache = dict(keep_mask=keep_mask) if train or trace else None
        return x if keep_mask is None else x * keep_mask

    def backward(self, dout):
        keep_mask = self.saved()["keep_mask"]
        return dout if keep_mask is None else dout * keep_mask
