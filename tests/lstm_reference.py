"""Reference LSTM passes, the way `Lstm` ran before it activated its gates
in a gate-major slab: every round activates its fused (rows, 4n)
pre-activation block in place, on strided column slices, and its cache
holds that block; the backward forms its gate gradients in the same
block. DeepSHAP's trace recomputed each round's pre-activations from the
cache. Each function takes the layer as its first argument, so it can
stand in for the method of the same role."""

import numpy as np

from steanedec.nn.layers import sigmoid


def gates(layer, a):
    """(o, f, i, cc) column views of a fused (.., 4n) block."""
    n = layer.n
    return tuple(a[..., k * n:(k + 1) * n] for k in range(4))


def slopes(layer, a):
    n = layer.n
    d = a * (1.0 - a)
    cc = a[..., 3 * n:]
    d[..., 3 * n:] = 1.0 - cc * cc
    if layer.output_gate_activation == "relu":
        d[..., :n] = a[..., :n] > 0
    return d


def activate(layer, z):
    """Gate activations of a fused pre-activation block, in place."""
    n = layer.n
    lo = 0
    if layer.output_gate_activation == "relu":
        np.maximum(z[..., :n], 0.0, out=z[..., :n])
        lo = n
    sigmoid(z[..., lo:3 * n], out=z[..., lo:3 * n])
    np.tanh(z[..., 3 * n:], out=z[..., 3 * n:])
    return z


def active(mask, t):
    """`Lstm._active`: (rows, live) of round ``t``, a lone row beside an
    idle one."""
    if mask is None or np.all(mask[:, t] == 1.0):
        return None, 0
    rows = np.flatnonzero(mask[:, t])
    live = len(rows)
    if live == 1:
        rows = np.append(rows, 1 if rows[0] == 0 else 0)
    return rows, live


def round_(layer, xt, h_prev, c_prev, scratch):
    """One round; with ``scratch`` (four buffers: two (rows, 4n), two
    (rows, n)) it writes into them and updates the state in place."""
    wx, wh, b = (layer.weights[k] for k in ("W_x", "W_h", "b"))
    s_a = s_hw = s_tc = s_ci = s_c = s_h = None
    if scratch is not None:
        s_a, s_hw, s_tc, s_ci = (s[:len(xt)] for s in scratch)
        s_c, s_h = c_prev, h_prev
    a = np.matmul(xt, wx, out=s_a)
    a += np.matmul(h_prev, wh, out=s_hw)
    a += b
    o, f, i, cc = gates(layer, activate(layer, a))
    c = np.multiply(c_prev, f, out=s_c)
    c += np.multiply(cc, i, out=s_ci)
    tc = np.tanh(c, out=s_tc)
    return a, c, tc, np.multiply(o, tc, out=s_h)


def forward(layer, x, mask=None, train=False, rng=None, trace=False):
    keep = train or trace
    B, T, _ = x.shape
    n = layer.n
    h = np.zeros((B, n))
    c = np.zeros((B, n))
    seq = np.zeros((B, T, n)) if layer.return_sequences else None
    scratch = None if keep else (np.empty((B, 4 * n)),
                                 np.empty((B, 4 * n)),
                                 np.empty((B, n)), np.empty((B, n)))
    steps = []
    for t in range(T):
        rows, live = active(mask, t)
        if rows is None:
            xt, hp, cp = x[:, t], h, c
        elif live == 0:
            steps.append(None)
            continue
        else:
            xt, hp, cp = x[rows, t], h[rows], c[rows]
        a, c_new, tc, h_new = round_(layer, xt, hp, cp, scratch)
        if keep:
            steps.append(dict(x=xt, h_prev=hp, c_prev=cp, a=a, c=c_new,
                              tc=tc, rows=rows, live=live))
        if rows is None:
            h, c = h_new, c_new
            if seq is not None:
                seq[:, t] = h
            continue
        if keep:
            h, c = h.copy(), c.copy()
        real = rows[:live]
        h[real] = h_new[:live]
        c[real] = c_new[:live]
        if seq is not None:
            seq[real, t] = h_new[:live]
    layer.cache = dict(steps=steps, B=B, T=T) if keep else None
    return h if seq is None else seq


def backward(layer, dout):
    cache = layer.cache
    steps, B, T = (cache[k] for k in ("steps", "B", "T"))
    n = layer.n
    wx, wh = layer.weights["W_x"], layer.weights["W_h"]
    gwx, gwh, gb = (layer.grads[k] for k in ("W_x", "W_h", "b"))
    dx = np.zeros((B, T, layer.d))
    dh_next = np.zeros((B, n)) if layer.return_sequences else dout.copy()
    dc_next = np.zeros((B, n))
    for t in reversed(range(T)):
        s = steps[t]
        if s is None:
            continue
        rows, live, a, tc = (s[k] for k in ("rows", "live", "a", "tc"))
        o, f, i, cc = gates(layer, a)
        if rows is None:
            dh = dh_next
            if layer.return_sequences:
                dh = dh + dout[:, t]
            dc = dc_next
        else:
            dh, dc = dh_next[rows], dc_next[rows]
            if layer.return_sequences:
                dh += dout[rows, t]
            dh[live:] = 0.0
            dc[live:] = 0.0
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = slopes(layer, a)
        dz_o, dz_f, dz_i, dz_c = gates(layer, dz)
        dz_o *= dh * tc
        dz_f *= dc * s["c_prev"]
        dz_i *= dc * cc
        dz_c *= dc * i
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


def lstm_trace(layer, cache, local):
    """DeepSHAP's per-trace quantities of a `forward` cache: each round's
    pre-activations ``z`` recomputed from its inputs and, with ``local``,
    the gate slopes and tanh's slope at the memory."""
    wx, wh, b = (layer.weights[k] for k in ("W_x", "W_h", "b"))
    steps = []
    for s in cache["steps"]:
        step = dict(s, z=(s["x"] @ wx + s["h_prev"] @ wh) + b)
        if local:
            step.update(slope=slopes(layer, s["a"]),
                        dtanh=1.0 - s["tc"] ** 2)
        steps.append(step)
    return dict(cache, steps=steps)
