"""Multiplier backpropagation relative to a background dataset.

Each attribution compares a forward pass on the input with one on a
background sample and pushes finite-difference multipliers back through
the stack. Both passes are ordinary ``Model.forward`` calls; the caches
they leave on the layers are the traces the multipliers read. The rules
are the linear rule on affine ops, the rescale rule Delta-out / Delta-in
on sigmoids, tanh and relu, and a symmetric bilinear rule on elementwise
products (for y = u*v the multipliers are m_u = (v+vbar)/2 and
m_v = (u+ubar)/2, which makes the decomposition of Delta-y exact).
Averaging over the background gives per-input-bit scores whose sum
equals f(x) minus the mean background output.

Syndrome and flag inputs repeat heavily, so the work runs on distinct
rows only: each distinct input row is attributed once and its scores are
copied to every input that equals it, and the background average is a
mean over the distinct background rows weighted by how often each
occurs. Both give the same values as the all-pairs average, up to float
summation order.

When a round is padded on the input side, the background pass is forced
onto the same padding mask (the ``mask`` argument of ``Model.forward``)
so the gating stays an affine op; padded rounds then receive exactly
zero attribution. The background pass therefore depends only on the
padding pattern: the distinct inputs are grouped by pattern, the
distinct background rows are traced once per pattern, each chunk of
inputs is traced once, and the multipliers of every (input, background)
pair are formed on a (inputs, background, ..) grid by broadcasting the
two traces against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.layers import Dense, Dropout, Lstm, Masking
from .shapley import _distinct_rows

GUARD = 1e-12


@dataclass
class Attribution:
    """Per-input-bit scores phi (shaped like the explained input) and
    the baseline value phi0 (mean model output on the background)."""

    phi: np.ndarray
    phi0: float


def _rescale(d_out, d_in, local):
    # where d_in is tiny the quotient is discarded; adding 1 there only
    # keeps the division finite
    tiny = np.abs(d_in) < GUARD
    return np.where(tiny, local, d_out / (d_in + tiny))


def _padding(model, x):
    """The masking layer's padding mask of ``x``, or None for a network
    without one."""
    for layer in model.layers:
        if isinstance(layer, Masking):
            return layer.padding(x)
    return None


def _forward_trace(model, x, mask):
    """``model.forward`` with the padding mask forced to ``mask``, so that
    two passes share one padding pattern, and the caches it leaves on
    the layers."""
    out = model.forward(x, mask=mask)
    return out, [layer.cache for layer in model.layers]


def _dense_local(layer, cache):
    if layer.activation == "relu":
        return (cache["z"] > 0).astype(float)
    if layer.activation == "sigmoid":
        a = cache["a"]
        return a * (1.0 - a)
    return np.ones_like(cache["z"])


def _matmul(m, w):
    """``m @ w`` over the last axis of a (P, Q, .., k) multiplier block."""
    return (m.reshape(-1, m.shape[-1]) @ w).reshape(m.shape[:-1]
                                                    + w.shape[1:])


def _lstm_multipliers(layer, cx, cr, m_out, lx, lr):
    """Push (P, Q, ..) pair multipliers through one LSTM layer; ``lx`` and
    ``lr`` lift an input-pass or background-pass array onto the pair
    grid."""
    n = layer.n
    wx, wh, b = (layer.weights[k] for k in ("W_x", "W_h", "b"))
    T = cx["T"]
    lead = m_out.shape[:2]
    mx_in = np.empty(lead + (T, layer.d))
    mh = np.zeros(lead + (n,)) if layer.return_sequences else m_out
    mc = np.zeros(lead + (n,))
    for t in reversed(range(T)):
        sx, sr = cx["steps"][t], cr["steps"][t]
        # both passes share the padding mask
        m = None if sx["m"] is None else lx(sx["m"])
        if layer.return_sequences:
            mh = mh + (m_out[:, :, t] if m is None else m * m_out[:, :, t])
        mh_cand = mh if m is None else m * mh
        ax, ar = lx(sx["a"]), lr(sr["a"])
        ox, fx, ix, ccx = layer.gates(ax)
        or_, fr, ir, ccr = layer.gates(ar)
        tcx, tcr = lx(sx["tc"]), lr(sr["tc"])
        mz = np.empty(lead + (4 * n,))
        mo, mf, mi, mcc = layer.gates(mz)
        # h_cand = o * tanh(c_cand): bilinear split
        half = mh_cand * 0.5
        np.multiply(half, tcx + tcr, out=mo)
        mtc = half * (ox + or_)
        mc_cand = mtc * _rescale(
            tcx - tcr, lx(sx["c"]) - lr(sr["c"]), 1.0 - tcx ** 2)
        mc_cand += mc if m is None else m * mc
        # c_cand = c_prev * f + cc * i: bilinear splits
        half = mc_cand * 0.5
        np.multiply(half, lx(sx["c_prev"]) + lr(sr["c_prev"]), out=mf)
        np.multiply(half, ccx + ccr, out=mi)
        np.multiply(half, ix + ir, out=mcc)
        mc_prev = half * (fx + fr)
        # gate nonlinearities: rescale to the pre-activations, one fused
        # product per pass
        zx = lx((sx["x"] @ wx + sx["h_prev"] @ wh) + b)
        zr = lr((sr["x"] @ wx + sr["h_prev"] @ wh) + b)
        mz *= _rescale(ax - ar, zx - zr, layer.slopes(ax))
        mx_in[:, :, t] = _matmul(mz, wx.T)
        mh_prev = _matmul(mz, wh.T)
        if m is not None:
            # a masked pair passes its state multipliers straight through
            mh_prev += (1.0 - m) * mh
            mc_prev += (1.0 - m) * mc
        mh, mc = mh_prev, mc_prev
    return mx_in


def _multiplier_backward(model, traces_x, traces_r, m_out, axis_r):
    """Multipliers of (input, background) pairs from the two passes'
    traces. Input-pass rows index the first axis of the pair grid;
    background rows index the second (``axis_r`` 0: every input against
    every background row) or align with the inputs (``axis_r`` 1)."""
    def lx(a):
        return np.expand_dims(a, 1)

    def lr(a):
        return np.expand_dims(a, axis_r)

    m = m_out
    for layer, cx, cr in zip(reversed(model.layers), reversed(traces_x),
                             reversed(traces_r)):
        if isinstance(layer, Masking):
            m = m * lx(cx["mask"])[..., None]
        elif isinstance(layer, Dense):
            mz = m * _rescale(lx(cx["a"]) - lr(cr["a"]),
                              lx(cx["z"]) - lr(cr["z"]),
                              lx(_dense_local(layer, cx)))
            m = _matmul(mz, layer.weights["W"].T)
        elif isinstance(layer, Lstm):
            m = _lstm_multipliers(layer, cx, cr, m, lx, lr)
        elif not isinstance(layer, Dropout):  # eval-mode dropout: identity
            raise ValueError(f"unsupported layer {type(layer).__name__}")
    return m


def _pairs_attribution(model, x_rep, refs, head):
    """Multipliers for aligned (input, background) row pairs."""
    mask = _padding(model, x_rep)
    out_x, tx = _forward_trace(model, x_rep, mask)
    out_r, tr = _forward_trace(model, refs, mask)
    m_out = np.zeros((out_x.shape[0], 1, out_x.shape[1]))
    m_out[..., head] = 1.0
    mult = _multiplier_backward(model, tx, tr, m_out, axis_r=1)[:, 0]
    return mult * (x_rep - refs), out_r[:, head]


def deepshap_batch(model, xs, background, head: int = 0,
                   max_rows: int = 4096):
    """Attributions for a batch of inputs against a shared background.

    Returns (phi, phi0): per-sample scores shaped like the inputs and
    per-sample baseline values.
    """
    xs = np.asarray(xs, dtype=float)
    ux, inverse, _ = _distinct_rows(xs)
    refs, _, counts = _distinct_rows(np.asarray(background, dtype=float))
    weights = counts / counts.sum()
    n, nb = ux.shape[0], refs.shape[0]
    phi = np.empty_like(ux)
    phi0 = np.empty(n)
    per_chunk = max(1, max_rows // nb)
    masks = _padding(model, ux)
    if masks is None:
        groups = [(None, np.arange(n))]
    else:
        patterns, which = np.unique(masks, axis=0, return_inverse=True)
        groups = [(p[None], np.flatnonzero(which.reshape(-1) == k))
                  for k, p in enumerate(patterns)]
    for mask, rows in groups:
        # the background pass depends only on the padding pattern
        out_r, tr = _forward_trace(model, refs, mask)
        phi0[rows] = out_r[:, head] @ weights
        for lo in range(0, len(rows), per_chunk):
            idx = rows[lo:lo + per_chunk]
            xb = ux[idx]
            out_x, tx = _forward_trace(model, xb, mask)
            m_out = np.zeros((len(idx), nb, out_x.shape[1]))
            m_out[..., head] = 1.0
            mult = _multiplier_backward(model, tx, tr, m_out, axis_r=0)
            contrib = mult * (xb[:, None] - refs[None])
            phi[idx] = (weights @ contrib.reshape(len(idx), nb, -1)
                        ).reshape(xb.shape)
    return phi[inverse], phi0[inverse]


def deepshap(model, x, background, head: int = 0) -> Attribution:
    """Attribution for a single input volume."""
    x = np.asarray(x, dtype=float)
    phi, phi0 = deepshap_batch(model, x[None], background, head=head)
    return Attribution(phi=phi[0], phi0=float(phi0[0]))


def relevance_conservation_check(model, x, background, head: int = 0):
    """Per-sample residual |sum phi - (f(x) - phi0)|."""
    xs = np.asarray(x, dtype=float)
    phi, phi0 = deepshap_batch(model, xs, background, head=head)
    out = model.forward(xs)[:, head]
    sums = phi.reshape(xs.shape[0], -1).sum(axis=1)
    return np.abs(sums - (out - phi0))
