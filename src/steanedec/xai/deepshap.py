"""DeepSHAP: DeepLIFT multipliers averaged over a background dataset.

Each attribution compares a forward pass on the input with one on a
background sample and pushes finite-difference multipliers back through
the stack (DeepLIFT's rescale rule, Shrikumar et al. 2017). Both passes
are ordinary ``Model.forward`` calls; the caches they leave on the
layers are the traces the multipliers read. The rules are the linear
rule on affine ops, the rescale rule Delta-out / Delta-in on sigmoids,
tanh and relu, and a symmetric bilinear rule on elementwise products
(for y = u*v the multipliers are m_u = (v+vbar)/2 and m_v = (u+ubar)/2,
which makes the decomposition of Delta-y exact). Averaging over the
background (DeepSHAP, Lundberg & Lee 2017) gives per-input-bit scores
whose sum equals f(x) minus the mean background output.

Syndrome and flag inputs repeat heavily, so the work runs on distinct
rows only: each distinct input row is attributed once and its scores are
copied to every input that equals it, and the background average is a
mean over the distinct background rows weighted by how often each
occurs. Both give the same values as the all-pairs average, up to float
summation order.

A padded round of an input (every channel at the masking value) is
dropped before tracing and gets exactly zero attribution. The distinct
inputs are grouped by padding pattern, and each group's padded rounds
are dropped from its inputs and from the distinct background. Both
passes then count every remaining round as an input, a background row's
-1 rounds included, so no trace carries a mask. This is the same,
bit for bit, as tracing every round with the background forced onto the
input's padding mask: there a masked round leaves the LSTM state
unchanged and gets a zero multiplier. The background is traced once
per group and each chunk of inputs once, and the multipliers of every
(input, background) pair are formed on an (inputs, background, ..) grid
by broadcasting the two traces against each other. An input whose
rounds are all padding gets zero scores, and its baseline is the
weighted background mean of the model's output on it, which is that
output up to rounding.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Dense, Dropout, Lstm, Masking
from .shapley import _distinct_rows

GUARD = 1e-12


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


def _forward_trace(model, x):
    """``model.forward`` with every round of ``x`` counted as an input (an
    all-ones padding mask, which a network without a masking layer
    ignores), and the caches it leaves on the layers."""
    out = model.forward(x, mask=np.ones(x.shape[:2]))
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
        if layer.return_sequences:
            mh = mh + m_out[:, :, t]
        ax, ar = lx(sx["a"]), lr(sr["a"])
        ox, fx, ix, ccx = layer.gates(ax)
        or_, fr, ir, ccr = layer.gates(ar)
        tcx, tcr = lx(sx["tc"]), lr(sr["tc"])
        mz = np.empty(lead + (4 * n,))
        mo, mf, mi, mcc = layer.gates(mz)
        # h = o * tanh(c): bilinear split
        half = mh * 0.5
        np.multiply(half, tcx + tcr, out=mo)
        mtc = half * (ox + or_)
        mc_cand = mtc * _rescale(
            tcx - tcr, lx(sx["c"]) - lr(sr["c"]), 1.0 - tcx ** 2)
        mc_cand += mc
        # c = c_prev * f + cc * i: bilinear splits
        half = mc_cand * 0.5
        np.multiply(half, lx(sx["c_prev"]) + lr(sr["c_prev"]), out=mf)
        np.multiply(half, ccx + ccr, out=mi)
        np.multiply(half, ix + ir, out=mcc)
        mc = half * (fx + fr)
        # gate nonlinearities: rescale to the pre-activations, one fused
        # product per pass
        zx = lx((sx["x"] @ wx + sx["h_prev"] @ wh) + b)
        zr = lr((sr["x"] @ wx + sr["h_prev"] @ wh) + b)
        mz *= _rescale(ax - ar, zx - zr, layer.slopes(ax))
        mx_in[:, :, t] = _matmul(mz, wx.T)
        mh = _matmul(mz, wh.T)
    return mx_in


def _multiplier_backward(model, traces_x, traces_r, m_out):
    """Multipliers of every (input, background) pair from the two passes'
    traces: input-pass rows index the first axis of the pair grid and
    background rows the second."""
    def lx(a):
        return a[:, None]

    def lr(a):
        return a[None]

    m = m_out
    for layer, cx, cr in zip(reversed(model.layers), reversed(traces_x),
                             reversed(traces_r)):
        if isinstance(layer, Dense):
            mz = m * _rescale(lx(cx["a"]) - lr(cr["a"]),
                              lx(cx["z"]) - lr(cr["z"]),
                              lx(_dense_local(layer, cx)))
            m = _matmul(mz, layer.weights["W"].T)
        elif isinstance(layer, Lstm):
            m = _lstm_multipliers(layer, cx, cr, m, lx, lr)
        elif not isinstance(layer, (Masking, Dropout)):
            # an all-ones mask and eval-mode dropout are identities
            raise ValueError(f"unsupported layer {type(layer).__name__}")
    return m


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
    phi = np.zeros_like(ux)
    phi0 = np.empty(n)
    per_chunk = max(1, max_rows // nb)
    masks = _padding(model, ux)
    if masks is None:
        groups = [(slice(None), np.arange(n))]
    else:
        patterns, which = np.unique(masks, axis=0, return_inverse=True)
        groups = [(np.flatnonzero(p), np.flatnonzero(which.reshape(-1) == k))
                  for k, p in enumerate(patterns)]
    for keep, rows in groups:
        # the group's inputs and the background on its unpadded rounds
        xg, rg = ux[rows][:, keep], refs[:, keep]
        if xg.shape[1] == 0:
            # every round is padding: each pair's output is f(x), and
            # nothing is attributed
            out_r = np.repeat(model.forward(ux[rows[:1]]), nb, axis=0)
            phi0[rows] = out_r[:, head] @ weights
            continue
        out_r, tr = _forward_trace(model, rg)
        phi0[rows] = out_r[:, head] @ weights
        phi_g = np.zeros((len(rows),) + ux.shape[1:])
        for lo in range(0, len(rows), per_chunk):
            xb = xg[lo:lo + per_chunk]
            out_x, tx = _forward_trace(model, xb)
            m_out = np.zeros((len(xb), nb, out_x.shape[1]))
            m_out[..., head] = 1.0
            mult = _multiplier_backward(model, tx, tr, m_out)
            contrib = mult * (xb[:, None] - rg[None])
            phi_g[lo:lo + per_chunk, keep] = (
                weights @ contrib.reshape(len(xb), nb, -1)).reshape(xb.shape)
        phi[rows] = phi_g
    return phi[inverse], phi0[inverse]


def relevance_conservation_check(model, x, background, head: int = 0):
    """Per-sample residual |sum phi - (f(x) - phi0)|."""
    xs = np.asarray(x, dtype=float)
    phi, phi0 = deepshap_batch(model, xs, background, head=head)
    out = model.forward(xs)[:, head]
    sums = phi.reshape(xs.shape[0], -1).sum(axis=1)
    return np.abs(sums - (out - phi0))
