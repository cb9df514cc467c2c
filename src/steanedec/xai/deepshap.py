"""DeepSHAP: DeepLIFT multipliers averaged over a background dataset.

Each attribution compares a forward pass on the input with one on a
background sample and pushes finite-difference multipliers back through
the stack (DeepLIFT's rescale rule, Shrikumar et al. 2017). Both passes
are ``Model.forward`` calls with ``trace=True``; the caches they leave on
the layers are the traces the multipliers read. The rules are the linear
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
unchanged and gets a zero multiplier. An input whose rounds are all
padding gets zero scores, and its baseline is the weighted background
mean of the model's output on it, which is that output up to rounding.

The work runs in tiles: a tile holds max(1, max_rows // nb) distinct
inputs against all nb distinct background rows, so about
max(max_rows, nb) pairs, and its multipliers are formed on an
(inputs, background, ..) grid by broadcasting the two traces against
each other. Keeping the whole background in every tile keeps one
summation order whatever the tile size. The background is traced once
per group and each tile's inputs once; the traced forward keeps the
LSTM gate pre-activations, and each trace computes its other per-round
quantities (the fused gate activations and the slopes the rescale rule
falls back on) once for every tile it meets. The LSTM
pass allocates its work grids once per tile and writes every round
into them, with the same operations as allocating them anew. Memory
is then the background trace plus one tile (about 12 KB a pair for the
srnn decoder at 8 rounds), whatever the number of inputs.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Dense, Dropout, Lstm, Masking
from .shapley import _distinct_rows

GUARD = 1e-12
# default pair budget of a tile: on the srnn decoder at 8 rounds, pairs/s
# is flat from 256 to 2048 pairs, while a tile's memory grows with it
MAX_ROWS = 256


def _rescale(a_x, a_r, d_in, local, out=None, tiny=None):
    """The rescale rule's multiplier: the output difference a_x - a_r of
    the two passes over their input difference ``d_in``, or ``local``
    where |d_in| < GUARD. Writes into ``out`` and overwrites ``d_in``;
    ``tiny`` is a bool work grid of the same shape."""
    if out is None:
        out, tiny = np.empty(d_in.shape), np.empty(d_in.shape, dtype=bool)
    np.less(np.abs(d_in, out=out), GUARD, out=tiny)
    # where d_in is tiny the quotient is discarded; adding 1 there only
    # keeps the division finite
    np.add(d_in, tiny, out=d_in)
    np.subtract(a_x, a_r, out=out)
    np.divide(out, d_in, out=out)
    np.copyto(out, local, where=tiny)
    return out


def _padding(model, x):
    """The masking layer's padding mask of ``x``, or None for a network
    without one."""
    for layer in model.layers:
        if isinstance(layer, Masking):
            return layer.padding(x)
    return None


def _lstm_trace(layer, cache, local):
    """``cache``, each round's gate activations ``a`` turned in place
    from the forward's gate-major slab to the fused (rows, 4n) layout of
    the pair grids (so one layout stays alive), beside the
    pre-activations ``z`` the traced forward kept, and, with ``local``,
    the slopes the rescale rule falls back on: the gates' (``slope``) and
    tanh's at the memory (``dtanh``). Each trace computes them once for
    every tile it meets; only the input pass needs the slopes."""
    for s in cache["steps"]:
        s["a"] = layer.fused(s["a"])
        if local:
            s.update(slope=layer.slopes(s["a"]), dtanh=1.0 - s["tc"] ** 2)
    return cache


def _forward_trace(model, x, local=True):
    """``model.forward`` with every round of ``x`` counted as an input (an
    all-ones padding mask, which a network without a masking layer
    ignores), and the caches it leaves on the layers, each LSTM's with
    its per-trace quantities (`_lstm_trace`)."""
    out = model.forward(x, mask=np.ones(x.shape[:2]), trace=True)
    return out, [_lstm_trace(layer, layer.cache, local)
                 if isinstance(layer, Lstm) else layer.cache
                 for layer in model.layers]


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
    grid. The (P, Q, ..) work grids are allocated once, and every round
    writes into them."""
    n, d, T = layer.n, layer.d, cx["T"]
    wx, wh = layer.weights["W_x"], layer.weights["W_h"]
    lead = m_out.shape[:2]
    rows = lead[0] * lead[1]
    mx_in = np.empty(lead + (T, d))
    mh = np.zeros(lead + (n,)) if layer.return_sequences else m_out.copy()
    mc = np.zeros(lead + (n,))
    u, v, w = (np.empty(lead + (n,)) for _ in range(3))
    tiny = np.empty(lead + (n,), dtype=bool)
    mz, dz, rz = (np.empty(lead + (4 * n,)) for _ in range(3))
    tiny_z = np.empty(lead + (4 * n,), dtype=bool)
    mo, mf, mi, mcc = layer.gates(mz)
    mz_rows, mh_rows = mz.reshape(rows, 4 * n), mh.reshape(rows, n)
    mx_t = np.empty((rows, d))
    for t in reversed(range(T)):
        sx, sr = cx["steps"][t], cr["steps"][t]
        if layer.return_sequences:
            np.add(mh, m_out[:, :, t], out=mh)
        ax, ar = lx(sx["a"]), lr(sr["a"])
        ox, fx, ix, ccx = layer.gates(ax)
        or_, fr, ir, ccr = layer.gates(ar)
        tcx, tcr = lx(sx["tc"]), lr(sr["tc"])
        # h = o * tanh(c): bilinear split
        half = np.multiply(mh, 0.5, out=u)
        np.multiply(half, np.add(tcx, tcr, out=v), out=mo)
        mtc = np.multiply(half, np.add(ox, or_, out=v), out=v)
        d_in = np.subtract(lx(sx["c"]), lr(sr["c"]), out=u)
        mc_cand = np.multiply(mtc, _rescale(tcx, tcr, d_in, lx(sx["dtanh"]),
                                            w, tiny), out=v)
        mc_cand += mc
        # c = c_prev * f + cc * i: bilinear splits
        half = np.multiply(mc_cand, 0.5, out=u)
        np.multiply(half, np.add(lx(sx["c_prev"]), lr(sr["c_prev"]), out=w),
                    out=mf)
        np.multiply(half, np.add(ccx, ccr, out=w), out=mi)
        np.multiply(half, np.add(ix, ir, out=w), out=mcc)
        np.multiply(half, np.add(fx, fr, out=w), out=mc)
        # gate nonlinearities: rescale to the pre-activations
        d_in = np.subtract(lx(sx["z"]), lr(sr["z"]), out=dz)
        mz *= _rescale(ax, ar, d_in, lx(sx["slope"]), rz, tiny_z)
        mx_in[:, :, t] = np.matmul(mz_rows, wx.T, out=mx_t).reshape(
            lead + (d,))
        np.matmul(mz_rows, wh.T, out=mh_rows)
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
            mz = m * _rescale(lx(cx["a"]), lr(cr["a"]),
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
                   max_rows: int = MAX_ROWS, progress=None):
    """Attributions for a batch of inputs against a shared background.

    Returns (phi, phi0): per-sample scores shaped like the inputs and
    per-sample baseline values. ``max_rows`` is the pair budget of a
    tile: each tile holds max(1, max_rows // nb) distinct inputs against
    all nb distinct background rows. ``progress``, when given, is called
    as ``progress(done_pairs, total_pairs)`` after each tile, counting
    distinct pairs; it does not change the result.
    """
    xs = np.asarray(xs, dtype=float)
    background = np.asarray(background, dtype=float)
    if len(background) == 0:
        raise ValueError("deepshap_batch needs a non-empty background")
    ux, inverse, _ = _distinct_rows(xs)
    refs, _, counts = _distinct_rows(background)
    weights = counts / counts.sum()
    n, nb = ux.shape[0], refs.shape[0]
    phi = np.zeros_like(ux)
    phi0 = np.empty(n)
    per_tile = max(1, max_rows // nb)
    done = 0

    def tile_done(inputs):
        nonlocal done
        done += inputs * nb
        if progress is not None:
            progress(done, n * nb)

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
            tile_done(len(rows))
            continue
        out_r, tr = _forward_trace(model, rg, local=False)
        phi0[rows] = out_r[:, head] @ weights
        phi_g = np.zeros((len(rows),) + ux.shape[1:])
        for lo in range(0, len(rows), per_tile):
            xb = xg[lo:lo + per_tile]
            out_x, tx = _forward_trace(model, xb)
            m_out = np.zeros((len(xb), nb, out_x.shape[1]))
            m_out[..., head] = 1.0
            mult = _multiplier_backward(model, tx, tr, m_out)
            contrib = mult * (xb[:, None] - rg[None])
            phi_g[lo:lo + per_tile, keep] = (
                weights @ contrib.reshape(len(xb), nb, -1)).reshape(xb.shape)
            tile_done(len(xb))
        phi[rows] = phi_g
    return phi[inverse], phi0[inverse]


def relevance_conservation_check(model, x, background, head: int = 0):
    """Per-sample residual |sum phi - (f(x) - phi0)|."""
    xs = np.asarray(x, dtype=float)
    phi, phi0 = deepshap_batch(model, xs, background, head=head)
    out = model.forward(xs)[:, head]
    sums = phi.reshape(xs.shape[0], -1).sum(axis=1)
    return np.abs(sums - (out - phi0))
