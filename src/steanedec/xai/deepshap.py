"""Multiplier backpropagation relative to a background dataset.

Each attribution compares a forward pass on the input with one on a
background sample and pushes finite-difference multipliers back through
the stack: the linear rule on affine ops, the rescale rule Delta-out /
Delta-in on sigmoids, tanh and relu, and a symmetric bilinear rule on
elementwise products (for y = u*v the multipliers are m_u = (v+vbar)/2
and m_v = (u+ubar)/2, which makes the decomposition of Delta-y exact).
Averaging over the background gives per-input-bit scores whose sum
equals f(x) minus the mean background output.

Syndrome and flag inputs repeat heavily, so the work runs on distinct
rows only: each distinct input row is attributed once and its scores are
copied to every input that equals it, and the background average is a
mean over the distinct background rows weighted by how often each
occurs. Both give the same values as the all-pairs average, up to float
summation order.

When a round is padded on the input side, the background pass is forced
onto the same padding mask so the gating stays an affine op; padded
rounds then receive exactly zero attribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.layers import Dense, Dropout, Lstm, Masking, sigmoid
from .shapley import _distinct_rows

GUARD = 1e-12


@dataclass
class Attribution:
    """Per-input-bit scores phi (shaped like the explained input) and
    the baseline value phi0 (mean model output on the background)."""

    phi: np.ndarray
    phi0: float


def _rescale(d_out, d_in, local):
    tiny = np.abs(d_in) < GUARD
    return np.where(tiny, local, d_out / np.where(tiny, 1.0, d_in))


def _forward_trace(model, x, mask_override=None):
    """Forward pass collecting per-layer caches; the masking decision
    can be overridden so two passes share one padding pattern."""
    traces = []
    cur_mask = None
    for layer in model.layers:
        if isinstance(layer, Masking):
            if mask_override is None:
                mask = (~np.all(x == layer.mask_value, axis=2)).astype(float)
            else:
                mask = mask_override
            x = x * mask[:, :, None]
            cur_mask = mask
            traces.append(("masking", {"mask": mask}))
        elif isinstance(layer, Lstm):
            x = layer.forward(x, mask=cur_mask)
            traces.append(("lstm", dict(layer.cache)))
            if not layer.return_sequences:
                cur_mask = None
        elif isinstance(layer, Dense):
            x = layer.forward(x)
            traces.append(("dense", dict(layer.cache)))
        elif isinstance(layer, Dropout):
            traces.append(("dropout", {}))
        else:
            raise ValueError(
                f"unsupported layer {type(layer).__name__}")
    return x, traces


def _dense_local(layer, cache):
    if layer.activation == "relu":
        return (cache["z"] > 0).astype(float)
    if layer.activation == "sigmoid":
        a = cache["a"]
        return a * (1.0 - a)
    return np.ones_like(cache["z"])


def _lstm_gate_pre(layer, cache, gate):
    w = layer.weights
    return (cache["x"] @ w[f"W_x{gate}"] + cache["h_prev"] @ w[f"W_h{gate}"]
            + w[f"b_{gate}"])


def _lstm_multipliers(layer, cx, cr, m_out):
    """Push multipliers through one LSTM layer (both-pass caches)."""
    steps_x, steps_r = cx["steps"], cr["steps"]
    T, B = cx["T"], m_out.shape[0]
    w = layer.weights
    mx_in = np.zeros((B, T, layer.d))
    mh = np.zeros((B, layer.n))
    mc = np.zeros((B, layer.n))
    if not layer.return_sequences:
        mh = m_out.copy()
    for t in reversed(range(T)):
        sx, sr = steps_x[t], steps_r[t]
        m = sx["m"]
        mh_t = mh.copy()
        if layer.return_sequences:
            mh_t += m_out[:, t, :] if m is None else m * m_out[:, t, :]
        if m is None:
            mh_cand, mh_pass = mh_t, 0.0
        else:
            mh_cand = m * mh_t
            mh_pass = (1.0 - m) * mh_t
        # h_cand = o * tanh(c_cand): bilinear split
        mo = mh_cand * 0.5 * (sx["tc"] + sr["tc"])
        mtc = mh_cand * 0.5 * (sx["o"] + sr["o"])
        mc_cand = mtc * _rescale(sx["tc"] - sr["tc"], sx["c"] - sr["c"],
                                 1.0 - sx["tc"] ** 2)
        if m is None:
            mc_cand += mc
            mc_pass = 0.0
        else:
            mc_cand += m * mc
            mc_pass = (1.0 - m) * mc
        # c_cand = c_prev * f + cc * i: bilinear splits
        mf = mc_cand * 0.5 * (sx["c_prev"] + sr["c_prev"])
        mc_prev = mc_cand * 0.5 * (sx["f"] + sr["f"])
        mi = mc_cand * 0.5 * (sx["cc"] + sr["cc"])
        mcc = mc_cand * 0.5 * (sx["i"] + sr["i"])
        # gate nonlinearities: rescale to the pre-activations
        mz = {}
        for gate, mg in (("f", mf), ("i", mi), ("c", mcc), ("o", mo)):
            zx = _lstm_gate_pre(layer, sx, gate)
            zr = _lstm_gate_pre(layer, sr, gate)
            ax, ar = sx[{"c": "cc"}.get(gate, gate)], \
                sr[{"c": "cc"}.get(gate, gate)]
            if gate == "c":
                local = 1.0 - ax ** 2
            elif gate == "o" and layer.output_gate_activation == "relu":
                local = (zx > 0).astype(float)
            else:
                local = ax * (1.0 - ax)
            mz[gate] = mg * _rescale(ax - ar, zx - zr, local)
        mx_in[:, t, :] = sum(mz[g] @ w[f"W_x{g}"].T for g in layer.GATES)
        mh = mh_pass + sum(mz[g] @ w[f"W_h{g}"].T for g in layer.GATES)
        mc = mc_pass + mc_prev
    return mx_in


def _multiplier_backward(model, traces_x, traces_r, m_out):
    m = m_out
    for layer, (kind, cx), (_, cr) in zip(reversed(model.layers),
                                          reversed(traces_x),
                                          reversed(traces_r)):
        if kind == "masking":
            m = m * cx["mask"][:, :, None]
        elif kind == "dense":
            mz = m * _rescale(cx["a"] - cr["a"], cx["z"] - cr["z"],
                              _dense_local(layer, cx))
            m = mz @ layer.weights["W"].T
        elif kind == "lstm":
            m = _lstm_multipliers(layer, cx, cr, m)
        # dropout in eval mode is the identity
    return m


def _pairs_attribution(model, x_rep, refs, head):
    """Multipliers for aligned (input, background) row pairs."""
    recurrent = any(isinstance(l, Masking) for l in model.layers)
    if recurrent:
        mask = (~np.all(x_rep == model.layers[0].mask_value,
                        axis=2)).astype(float)
    else:
        mask = None
    out_x, tx = _forward_trace(model, x_rep, mask_override=mask)
    out_r, tr = _forward_trace(model, refs, mask_override=mask)
    m_out = np.zeros_like(out_x)
    m_out[:, head] = 1.0
    mult = _multiplier_backward(model, tx, tr, m_out)
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
    for lo in range(0, n, per_chunk):
        xb = ux[lo:lo + per_chunk]
        c = xb.shape[0]
        x_rep = np.repeat(xb, nb, axis=0)
        r_rep = np.tile(refs, (c,) + (1,) * (refs.ndim - 1))
        contrib, base = _pairs_attribution(model, x_rep, r_rep, head)
        phi[lo:lo + c] = (weights @ contrib.reshape(c, nb, -1)).reshape(
            xb.shape)
        phi0[lo:lo + c] = base.reshape(c, nb) @ weights
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
