"""Exact Shapley values by full coalition enumeration.

Cost is 2^n characteristic-function evaluations, so this is restricted
to small player sets. The game solved here, `feature_exclusion_game`,
replaces excluded features by the background *mean*. DeepSHAP
approximates a different game, the background-*averaged* one
(v(S) = mean over background rows b of f(x_S, b)). The two coincide only
on affine models, so these values are an exact reference for DeepSHAP
on affine models alone.

`exact_shapley_batch` holds, per chunk of distinct inputs, the
(chunk, 2^n) table of coalition values and one forward block of at most
`ROW_BLOCK` coalition rows: it builds each block of the (chunk * 2^n, n)
coalition inputs only when the network runs it, never the whole set.
The blocks are the ones `Model.forward` would run that set in
(`row_blocks`), so the values do not depend on how the table is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from ..nn.model import row_blocks

MAX_PLAYERS = 20


@dataclass
class Game:
    """Cooperative game: ``n`` players 0..n-1 and a characteristic
    function v(coalition) -> real, with coalitions given as frozensets."""

    n: int
    v: Callable


def _coalition_weights(n: int) -> np.ndarray:
    """w[s] = s! (n-1-s)! / n! for coalitions of size s excluding i."""
    return np.array([factorial(s) * factorial(n - 1 - s) / factorial(n)
                     for s in range(n)])


def exact_shapley(game: Game) -> np.ndarray:
    """Average marginal contribution of each player over all coalitions."""
    n = game.n
    if n > MAX_PLAYERS:
        raise ValueError(f"player set too large ({n} > {MAX_PLAYERS})")
    values = np.empty(1 << n)
    for mask in range(1 << n):
        values[mask] = game.v(frozenset(i for i in range(n)
                                        if mask >> i & 1))
    return _shapley_from_table(values[None], n)[0]


def _coalition_sizes(n: int) -> np.ndarray:
    """Size of each coalition 0..2^n - 1: the set bits of its mask,
    counted by n vectorized shift-and-mask steps."""
    masks = np.arange(1 << n)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        sizes += masks >> i & 1
    return sizes


def _shapley_from_table(values: np.ndarray, n: int) -> np.ndarray:
    """Shapley values of games given as value tables: row g of
    ``values`` (games, 2^n) holds game g's value of each coalition,
    indexed by its mask. Returns (games, n)."""
    weights = _coalition_weights(n)
    sizes = _coalition_sizes(n)
    half = np.arange((1 << n) >> 1)
    phi = np.empty((values.shape[0], n))
    for i in range(n):
        # the coalitions without player i, in increasing order: a 0 bit
        # inserted at position i of each of 0..2^(n-1) - 1
        low = (1 << i) - 1
        wo = (half & ~low) << 1 | half & low
        gain = values[:, wo | 1 << i]
        gain -= values[:, wo]
        phi[:, i] = gain @ weights[sizes[wo]]
    return phi


def _distinct_rows(rows: np.ndarray):
    """Distinct rows of ``rows`` along axis 0 (sorted), the index of each
    row's distinct row, and how often each distinct row occurs."""
    distinct, inverse, counts = np.unique(rows, axis=0, return_inverse=True,
                                          return_counts=True)
    # numpy 2.0.0 shapes the inverse like the input; flatten it
    return distinct, inverse.reshape(-1), counts


def _background_means(background) -> np.ndarray:
    """The mean background row; an empty background has none."""
    background = np.asarray(background, dtype=float)
    if len(background) == 0:
        raise ValueError("the feature-exclusion game needs a non-empty "
                         "background")
    return background.mean(axis=0)


def feature_exclusion_game(model, x, background, head: int = 0) -> Game:
    """Game on flattened input features: excluded features are replaced
    by their background means before the model is evaluated."""
    x = np.asarray(x, dtype=float)
    means = _background_means(background)
    flat_x = x.reshape(-1)
    flat_m = means.reshape(-1)
    n = flat_x.size

    def v(coalition) -> float:
        z = flat_m.copy()
        idx = list(coalition)
        z[idx] = flat_x[idx]
        out = model.forward(z.reshape((1,) + x.shape))
        return float(out[0, head])

    return Game(n=n, v=v)


def _coalition_rows(xb, means, masks, a: int, b: int) -> np.ndarray:
    """Rows a..b-1 of the coalition inputs of the flat inputs ``xb``:
    row j 2^n + m holds input j on the players of coalition m and the
    background ``means`` on the others. ``masks`` (2^n, 4) holds each
    coalition mask's little-endian bytes, whose unpacked bits are its
    members: one unpack takes about half the time of n shift-and-mask
    steps on a block."""
    n = means.size
    parts = []
    for j in range(a >> n, ((b - 1) >> n) + 1):
        m = slice(max(a - (j << n), 0), min(b - (j << n), 1 << n))
        member = np.unpackbits(masks[m], axis=1, count=n, bitorder="little")
        parts.append(np.where(member.view(bool), xb[j], means))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def exact_shapley_batch(model, xs, background, head: int = 0,
                        chunk: int = 256) -> np.ndarray:
    """Exact Shapley values of the feature-exclusion game for many
    inputs at once; vectorizes the 2^n coalition evaluations. The game
    of an input depends only on the input and the background mean, so
    each distinct input row is solved once, ``chunk`` distinct rows at a
    time. Each chunk holds its (chunk, 2^n) value table and one forward
    block of coalition rows."""
    if chunk < 1:
        raise ValueError(f"chunk must be at least 1, got {chunk}")
    xs = np.asarray(xs, dtype=float)
    means = _background_means(background).reshape(-1)
    n = means.size
    if n > MAX_PLAYERS:
        raise ValueError(f"player set too large ({n} > {MAX_PLAYERS})")
    if len(xs) == 0:
        return np.empty((0, n))
    feat_shape = xs.shape[1:]
    distinct, inverse, _ = _distinct_rows(xs)
    flat = distinct.reshape(distinct.shape[0], -1)
    masks = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    phi = np.empty((flat.shape[0], n))
    for lo in range(0, flat.shape[0], chunk):
        xb = flat[lo:lo + chunk]
        # v[j * 2^n + m]: the value of input j of the chunk on coalition m
        v = np.empty(xb.shape[0] << n)
        edges = row_blocks(v.size)
        for a, b in zip(edges, edges[1:]):
            z = _coalition_rows(xb, means, masks, a, b)
            out = model.forward(z.reshape((b - a,) + feat_shape))
            v[a:b] = out[:, head]
        phi[lo:lo + xb.shape[0]] = _shapley_from_table(
            v.reshape(xb.shape[0], -1), n)
    return phi[inverse]
