"""Exact Shapley values by full coalition enumeration.

Cost is 2^n characteristic-function evaluations, so this is restricted
to small player sets. The game solved here, `feature_exclusion_game`,
replaces excluded features by the background *mean*. DeepSHAP
approximates a different game, the background-*averaged* one
(v(S) = mean over background rows b of f(x_S, b)). The two coincide only
on affine models, so these values are an exact reference for DeepSHAP
on affine models alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

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
    return _shapley_from_table(values, n)


def _shapley_from_table(values: np.ndarray, n: int) -> np.ndarray:
    weights = _coalition_weights(n)
    sizes = np.array([bin(m).count("1") for m in range(1 << n)])
    phi = np.zeros(n)
    masks = np.arange(1 << n)
    for i in range(n):
        without = masks[(masks >> i & 1) == 0]
        gain = values[without | (1 << i)] - values[without]
        phi[i] = np.sum(weights[sizes[without]] * gain)
    return phi


def _distinct_rows(rows: np.ndarray):
    """Distinct rows of ``rows`` along axis 0 (sorted), the index of each
    row's distinct row, and how often each distinct row occurs."""
    distinct, inverse, counts = np.unique(rows, axis=0, return_inverse=True,
                                          return_counts=True)
    # numpy 2.0.0 shapes the inverse like the input; flatten it
    return distinct, inverse.reshape(-1), counts


def feature_exclusion_game(model, x, background, head: int = 0) -> Game:
    """Game on flattened input features: excluded features are replaced
    by their background means before the model is evaluated."""
    x = np.asarray(x, dtype=float)
    background = np.asarray(background, dtype=float)
    means = background.mean(axis=0)
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


def exact_shapley_batch(model, xs, background, head: int = 0,
                        chunk: int = 256) -> np.ndarray:
    """Exact Shapley values of the feature-exclusion game for many
    inputs at once; vectorizes the 2^n coalition evaluations. The game
    of an input depends only on the input and the background mean, so
    each distinct input row is solved once."""
    xs = np.asarray(xs, dtype=float)
    background = np.asarray(background, dtype=float)
    means = background.mean(axis=0).reshape(-1)
    n = means.size
    if n > MAX_PLAYERS:
        raise ValueError(f"player set too large ({n} > {MAX_PLAYERS})")
    n_subsets = 1 << n
    masks = np.arange(n_subsets)
    member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    sizes = member.sum(axis=1)
    weights = _coalition_weights(n)
    feat_shape = xs.shape[1:]
    distinct, inverse, _ = _distinct_rows(xs)
    flat = distinct.reshape(distinct.shape[0], -1)
    phi = np.empty((flat.shape[0], n))
    without = [masks[~member[:, i]] for i in range(n)]
    for lo in range(0, flat.shape[0], chunk):
        xb = flat[lo:lo + chunk]
        c = xb.shape[0]
        # (c * 2^n, n): each sample against every coalition
        z = np.where(member[None, :, :], xb[:, None, :], means)
        out = model.forward(z.reshape((c * n_subsets,) + feat_shape))
        v = out[:, head].reshape(c, n_subsets)
        for i in range(n):
            wo = without[i]
            gain = v[:, wo | (1 << i)] - v[:, wo]
            phi[lo:lo + c, i] = gain @ weights[sizes[wo]]
    return phi[inverse]
