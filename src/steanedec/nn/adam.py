"""Adam optimizer with bias-corrected first and second moments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    """Adam over one flat weight vector (`Model.params`): ``m`` and ``v``
    are flat moments of the same length, None before the first step."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    # two work vectors of the same length, which no checkpoint holds
    work: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def update(self, weights: np.ndarray, grads: np.ndarray):
        """One Adam step on ``weights`` from the same-shaped ``grads``, in
        place. Each element takes the arithmetic it would take in a step
        over its own tensor, so the vector's layout changes no bit; the
        work vectors hold every temporary."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        if self.m is None:
            self.m = np.zeros_like(grads)
            self.v = np.zeros_like(grads)
        if self.work is None:
            self.work = (np.empty_like(grads), np.empty_like(grads))
        m, v, g = self.m, self.v, grads
        u, w = self.work
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=u)
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=u)
        v += np.multiply(u, g, out=u)
        # weights -= lr * (m / bc1) / sqrt(v / bc2 + eps)
        np.multiply(np.divide(m, bc1, out=u), self.lr, out=u)
        np.add(np.divide(v, bc2, out=w), self.eps, out=w)
        weights -= np.divide(u, np.sqrt(w, out=w), out=u)
