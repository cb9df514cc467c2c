"""Adam optimizer with bias-corrected first and second moments."""

from __future__ import annotations

from dataclasses import dataclass

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

    def update(self, weights: np.ndarray, grads: np.ndarray):
        """One Adam step on ``weights`` from the same-shaped ``grads``, in
        place. Each element takes the arithmetic it would take in a step
        over its own tensor, so the vector's layout changes no bit."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        if self.m is None:
            self.m = np.zeros_like(grads)
            self.v = np.zeros_like(grads)
        m, v, g = self.m, self.v, grads
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        weights -= self.lr * (m / bc1) / np.sqrt(v / bc2 + self.eps)
