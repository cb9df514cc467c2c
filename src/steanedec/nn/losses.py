"""Binary cross entropy over (samples, heads) labels.

Probabilities are clamped to [1e-7, 1 - 1e-7] against sigmoid
saturation. A label equal to MASKED marks a head that carries no label
for its sample (the dual-head decoder labels one head per sample); it
contributes neither loss nor gradient. The sum is divided by the number
of samples, which on single-head labels is the mean.
"""

from __future__ import annotations

import numpy as np

CLAMP = 1e-7
MASKED = -1.0


def _clamp(q):
    return np.clip(q, CLAMP, 1.0 - CLAMP)


def bce_loss(p, q) -> float:
    """Binary cross entropy of probabilities q against labels p, summed
    over the unmasked entries and divided by the number of samples."""
    p = np.asarray(p, dtype=float)
    q = _clamp(np.asarray(q, dtype=float))
    live = p != MASKED
    terms = -(p * np.log(q) + (1.0 - p) * np.log(1.0 - q))
    return float(np.sum(terms * live) / p.shape[0])


def bce_loss_grad(p, q) -> np.ndarray:
    """d(bce_loss)/dq, elementwise; zero on masked entries."""
    p = np.asarray(p, dtype=float)
    qc = _clamp(np.asarray(q, dtype=float))
    live = p != MASKED
    g = np.where(live, (qc - p) / (qc * (1.0 - qc)), 0.0)
    return g / p.shape[0]
