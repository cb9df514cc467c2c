"""Reference Adam step, the way `AdamState.update` stepped before the
parameters were one flat vector: a loop over matching weight and
gradient dicts, with moments kept per tensor and created as zeros at a
tensor's first step."""

import numpy as np


def per_tensor_update(adam, m: dict, v: dict, weights: dict, grads: dict):
    """One Adam step with the settings of the AdamState ``adam``, whose
    ``step_count`` it advances; ``m`` and ``v`` hold the moments by
    tensor name."""
    adam.step_count += 1
    t = adam.step_count
    bc1 = 1.0 - adam.beta1 ** t
    bc2 = 1.0 - adam.beta2 ** t
    for name, g in grads.items():
        if name not in m:
            m[name] = np.zeros_like(g)
            v[name] = np.zeros_like(g)
        mn = m[name]
        vn = v[name]
        mn *= adam.beta1
        mn += (1.0 - adam.beta1) * g
        vn *= adam.beta2
        vn += (1.0 - adam.beta2) * g * g
        weights[name] -= adam.lr * (mn / bc1) / np.sqrt(vn / bc2 + adam.eps)
