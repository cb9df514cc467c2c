"""Neural decoder wrapper: turns measurement volumes into network
inputs and thresholds the output probabilities into flip predictions."""

from __future__ import annotations

import numpy as np

from .circuits import FX, FZ, SX, SZ

# dense two-cycle decoder sees only the decoding basis's syndrome and
# flag channels, flattened over the two rounds
DNN2_CHANNELS = {"Z": SZ + FX, "X": SX + FZ}


def dnn2_inputs(volumes, basis: str = "Z") -> np.ndarray:
    volumes = np.asarray(volumes, dtype=float)
    chans = list(DNN2_CHANNELS[basis])
    sel = volumes[:, :, chans]
    return sel.reshape(volumes.shape[0], -1)


def rnn_inputs(volumes, t_max: int | None = None) -> np.ndarray:
    """Float volumes, padded with the mask value -1.0 up to t_max.
    Longer volumes pass through unchanged: the recurrent networks take
    any number of rounds."""
    volumes = np.asarray(volumes, dtype=float)
    if t_max is None or volumes.shape[1] >= t_max:
        return volumes
    n, t, c = volumes.shape
    out = np.full((n, t_max, c), -1.0)
    out[:, :t, :] = volumes
    return out


class NnDecoder:
    """Decoder interface over a trained network.

    For the dual-head network the head matching the decoding basis is
    thresholded; single-head networks use their only output. A batch of
    volumes has one round count, so recurrent networks take it unpadded.
    """

    def __init__(self, model, basis: str = "Z"):
        self.model = model
        self.basis = basis
        if model.spec.spec_id == "drnn":
            self.head = {"Z": 0, "X": 1}[basis]
        else:
            self.head = 0

    def inputs(self, volumes) -> np.ndarray:
        if self.model.spec.recurrent:
            return rnn_inputs(volumes)
        return dnn2_inputs(volumes, self.basis)

    def predict_flips(self, volumes) -> np.ndarray:
        q = self.model.forward(self.inputs(volumes))[:, self.head]
        return (q > 0.5).astype(np.uint8)

    def predict_flips_batch(self, batch) -> np.ndarray:
        return self.predict_flips(batch.volumes)
