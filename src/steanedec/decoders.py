"""Neural decoder wrapper: the one place that maps (samples, rounds, 12)
volumes onto a network's inputs and labels, and its scores back."""

from __future__ import annotations

import numpy as np

from .circuits import FX, FZ, N_CHANNELS, SX, SZ
from .nn.losses import MASKED
from .xai import deepshap_batch

# dense two-cycle decoder sees only the decoding basis's syndrome and
# flag channels, flattened over the two rounds
DNN2_CHANNELS = {"Z": SZ + FX, "X": SX + FZ}


class NnDecoder:
    """Decoder interface over a trained network.

    For the dual-head network the head matching the decoding basis is
    thresholded; single-head networks use their only output. A batch of
    volumes has one round count, so recurrent networks take it unpadded.
    """

    def __init__(self, model, basis: str = "Z"):
        self.model = model
        if model.spec.spec_id == "drnn":
            self.head = {"Z": 0, "X": 1}[basis]
        else:
            self.head = 0
        self.channels = None if model.spec.recurrent \
            else list(DNN2_CHANNELS[basis])

    def inputs(self, volumes, t_max: int | None = None) -> np.ndarray:
        """The flattened `DNN2_CHANNELS` for a dense network; for a
        recurrent one, which takes any number of rounds, the float volumes
        padded with the mask value -1.0 up to ``t_max``."""
        volumes = np.asarray(volumes, dtype=float)
        n, t, c = volumes.shape
        if self.channels is not None:
            return volumes[:, :, self.channels].reshape(
                n, t * len(self.channels))
        if t_max is None or t >= t_max:
            return volumes
        out = np.full((n, t_max, c), -1.0)
        out[:, :t, :] = volumes
        return out

    def targets(self, m_L) -> np.ndarray:
        """Labels: m_L on this basis's head, MASKED on every other head."""
        y = np.full((len(m_L), self.model.spec.layers[-1]["units"]), MASKED)
        y[:, self.head] = m_L
        return y

    def grid(self, scores) -> np.ndarray:
        """Input-shaped ``scores`` on the (samples, rounds, 12) volume grid,
        zero on the channels the network does not read."""
        if self.channels is None:
            return scores
        n, k = len(scores), len(self.channels)
        t = scores.shape[1] // k
        full = np.zeros((n, t, N_CHANNELS))
        full[:, :, self.channels] = scores.reshape(n, t, k)
        return full

    def attributions(self, volumes, background, progress=None):
        """(`grid` of DeepSHAP scores against ``background``, phi0), in
        tiles of the default size; ``progress`` is `deepshap_batch`'s."""
        phi, phi0 = deepshap_batch(self.model, self.inputs(volumes),
                                   self.inputs(background), head=self.head,
                                   progress=progress)
        return self.grid(phi), phi0

    def predict_flips(self, volumes) -> np.ndarray:
        """The thresholded head on each volume. The network runs once per
        distinct volume, keyed by the bytes of the channels it reads, and
        each flip is copied back to every equal volume."""
        volumes = np.asarray(volumes)
        read = volumes if self.channels is None \
            else volumes[:, :, self.channels]
        n, t, c = read.shape
        rows = np.ascontiguousarray(read).reshape(n, t * c)
        keys = rows.view(np.dtype((np.void, rows.itemsize * t * c))).ravel()
        _, first, inverse = np.unique(keys, return_index=True,
                                      return_inverse=True)
        if len(first) == 1:
            # a lone row would be multiplied by gemv (see Lstm._active):
            # run it beside a copy of itself
            first = np.repeat(first, 2)
        q = self.model.forward(self.inputs(volumes[first]))[:, self.head]
        return (q > 0.5).astype(np.uint8)[inverse]

    def predict_flips_batch(self, batch) -> np.ndarray:
        return self.predict_flips(batch.volumes)
