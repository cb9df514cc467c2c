"""Reference decoding of one batch by its distinct volumes, the way
`NnDecoder.predict_flips` decoded before the prefix trie: the network
runs once, through `Model.forward`, on the distinct volumes of the batch
(keyed by the bytes of the channels it reads), and each output is copied
back to every equal volume."""

import numpy as np


def distinct_outputs(decoder, volumes) -> np.ndarray:
    """The decoder's head output on each of the (n, T, 12) ``volumes``."""
    volumes = np.asarray(volumes)
    read = volumes if decoder.channels is None \
        else volumes[:, :, decoder.channels]
    n, t, c = read.shape
    rows = np.ascontiguousarray(read).reshape(n, t * c)
    keys = rows.view(np.dtype((np.void, rows.itemsize * t * c))).ravel()
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    if len(first) == 1:
        # a lone row would be multiplied by gemv: run it beside a copy
        first = np.repeat(first, 2)
    q = decoder.model.forward(decoder.inputs(volumes[first]))
    return q[:, decoder.head][inverse]


def distinct_flips(decoder, volumes) -> np.ndarray:
    """The thresholded `distinct_outputs`."""
    return (distinct_outputs(decoder, volumes) > 0.5).astype(np.uint8)
