"""Neural decoder wrapper: the one place that maps (samples, rounds)
round codes (`circuits.pack_rounds`) onto a network's inputs and
labels, and its scores back onto the (samples, rounds, 12) channel grid.

Every decoder decodes a sequence of batches in one call,
`predict_flips_batches`, and a noise sweep is one such call. `NnDecoder`
consumes the batches as they come and keeps only what its network reads
of them:

* A dense network runs once over the distinct rows of the channels it
  reads, across all batches, and each flip is copied back to every
  equal row.
* A recurrent network's state after round t depends only on rounds
  1..t, so volumes that share a round prefix share that work. The
  round codes of all batches are decoded by one prefix trie: the nodes
  at depth t are the distinct t-round prefixes, the LSTM layers run one
  round per new node, and the head runs once per node at which a volume
  ends. The volumes are sorted by their codes, so that equal prefixes
  are adjacent, and the trie is built `TRIE_CHUNK` sorted volumes at a
  time: only one chunk's frontier states are alive, and a chunk
  boundary repeats at most one node per depth.

The trie runs the arithmetic of `Model.forward` on every row, in
near-equal blocks of at most `ROW_BLOCK` rows, and a lone row beside a
copy of itself (see `Lstm._active`): each LSTM round is the layer's
no-cache `Lstm._round` in its `Lstm.round_buffers`, which activates the
gates in a gate-major slab as every LSTM pass does. BLAS may still
round a row by its place in a product, so an output can differ from
`Model.forward`'s in the last bit; the thresholded flips are equal.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from .circuits import N_CHANNELS, ROUND_BITS, basis_channels, pack_rounds
from .nn.layers import Lstm
from .nn.losses import MASKED
from .nn.model import ROW_BLOCK, row_blocks
from .xai import deepshap_batch

# dense two-cycle decoder sees only the decoding basis's syndrome and
# flag channels, flattened over the two rounds
DNN2_CHANNELS = {b: sum(basis_channels(b), ()) for b in ("Z", "X")}

# a volume's sort columns past its last round: above every round code
_PAST_END = len(ROUND_BITS)
# the recurrent network input of each round code, and of _PAST_END the
# mask value -1 of a padding round
_RECURRENT_ROWS = np.full((_PAST_END + 1, N_CHANNELS), -1, np.int8)
_RECURRENT_ROWS[:_PAST_END] = ROUND_BITS
# sorted volumes per chunk of the prefix trie
TRIE_CHUNK = 4 * ROW_BLOCK


def _sort_columns(codes: list[np.ndarray]):
    """(columns, lengths) of the volumes of every array of ``codes``, in
    order: column t holds each volume's round-t code, or `_PAST_END`
    past its last round."""
    lengths = np.concatenate([np.full(len(c), c.shape[1], np.int32)
                              for c in codes])
    cols = tuple(np.concatenate([
        c[:, t] if t < c.shape[1] else np.full(len(c), _PAST_END, np.uint16)
        for c in codes]) for t in range(max(c.shape[1] for c in codes)))
    return cols, lengths


def _run_rows(layers, x) -> np.ndarray:
    """Feed-forward ``layers`` on the rows of ``x``, without caches, in
    `row_blocks` blocks; a lone row runs beside a copy of itself."""
    n = len(x)
    if n == 1:
        x = np.repeat(x, 2, axis=0)
    edges = row_blocks(len(x))
    out = []
    for lo, hi in zip(edges, edges[1:]):
        y = x[lo:hi]
        for layer in layers:
            y = layer.forward(y)
        out.append(y)
    return np.concatenate(out)[:n]


def _advance(lstms, states, parent, code):
    """The (h, c) of every LSTM layer at the new nodes of one depth:
    node k is the child of node ``parent[k]`` of ``states`` (the
    previous depth) by a round of code ``code[k]``. Each layer's
    no-cache round writes into the gathered parent states."""
    if len(parent) == 1:
        # numpy multiplies a lone row by gemv (see Lstm._active): run it
        # beside a copy of itself, which no volume points to
        parent, code = np.repeat(parent, 2), np.repeat(code, 2)
    x = ROUND_BITS[code].astype(float)
    new = [(h[parent], c[parent]) for h, c in states]
    edges = row_blocks(len(parent))
    for lo, hi in zip(edges, edges[1:]):
        xt = x[lo:hi]
        for layer, (h, c) in zip(lstms, new):
            layer._round(xt, h[lo:hi], c[lo:hi], layer.round_buffers(hi - lo))
            xt = h[lo:hi]
    return new


def _trie_chunk(lstms, head, cols, lengths) -> np.ndarray:
    """Network outputs on volumes sorted by their codes (``cols``,
    ``lengths`` as `_sort_columns` gives them), by a prefix trie.

    Depth d holds one node per distinct d-round prefix, and ``node``
    each volume's node at the deepest depth it reaches so far. Sorting
    makes every prefix's volumes adjacent, so the new nodes of a depth
    are where (parent node, round code) changes from one volume to the
    next."""
    node = np.zeros(len(lengths), np.intp)
    states = [(np.zeros((1, layer.n)), np.zeros((1, layer.n)))
              for layer in lstms]  # the root: the empty prefix
    ends, end_of, n_ends = [], np.empty(len(lengths), np.intp), 0
    for d in range(len(cols) + 1):
        done = np.flatnonzero(lengths == d)
        if len(done):
            ids = node[done]
            first = np.ones(len(ids), bool)
            np.not_equal(ids[1:], ids[:-1], out=first[1:])
            ends.append(states[-1][0][ids[first]])
            end_of[done] = n_ends + np.cumsum(first) - 1
            n_ends += len(ends[-1])
        active = np.flatnonzero(lengths > d)
        if not len(active):
            break
        parent, code = node[active], cols[d][active]
        new = np.ones(len(active), bool)
        new[1:] = (parent[1:] != parent[:-1]) | (code[1:] != code[:-1])
        node[active] = np.cumsum(new) - 1
        states = _advance(lstms, states, parent[new], code[new])
    return _run_rows(head, np.concatenate(ends))[end_of]


def _trie_outputs(model, cols, lengths, head: int) -> np.ndarray:
    """Output ``head`` of the recurrent ``model`` on every volume of
    `_sort_columns`, `TRIE_CHUNK` sorted volumes at a time."""
    lstms = [layer for layer in model.layers if isinstance(layer, Lstm)]
    head_layers = model.layers[model.layers.index(lstms[-1]) + 1:]
    # np.lexsort sorts by its last key first
    order = np.lexsort(cols[::-1]) if cols else np.arange(len(lengths))
    q = np.empty(len(lengths))
    for lo in range(0, len(order), TRIE_CHUNK):
        rows = order[lo:lo + TRIE_CHUNK]
        q[rows] = _trie_chunk(lstms, head_layers,
                              [col[rows] for col in cols],
                              lengths[rows])[:, head]
    return q


class NnDecoder:
    """Decoder interface over a trained network.

    For the dual-head network the head matching the decoding basis is
    thresholded; single-head networks use their only output. Recurrent
    networks take each volume unpadded, whatever its round count.
    """

    def __init__(self, model, basis: str = "Z"):
        self.model = model
        syn, flag = basis_channels(basis)  # ValueError for another basis
        self.head = "ZX".index(basis) if model.spec.spec_id == "drnn" else 0
        self.channels = None if model.spec.recurrent else list(syn + flag)
        # the network input of a round, by its code
        self._rows = _RECURRENT_ROWS if self.channels is None \
            else ROUND_BITS[:, self.channels].astype(np.int8)

    def layout(self, codes, t_max: int | None = None) -> np.ndarray:
        """The network inputs of the (n, T) round ``codes`` as int8, by
        one table gather: the flattened `DNN2_CHANNELS` bits for a dense
        network; for a recurrent one, which takes any number of rounds,
        the channel bits padded with the mask value -1 up to ``t_max``.
        12 B a volume for dnn2, 12 T_max B for a recurrent network."""
        codes = np.asarray(codes)
        n, t = codes.shape
        if self.channels is None and (t_max or t) > t:
            codes = np.concatenate(
                [codes, np.full((n, t_max - t), _PAST_END, np.uint16)], 1)
        x = self._rows[codes]
        return x if self.channels is None \
            else x.reshape(n, t * len(self.channels))

    def inputs(self, volumes, t_max: int | None = None) -> np.ndarray:
        """`layout` of the (n, T, 12) bit ``volumes`` as float64: bits
        0.0 and 1.0, padding -1.0."""
        return self.layout(pack_rounds(volumes), t_max).astype(float)

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

    def attributions(self, codes, background, progress=None):
        """(`grid` of DeepSHAP scores of the round ``codes`` against the
        ``background`` codes, phi0), in tiles of the default size;
        ``progress`` is `deepshap_batch`'s."""
        phi, phi0 = deepshap_batch(
            self.model, self.layout(codes).astype(float),
            self.layout(background).astype(float), head=self.head,
            progress=progress)
        return self.grid(phi), phi0

    def _outputs(self, codes):
        """(head output on every volume, volumes per array) of the round
        code arrays of the iterable ``codes``, which is consumed once;
        `map` keeps no array once it is reduced to what the network
        reads."""
        if self.channels is None:
            codes = list(codes)
            sizes = [len(c) for c in codes]
            if not codes:
                return np.empty(0), sizes
            cols, lengths = _sort_columns(codes)
            del codes
            return _trie_outputs(self.model, cols, lengths, self.head), sizes
        rows = list(map(self.layout, codes))
        sizes = [len(r) for r in rows]
        if not rows:
            return np.empty(0), sizes
        rows = np.concatenate(rows)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        _, first, inverse = np.unique(keys.ravel(), return_index=True,
                                      return_inverse=True)
        if len(first) == 1:
            # a lone row would be multiplied by gemv (see Lstm._active):
            # run it beside a copy of itself
            first = np.repeat(first, 2)
        q = self.model.forward(rows[first].astype(float))[:, self.head]
        return q[inverse], sizes

    def _flips(self, codes) -> list[np.ndarray]:
        """The thresholded head on each array of `_outputs`."""
        q, sizes = self._outputs(codes)
        flips = (q > 0.5).astype(np.uint8)
        return np.split(flips, np.cumsum(sizes)[:-1]) if sizes else []

    def predict_flips(self, volumes) -> np.ndarray:
        """The thresholded head on each of the (n, T, 12) bit
        ``volumes``; the one-array case of `predict_flips_batches`."""
        return self._flips([pack_rounds(volumes)])[0]

    def predict_flips_batch(self, batch) -> np.ndarray:
        return self._flips([batch.codes])[0]

    def predict_flips_batches(self, batches) -> list[np.ndarray]:
        """The flips of each batch of the iterable ``batches`` (a
        generator is consumed once), decoded together: a dense network
        runs once on the distinct rows of all batches, a recurrent one
        by one prefix trie over all of them."""
        return self._flips(map(attrgetter("codes"), batches))
