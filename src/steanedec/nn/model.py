"""Network descriptions, the layer-sequencing model, and config hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .layers import Dense, Dropout, Lstm, Masking


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative layer list. It is not hashed itself: artifacts carry
    the hash of the run's config, whose ``decoder`` names the spec
    (`spec_by_id`), and a checkpoint that does not fit the spec's
    weight names and shapes fails to load."""

    spec_id: str
    input_dim: int
    recurrent: bool
    layers: tuple

    def to_dict(self) -> dict:
        return {
            "spec_id": self.spec_id,
            "input_dim": self.input_dim,
            "recurrent": self.recurrent,
            "layers": [dict(l) for l in self.layers],
        }


def _dense_head(width_in: int, heads: int) -> tuple:
    return (
        {"kind": "dense", "units": 48, "input_dim": width_in, "activation": "relu"},
        {"kind": "dropout", "rate": 0.2},
        {"kind": "dense", "units": 24, "input_dim": 48, "activation": "relu"},
        {"kind": "dropout", "rate": 0.2},
        {"kind": "dense", "units": 12, "input_dim": 24, "activation": "relu"},
        {"kind": "dropout", "rate": 0.2},
        {"kind": "dense", "units": heads, "input_dim": 12,
         "activation": "sigmoid"},
    )


def srnn_spec(basis: str = "Z", units: int = 36,
              output_gate_activation: str = "sigmoid") -> NetworkSpec:
    """Single-output recurrent decoder (one head per decoding basis)."""
    layers = (
        {"kind": "masking", "mask_value": -1.0},
        {"kind": "lstm", "units": units, "input_dim": 12,
         "return_sequences": True,
         "output_gate_activation": output_gate_activation},
        {"kind": "lstm", "units": units, "input_dim": units,
         "return_sequences": False,
         "output_gate_activation": output_gate_activation},
    ) + _dense_head(units, heads=1)
    return NetworkSpec(spec_id=f"srnn-{basis.lower()}", input_dim=12,
                       recurrent=True, layers=layers)


def drnn_spec(units: int = 36,
              output_gate_activation: str = "sigmoid") -> NetworkSpec:
    """Dual-output recurrent decoder (bit head, phase head)."""
    layers = (
        {"kind": "masking", "mask_value": -1.0},
        {"kind": "lstm", "units": units, "input_dim": 12,
         "return_sequences": True,
         "output_gate_activation": output_gate_activation},
        {"kind": "lstm", "units": units, "input_dim": units,
         "return_sequences": False,
         "output_gate_activation": output_gate_activation},
    ) + _dense_head(units, heads=2)
    return NetworkSpec(spec_id="drnn", input_dim=12, recurrent=True,
                       layers=layers)


def dnn2_spec(input_dim: int = 12) -> NetworkSpec:
    """Dense-only decoder for fixed two-cycle volumes (flattened
    syndrome + flag bits of the decoding basis)."""
    return NetworkSpec(spec_id="dnn2", input_dim=input_dim, recurrent=False,
                       layers=_dense_head(input_dim, heads=1))


def spec_by_id(spec_id: str) -> NetworkSpec:
    table = {
        "srnn-z": lambda: srnn_spec("Z"),
        "srnn-x": lambda: srnn_spec("X"),
        "drnn": drnn_spec,
        "dnn2": dnn2_spec,
    }
    if spec_id not in table:
        raise ValueError(f"unknown network spec {spec_id!r}")
    return table[spec_id]()


def config_hash(*parts) -> str:
    """Stable hex digest of any JSON-serializable configuration pieces."""
    blob = json.dumps(parts, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


# rows per block of a forward without caches: each LSTM round's
# (rows, 4 units) gate block then stays inside a core's L2 cache
ROW_BLOCK = 500


def row_blocks(n_rows: int) -> list[int]:
    """Edges of the blocks a forward without caches runs ``n_rows`` rows
    in: the fewest blocks of at most `ROW_BLOCK` rows (one, if empty),
    near-equal in size, so that none holds a lone row, which numpy would
    multiply by gemv (see Lstm._active)."""
    k = max(1, -(-n_rows // ROW_BLOCK))
    return [n_rows * j // k for j in range(k + 1)]


class Model:
    """Sequential network; orchestrates mask propagation between the
    masking layer and the recurrent layers.

    The model owns one flat float64 parameter vector, ``params``, and one
    gradient vector of the same layout, ``grads``. Every tensor a layer
    registers is a view into them: tensor ``"{i}.{name}"`` (layer index,
    registered name) holds the next ``size`` elements, in layer order
    and each layer's registration order. Building a layer draws its
    Glorot weights as before; the model then copies them into
    ``params``."""

    def __init__(self, spec: NetworkSpec, seed: int = 0):
        self.spec = spec
        rng = np.random.default_rng(seed)
        self.layers = []
        for desc in spec.layers:
            kind = desc["kind"]
            if kind == "masking":
                self.layers.append(Masking(desc["mask_value"]))
            elif kind == "lstm":
                self.layers.append(Lstm(
                    desc["units"], desc["input_dim"],
                    desc["return_sequences"], rng=rng,
                    output_gate_activation=desc.get(
                        "output_gate_activation", "sigmoid")))
            elif kind == "dense":
                self.layers.append(Dense(desc["units"], desc["input_dim"],
                                         desc["activation"], rng=rng))
            elif kind == "dropout":
                self.layers.append(Dropout(desc["rate"]))
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        # name -> (start, stop, shape) of each tensor in the flat vectors
        self._layout = {}
        size = 0
        for i, layer in enumerate(self.layers):
            for name, w in layer.weights.items():
                self._layout[f"{i}.{name}"] = (size, size + w.size, w.shape)
                size += w.size
        self.params = np.empty(size)
        self.grads = np.zeros(size)
        params, grads = self.views(self.params), self.views(self.grads)
        for i, layer in enumerate(self.layers):
            for name in layer.weights:
                key = f"{i}.{name}"
                params[key][...] = layer.weights[name]
                layer.weights[name] = params[key]
                layer.grads[name] = grads[key]

    def forward(self, x, train: bool = False, rng=None, mask=None,
                trace: bool = False) -> np.ndarray:
        """Run the layers in order. ``mask``, when given, replaces the
        padding mask the masking layer computes from ``x``.

        The layers keep the caches that `backward` and DeepSHAP read only
        for a training forward (``train``) or a traced one (``trace``).
        Any other forward keeps none and runs the rows in near-equal
        blocks of at most `ROW_BLOCK`. Blocking changes no arithmetic, but
        BLAS may round a product of many thousand rows differently from
        one of a few hundred, in the last bit. `row_blocks` sets the
        blocks."""
        x = np.asarray(x, dtype=float)
        if mask is not None:
            mask = np.broadcast_to(mask, x.shape[:2])
        if train or trace or len(x) <= ROW_BLOCK:
            return self._forward(x, train, rng, mask, trace)
        edges = row_blocks(len(x))
        return np.concatenate([
            self._forward(x[lo:hi], False, None,
                          None if mask is None else mask[lo:hi], False)
            for lo, hi in zip(edges, edges[1:])])

    def _forward(self, x, train, rng, mask, trace):
        cur = None
        for layer in self.layers:
            if isinstance(layer, Masking):
                cur = layer.padding(x) if mask is None else mask
                x = layer.forward(x, mask=cur, train=train, trace=trace)
            elif isinstance(layer, Lstm):
                x = layer.forward(x, mask=cur, train=train, rng=rng,
                                  trace=trace)
                if not layer.return_sequences:
                    cur = None
            else:
                x = layer.forward(x, train=train, rng=rng, trace=trace)
        return x

    def backward(self, dout) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def zero_grads(self):
        self.grads.fill(0.0)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named tensor views ("layerindex.name") of a flat vector laid
        out like ``params``."""
        return {name: flat[lo:hi].reshape(shape)
                for name, (lo, hi, shape) in self._layout.items()}

    # flat parameter access ("layerindex.name") for optimizer/checkpoints
    def weights_flat(self) -> dict[str, np.ndarray]:
        return self.views(self.params)

    def grads_flat(self) -> dict[str, np.ndarray]:
        return self.views(self.grads)

    def fill(self, flat: np.ndarray, values: dict[str, np.ndarray]):
        """Write the named tensors ``values``, one for every tensor of
        the model, into the flat vector ``flat``."""
        mine = self.views(flat)
        if set(mine) != set(values):
            raise ValueError("weight name mismatch")
        for name, w in mine.items():
            if w.shape != values[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            w[...] = values[name]

    def set_weights_flat(self, values: dict[str, np.ndarray]):
        self.fill(self.params, values)


def build_model(spec: NetworkSpec, seed: int = 0) -> Model:
    return Model(spec, seed=seed)
