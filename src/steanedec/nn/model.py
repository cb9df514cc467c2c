"""Network descriptions, the layer-sequencing model, and config hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .layers import Dense, Dropout, Lstm, Masking


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative layer list; the same description is hashed into every
    artifact so weights and configs cannot be mixed up."""

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


class Model:
    """Sequential network; orchestrates mask propagation between the
    masking layer and the recurrent layers."""

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

    def forward(self, x, train: bool = False, rng=None,
                mask=None) -> np.ndarray:
        """Run the layers in order. ``mask``, when given, replaces the
        padding mask the masking layer computes from ``x``."""
        x = np.asarray(x, dtype=float)
        cur = None
        for layer in self.layers:
            if isinstance(layer, Masking):
                x = layer.forward(x, mask=mask)
                cur = layer.mask
            elif isinstance(layer, Lstm):
                x = layer.forward(x, mask=cur, train=train, rng=rng)
                if not layer.return_sequences:
                    cur = None
            else:
                x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, dout) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def zero_grads(self):
        for layer in self.layers:
            layer.zero_grads()

    # flat parameter access ("layerindex.name") for optimizer/checkpoints
    def weights_flat(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, w in layer.weights.items():
                out[f"{i}.{name}"] = w
        return out

    def grads_flat(self) -> dict[str, np.ndarray]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, g in layer.grads.items():
                out[f"{i}.{name}"] = g
        return out

    def set_weights_flat(self, values: dict[str, np.ndarray]):
        mine = self.weights_flat()
        if set(mine) != set(values):
            raise ValueError("weight name mismatch")
        for name, w in mine.items():
            if w.shape != values[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            w[:] = values[name]


def build_model(spec: NetworkSpec, seed: int = 0) -> Model:
    return Model(spec, seed=seed)
