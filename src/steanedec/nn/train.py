"""Minibatch training loop with per-epoch checkpointing."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .adam import AdamState
from .checkpoint import Checkpoint, save_checkpoint
from .losses import bce_loss, bce_loss_grad
from .model import Model


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0


def train(model: Model, x, y, config: TrainConfig, config_hash: str = "",
          checkpoint_dir=None, eval_fn=None, start_epoch: int = 0,
          adam: AdamState | None = None, stop_fn=None) -> list[dict]:
    """Train ``model`` on (x, y); returns a per-epoch history.

    ``eval_fn(model, epoch)`` may supply extra metrics recorded in the
    history and in each epoch checkpoint; ``stop_fn(record)`` can end the
    run early (e.g. once an evaluation metric reaches its target).

    ``x`` may be the compact int8 form of the inputs (see
    `NnDecoder.layout`): each minibatch is converted to float64 as it is
    drawn, which gives the bits of a float64 ``x``.
    """
    x = np.asarray(x)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    n = x.shape[0]
    if adam is None:
        adam = AdamState(lr=config.lr)
    history = []
    for epoch in range(start_epoch, config.epochs):
        rng = np.random.default_rng((config.seed, epoch))
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo:lo + config.batch_size]
            xb, yb = np.asarray(x[idx], dtype=float), y[idx]
            q = model.forward(xb, train=True, rng=rng)
            total += bce_loss(yb, q)
            batches += 1
            model.zero_grads()
            model.backward(bce_loss_grad(yb, q))
            adam.update(model.params, model.grads)
        record = {"epoch": epoch, "loss": total / max(batches, 1)}
        if eval_fn is not None:
            record.update(eval_fn(model, epoch))
        history.append(record)
        if checkpoint_dir is not None:
            state = model.weights_flat()
            if adam.m is not None:
                for key, flat in (("m", adam.m), ("v", adam.v)):
                    state.update((f"adam.{key}.{name}", mom) for name, mom
                                 in model.views(flat).items())
            extra = {"adam_step": adam.step_count, "lr": adam.lr,
                     "metrics": {k: float(v) for k, v in record.items()}}
            save_checkpoint(os.path.join(checkpoint_dir,
                                         f"epoch_{epoch:04d}.ckpt"),
                            Checkpoint(epoch=epoch, weights=state,
                                       config_hash=config_hash, extra=extra))
        if stop_fn is not None and stop_fn(record):
            break
    return history


def restore(model: Model, ckpt: Checkpoint) -> AdamState:
    """Load the weights of the checkpoint ``ckpt`` into ``model`` and
    rebuild its optimizer state; returns the AdamState so training can
    continue where it stopped. A checkpoint holds a moment for every
    weight tensor, or none before the first step."""
    model.set_weights_flat({k: v for k, v in ckpt.weights.items()
                            if not k.startswith("adam.")})
    adam = AdamState(lr=ckpt.extra.get("lr", 1e-3))
    adam.step_count = ckpt.extra.get("adam_step", 0)
    m, v = ({k[len(prefix):]: w for k, w in ckpt.weights.items()
             if k.startswith(prefix)} for prefix in ("adam.m.", "adam.v."))
    if m or v:
        adam.m, adam.v = np.empty_like(model.params), \
            np.empty_like(model.params)
        model.fill(adam.m, m)
        model.fill(adam.v, v)
    return adam
