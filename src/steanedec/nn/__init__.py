"""From-scratch network stack: masking, LSTM, dense and dropout layers,
Adam, binary cross entropy with masked heads, BPTT, and epoch
checkpointing."""

from .layers import Dense, Dropout, Lstm, Masking
from .losses import bce_loss, bce_loss_grad
from .adam import AdamState
from .model import (Model, NetworkSpec, build_model, config_hash,
                    dnn2_spec, drnn_spec, srnn_spec)
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .train import TrainConfig, restore, train

__all__ = [
    "Dense", "Dropout", "Lstm", "Masking",
    "bce_loss", "bce_loss_grad",
    "AdamState", "Model", "NetworkSpec", "build_model", "config_hash",
    "dnn2_spec", "drnn_spec", "srnn_spec",
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "TrainConfig", "restore", "train",
]
