"""Training loop, negative sampling, early stopping, checkpointing."""

from .checkpoint import load_checkpoint, peek_metadata, save_checkpoint
from .early_stopping import EarlyStopping
from .sampler import BPRSampler
from .snapshot import (load_training_snapshot, restore_training_snapshot,
                       save_training_snapshot)
from .trainer import TrainConfig, TrainResult, train_model

__all__ = ["EarlyStopping", "BPRSampler", "TrainConfig", "TrainResult",
           "train_model", "save_checkpoint", "load_checkpoint",
           "peek_metadata", "save_training_snapshot",
           "load_training_snapshot", "restore_training_snapshot"]
