"""Training loop, negative sampling, early stopping, trained state."""

from .early_stopping import EarlyStopping
from .sampler import BPRSampler
from .snapshot import (load_training_snapshot, read_checkpoint,
                       restore_training_snapshot, save_checkpoint,
                       save_training_snapshot)
from .trainer import TrainConfig, TrainResult, train_model

__all__ = ["EarlyStopping", "BPRSampler", "TrainConfig", "TrainResult",
           "train_model", "save_checkpoint", "read_checkpoint",
           "save_training_snapshot", "load_training_snapshot",
           "restore_training_snapshot"]
