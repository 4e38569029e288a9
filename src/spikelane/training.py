"""Mini-batch training with surrogate-gradient descent and early stopping."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import WindowSample, stack_windows
from .errors import ConfigError, DivergenceError, UsageError
from .model import (
    Model,
    backward_batch,
    forward_batch,
    model_params,
    replace_params,
)

OPTIMIZERS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    learning_rate: float = 1e-3
    max_epochs: int = 2000
    patience_epochs: int = 50
    min_loss_delta: float = 1e-6
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience_epochs < 1:
            raise ConfigError(f"patience_epochs must be >= 1, got {self.patience_epochs}")
        if self.min_loss_delta < 0:
            raise ConfigError(f"min_loss_delta must be >= 0, got {self.min_loss_delta}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")


@dataclass(frozen=True)
class EpochLog:
    epoch: int          # 1-based
    mean_loss: float
    wall_time_s: float
    train_accuracy: float


@dataclass
class AdamState:
    """First/second moment accumulators plus the bias-correction step count."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0


def init_optimizer_state(params: Sequence[np.ndarray], config: TrainConfig):
    if config.optimizer == "adam":
        return AdamState(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )
    return None


def optimizer_step(
    params: Sequence[np.ndarray],
    grads: Sequence[np.ndarray],
    state,
    config: TrainConfig,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> list[np.ndarray]:
    """One in-place-free update; returns new parameter arrays.

    Adam uses bias-corrected moment estimates; SGD is plain
    p - lr * g with no state.
    """
    if len(params) != len(grads) or any(
        p.shape != g.shape for p, g in zip(params, grads)
    ):
        raise UsageError("params and grads do not align")
    lr = config.learning_rate
    if config.optimizer == "sgd":
        return [p - lr * g for p, g in zip(params, grads)]
    if not isinstance(state, AdamState):
        raise UsageError("adam step needs an AdamState")
    state.step += 1
    t = state.step
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * g * g
        m_hat = state.m[i] / (1.0 - beta1**t)
        v_hat = state.v[i] / (1.0 - beta2**t)
        out.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
    return out


def train(
    model: Model,
    train_set: Sequence[WindowSample],
    config: TrainConfig = TrainConfig(),
) -> tuple[Model, list[EpochLog]]:
    """Train on the given windows; returns the best-loss model and the log.

    Epochs shuffle with a generator seeded from config.seed, so identical
    inputs reproduce identical parameter trajectories.  Training stops after
    max_epochs, or once the best epoch loss has gone patience_epochs epochs
    without improving by more than min_loss_delta.  A non-finite epoch loss
    raises DivergenceError.
    """
    if not train_set:
        raise UsageError("train_set is empty")
    windows, labels = stack_windows(train_set)
    if windows.shape[1:] != (model.input_steps, model.feature_layer.in_dim):
        raise UsageError(
            f"window shape {windows.shape[1:]} does not match model input "
            f"({model.input_steps}, {model.feature_layer.in_dim})"
        )
    n = windows.shape[0]
    rng = np.random.default_rng(config.seed)
    params = [p.copy() for p in model_params(model)]
    state = init_optimizer_state(params, config)
    current = replace_params(model, params)

    best_loss = np.inf
    best_params = [p.copy() for p in params]
    epochs_without_improvement = 0
    logs: list[EpochLog] = []

    for epoch in range(1, config.max_epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(n)
        total_nll = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            cache = forward_batch(current, windows[idx])
            batch_labels = labels[idx]
            total_nll -= float(cache.log_probs[np.arange(idx.size), batch_labels].sum())
            correct += int((np.argmax(cache.log_probs, axis=1) == batch_labels).sum())
            grads = backward_batch(current, cache, batch_labels)
            params = optimizer_step(params, grads.as_list(), state, config)
            current = replace_params(current, params)
        mean_loss = total_nll / n
        if not np.isfinite(mean_loss):
            raise DivergenceError(f"non-finite training loss at epoch {epoch}")
        logs.append(
            EpochLog(
                epoch=epoch,
                mean_loss=float(mean_loss),
                wall_time_s=time.perf_counter() - tic,
                train_accuracy=correct / n,
            )
        )
        if mean_loss < best_loss - config.min_loss_delta:
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
        if mean_loss < best_loss:
            best_loss = mean_loss
            best_params = [p.copy() for p in params]
        if epochs_without_improvement >= config.patience_epochs:
            break

    return replace_params(model, best_params), logs


def write_training_log(logs: Sequence[EpochLog], destination: str | Path) -> None:
    """CSV log: epoch,mean_loss,wall_time_s,train_accuracy at 9 significant digits."""
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("epoch", "mean_loss", "wall_time_s", "train_accuracy"))
        for log in logs:
            writer.writerow(
                (
                    log.epoch,
                    format(log.mean_loss, ".9g"),
                    format(log.wall_time_s, ".9g"),
                    format(log.train_accuracy, ".9g"),
                )
            )


_CONFIG_FIELD_TYPES = {
    "batch_size": int,
    "learning_rate": float,
    "max_epochs": int,
    "patience_epochs": int,
    "min_loss_delta": float,
    "seed": int,
    "optimizer": str,
}


def load_train_config(source: str | Path, **overrides) -> TrainConfig:
    """Read `key=value` lines (blank lines and # comments ignored) into a
    TrainConfig; keyword overrides win over file values."""
    values = {}
    with open(source, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_FIELD_TYPES:
                raise ConfigError(f"line {line_no}: unknown config key {key!r}")
            if key in values:
                raise ConfigError(f"line {line_no}: duplicate config key {key!r}")
            try:
                values[key] = _CONFIG_FIELD_TYPES[key](value.strip())
            except ValueError:
                raise ConfigError(f"line {line_no}: bad value for {key}: {value.strip()!r}") from None
    values.update(overrides)
    return TrainConfig(**values)
