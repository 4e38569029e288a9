"""Mini-batch training with surrogate-gradient descent and early stopping."""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from ._atomic import write_numeric_csv
from .dataset import WindowSet, _float_cast, _integer_value, _real_value
from .errors import ConfigError, DivergenceError, NumericError, UsageError
from .model import (
    Model,
    _WorkingSet,
    backward_batch,
    flatten_params,
    forward_batch,
    model_params,
    replace_params,
    split_params,
)

OPTIMIZERS = ("adam", "sgd")
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
        for name, minimum in (("batch_size", 1), ("max_epochs", 1), ("patience_epochs", 1),
                              ("seed", 0)):
            _integer_value(name, getattr(self, name), minimum=minimum)
        _real_value("learning_rate", self.learning_rate, 0.0)
        _real_value("min_loss_delta", self.min_loss_delta, 0.0, closed=True)
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
    """First/second moment vectors plus the bias-correction step count."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_optimizer_state(theta: np.ndarray, config: TrainConfig):
    if config.optimizer == "adam":
        return AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta))
    return None


def optimizer_step(
    theta: np.ndarray,
    grad: np.ndarray,
    state,
    config: TrainConfig,
) -> np.ndarray:
    """One update of a flat parameter vector; returns the new vector.

    Adam uses bias-corrected moment estimates, whose state vectors must
    cast to float64 arrays of theta's shape, as grad must; SGD is plain
    theta - lr * grad with no state.  A step that is not finite, from a
    gradient that is not finite or too large, raises NumericError.
    """
    theta = _float_cast("parameters", theta, (None,))
    grad = _float_cast("gradient", grad, theta.shape)
    lr = config.learning_rate
    sgd = config.optimizer == "sgd"
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if sgd:
            theta = theta - lr * grad
        elif not isinstance(state, AdamState):
            raise UsageError("adam step needs an AdamState")
        else:
            m = _float_cast("Adam first moment", state.m, theta.shape)
            v = _float_cast("Adam second moment", state.v, theta.shape)
            state.step += 1
            state.m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            state.v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
            v_hat = state.v / (1.0 - ADAM_BETA2**state.step)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    # past a gradient of about 1e154 the second moment alone overflows, and
    # its infinity would freeze that parameter for good
    if not (np.isfinite(theta).all() and (sgd or np.isfinite(state.v).all())):
        raise NumericError("optimizer step is not finite: the gradient is not finite or too "
                           "large for the update")
    return theta


def train(
    model: Model,
    train_set: WindowSet,
    config: TrainConfig = TrainConfig(),
) -> tuple[Model, list[EpochLog]]:
    """Train on the given windows; returns the best-loss model and the log.

    Epochs shuffle with a generator seeded from config.seed, so identical
    inputs reproduce identical parameter trajectories.  Training stops after
    max_epochs, or once the best epoch loss has gone patience_epochs epochs
    without improving by more than min_loss_delta.  A step that optimizer_step
    rejects (a non-finite gradient or parameter) or a non-finite epoch loss
    raises DivergenceError.  The input model is not modified.
    """
    if len(train_set) == 0:
        raise UsageError("train_set is empty")
    labels = train_set.labels
    n = len(labels)
    rng = np.random.default_rng(config.seed)
    theta = flatten_params(model_params(model))
    # the working model views theta, which each step updates in place
    current = replace_params(model, split_params(theta, model.hidden_dim))
    state = init_optimizer_state(theta, config)

    best_loss = np.inf
    best_theta = theta.copy()
    epochs_without_improvement = 0
    logs: list[EpochLog] = []
    # every batch's gathered windows and (T, N, hidden) stacks, which the
    # backward pass reuses, sized by the first batch: no batch allocates a
    # stack.  Each batch still makes its small arrays afresh, none over
    # 24.6 KB at 128 windows, so from the heap, not from mmap: take's row
    # index, the to_zero reset's keep mask, each step's float64 cast of the
    # spike row for the reset, the uint8 spike count, pooled, logits and
    # log-probs, and the backward's dlogits, dpooled, dspike, sweep carry
    # and gradients
    work = _WorkingSet()
    window_shape = (current.input_steps, current.input_dim)

    for epoch in range(1, config.max_epochs + 1):
        tic = time.perf_counter()
        order = rng.permutation(n)
        total_nll = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            windows = train_set.take(idx, _out=work.block("windows", (idx.size, *window_shape)))
            cache = forward_batch(current, windows, _work=work)
            batch_labels = labels[idx]
            total_nll -= float(cache.log_probs[np.arange(idx.size), batch_labels].sum())
            correct += int((np.argmax(cache.log_probs, axis=1) == batch_labels).sum())
            grads = backward_batch(current, cache, batch_labels, _work=work)
            try:
                theta[:] = optimizer_step(theta, flatten_params(grads.as_list()), state, config)
            except NumericError as exc:
                raise DivergenceError(f"non-finite parameters at epoch {epoch}: {exc}") from None
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
            best_theta = theta.copy()
        if epochs_without_improvement >= config.patience_epochs:
            break

    return replace_params(model, split_params(best_theta, model.hidden_dim)), logs


def write_training_log(logs: Sequence[EpochLog], destination: str | Path) -> None:
    """CSV log: epoch,mean_loss,wall_time_s,train_accuracy at 9 significant digits."""
    write_numeric_csv(
        destination, ("epoch", "mean_loss", "wall_time_s", "train_accuracy"), "%d,%.9g,%.9g,%.9g",
        ((log.epoch, log.mean_loss, log.wall_time_s, log.train_accuracy) for log in logs),
    )


_CONFIG_FIELD_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)}


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
