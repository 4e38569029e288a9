"""Spiking classifier core: parameters, forward pass, and surrogate-gradient backward pass.

The network maps a (12, 5) window of vehicle state features to three intention
classes through three stages:

1. a linear layer expanding the 5 features to 24 input currents per time step,
2. a layer of 24 leaky integrate-and-fire neurons run over the 12 time steps,
   whose binary spikes are averaged along time into a rate vector,
3. a linear layer mapping the 24 rates to 3 logits, read out as log-probabilities.

Everything is computed in float64.  Forward and backward are pure functions of
their arguments; models are plain frozen-array containers, so sharing a model
across threads for inference is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError, UsageError

RESET_TO_ZERO = "to_zero"
RESET_SUBTRACT = "subtract"
RESET_MODES = (RESET_TO_ZERO, RESET_SUBTRACT)

# Architecture defaults: 12 time steps x 5 features in, 24 hidden neurons, 3 classes.
DEFAULT_INPUT_STEPS = 12
DEFAULT_INPUT_DIM = 5
DEFAULT_HIDDEN_DIM = 24
DEFAULT_CLASSES = 3


def _as_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class LifConfig:
    """Leaky integrate-and-fire neuron settings.

    beta is the per-step decay of the membrane potential, v_threshold the
    firing threshold (inclusive: a neuron fires when its potential reaches
    the threshold), surrogate_slope the sharpness of the fast-sigmoid
    derivative used in place of the spike step during backprop, and
    reset_mode selects what happens to the potential after a spike.
    """

    beta: float = 0.9
    v_threshold: float = 1.0
    surrogate_slope: float = 25.0
    reset_mode: str = RESET_TO_ZERO

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.v_threshold > 0.0:
            raise ConfigError(f"v_threshold must be > 0, got {self.v_threshold}")
        if not self.surrogate_slope > 0.0:
            raise ConfigError(f"surrogate_slope must be > 0, got {self.surrogate_slope}")
        if self.reset_mode not in RESET_MODES:
            raise ConfigError(f"reset_mode must be one of {RESET_MODES}, got {self.reset_mode!r}")


@dataclass(frozen=True)
class LinearLayer:
    """Dense affine map: weights has shape (in_dim, out_dim), bias (out_dim,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _as_matrix(self.weights, "weights")
        b = np.asarray(self.bias, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ShapeError(
                f"bias shape {b.shape} inconsistent with weights shape {w.shape}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NumericError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class Model:
    """Full parameter set: feature layer, LIF settings, classifier layer."""

    feature_layer: LinearLayer
    classifier: LinearLayer
    lif: LifConfig = field(default_factory=LifConfig)
    input_steps: int = DEFAULT_INPUT_STEPS

    def __post_init__(self):
        if self.input_steps < 1:
            raise ConfigError(f"input_steps must be >= 1, got {self.input_steps}")
        for name, value in (
            ("input_dim", self.feature_layer.in_dim),
            ("hidden_dim", self.feature_layer.out_dim),
            ("classes", self.classifier.out_dim),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if self.classifier.in_dim != self.feature_layer.out_dim:
            raise ConfigError(
                f"classifier expects {self.classifier.in_dim} inputs but the "
                f"feature layer produces {self.feature_layer.out_dim}"
            )

    @property
    def input_dim(self) -> int:
        return self.feature_layer.in_dim

    @property
    def hidden_dim(self) -> int:
        return self.feature_layer.out_dim

    @property
    def classes(self) -> int:
        return self.classifier.out_dim


@dataclass(frozen=True)
class ForwardCache:
    """All intermediates of a forward pass, kept for the backward pass.

    forward_batch fills every field with a leading batch axis N; forward
    returns the same fields for one window, without that axis.
    """

    input: np.ndarray      # ([N,] T, in)
    currents: np.ndarray   # ([N,] T, hidden)
    membrane: np.ndarray   # ([N,] T, hidden), pre-reset potentials
    spikes: np.ndarray     # ([N,] T, hidden), values in {0, 1}
    pooled: np.ndarray     # ([N,] hidden)
    logits: np.ndarray     # ([N,] classes)
    log_probs: np.ndarray  # ([N,] classes)


@dataclass(frozen=True)
class Gradients:
    """Loss gradients for the trainable parameters of both linear layers."""

    feature_weights: np.ndarray
    feature_bias: np.ndarray
    classifier_weights: np.ndarray
    classifier_bias: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [
            self.feature_weights,
            self.feature_bias,
            self.classifier_weights,
            self.classifier_bias,
        ]


def new_model(
    seed: int = 0,
    input_steps: int = DEFAULT_INPUT_STEPS,
    input_dim: int = DEFAULT_INPUT_DIM,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    classes: int = DEFAULT_CLASSES,
    lif: LifConfig | None = None,
) -> Model:
    """Build a model with weights drawn uniformly from +-1/sqrt(fan_in).

    The bound keeps initial currents mostly sub-threshold so early spike
    activity is sparse.  The same seed always yields the same model.
    """
    for name, value in (
        ("input_steps", input_steps),
        ("input_dim", input_dim),
        ("hidden_dim", hidden_dim),
        ("classes", classes),
    ):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)

    def init_layer(fan_in: int, fan_out: int) -> LinearLayer:
        bound = 1.0 / np.sqrt(fan_in)
        return LinearLayer(
            weights=rng.uniform(-bound, bound, size=(fan_in, fan_out)),
            bias=rng.uniform(-bound, bound, size=fan_out),
        )

    return Model(
        feature_layer=init_layer(input_dim, hidden_dim),
        classifier=init_layer(hidden_dim, classes),
        lif=lif if lif is not None else LifConfig(),
        input_steps=input_steps,
    )


def param_count(model: Model) -> int:
    """Number of trainable scalars (weights and biases of both linear layers)."""
    return (
        model.feature_layer.weights.size
        + model.feature_layer.bias.size
        + model.classifier.weights.size
        + model.classifier.bias.size
    )


def model_params(model: Model) -> list[np.ndarray]:
    """Trainable arrays in declaration order, matching Gradients.as_list()."""
    return [
        model.feature_layer.weights,
        model.feature_layer.bias,
        model.classifier.weights,
        model.classifier.bias,
    ]


def replace_params(model: Model, params: Sequence[np.ndarray]) -> Model:
    """New model with the same config but the given parameter arrays."""
    w1, b1, w2, b2 = params
    return Model(
        feature_layer=LinearLayer(weights=w1, bias=b1),
        classifier=LinearLayer(weights=w2, bias=b2),
        lif=model.lif,
        input_steps=model.input_steps,
    )


# ---------------------------------------------------------------------------
# forward-pass operations
# ---------------------------------------------------------------------------


def linear_forward(x: np.ndarray, layer: LinearLayer) -> np.ndarray:
    """Affine map out[t, j] = sum_k x[t, k] * W[k, j] + b[j]."""
    x = _as_matrix(x, "input")
    if x.shape[1] != layer.in_dim:
        raise ShapeError(
            f"input shape {x.shape} does not match layer weights shape "
            f"{layer.weights.shape}"
        )
    return _affine(x, layer)


def _affine(x: np.ndarray, layer: LinearLayer) -> np.ndarray:
    # Maps the last axis, so the same code serves (T, in) and (N, T, in).
    return x @ layer.weights + layer.bias


def lif_forward(
    currents: np.ndarray, cfg: LifConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Run the leaky integrate-and-fire recurrence over a (T, H) current matrix.

    Each neuron j integrates independently from a zero initial state:
    u[t] = beta * u_post[t-1] + currents[t, j].  A spike is emitted whenever
    u[t] >= v_threshold, after which the state is reset to zero or has the
    threshold subtracted, depending on reset_mode.  Returns the binary spike
    matrix and the pre-reset membrane potentials, both shaped like currents.
    """
    currents = _as_matrix(currents, "currents")
    if currents.shape[0] < 1:
        raise ShapeError("currents must have at least one time step")
    bad = ~np.isfinite(currents)
    if bad.any():
        t, j = np.argwhere(bad)[0]
        raise NumericError(f"non-finite current at (t={t}, j={j})")
    return _lif_core(currents, cfg)


def _lif_core(currents: np.ndarray, cfg: LifConfig) -> tuple[np.ndarray, np.ndarray]:
    # Time runs along axis -2 so the same loop serves (T, H) and (N, T, H).
    steps = currents.shape[-2]
    state_shape = currents.shape[:-2] + currents.shape[-1:]
    u_post = np.zeros(state_shape)
    spikes = np.empty_like(currents)
    membrane = np.empty_like(currents)
    for t in range(steps):
        u = cfg.beta * u_post + currents[..., t, :]
        fired = u >= cfg.v_threshold
        membrane[..., t, :] = u
        spikes[..., t, :] = fired
        if cfg.reset_mode == RESET_TO_ZERO:
            u_post = np.where(fired, 0.0, u)
        else:
            u_post = np.where(fired, u - cfg.v_threshold, u)
    return spikes, membrane


def temporal_mean(spikes: np.ndarray) -> np.ndarray:
    """Average spikes along the time dimension into one rate per neuron."""
    return _temporal_mean(_as_matrix(spikes, "spikes"))


def _temporal_mean(spikes: np.ndarray) -> np.ndarray:
    # Time runs along axis -2, as in _lif_core.
    return spikes.mean(axis=-2)


def softmax_logprobs(logits: np.ndarray) -> np.ndarray:
    """Log of softmax(logits), computed max-shifted so large logits cannot overflow."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1:
        raise ShapeError(f"logits must be 1-D, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise NumericError("logits must be finite")
    return _log_softmax(z)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def forward(model: Model, x: np.ndarray) -> ForwardCache:
    """Full deterministic forward pass on one (input_steps, input_dim) window.

    Runs the batched pass on a batch of one and drops the batch axis.
    """
    x = _as_matrix(x, "input window")
    expected = (model.input_steps, model.input_dim)
    if x.shape != expected:
        raise ShapeError(f"input window shape {x.shape}, expected {expected}")
    if not np.isfinite(x).all():
        raise NumericError("input window must be finite")
    return _index_cache(_forward_stack(model, x[None]), 0)


def forward_batch(model: Model, windows: np.ndarray) -> ForwardCache:
    """Vectorized forward pass over a (N, input_steps, input_dim) stack."""
    xs = np.asarray(windows, dtype=np.float64)
    expected = (model.input_steps, model.input_dim)
    if xs.ndim != 3 or xs.shape[1:] != expected:
        raise ShapeError(f"window stack shape {xs.shape}, expected (N, {expected[0]}, {expected[1]})")
    if not np.isfinite(xs).all():
        raise NumericError("window stack must be finite")
    return _forward_stack(model, xs)


def _forward_stack(model: Model, xs: np.ndarray) -> ForwardCache:
    currents = _affine(xs, model.feature_layer)
    spikes, membrane = _lif_core(currents, model.lif)
    pooled = _temporal_mean(spikes)
    logits = _affine(pooled, model.classifier)
    return ForwardCache(xs, currents, membrane, spikes, pooled, logits, _log_softmax(logits))


def _index_cache(cache: ForwardCache, key) -> ForwardCache:
    """Apply one index to every field: 0 drops the batch axis, None adds one."""
    return ForwardCache(*(getattr(cache, f.name)[key] for f in fields(ForwardCache)))


def nll_loss(log_probs_batch: Sequence[np.ndarray], labels: Sequence[int]) -> float:
    """Mean negative log-likelihood of the true classes over a batch."""
    if len(log_probs_batch) == 0:
        raise UsageError("nll_loss needs a non-empty batch")
    if len(log_probs_batch) != len(labels):
        raise UsageError(
            f"{len(log_probs_batch)} log-prob vectors but {len(labels)} labels"
        )
    total = 0.0
    for lp, label in zip(log_probs_batch, labels):
        lp = np.asarray(lp, dtype=np.float64)
        label = int(label)
        if not 0 <= label < lp.shape[0]:
            raise UsageError(f"label {label} outside [0, {lp.shape[0]})")
        total -= lp[label]
    return total / len(labels)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def surrogate_grad(v: np.ndarray, slope: float) -> np.ndarray:
    """Fast-sigmoid stand-in for the spike step's derivative.

    Evaluated at v = membrane - threshold:  slope / (1 + slope * |v|)^2.
    """
    return slope / (1.0 + slope * np.abs(v)) ** 2


def backward(model: Model, cache: ForwardCache, label: int) -> Gradients:
    """Gradients of the single-sample NLL loss for both linear layers.

    Takes a cache without the batch axis, as forward returns it, and runs
    backward_batch on it as a batch of one.
    """
    return backward_batch(model, _index_cache(cache, None), np.array([label]))


def backward_batch(
    model: Model, cache: ForwardCache, labels: np.ndarray
) -> Gradients:
    """Mean gradients of the batch NLL loss (the 1/N average over samples).

    The spike step's derivative is replaced by the fast-sigmoid surrogate;
    the membrane recurrence is unrolled backwards through time with decay
    beta, including the post-spike reset path for the configured reset mode.
    The formulas only read the cached spike and membrane values, so a cache
    filled by a smoothed forward variant yields that variant's exact gradient,
    which is how the backward pass is verified.
    """
    steps, hidden = model.input_steps, model.hidden_dim
    n = len(cache.input)
    if cache.input.shape != (n, steps, model.input_dim) or cache.spikes.shape != (n, steps, hidden):
        raise UsageError(
            f"cache shapes {cache.input.shape}/{cache.spikes.shape} do not "
            f"match model dims (N, {steps}, {model.input_dim}, {hidden})"
        )
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n,):
        raise UsageError(f"{n} windows but labels shape {labels.shape}")
    bad = (labels < 0) | (labels >= model.classes)
    if bad.any():
        raise UsageError(f"label {labels[bad][0]} outside [0, {model.classes})")

    dlogits = np.exp(cache.log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grad_w2 = cache.pooled.T @ dlogits
    grad_b2 = dlogits.sum(axis=0)

    dpooled = dlogits @ model.classifier.weights.T
    dspike = dpooled / steps  # pooling spreads the gradient evenly over time

    lam = _membrane_adjoint(model.lif, cache.membrane, cache.spikes, dspike)
    grad_w1 = np.einsum("nti,ntj->ij", cache.input, lam)
    grad_b1 = lam.sum(axis=(0, 1))
    return Gradients(grad_w1, grad_b1, grad_w2, grad_b2)


def _membrane_adjoint(
    cfg: LifConfig,
    membrane: np.ndarray,
    spikes: np.ndarray,
    dspike: np.ndarray,
) -> np.ndarray:
    """Backward sweep over the LIF recurrence; returns dLoss/dCurrents.

    dspike is the loss gradient on each spike (identical for every time step
    here, but broadcast either way).  Works on (N, T, H) stacks.
    """
    steps = membrane.shape[-2]
    sg = surrogate_grad(membrane - cfg.v_threshold, cfg.surrogate_slope)
    lam = np.empty_like(membrane)
    mu = np.zeros(membrane.shape[:-2] + membrane.shape[-1:])
    for t in reversed(range(steps)):
        if cfg.reset_mode == RESET_TO_ZERO:
            # d(u * (1 - s)) / du with s depending on u via the surrogate
            dreset = (1.0 - spikes[..., t, :]) - membrane[..., t, :] * sg[..., t, :]
        else:
            dreset = 1.0 - cfg.v_threshold * sg[..., t, :]
        lam[..., t, :] = dspike * sg[..., t, :] + mu * dreset
        mu = cfg.beta * lam[..., t, :]
    return lam
