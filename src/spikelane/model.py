"""Spiking classifier core: parameters, forward pass, and surrogate-gradient backward pass.

The network maps a (12, 5) window of vehicle state features to three intention
classes through three stages:

1. a linear layer expanding the 5 features to 24 input currents per time step,
2. a layer of 24 leaky integrate-and-fire neurons run over the 12 time steps,
   whose binary spikes are averaged along time into a rate vector,
3. a linear layer mapping the 24 rates to 3 logits, read out as log-probabilities.

Everything is computed in float64.  forward_batch keeps every intermediate for
backward_batch and serves training; score is the inference path, which keeps
none of them and gives each window the same bits at any batch size.  Both run
one LIF recurrence, _lif_steps, over time-major (T, N, hidden) stacks, so each
step reads and writes one contiguous block; the backward sweep runs over the
same layout.  _lif_steps updates one state array in place and writes each
step's threshold compare straight into a bool spike stack (out=), which score
counts with a single reduction and forward_batch casts to float64 once.
score gathers each chunk of a WindowSet time-major with WindowSet.take, or
reads a bare (N, 12, 5) stack directly.
ForwardCache keeps its batch-major (N, T, hidden) shapes as transposed views
of those stacks, which are therefore not C-contiguous.  All of these are pure
functions of their arguments; models are plain frozen-array containers, so
sharing a model across threads for inference is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .dataset import (
    FEATURE_NAMES, LABEL_NAMES, WINDOW_STEPS, WindowSet, _class_column, _float_array, _float_cast,
    _integer_column, _integer_value, _real_value, window_stack,
)
from .errors import ConfigError, NumericError, ShapeError, UsageError

RESET_TO_ZERO = "to_zero"
RESET_SUBTRACT = "subtract"
RESET_MODES = (RESET_TO_ZERO, RESET_SUBTRACT)

# Hidden LIF neurons; the dataset schema fixes the window shape and class count.
DEFAULT_HIDDEN_DIM = 24
MAX_HIDDEN_DIM = 1_000_000  # checked by new_model before it allocates, and in checkpoints
_CURRENT_LIMIT = np.finfo(np.float64).max / 16  # see _check_currents


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
        _real_value("beta", self.beta, 0.0, 1.0)
        # Both must be finite: an infinite slope makes every surrogate gradient
        # inf / inf = nan, and an infinite threshold makes the subtract reset's
        # v_threshold * False nan.
        _real_value("v_threshold", self.v_threshold, 0.0)
        _real_value("surrogate_slope", self.surrogate_slope, 0.0)
        if self.reset_mode not in RESET_MODES:
            raise ConfigError(f"reset_mode must be one of {RESET_MODES}, got {self.reset_mode!r}")


@dataclass(frozen=True)
class LinearLayer:
    """Dense affine map: weights has shape (in_dim, out_dim), bias (out_dim,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _float_array("weights", self.weights, (None, None))
        b = _float_array(f"bias (weights shape {w.shape})", self.bias, (w.shape[1],))
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
    """Full parameter set: feature layer, LIF settings, classifier layer.  The
    dataset schema fixes the window shape and class count; hidden_dim is free."""

    feature_layer: LinearLayer
    classifier: LinearLayer
    lif: LifConfig = field(default_factory=LifConfig)

    def __post_init__(self):
        if not isinstance(self.lif, LifConfig):
            raise ConfigError(f"lif must be a LifConfig, got {self.lif!r}")
        if (self.input_dim, self.classes) != (len(FEATURE_NAMES), len(LABEL_NAMES)):
            raise ConfigError(
                f"model maps {self.input_dim} features to {self.classes} classes; the "
                f"dataset schema has {len(FEATURE_NAMES)} features and {len(LABEL_NAMES)} classes"
            )
        _integer_value("hidden_dim", self.hidden_dim, minimum=1)
        if self.classifier.in_dim != self.feature_layer.out_dim:
            raise ConfigError(
                f"classifier expects {self.classifier.in_dim} inputs but the "
                f"feature layer produces {self.feature_layer.out_dim}"
            )

    @property
    def input_steps(self) -> int:
        return WINDOW_STEPS

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
    returns the same fields for one window, without that axis.  currents,
    membrane and spikes are transposed views of the time-major (T, N, hidden)
    arrays the LIF recurrence reads and fills, so for N > 1 they are not
    C-contiguous.
    backward_batch also takes caches whose fields are plain C-contiguous arrays.
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
    seed: int = 0, hidden_dim: int = DEFAULT_HIDDEN_DIM, lif: LifConfig | None = None
) -> Model:
    """Build a model for the dataset's windows and classes, with weights drawn
    uniformly from +-1/sqrt(fan_in).

    The bound keeps initial currents mostly sub-threshold so early spike
    activity is sparse.  The same seed always yields the same model.
    """
    _integer_value("hidden_dim", hidden_dim, minimum=1)
    if hidden_dim > MAX_HIDDEN_DIM:
        raise ConfigError(f"hidden_dim must be <= {MAX_HIDDEN_DIM:,}, got {hidden_dim}")
    _integer_value("seed", seed, minimum=0)
    rng = np.random.default_rng(seed)

    def init_layer(fan_in: int, fan_out: int) -> LinearLayer:
        bound = 1.0 / np.sqrt(fan_in)
        return LinearLayer(
            weights=rng.uniform(-bound, bound, size=(fan_in, fan_out)),
            bias=rng.uniform(-bound, bound, size=fan_out),
        )

    return Model(
        feature_layer=init_layer(len(FEATURE_NAMES), hidden_dim),
        classifier=init_layer(hidden_dim, len(LABEL_NAMES)),
        lif=lif if lif is not None else LifConfig(),
    )


def param_count(model: Model) -> int:
    """Number of trainable scalars (weights and biases of both linear layers)."""
    return sum(p.size for p in model_params(model))


def model_params(model: Model) -> list[np.ndarray]:
    """Trainable arrays in declaration order, matching Gradients.as_list()."""
    return [
        model.feature_layer.weights,
        model.feature_layer.bias,
        model.classifier.weights,
        model.classifier.bias,
    ]


def flatten_params(params: Sequence[np.ndarray]) -> np.ndarray:
    """model_params (or Gradients.as_list()) arrays as one new vector, in checkpoint order."""
    return np.concatenate([np.ravel(p) for p in params])


def split_params(theta: np.ndarray, hidden_dim: int) -> list[np.ndarray]:
    """Views of a flatten_params vector as the four model_params arrays of a
    model with this hidden_dim."""
    input_dim, classes = len(FEATURE_NAMES), len(LABEL_NAMES)
    shapes = [(input_dim, hidden_dim), (hidden_dim,), (hidden_dim, classes), (classes,)]
    ends = np.cumsum([np.prod(s) for s in shapes])
    if theta.shape != (ends[-1],):
        raise ShapeError(f"parameter vector shape {theta.shape}, expected ({ends[-1]},)")
    return [part.reshape(s) for part, s in zip(np.split(theta, ends[:-1]), shapes)]


def replace_params(model: Model, params: Sequence[np.ndarray]) -> Model:
    """New model with the same config but the given parameter arrays."""
    w1, b1, w2, b2 = params
    return Model(
        feature_layer=LinearLayer(weights=w1, bias=b1),
        classifier=LinearLayer(weights=w2, bias=b2),
        lif=model.lif,
    )


# ---------------------------------------------------------------------------
# forward-pass operations
# ---------------------------------------------------------------------------


def _feature_currents(xs: np.ndarray, layer: LinearLayer) -> np.ndarray:
    """Time-major (T, N, hidden) input currents of a C-contiguous time-major
    (T, N, in) window stack.

    One GEMM over the stack's (T * N, in) rows, read in place.  With only
    in_dim terms per sum, BLAS adds them in one order whatever the number or
    order of rows, so every current has the bits of x[n, t] @ W + b.

    _check_currents is the one finiteness check of forward_batch and score: a
    non-finite input makes its row of currents non-finite (nan * w and inf * 0.0
    are nan), and a finite one as large as 1e308 can overflow the GEMM, which
    runs under np.errstate so that neither warns first.
    """
    steps, n, in_dim = xs.shape
    with np.errstate(over="ignore", invalid="ignore"):
        currents = xs.reshape(steps * n, in_dim) @ layer.weights
        currents += layer.bias
    return _check_currents(currents.reshape(steps, n, layer.out_dim))


def _check_currents(currents: np.ndarray) -> np.ndarray:
    """The LIF input rule: returns a time-major current stack whose every value is
    finite and within +-_CURRENT_LIMIT, a sixteenth of the float64 maximum, so that
    the LIF state, a sum of at most 12 currents each decayed by beta < 1, cannot
    overflow; else raises NumericError naming the first bad (t, j)."""
    if not (np.maximum.reduce(currents, axis=None, initial=-np.inf) < _CURRENT_LIMIT
            and np.minimum.reduce(currents, axis=None, initial=np.inf) > -_CURRENT_LIMIT):
        index = tuple(np.argwhere(~(np.abs(currents) < _CURRENT_LIMIT))[0])
        raise NumericError(f"currents must be finite and within +-{_CURRENT_LIMIT:.3g}, got "
                           f"{currents[index]} at (t={index[0]}, j={index[-1]})")
    return currents


def lif_forward(
    currents: np.ndarray, cfg: LifConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Run the leaky integrate-and-fire recurrence over a (T, H) current matrix.

    Each neuron j integrates independently from a zero initial state:
    u[t] = beta * u_post[t-1] + currents[t, j].  A spike is emitted whenever
    u[t] >= v_threshold, after which the state is reset to zero or has the
    threshold subtracted, depending on reset_mode.  Returns the binary spike
    matrix and the pre-reset membrane potentials, both shaped like currents.
    The currents must pass _check_currents, as every window's do.
    """
    currents = _float_cast("currents", currents)
    if currents.ndim != 2 or len(currents) == 0:
        raise ShapeError(f"currents shape {currents.shape}, expected (T, H) with T >= 1")
    return _lif_core(_check_currents(currents), cfg)


def _lif_steps(
    currents: np.ndarray, cfg: LifConfig, membrane: np.ndarray | None = None
) -> np.ndarray:
    """The LIF recurrence: returns the bool spike stack, shaped like currents.

    Time runs along axis 0, so the same loop serves (T, H) and the
    time-major (T, N, H) stacks of training and scoring, and each step reads
    one contiguous block.  One state array is updated in place, each step's
    threshold compare is written straight into its row of the spike stack,
    and, when a membrane stack is passed, the pre-reset potential into its
    row.  The bits are those of u = beta * u_post + currents[t] with
    u_post = where(fired, 0.0, u) or where(fired, u - v_threshold, u): the
    multiply commutes, putmask writes +0.0, and u - v_threshold * False is
    u - 0.0, which is u (-0.0 included) because the threshold is finite.
    beta, v_threshold and the reset value enter every step as 0-d float64
    arrays, made once per call: NumPy converts a Python-float operand
    again on every ufunc call, which at one window costs more than the
    arithmetic.  The values, and so the bits, are those of the floats.
    """
    beta = np.array(cfg.beta, dtype=np.float64)
    v_threshold = np.array(cfg.v_threshold, dtype=np.float64)
    to_zero = cfg.reset_mode == RESET_TO_ZERO
    reset_value = np.zeros(())
    u = np.zeros(currents.shape[1:])
    spikes = np.empty(currents.shape, dtype=bool)
    for t, fired in enumerate(spikes):
        u *= beta
        u += currents[t]
        if membrane is not None:
            membrane[t] = u
        np.greater_equal(u, v_threshold, out=fired)
        if to_zero:
            np.putmask(u, fired, reset_value)
        else:
            u -= v_threshold * fired
    return spikes


def _lif_core(currents: np.ndarray, cfg: LifConfig) -> tuple[np.ndarray, np.ndarray]:
    # Time-major like _lif_steps: float64 spikes and the pre-reset membrane,
    # both shaped like currents.
    membrane = np.empty(currents.shape)
    spikes = _lif_steps(currents, cfg, membrane)
    return spikes.astype(np.float64), membrane


def softmax_logprobs(logits: np.ndarray) -> np.ndarray:
    """Log of softmax(logits), computed max-shifted so large logits cannot overflow."""
    z = _float_array("logits", logits, (None,))
    if z.size == 0:
        raise ShapeError("logits shape (0,), expected at least one logit")
    return _log_softmax(z)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    # The ufunc reductions that ndarray.max and .sum call, without their
    # Python wrappers; a (1, 3) readout pays those per window.
    shifted = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def forward(model: Model, x: np.ndarray) -> ForwardCache:
    """Full deterministic forward pass on one (12, 5) window.

    Runs forward_batch on a batch of one and drops the batch axis.
    """
    return _index_cache(forward_batch(model, _float_cast("window", x)[None]), 0)


def forward_batch(model: Model, windows: np.ndarray) -> ForwardCache:
    """Vectorized forward pass over a (N, 12, 5) stack."""
    xs = window_stack(windows)
    currents = _feature_currents(np.ascontiguousarray(xs.transpose(1, 0, 2)), model.feature_layer)
    spikes, membrane = _lif_core(currents, model.lif)
    pooled = spikes.mean(axis=0)
    logits = pooled @ model.classifier.weights + model.classifier.bias
    return ForwardCache(
        xs,
        currents.transpose(1, 0, 2),
        membrane.transpose(1, 0, 2),
        spikes.transpose(1, 0, 2),
        pooled,
        logits,
        _log_softmax(logits),
    )


# Windows per score() chunk.  It bounds the working memory of scoring: one
# chunk's (T, chunk, hidden) currents are the largest array score() holds
# (2.4 MB at 1,024 windows, 9.4 MB at 4,096), beside its gathered
# (T, chunk, in) input (0.5 MB at 1,024) and its (T, chunk, hidden) bool
# spikes (0.3 MB).  It is sized for the cache: each LIF step works on the
# (chunk, hidden) float64 state, the step's currents and one bool spike
# row (in subtract mode also one temporary the size of the state), about
# 0.4 MB at 1,024 windows, which fits a 2-MiB L2, against 1.7 MB at 4,096.
# score() on 57,574 windows at stride 1 (2-CPU Xeon, one BLAS thread, 6
# processes of 12 rounds, chunk sizes in rotating order, on a shared host)
# took 0.085 s at best and 0.094 s in the median at 1,024, 0.081/0.088 s at
# 512, 0.086/0.094 s at 2,048 and 0.089/0.100 s at 4,096.  Every chunk
# size gives the same bits.
SCORE_CHUNK = 1024

# score's divisor, WINDOW_STEPS, as a read-only 0-d array: a Python int is
# converted again on every ufunc call, which one-window scoring pays per call.
_STEPS = np.array(WINDOW_STEPS)
_STEPS.flags.writeable = False


def score(model: Model, windows: WindowSet | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference over N windows, caching nothing.

    windows is a WindowSet or a bare (N, 12, 5) stack.  Returns the
    (N, classes) log-probabilities and the (N,) int64 count of hidden-layer
    spikes per window.  The windows are scored SCORE_CHUNK at a time: the
    chunk's time-major (T, chunk, in) input (the set's take(chunk,
    time_major=True), one transposed copy of a stack), the feature
    currents, which raise NumericError unless every one is finite (a
    non-finite window, or a finite one that overflows the feature layer),
    _lif_steps keeping only the running state and filling a
    (T, chunk, hidden) bool spike stack through out=, counted in one
    reduction, then the readout.  The readout is an einsum rather than a
    BLAS matmul, so every row depends only on its own window: a batch of
    one gives the same bits as that window inside any batch, for any chunk
    size.  The reductions are called as ufuncs (np.add.reduce), not through
    the ndarray methods' Python wrappers, which a window pays per call.
    forward_batch stays the training path, whose cache the backward pass
    reads.
    """
    table = isinstance(windows, WindowSet)
    if not table:
        windows = window_stack(windows)
    n = len(windows)
    log_probs = np.empty((n, model.classes))
    spike_counts = np.empty(n, dtype=np.int64)
    for start in range(0, n, SCORE_CHUNK):
        chunk = slice(start, start + SCORE_CHUNK)
        if table:
            xs = windows.take(chunk, time_major=True)
        else:
            xs = np.ascontiguousarray(windows[chunk].transpose(1, 0, 2))
        currents = _feature_currents(xs, model.feature_layer)
        # training's recurrence, over the same (T, chunk, hidden) layout
        spikes = _lif_steps(currents, model.lif)
        counts = np.add.reduce(spikes, axis=0, dtype=np.uint8)  # at most 12 per neuron
        pooled = counts / _STEPS  # the bits of forward_batch's spikes.mean(axis=0)
        logits = np.einsum("nk,kc->nc", pooled, model.classifier.weights)
        logits += model.classifier.bias
        log_probs[chunk] = _log_softmax(logits)
        spike_counts[chunk] = np.add.reduce(counts, axis=1)
    return log_probs, spike_counts


def _index_cache(cache: ForwardCache, key) -> ForwardCache:
    """Apply one index to every field: 0 drops the batch axis, None adds one."""
    return ForwardCache(*(getattr(cache, f.name)[key] for f in fields(ForwardCache)))


def nll_loss(log_probs_batch: Sequence[np.ndarray], labels: Sequence[int]) -> float:
    """Mean negative log-likelihood of the true classes over a batch."""
    if len(log_probs_batch) == 0:
        raise UsageError("nll_loss needs a non-empty batch")
    labels = _integer_column("labels", labels, np.intp, UsageError)
    if labels.shape != (len(log_probs_batch),):
        raise UsageError(
            f"{len(log_probs_batch)} log-prob vectors but labels shape {labels.shape}"
        )
    total = 0.0
    for lp, label in zip(log_probs_batch, labels):
        lp = _float_cast("log-probs", lp)  # -inf is a log-probability
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
    A |v| whose square overflows gives 0.0, the limit, without a warning.
    """
    with np.errstate(over="ignore"):
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
    labels = _class_column("labels", labels)
    if labels.shape != (n,):
        raise UsageError(f"{n} windows but labels shape {labels.shape}")

    dlogits = np.exp(cache.log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grad_w2 = cache.pooled.T @ dlogits
    grad_b2 = dlogits.sum(axis=0)

    dpooled = dlogits @ model.classifier.weights.T
    dspike = dpooled / steps  # pooling spreads the gradient evenly over time

    # A threshold or slope near the float64 limits can overflow the adjoint
    # sweep: the gradients are then not finite, without a warning, and
    # optimizer_step rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _membrane_adjoint(
            model.lif, cache.membrane.transpose(1, 0, 2), cache.spikes.transpose(1, 0, 2), dspike
        )
        # Both reductions read a C-contiguous (N, T, H) lam: their summation
        # order follows the memory layout, and this one keeps the trained bits.
        lam = np.ascontiguousarray(lam.transpose(1, 0, 2))
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

    Works on time-major (T, N, H) stacks, like _lif_steps.  dspike is the loss
    gradient on each spike (identical for every time step here, but broadcast
    either way).  Everything that does not depend on the next step's adjoint
    is computed for the whole stack first; the sweep then does three in-place
    ops per step, with the bits of lam[t] = dspike * sg[t] + mu * dreset[t].
    """
    sg = surrogate_grad(membrane - cfg.v_threshold, cfg.surrogate_slope)
    if cfg.reset_mode == RESET_TO_ZERO:
        # d(u * (1 - s)) / du with s depending on u via the surrogate
        dreset = (1.0 - spikes) - membrane * sg
    else:
        dreset = 1.0 - cfg.v_threshold * sg
    lam = dspike * sg
    beta = np.array(cfg.beta, dtype=np.float64)  # 0-d, as in _lif_steps
    mu = np.zeros(membrane.shape[1:])
    for t in reversed(range(len(membrane))):
        mu *= dreset[t]
        lam[t] += mu
        np.multiply(lam[t], beta, out=mu)
    return lam
