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
score runs the feature layer once per frame that a WindowSet chunk spans:
for a chunk of a run of windows at consecutive starts (WindowSet.runs, a
stride-1 vehicle) it reads each window's currents in place, as a strided
view of those per-frame currents; for another chunk whose span
(WindowSet.span) is dense enough it gathers them from it.  A sparse chunk
or a bare (N, 12, 5) stack runs the feature layer once per window copy.
Each call allocates its working arrays once, not per chunk or batch: score
the bool spike stack, the LIF state and the to_zero reset's mask in the
largest chunk's shape, the current stack and a gathered input likewise when
a chunk first needs them, and the per-frame currents, grown only for a
longer span; train, through a _WorkingSet that forward_batch and
backward_batch take as _work, the gathered windows, the time-major input,
the current, membrane and spike stacks and the backward sweep's blocks.
A shorter chunk or batch uses the front of each array.  So the time of
a call does not depend on whether the heap handed earlier pages back to the
kernel.
ForwardCache keeps its batch-major (N, T, hidden) shapes as transposed views
of those stacks, which are therefore not C-contiguous.  All of these are pure
functions of their arguments; models are plain frozen-array containers, so
sharing a model across threads for inference is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .dataset import (
    FEATURE_NAMES, LABEL_NAMES, WINDOW_STEPS, WindowSet, _class_column, _float_array, _float_cast,
    _integer_value, _real_value, window_stack,
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
    theta = _float_cast("parameter vector", theta, (int(ends[-1]),))
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


class _WorkingSet:
    """Scratch arrays shared by the batches of one call, one per name.

    block(name, shape, dtype) is a C-contiguous view of the leading elements
    of that name's flat array, which is allocated on first use and again
    only for a larger block.  train sizes each block by its first batch, the
    largest, so a shorter last batch reads the front of the same memory, and
    no batch allocates or frees a (T, N, hidden) stack: whether freed pages
    go back to the kernel, and fault in again, would depend on the heap's
    history.  A fresh working set gives each block a new array, which is the
    allocating path of every public caller.  score keeps its per-frame
    currents in one, whose block grows, the old array freed first, only
    for a chunk that spans more frames than any before it.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def block(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        if name not in self._flat or self._flat[name].size < size:
            self._flat.pop(name, None)  # a smaller array goes before its successor comes
            self._flat[name] = np.empty(size, dtype=dtype)
        return self._flat[name][:size].reshape(shape)


# The to_zero reset value, made once.  It stays writeable, though nothing
# writes it: np.putmask copies a read-only values array on every call.
_ZERO = np.zeros(())


def _feature_currents(
    xs: np.ndarray, layer: LinearLayer, out: np.ndarray | None = None
) -> np.ndarray:
    """Time-major (T, N, hidden) input currents of a C-contiguous time-major
    (T, N, in) window stack: a new array, or out, a C-contiguous array of
    that shape, filled.

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
        currents = np.matmul(xs.reshape(steps * n, in_dim), layer.weights,
                             out=None if out is None else out.reshape(steps * n, -1))
        currents += layer.bias
    return _check_currents(currents.reshape(steps, n, -1))


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
    currents = _float_cast("currents", currents, (None, None))
    if len(currents) == 0:
        raise ShapeError(f"currents shape {currents.shape}, expected (T, H) with T >= 1")
    return _lif_stacks(_check_currents(currents), cfg, _WorkingSet())


# The LIF state size (values, windows x hidden neurons) from which the
# to_zero reset multiplies the state by the complement of the spike mask
# instead of calling np.putmask, whose branches mispredict on a real spike
# mask but which is one NumPy call in place of two.  On a trained model's
# currents (fire rate 0.24-0.37; 2-CPU Xeon, one BLAS thread, best of 7) the
# multiply took this share of putmask's time per 12-step loop, at 24
# neurons: 1.59 at 1 window, 1.16 at 128 (training's batches), 1.02-1.07
# at 160-256, 0.89 at 384, 0.81 at 512 and 0.68 at 1,024 (score's chunks).
# Between 3,072 values (128 windows) and about 6,144 (256) the choice costs
# little either way; from 4,096, predict and training batches of up to 170
# windows keep putmask.
_MULTIPLY_RESET_SIZE = 4096


def _lif_steps(
    currents: np.ndarray,
    cfg: LifConfig,
    spikes: np.ndarray,
    state: np.ndarray,
    membrane: np.ndarray | None = None,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """The LIF recurrence: fills and returns spikes, a bool stack shaped like
    currents, running the state in state, shaped like one step, which must
    hold zeros on entry and holds the last step's state on return.

    Time runs along axis 0, so the same loop serves (T, H) and the
    time-major (T, N, H) stacks of training and scoring, and each step reads
    one contiguous block.  The state is updated in place, each step's
    threshold compare is written straight into its row of spikes (out=),
    and, when a membrane stack is passed, the pre-reset potential into its
    row.  The bits are those of u = beta * u_post + currents[t] with
    u_post = where(fired, 0.0, u) or where(fired, u - v_threshold, u): the
    multiply commutes, and u - v_threshold * False is u - 0.0, which is u
    (-0.0 included) because the threshold is finite.  The to_zero reset
    writes +0.0 where fired: np.putmask does for a state smaller than
    _MULTIPLY_RESET_SIZE, and from that size u *= not fired does, in keep
    (a bool array shaped like state; made here when not given), because a
    fired u is at least v_threshold > 0 and finite (_check_currents bounds
    it), so u * 0.0 is +0.0, and u * 1.0 is u.
    beta and v_threshold enter every step as 0-d float64 arrays, made once
    per call, and the reset value as _ZERO: NumPy converts a Python-float
    operand again on every ufunc call, which at one window costs more than
    the arithmetic.  The values, and so the bits, are those of the floats.
    """
    beta = np.array(cfg.beta, dtype=np.float64)
    v_threshold = np.array(cfg.v_threshold, dtype=np.float64)
    to_zero = cfg.reset_mode == RESET_TO_ZERO
    putmask = to_zero and state.size < _MULTIPLY_RESET_SIZE
    if to_zero and not putmask and keep is None:
        keep = np.empty(state.shape, bool)
    reset_value = _ZERO  # a local name: each step reads it
    u = state
    for t, fired in enumerate(spikes):
        u *= beta
        u += currents[t]
        if membrane is not None:
            membrane[t] = u
        np.greater_equal(u, v_threshold, out=fired)
        if putmask:  # tested first: predict's one-window loop pays for every test
            np.putmask(u, fired, reset_value)
        elif to_zero:
            np.logical_not(fired, out=keep)
            u *= keep
        else:
            u -= v_threshold * fired
    return spikes


def _lif_stacks(
    currents: np.ndarray, cfg: LifConfig, work: _WorkingSet
) -> tuple[np.ndarray, np.ndarray]:
    """The float64 spike and pre-reset membrane stacks of forward_batch and
    lif_forward, shaped like currents, in work's blocks."""
    membrane = work.block("membrane", currents.shape)
    state = work.block("state", currents.shape[1:])
    state.fill(0.0)
    fired = _lif_steps(currents, cfg, work.block("fired", currents.shape, bool), state, membrane)
    spikes = work.block("spikes", currents.shape)
    np.copyto(spikes, fired)
    return spikes, membrane


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


def forward_batch(
    model: Model, windows: np.ndarray, *, _work: _WorkingSet | None = None
) -> ForwardCache:
    """Vectorized forward pass over a (N, 12, 5) stack.

    The time-major input and the current, membrane and spike stacks are
    blocks of _work, train's working set, so that the cache holds only until
    the next batch; without it they are new arrays.
    """
    work = _WorkingSet() if _work is None else _work
    xs = window_stack(windows)
    shape = (model.input_steps, len(xs), model.hidden_dim)
    time_major = work.block("input", (model.input_steps, len(xs), model.input_dim))
    np.copyto(time_major, xs.transpose(1, 0, 2))
    currents = _feature_currents(time_major, model.feature_layer, work.block("currents", shape))
    spikes, membrane = _lif_stacks(currents, model.lif, work)
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


# Windows per score() chunk.  It bounds the working memory of scoring, which
# score() allocates once per call and reuses for every chunk: the
# (T, chunk, hidden) current stack, which only a chunk outside a run needs
# (a run's chunks read their currents in place), is its largest array (2.4 MB
# at 1,024 windows, 9.4 MB at 4,096), beside the per-frame currents of a
# chunk's frames (0.2 MB at stride 1, 1.3 MB at 6.4 frames per window) or the
# gathered (T, chunk, in) input (0.5 MB), the (T, chunk, hidden) bool spikes
# (0.3 MB) and the (chunk, hidden) LIF state (0.2 MB).  It is sized for the
# cache: each LIF step works on the state, the step's currents and one bool
# spike row (and the reset's mask, or in subtract mode one temporary the
# size of the state), about 0.4 MB at 1,024 windows, which fits a 2-MiB L2,
# against 1.7 MB at 4,096.  score() on 57,623 windows at stride 1, on the
# per-frame gather (2-CPU Xeon, one BLAS thread, 6 processes of 12 rounds,
# chunk sizes in rotating order, on a shared host), took 0.075 s at best and
# 0.104 s in the median at 1,024, 0.074/0.098 s at 512, 0.078/0.102 s at
# 2,048 and 0.085/0.106 s at 4,096: within the host's noise below 4,096.
# Every chunk size gives the same bits.  On 57,700 stride-1 windows, all in
# runs, score() peaks 2.8 MB above the window set under tracemalloc, its
# outputs included, against 5.1 MB when it gathers every chunk's currents.
SCORE_CHUNK = 1024

# Frames per window up to which score computes a WindowSet chunk outside a
# run's currents once per frame of its span, then gathers them, rather than
# once per window copy.  Per chunk of 1,024 windows (span, feature layer,
# gather and finiteness check; 2-CPU Xeon, one BLAS thread, best of 9), the
# per-frame path took this share of the per-copy path's time: 0.58 at 1.1
# frames per window (stride 1), 0.73 at 4.3, 0.90 at 6.4 (the timeline's
# stride), 0.94 at 7.5, 1.07 at 8.5, 1.12 at 9.6, 1.39 at 11.7 and 2.39 at
# 12.8, where the gather from the span's currents slows.
_SPAN_LIMIT = 8

# score's divisor, WINDOW_STEPS, as a read-only 0-d array: a Python int is
# converted again on every ufunc call, which one-window scoring pays per call.
_STEPS = np.array(WINDOW_STEPS)
_STEPS.flags.writeable = False


def score(model: Model, windows: WindowSet | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inference over N windows, caching nothing.

    windows is a WindowSet or a bare (N, 12, 5) stack.  Returns the
    (N, classes) log-probabilities and the (N,) int64 count of hidden-layer
    spikes per window.  The windows are scored in chunks of at most
    SCORE_CHUNK, every chunk in the same arrays, allocated once per call
    (_score_chunks): each run of at least SCORE_CHUNK // 4 windows at
    consecutive starts with one step (WindowSet.runs, a stride-1 vehicle)
    is cut into chunks of its own, and the windows between runs, or all of
    a bare stack, are cut SCORE_CHUNK at a time.  A chunk's time-major
    (T, chunk, hidden) feature currents come one of three ways:
    - in place, for a chunk of a run: the feature layer runs once over the
      frames the chunk spans, into a block that grows only for a longer
      span, and the currents are a read-only strided view of that block,
      step t of window i being its row i + m * t (_run_currents);
    - per frame, for another WindowSet chunk whose span (WindowSet.span)
      holds at most _SPAN_LIMIT frames per window: the same block, from
      which each window's currents are gathered (_span_currents);
    - per window copy, for any other chunk: its time-major (T, chunk, in)
      input, gathered from the span or, for a bare stack, a transposed copy
      made per chunk, goes through the feature layer (_feature_currents).
    The gathered currents and input go in arrays made when a chunk first
    needs them.  All three give every current the bits of x[n, t] @ W + b,
    and raise NumericError unless every current a window uses is finite (a
    non-finite window, or a finite one that overflows the feature layer).
    _lif_steps then keeps only the running state and fills a
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
    # One working set for every chunk, sized for the largest; a shorter
    # chunk uses the front of each array.
    size = min(n, SCORE_CHUNK)
    in_dim, hidden = model.feature_layer.weights.shape
    currents = gathered = None
    spans = _WorkingSet() if table else None
    spikes = np.empty((WINDOW_STEPS, size, hidden), bool)
    state = np.zeros((size, hidden))
    keep = np.empty(state.shape, bool) if state.size >= _MULTIPLY_RESET_SIZE else None
    for chunk, run in _score_chunks(windows) if table else _grid(0, n):
        k = chunk.stop - chunk.start
        if run is not None:
            chunk_currents = _run_currents(*run, model.feature_layer, spans)
        else:
            if currents is None:
                currents = np.empty((WINDOW_STEPS, size, hidden))
            out = currents if k == size else _front(currents, k)
            if not table:  # copied afresh: at one window, a copy into a kept array costs more
                xs = np.ascontiguousarray(windows[chunk].transpose(1, 0, 2))
                chunk_currents = _feature_currents(xs, model.feature_layer, out)
            else:
                frames, rows = windows.span(chunk)
                if len(frames) <= _SPAN_LIMIT * k:
                    chunk_currents = _span_currents(frames, rows, model.feature_layer, spans, out)
                else:
                    if gathered is None:
                        gathered = np.empty((WINDOW_STEPS, size, in_dim))
                    xs = np.take(frames, rows, axis=0, mode="clip",
                                 out=gathered if k == size else _front(gathered, k))
                    chunk_currents = _feature_currents(xs, model.feature_layer, out)
        if k == size:
            chunk_spikes, chunk_state, chunk_keep = spikes, state, keep
        else:
            chunk_spikes, chunk_state = _front(spikes, k), _front(state, k)
            chunk_keep = None if keep is None else _front(keep, k)
        if chunk.start:  # a later chunk: a zero state, in the one a chunk before spent
            chunk_state.fill(0.0)
        # training's recurrence, over the same (T, chunk, hidden) layout
        _lif_steps(chunk_currents, model.lif, chunk_spikes, chunk_state, keep=chunk_keep)
        counts = np.add.reduce(chunk_spikes, axis=0, dtype=np.uint8)  # at most 12 per neuron
        # the bits of forward_batch's spikes.mean(axis=0), in the spent LIF state
        pooled = np.divide(counts, _STEPS, out=chunk_state)
        logits = np.einsum("nk,kc->nc", pooled, model.classifier.weights)
        logits += model.classifier.bias
        log_probs[chunk] = _log_softmax(logits)
        spike_counts[chunk] = np.add.reduce(counts, axis=1)
    return log_probs, spike_counts


def _score_chunks(windows: WindowSet) -> list[tuple[slice, tuple | None]]:
    """score's chunks of a WindowSet in index order, as (slice, run): run is
    (frames, m) for a chunk of a run (WindowSet.runs) of at least
    SCORE_CHUNK // 4 windows, the frames the chunk spans and the run's step,
    and None for any other chunk.  A run is cut into the fewest chunks of at
    most SCORE_CHUNK windows, of equal length to within one window, so that
    none is much shorter than the run threshold; the windows before, between
    and after runs SCORE_CHUNK at a time, as a bare stack's (_grid).

    The threshold is where reading in place starts to pay.  On fleets of
    about 24,000 windows in runs of L at step 6 (2-CPU Xeon, one BLAS
    thread, best of 36), in place took 2.14, 1.59, 1.19, 0.99, 0.88 and
    0.83 us a window at L = 64, 128, 192, 256, 384 and 934, and the grid's
    gather 1.31, 1.24, 1.27, 1.14, 1.21 and 1.26: a short run's chunks are
    short, and each pays the LIF loop's per-step calls."""
    chunks: list[tuple[slice, tuple | None]] = []
    done = 0
    for begin, end, step, frames in windows.runs(SCORE_CHUNK // 4):
        chunks += _grid(done, begin)
        parts = -(-(end - begin) // SCORE_CHUNK)
        for part in range(parts):
            i, j = (end - begin) * part // parts, (end - begin) * (part + 1) // parts
            chunks.append((slice(begin + i, begin + j),
                           (frames[i : j + (WINDOW_STEPS - 1) * step], step)))
        done = end
    return chunks + _grid(done, len(windows))


def _grid(start: int, stop: int) -> list[tuple[slice, None]]:
    """score's chunks of windows start to stop - 1 outside runs:
    SCORE_CHUNK at a time, the last shorter.  At most one chunk, such as
    predict's one window, is built without the comprehension, which costs
    it about 0.4 us a call."""
    if stop - start <= SCORE_CHUNK:
        return [(slice(start, stop), None)] if stop > start else []
    return [(slice(i, min(i + SCORE_CHUNK, stop)), None) for i in range(start, stop, SCORE_CHUNK)]


def _frame_currents(frames: np.ndarray, layer: LinearLayer, work: _WorkingSet) -> np.ndarray:
    """The (S, hidden) currents of the (S, in) frames of a span, unchecked,
    in work's "span" block.

    One GEMM over the frames.  Each frame's currents have the bits that
    _feature_currents gives that frame inside any window.  A frame no window
    uses may hold anything (nan, inf, a finite value that overflows the
    GEMM): the GEMM runs under np.errstate, and the callers check only the
    currents that windows use.
    """
    block = work.block("span", (len(frames), layer.out_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(frames, layer.weights, out=block)
        block += layer.bias
    return block


def _span_currents(
    frames: np.ndarray, rows: np.ndarray, layer: LinearLayer, work: _WorkingSet,
    out: np.ndarray,
) -> np.ndarray:
    """The (T, k, hidden) currents of the windows whose (T, k) rows index the
    (S, in) frames of a span, gathered from _frame_currents into out and
    checked.  mode="clip" never clips, since every row lies in the span, and
    writes into out without a temporary.
    """
    block = _frame_currents(frames, layer, work)
    return _check_currents(np.take(block, rows, axis=0, out=out, mode="clip"))


def _run_currents(
    frames: np.ndarray, step: int, layer: LinearLayer, work: _WorkingSet
) -> np.ndarray:
    """The (T, k, hidden) currents of a run's k windows, whose step t reads
    rows i + step * t of the (k + 11 * step, in) frames they span, as a
    read-only view of the _frame_currents block with strides
    (step * row, row, item): no current is copied.  Each step's (k, hidden)
    currents are a contiguous slice of the block.

    The finiteness check reads the block, about k + 11 * step rows rather
    than 12 * k; only when it fails does _check_currents read the view, so
    that a frame no window uses still never raises, and a used one raises
    what the gathered currents would.
    """
    block = _frame_currents(frames, layer, work)
    row, item = block.strides
    view = np.lib.stride_tricks.as_strided(
        block, (WINDOW_STEPS, len(block) - (WINDOW_STEPS - 1) * step, layer.out_dim),
        (step * row, row, item), writeable=False)
    try:
        _check_currents(block)
    except NumericError:
        _check_currents(view)
    return view


def _front(array: np.ndarray, k: int) -> np.ndarray:
    """A C-contiguous (..., n, X) array's leading elements as (..., k, X)."""
    shape = (*array.shape[:-2], k, array.shape[-1])
    return array.reshape(-1)[: math.prod(shape)].reshape(shape)


def _index_cache(cache: ForwardCache, key) -> ForwardCache:
    """Apply one index to every field: 0 drops the batch axis, None adds one."""
    return ForwardCache(*(getattr(cache, f.name)[key] for f in fields(ForwardCache)))


def nll_loss(log_probs_batch: Sequence[np.ndarray], labels: Sequence[int]) -> float:
    """Mean negative log-likelihood of the true classes over a batch."""
    if len(log_probs_batch) == 0:
        raise UsageError("nll_loss needs a non-empty batch")
    log_probs = _float_cast("log-probs", log_probs_batch, (None, None))  # may hold -inf
    n, classes = log_probs.shape
    labels = _class_column("labels", labels, classes=classes, shape=(n,))
    return float(-log_probs[np.arange(n), labels].sum() / n)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def surrogate_grad(v: np.ndarray, slope: float) -> np.ndarray:
    """Fast-sigmoid stand-in for the spike step's derivative.

    Evaluated at v = membrane - threshold:  slope / (1 + slope * |v|)^2.
    A |v| whose square overflows gives 0.0, the limit, without a warning.
    """
    return _surrogate_grad(v, slope)


def _surrogate_grad(v, slope: float, out: np.ndarray | None = None):
    # surrogate_grad's ufuncs in its order, each written into out when given
    with np.errstate(over="ignore"):
        grad = np.abs(v, out=out)
        grad = np.multiply(slope, grad, out=out)
        grad = np.add(1.0, grad, out=out)
        grad = np.square(grad, out=out)  # what ** 2 calls
        return np.divide(slope, grad, out=out)


def backward(model: Model, cache: ForwardCache, label: int) -> Gradients:
    """Gradients of the single-sample NLL loss for both linear layers.

    Takes a cache without the batch axis, as forward returns it, and runs
    backward_batch on it as a batch of one.
    """
    return backward_batch(model, _index_cache(cache, None), np.array([label]))


def backward_batch(
    model: Model, cache: ForwardCache, labels: np.ndarray, *, _work: _WorkingSet | None = None
) -> Gradients:
    """Mean gradients of the batch NLL loss (the 1/N average over samples).

    The spike step's derivative is replaced by the fast-sigmoid surrogate;
    the membrane recurrence is unrolled backwards through time with decay
    beta, including the post-spike reset path for the configured reset mode.
    The formulas only read the cached spike and membrane values, so a cache
    filled by a smoothed forward variant yields that variant's exact gradient,
    which is how the backward pass is verified.  The (T, N, hidden) blocks
    of the sweep are blocks of _work, train's working set; without it they
    are new arrays.
    """
    work = _WorkingSet() if _work is None else _work
    steps, hidden = model.input_steps, model.hidden_dim
    xs = _float_cast("cache input", cache.input, (None, steps, model.input_dim))
    n = len(xs)
    membrane = _float_cast("cache membrane", cache.membrane, (n, steps, hidden))
    spikes = _float_cast("cache spikes", cache.spikes, (n, steps, hidden))
    pooled = _float_cast("cache pooled", cache.pooled, (n, hidden))
    log_probs = _float_cast("cache log_probs", cache.log_probs, (n, model.classes))
    labels = _class_column("labels", labels, shape=(n,))

    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    grad_w2 = pooled.T @ dlogits
    grad_b2 = dlogits.sum(axis=0)

    dpooled = dlogits @ model.classifier.weights.T
    dspike = dpooled / steps  # pooling spreads the gradient evenly over time

    # A threshold or slope near the float64 limits can overflow the adjoint
    # sweep: the gradients are then not finite, without a warning, and
    # optimizer_step rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _membrane_adjoint(model.lif, membrane.transpose(1, 0, 2),
                                spikes.transpose(1, 0, 2), dspike, work)
        # Both reductions read a C-contiguous (N, T, H) lam: their summation
        # order follows the memory layout, and this one keeps the trained bits.
        # It goes in the reset-derivative block, which the sweep has done with.
        batch_major = work.block("reset", (n, steps, hidden))
        np.copyto(batch_major, lam.transpose(1, 0, 2))
        grad_w1 = np.einsum("nti,ntj->ij", xs, batch_major)
        grad_b1 = batch_major.sum(axis=(0, 1))
    return Gradients(grad_w1, grad_b1, grad_w2, grad_b2)


def _membrane_adjoint(
    cfg: LifConfig,
    membrane: np.ndarray,
    spikes: np.ndarray,
    dspike: np.ndarray,
    work: _WorkingSet,
) -> np.ndarray:
    """Backward sweep over the LIF recurrence; returns dLoss/dCurrents in
    work's adjoint block.

    Works on time-major (T, N, H) stacks, like _lif_steps.  dspike is the loss
    gradient on each spike (identical for every time step here, but broadcast
    either way).  Everything that does not depend on the next step's adjoint
    is computed for the whole stack first, into work's surrogate and reset
    blocks, with the ufuncs and operands of
    sg = surrogate_grad(membrane - v_threshold, slope),
    dreset = (1.0 - spikes) - membrane * sg or 1.0 - v_threshold * sg, and
    lam = dspike * sg.  The sweep then does three in-place ops per step, with
    the bits of lam[t] = dspike * sg[t] + mu * dreset[t].
    """
    sg = work.block("surrogate", membrane.shape)
    dreset = work.block("reset", membrane.shape)
    lam = work.block("adjoint", membrane.shape)
    np.subtract(membrane, cfg.v_threshold, out=sg)
    _surrogate_grad(sg, cfg.surrogate_slope, out=sg)
    if cfg.reset_mode == RESET_TO_ZERO:
        # d(u * (1 - s)) / du with s depending on u via the surrogate
        np.subtract(1.0, spikes, out=dreset)
        dreset -= np.multiply(membrane, sg, out=lam)  # lam is set below
    else:
        np.multiply(cfg.v_threshold, sg, out=dreset)
        np.subtract(1.0, dreset, out=dreset)
    np.multiply(dspike, sg, out=lam)
    beta = np.array(cfg.beta, dtype=np.float64)  # 0-d, as in _lif_steps
    mu = np.zeros(membrane.shape[1:])
    for t in reversed(range(len(membrane))):
        mu *= dreset[t]
        lam[t] += mu
        np.multiply(lam[t], beta, out=mu)
    return lam
