"""Independent naive oracles the tests compare library output against.

Everything here is written the slow, obvious way on purpose: scalar loops,
brute-force pair counting, explicit recurrences.  None of it calls back into
the library's fast paths beyond plain dataclass construction.
"""

import numpy as np

from spikelane.model import RESET_TO_ZERO, ForwardCache, Gradients, _log_softmax


def naive_matmul(x, w, b):
    out = np.zeros((x.shape[0], w.shape[1]))
    for i in range(x.shape[0]):
        for j in range(w.shape[1]):
            acc = 0.0
            for k in range(x.shape[1]):
                acc += x[i, k] * w[k, j]
            out[i, j] = acc + b[j]
    return out


def naive_lif(currents, beta, v_th, reset_mode):
    """Scalar step-by-step recurrence, one neuron at a time.

    Uses the same two floating-point operations per step as the library
    (multiply, then add), so results must agree bit for bit.
    """
    steps, width = currents.shape
    spikes = np.zeros((steps, width))
    membrane = np.zeros((steps, width))
    for j in range(width):
        u_post = 0.0
        for t in range(steps):
            u = beta * u_post + currents[t, j]
            fired = u >= v_th
            membrane[t, j] = u
            spikes[t, j] = 1.0 if fired else 0.0
            if fired:
                u_post = 0.0 if reset_mode == "to_zero" else u - v_th
            else:
                u_post = u
    return spikes, membrane


def closed_form_membrane(currents, beta, t):
    """Geometric-sum membrane at step t assuming no spike ever fired."""
    powers = beta ** (t - np.arange(t + 1))
    return powers @ currents[: t + 1]


# ---------------------------------------------------------------------------
# batch-major reference training step
# ---------------------------------------------------------------------------
# The library's forward_batch/backward_batch as they were before the LIF
# stacks went time-major, with the LIF loop and the adjoint sweep kept
# verbatim (sg spells out surrogate_grad's formula): time runs along axis -2
# of (N, T, H) arrays, and every step of both loops works on a strided (N, H)
# slice.  The library must match them bit for bit.


def _lif_steps_batch_major(currents, cfg):
    u_post = np.zeros(currents.shape[:-2] + currents.shape[-1:])
    for t in range(currents.shape[-2]):
        u = cfg.beta * u_post + currents[..., t, :]
        fired = u >= cfg.v_threshold
        yield t, u, fired
        if cfg.reset_mode == RESET_TO_ZERO:
            u_post = np.where(fired, 0.0, u)
        else:
            u_post = np.where(fired, u - cfg.v_threshold, u)


def lif_core_batch_major(currents, cfg):
    spikes = np.empty_like(currents)
    membrane = np.empty_like(currents)
    for t, u, fired in _lif_steps_batch_major(currents, cfg):
        membrane[..., t, :] = u
        spikes[..., t, :] = fired
    return spikes, membrane


def membrane_adjoint_batch_major(cfg, membrane, spikes, dspike):
    steps = membrane.shape[-2]
    slope = cfg.surrogate_slope
    sg = slope / (1.0 + slope * np.abs(membrane - cfg.v_threshold)) ** 2
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


def forward_batch_batch_major(model, windows):
    """Reference forward_batch over a (N, T, in) stack, all arrays batch-major."""
    xs = np.asarray(windows, dtype=np.float64)
    currents = xs @ model.feature_layer.weights + model.feature_layer.bias
    spikes, membrane = lif_core_batch_major(currents, model.lif)
    pooled = spikes.mean(axis=-2)
    logits = pooled @ model.classifier.weights + model.classifier.bias
    return ForwardCache(xs, currents, membrane, spikes, pooled, logits, _log_softmax(logits))


def backward_batch_batch_major(model, cache, labels):
    """Reference backward_batch: mean gradients of the batch NLL loss."""
    n, steps = len(cache.input), model.input_steps
    labels = np.asarray(labels, dtype=np.intp)
    dlogits = np.exp(cache.log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grad_w2 = cache.pooled.T @ dlogits
    grad_b2 = dlogits.sum(axis=0)
    dspike = (dlogits @ model.classifier.weights.T) / steps
    lam = membrane_adjoint_batch_major(model.lif, cache.membrane, cache.spikes, dspike)
    grad_w1 = np.einsum("nti,ntj->ij", cache.input, lam)
    grad_b1 = lam.sum(axis=(0, 1))
    return Gradients(grad_w1, grad_b1, grad_w2, grad_b2)


def smooth_spike(v, slope):
    """Primitive of the fast-sigmoid derivative, shifted to 0.5 at threshold."""
    return 0.5 + slope * v / (1.0 + slope * np.abs(v))


def smooth_cache(model, x):
    """Forward pass with the spike step replaced by its smooth surrogate.

    The returned cache is differentiable everywhere, and the library's
    backward pass reads only cached values, so running it on this cache must
    reproduce the exact gradient of smooth_loss.
    """
    cfg = model.lif
    x = np.asarray(x, dtype=np.float64)
    currents = x @ model.feature_layer.weights + model.feature_layer.bias
    steps, hidden = currents.shape
    membrane = np.empty((steps, hidden))
    spikes = np.empty((steps, hidden))
    u_post = np.zeros(hidden)
    for t in range(steps):
        u = cfg.beta * u_post + currents[t]
        s = smooth_spike(u - cfg.v_threshold, cfg.surrogate_slope)
        membrane[t] = u
        spikes[t] = s
        if cfg.reset_mode == "to_zero":
            u_post = (1.0 - s) * u
        else:
            u_post = u - cfg.v_threshold * s
    pooled = spikes.mean(axis=0)
    logits = pooled @ model.classifier.weights + model.classifier.bias
    return ForwardCache(
        input=x,
        currents=currents,
        membrane=membrane,
        spikes=spikes,
        pooled=pooled,
        logits=logits,
        log_probs=_log_softmax(logits),
    )


def smooth_loss(model, x, label):
    return -float(smooth_cache(model, x).log_probs[label])


def central_difference(loss_fn, array, flat_index, step=1e-6):
    """Two-sided finite difference in one parameter, restoring it after."""
    original = array.flat[flat_index]
    array.flat[flat_index] = original + step
    plus = loss_fn()
    array.flat[flat_index] = original - step
    minus = loss_fn()
    array.flat[flat_index] = original
    return (plus - minus) / (2.0 * step)


def relative_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def auc_concordance(scores, labels):
    """Pairwise-concordance AUC: ties between a positive and a negative count half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def naive_windows(traj, stride, window_rate_hz=4.0, steps=12):
    """One trajectory's windows by a per-window slice loop.

    Returns (features, label, vehicle_id, end_frame) tuples in end-frame
    order.  Labels follow the 3-second rule frame by frame, a later event
    overwriting an earlier one.
    """
    factor = int(round(traj.sample_rate_hz / window_rate_hz))
    horizon = int(round(3.0 * traj.sample_rate_hz))
    frames = [int(f) for f in traj.t_index]
    labels = [0] * len(frames)
    for event in traj.events:
        onset = frames.index(event.onset_frame)
        for i in range(max(0, onset - horizon), onset):
            labels[i] = 1 if event.direction == "left" else 2
    span = (steps - 1) * factor
    windows = []
    for start in range(0, len(frames) - span, stride):
        end = start + span
        windows.append(
            (traj.features[start : end + 1 : factor].copy(), labels[end],
             traj.vehicle_id, frames[end])
        )
    return windows
