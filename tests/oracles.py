"""Independent naive oracles the tests compare library output against.

Everything here is written the slow, obvious way on purpose: scalar loops,
brute-force pair counting, explicit recurrences.  None of it calls back into
the library's fast paths beyond plain dataclass construction.
"""

import numpy as np

from spikelane.model import ForwardCache, _log_softmax


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
