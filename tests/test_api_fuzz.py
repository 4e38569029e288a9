"""A table of bad values driven through the library's settings and array inputs.

Each target takes one value of BAD_VALUES in one argument, every other
argument valid.  A value the target lists as accepted is valid there and must
return normally; every other value must raise a SpikeLaneError.  An array
target puts the value in the first element of an otherwise valid array, and
must also raise a SpikeLaneError for that array with an extra leading axis
and for an empty array.  The fixtures come from fixed seeds, so a failing
case reproduces as it is.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikelane as sl

BAD_VALUES = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-1": -1,
    "0": 0,
    "2.0": 2.0,  # a float where an integer belongs
    "2**64": 2**64,
    "'x'": "x",
    "None": None,
}


@pytest.fixture(scope="module")
def fleet():
    trajectories = sl.synthesize_dataset(23, 3)
    return {
        "trajectory": trajectories[0],
        "windows": sl.build_windows(trajectories, sl.WindowConfig(stride_frames=8)),
        "model": sl.new_model(seed=23),
        "normalizer": sl.NormStats(mean=np.zeros(5), std=np.ones(5)),
    }


def _trajectory(rate):
    return sl.Trajectory("v", rate, np.arange(20), np.zeros((20, 5)))


def _with_first(value, valid):
    """valid as nested lists, with its first element replaced by value."""
    array = np.asarray(valid).tolist()
    row = array
    while isinstance(row[0], list):
        row = row[0]
    row[0] = value
    return array


def _adam_step(gradient):
    config = sl.TrainConfig()
    return sl.optimizer_step(np.zeros(3), gradient, sl.init_optimizer_state(np.zeros(3), config),
                             config)


NUMBERS = ("-1", "0", "2.0", "2**64")  # finite values any float array accepts

# name: (call taking the fleet and an array, a valid array, accepted value names)
ARRAY_TARGETS = {
    "LinearLayer.weights": (
        lambda f, a: sl.LinearLayer(a, f["model"].feature_layer.bias),
        sl.new_model(seed=23).feature_layer.weights, NUMBERS),
    "LinearLayer.bias": (
        lambda f, a: sl.LinearLayer(f["model"].feature_layer.weights, a),
        sl.new_model(seed=23).feature_layer.bias, NUMBERS),
    "NormStats.mean": (lambda f, a: sl.NormStats(mean=a, std=np.ones(5)), np.zeros(5), NUMBERS),
    "NormStats.std": (lambda f, a: sl.NormStats(mean=np.zeros(5), std=a), np.ones(5),
                      ("2.0", "2**64")),
    "Trajectory.features": (
        lambda f, a: sl.Trajectory("v", 25.0, np.arange(20), a), np.zeros((20, 5)), NUMBERS),
    "lif_forward": (lambda f, a: sl.lif_forward(a, sl.LifConfig()), np.zeros((12, 24)), NUMBERS),
    "TimelineReport.probs": (
        lambda f, a: sl.TimelineReport("v", [11], a, (), (), ()), [[1.0, 0.0, 0.0]], NUMBERS),
    "roc_curve.scores": (lambda f, a: sl.roc_curve(a, [1, 0]), [0.0, 0.5], NUMBERS),
    "roc_curve.labels": (lambda f, a: sl.roc_curve([0.2, 0.5], a), [0, 1], ("0",)),
    "softmax_logprobs": (lambda f, a: sl.softmax_logprobs(a), [0.0, 0.0], NUMBERS),
    "optimizer_step.gradient": (lambda f, a: _adam_step(a), np.zeros(3), NUMBERS),
    "predict.window": (lambda f, a: sl.predict(f["model"], a), np.zeros((12, 5)), NUMBERS),
    "forward_batch.windows": (
        lambda f, a: sl.forward_batch(f["model"], a), np.zeros((1, 12, 5)), NUMBERS),
    "score.windows": (lambda f, a: sl.score(f["model"], a), np.zeros((1, 12, 5)), NUMBERS),
    # the frame table is only cast (NumPy casts a None in a list to nan):
    # score rejects a window that is not finite
    "WindowSet.features": (
        lambda f, a: sl.WindowSet(a, [0], ["v"], [0]), np.zeros((1, 12, 5)),
        ("nan", "inf", "None", *NUMBERS)),
}

# name: (call taking the fleet and the value, accepted value names)
TARGETS = {
    "LifConfig.beta": (lambda f, v: sl.LifConfig(beta=v), ()),
    "LifConfig.v_threshold": (lambda f, v: sl.LifConfig(v_threshold=v), ("2.0", "2**64")),
    "LifConfig.surrogate_slope": (
        lambda f, v: sl.LifConfig(surrogate_slope=v), ("2.0", "2**64")),
    "LifConfig.reset_mode": (lambda f, v: sl.LifConfig(reset_mode=v), ()),
    "TrainConfig.batch_size": (lambda f, v: sl.TrainConfig(batch_size=v), ("2**64",)),
    "TrainConfig.learning_rate": (
        lambda f, v: sl.TrainConfig(learning_rate=v), ("2.0", "2**64")),
    "TrainConfig.max_epochs": (lambda f, v: sl.TrainConfig(max_epochs=v), ("2**64",)),
    "TrainConfig.patience_epochs": (
        lambda f, v: sl.TrainConfig(patience_epochs=v), ("2**64",)),
    "TrainConfig.min_loss_delta": (
        lambda f, v: sl.TrainConfig(min_loss_delta=v), ("0", "2.0", "2**64")),
    "TrainConfig.seed": (lambda f, v: sl.TrainConfig(seed=v), ("0", "2**64")),
    "TrainConfig.optimizer": (lambda f, v: sl.TrainConfig(optimizer=v), ()),
    "WindowConfig.window_rate_hz": (
        lambda f, v: sl.WindowConfig(window_rate_hz=v), ("2.0", "2**64")),
    "WindowConfig.stride_frames": (lambda f, v: sl.WindowConfig(stride_frames=v), ()),
    "split_by_vehicle.ratio": (lambda f, v: sl.split_by_vehicle(f["windows"], v, 0), ()),
    "split_by_vehicle.seed": (
        lambda f, v: sl.split_by_vehicle(f["windows"], 0.5, v), ("0", "2**64")),
    "downsample_factor.sample_rate_hz": (
        lambda f, v: sl.downsample_factor(v, 4.0), ("2**64",)),
    "downsample_factor.window_rate_hz": (
        lambda f, v: sl.downsample_factor(25.0, v), ("2.0",)),
    "timeline_predict.window_rate_hz": (
        lambda f, v: sl.timeline_predict(f["model"], f["trajectory"], f["normalizer"], v),
        ("2.0",)),
    "Trajectory.sample_rate_hz": (lambda f, v: _trajectory(v), ("2.0", "2**64")),
    "synthesize_dataset.seed": (lambda f, v: sl.synthesize_dataset(v, 1), ("0", "2**64")),
    "synthesize_dataset.n_trajectories": (lambda f, v: sl.synthesize_dataset(0, v), ()),
    "synthesize_dataset.sample_rate_hz": (
        lambda f, v: sl.synthesize_dataset(0, 1, sample_rate_hz=v), ("2.0",)),
    "new_model.hidden_dim": (lambda f, v: sl.new_model(hidden_dim=v), ()),
    "new_model.seed": (lambda f, v: sl.new_model(seed=v), ("0", "2**64")),
    # nan is test_detect_runs_on_nan_returns's case, run under a timeout
    "detect_runs": (lambda f, v: sl.detect_runs([v] * 3), ("0",)),
    "confusion_and_accuracy.predictions": (
        lambda f, v: sl.confusion_and_accuracy([v, 0], [0, 0]), ("0",)),
    "confusion_and_accuracy.labels": (
        lambda f, v: sl.confusion_and_accuracy([0, 0], [v, 0]), ("0",)),
    "TimelineReport.end_frames": (
        lambda f, v: sl.TimelineReport("v", [v], [[1.0, 0.0, 0.0]], (), (), ()), ("-1", "0")),
    **{name: (lambda f, v, call=call, valid=valid: call(f, _with_first(v, valid)), accepted)
       for name, (call, valid, accepted) in ARRAY_TARGETS.items()},
}


@pytest.mark.parametrize("target", TARGETS)
def test_bad_value_raises_a_spikelane_error(target, fleet):
    call, accepted = TARGETS[target]
    wrong = []
    for name, value in BAD_VALUES.items():
        if target == "detect_runs" and name == "nan":
            continue
        try:
            call(fleet, value)
        except sl.SpikeLaneError as exc:
            if name in accepted:
                wrong.append(f"{name}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # a bare Python or NumPy error is the failure looked for
            wrong.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            if name not in accepted:
                wrong.append(f"{name}: accepted")
    assert wrong == []


@pytest.mark.parametrize("target", ARRAY_TARGETS)
def test_misshapen_array_raises_a_spikelane_error(target, fleet):
    call, valid, _ = ARRAY_TARGETS[target]
    call(fleet, valid)
    for array in (np.asarray(valid)[None], np.zeros(0)):
        with pytest.raises(sl.SpikeLaneError):
            call(fleet, array)


def test_detect_runs_on_nan_returns():
    # nan == nan is false, so a run scan that compares values never leaves a
    # nan; a timeout fails that instead of hanging the suite
    probe = (
        "import spikelane as sl\n"
        "try:\n"
        "    sl.detect_runs([float('nan')] * 3)\n"
        "except sl.UsageError:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=10, check=True)
    assert result.stdout == "rejected\n"
