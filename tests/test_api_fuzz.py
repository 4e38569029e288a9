"""A table of bad values driven through the library's settings and array inputs.

Each target takes one value of BAD_VALUES in one argument, every other
argument valid.  A value the target lists as accepted is valid there and must
return normally; every other value must raise a SpikeLaneError.  An array
argument that NumPy converts to float64 may instead raise the ValueError NumPy
gives for an element it cannot convert, as the README documents.  The
fixtures come from fixed seeds, so a failing case reproduces as it is.
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


# name: (call taking the fleet and the value, accepted value names, array input)
TARGETS = {
    "LifConfig.beta": (lambda f, v: sl.LifConfig(beta=v), (), False),
    "LifConfig.v_threshold": (lambda f, v: sl.LifConfig(v_threshold=v), ("2.0", "2**64"), False),
    "LifConfig.surrogate_slope": (
        lambda f, v: sl.LifConfig(surrogate_slope=v), ("2.0", "2**64"), False),
    "LifConfig.reset_mode": (lambda f, v: sl.LifConfig(reset_mode=v), (), False),
    "TrainConfig.batch_size": (lambda f, v: sl.TrainConfig(batch_size=v), ("2**64",), False),
    "TrainConfig.learning_rate": (
        lambda f, v: sl.TrainConfig(learning_rate=v), ("2.0", "2**64"), False),
    "TrainConfig.max_epochs": (lambda f, v: sl.TrainConfig(max_epochs=v), ("2**64",), False),
    "TrainConfig.patience_epochs": (
        lambda f, v: sl.TrainConfig(patience_epochs=v), ("2**64",), False),
    "TrainConfig.min_loss_delta": (
        lambda f, v: sl.TrainConfig(min_loss_delta=v), ("0", "2.0", "2**64"), False),
    "TrainConfig.seed": (lambda f, v: sl.TrainConfig(seed=v), ("0", "2**64"), False),
    "TrainConfig.optimizer": (lambda f, v: sl.TrainConfig(optimizer=v), (), False),
    "WindowConfig.window_rate_hz": (
        lambda f, v: sl.WindowConfig(window_rate_hz=v), ("2.0", "2**64"), False),
    "WindowConfig.stride_frames": (lambda f, v: sl.WindowConfig(stride_frames=v), (), False),
    "split_by_vehicle.ratio": (lambda f, v: sl.split_by_vehicle(f["windows"], v, 0), (), False),
    "split_by_vehicle.seed": (
        lambda f, v: sl.split_by_vehicle(f["windows"], 0.5, v), ("0", "2**64"), False),
    "downsample_factor.sample_rate_hz": (
        lambda f, v: sl.downsample_factor(v, 4.0), ("2**64",), False),
    "downsample_factor.window_rate_hz": (
        lambda f, v: sl.downsample_factor(25.0, v), ("2.0",), False),
    "timeline_predict.window_rate_hz": (
        lambda f, v: sl.timeline_predict(f["model"], f["trajectory"], f["normalizer"], v),
        ("2.0",), False),
    "Trajectory.sample_rate_hz": (lambda f, v: _trajectory(v), ("2.0", "2**64"), False),
    "synthesize_dataset.seed": (lambda f, v: sl.synthesize_dataset(v, 1), ("0", "2**64"), False),
    "synthesize_dataset.n_trajectories": (lambda f, v: sl.synthesize_dataset(0, v), (), False),
    "synthesize_dataset.sample_rate_hz": (
        lambda f, v: sl.synthesize_dataset(0, 1, sample_rate_hz=v), ("2.0",), False),
    "new_model.hidden_dim": (lambda f, v: sl.new_model(hidden_dim=v), (), False),
    "new_model.seed": (lambda f, v: sl.new_model(seed=v), ("0", "2**64"), False),
    # nan is test_detect_runs_on_nan_returns's case, run under a timeout
    "detect_runs": (lambda f, v: sl.detect_runs([v] * 3), ("0",), False),
    "confusion_and_accuracy.predictions": (
        lambda f, v: sl.confusion_and_accuracy([v, 0], [0, 0]), ("0",), False),
    "confusion_and_accuracy.labels": (
        lambda f, v: sl.confusion_and_accuracy([0, 0], [v, 0]), ("0",), False),
    "roc_curve.scores": (
        lambda f, v: sl.roc_curve([v, 0.5], [1, 0]), ("-1", "0", "2.0", "2**64"), True),
    "softmax_logprobs": (
        lambda f, v: sl.softmax_logprobs([v, 0.0]), ("-1", "0", "2.0", "2**64"), True),
    "TimelineReport.end_frames": (
        lambda f, v: sl.TimelineReport("v", [v], [[1.0, 0.0, 0.0]], (), (), ()), ("-1", "0"),
        False),
}


@pytest.mark.parametrize("target", TARGETS)
def test_bad_value_raises_a_spikelane_error(target, fleet):
    call, accepted, array_input = TARGETS[target]
    allowed = (sl.SpikeLaneError, ValueError) if array_input else sl.SpikeLaneError
    wrong = []
    for name, value in BAD_VALUES.items():
        if target == "detect_runs" and name == "nan":
            continue
        try:
            call(fleet, value)
        except allowed as exc:
            if name in accepted:
                wrong.append(f"{name}: {type(exc).__name__}: {exc}")
        except Exception as exc:  # a bare Python or NumPy error is the failure looked for
            wrong.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            if name not in accepted:
                wrong.append(f"{name}: accepted")
    assert wrong == []


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
