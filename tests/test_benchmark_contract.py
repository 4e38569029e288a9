"""The program surface that perfbench/ calls, and how it uses each name.

perfbench drives the program through these names from outside the package.
A name deleted or reshaped here fails in this file, not only in a benchmark
run.
"""

import numpy as np
import pytest

import spikelane as sl
import spikelane.cli  # noqa: F401  (perfbench imports the CLI module the same way)

CALLED = [
    ("synth", "synthesize_dataset"),
    ("cli", "main"),
    ("checkpoint", "save_model"),
    ("checkpoint", "load_model"),
    ("checkpoint", "model_to_bytes"),
    ("dataset", "parse_trajectories"),
    ("dataset", "build_windows"),
    ("dataset", "WindowConfig"),
    ("dataset", "split_by_vehicle"),
    ("dataset", "fit_normalizer"),
    ("dataset", "apply_normalizer"),
    ("dataset", "load_norm_stats"),
    ("dataset", "stack_windows"),
    ("model", "new_model"),
    ("model", "forward_batch"),
    ("training", "TrainConfig"),
    ("training", "train"),
    ("evaluation", "evaluate"),
    ("evaluation", "predict"),
    ("evaluation", "timeline_predict"),
    ("evaluation", "roc_curve"),
]


@pytest.mark.parametrize("module, name", CALLED)
def test_called_name_exists(module, name):
    assert callable(getattr(getattr(sl, module), name))


@pytest.fixture(scope="module")
def fleet():
    trajectories = sl.synthesize_dataset(3, 3)
    windows = sl.build_windows(trajectories, sl.WindowConfig(stride_frames=4))
    stats = sl.fit_normalizer(windows)
    return trajectories, sl.apply_normalizer(stats, windows), stats


def test_stack_windows_returns_the_window_set_arrays(fleet):
    _, windows, _ = fleet
    features, labels = sl.dataset.stack_windows(windows)
    # the windows gathered from the frame table, beside the labels themselves
    assert features.shape == (len(windows), 12, 5) and features.flags.c_contiguous
    rows = windows.starts[:, None] + windows.steps[:, None] * np.arange(12)
    assert np.array_equal(features, windows.frames[rows])
    assert labels is windows.labels


def test_window_set_iterates_window_samples(fleet):
    _, fleet_windows, _ = fleet
    for windows in (fleet_windows, fleet_windows[:0]):
        samples = list(windows)
        assert len(samples) == len(windows)
        assert all(isinstance(w, sl.WindowSample) for w in samples)
        assert [w.vehicle_id for w in samples] == windows.vehicle_ids.tolist()
        assert [w.end_frame for w in samples] == windows.end_frames.tolist()
        assert [w.label for w in samples] == windows.labels.tolist()


def test_forward_batch_log_probs_match_predict_on_bare_arrays(fleet):
    _, windows, _ = fleet
    model = sl.model.new_model(seed=1)
    log_probs = sl.model.forward_batch(model, windows.features[:50]).log_probs
    assert log_probs.shape == (50, 3)
    for i in range(50):
        predicted, probs = sl.evaluation.predict(model, windows.features[i])
        assert predicted == int(np.argmax(probs))
        np.testing.assert_allclose(probs, np.exp(log_probs[i]), rtol=0, atol=1e-14)


def test_timeline_entries_carry_predict_probs(fleet):
    trajectories, _, stats = fleet
    model = sl.model.new_model(seed=1)
    traj = trajectories[0]
    entries = sl.evaluation.timeline_predict(model, traj, stats).entries
    # perfbench's stream replay: every 6th frame, 12 steps 6 frames apart
    for i, entry in enumerate(entries):
        raw = traj.features[6 * i : 6 * i + 67 : 6]
        _, probs = sl.evaluation.predict(model, stats.transform(raw))
        assert np.array_equal(entry.probs, probs)
