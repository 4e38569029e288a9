"""Metrics, ROC/AUC against the concordance oracle, and timeline replay."""

import csv
import io
import tracemalloc

import numpy as np
import pytest

import spikelane as sl
from spikelane import model as model_module

from oracles import auc_concordance


def model_with_fixed_logits(logits):
    """Zero weights, so the classifier bias alone sets the prediction."""
    model = sl.new_model()
    params = [np.zeros((5, 24)), np.zeros(24), np.zeros((24, 3)),
              np.asarray(logits, dtype=float)]
    return sl.replace_params(model, params)


class TestPredict:
    def test_tie_breaks_toward_keep(self):
        model = model_with_fixed_logits([0.5, 0.5, 0.1])
        cls, probs = sl.predict(model, np.zeros((12, 5)))
        assert cls == 0
        assert probs[0] == pytest.approx(probs[1], abs=1e-15)

    def test_clear_winner(self):
        model = model_with_fixed_logits([0.1, 2.0, 0.1])
        cls, probs = sl.predict(model, np.zeros((12, 5)))
        assert cls == 1
        assert probs.argmax() == 1

    def test_accepts_window_sample_and_repeats(self):
        model = sl.new_model(seed=3)
        window = np.random.default_rng(0).normal(size=(12, 5))
        a = sl.predict(model, window)
        b = sl.predict(model, window)
        assert a[0] == b[0]
        assert (a[1] == b[1]).all()

    def test_rejects_wrong_shape_and_nan(self):
        model = sl.new_model()
        for shape in [(11, 5), (12,), (1, 12, 5)]:
            with pytest.raises(sl.ShapeError):
                sl.predict(model, np.zeros(shape))
        bad = np.zeros((12, 5))
        bad[3, 2] = np.nan
        with pytest.raises(sl.NumericError):
            sl.predict(model, bad)


class TestConfusion:
    def test_all_correct_diagonal(self):
        confusion, acc = sl.confusion_and_accuracy([0, 1, 2, 1], [0, 1, 2, 1])
        assert acc == 1.0
        assert confusion.diagonal().sum() == 4
        assert confusion.sum() == 4

    def test_all_wrong(self):
        confusion, acc = sl.confusion_and_accuracy([0, 1], [1, 0])
        assert acc == 0.0
        assert confusion[1, 0] == 1 and confusion[0, 1] == 1

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(40)
        preds = rng.integers(0, 3, size=200)
        labels = rng.integers(0, 3, size=200)
        confusion, acc = sl.confusion_and_accuracy(preds, labels)
        for t in range(3):
            for p in range(3):
                want = int(((labels == t) & (preds == p)).sum())
                assert confusion[t, p] == want
        assert acc == pytest.approx((preds == labels).mean(), abs=0)
        assert confusion.trace() / confusion.sum() == pytest.approx(acc, abs=1e-15)

    def test_rejects_bad_input(self):
        with pytest.raises(sl.UsageError):
            sl.confusion_and_accuracy([], [])
        with pytest.raises(sl.UsageError):
            sl.confusion_and_accuracy([0, 3], [0, 1])

    @pytest.mark.parametrize("predictions,labels,name", [
        ([0.7, 2.9], [0, 2], "predictions"),
        ([0, 2], [0.0, 2.0], "labels"),
        ([0, 2], [0, 2**64], "labels"),
        ([0, 2], np.array([0, 2**63], dtype=np.uint64), "labels"),
    ])
    def test_rejects_non_integers(self, predictions, labels, name):
        with pytest.raises(sl.UsageError, match=f"{name} must be integers within int64"):
            sl.confusion_and_accuracy(predictions, labels)


class TestRocCurve:
    def test_perfect_ranking(self):
        curve = sl.roc_curve(np.array([0.9, 0.1]), np.array([1, 0]))
        assert curve.auc == 1.0

    def test_inverted_ranking(self):
        curve = sl.roc_curve(np.array([0.1, 0.9]), np.array([1, 0]))
        assert curve.auc == 0.0

    def test_hand_computed_with_tie(self):
        scores = np.array([0.9, 0.8, 0.8, 0.1])
        labels = np.array([1, 1, 0, 0])
        curve = sl.roc_curve(scores, labels)
        assert curve.thresholds[0] == np.inf
        np.testing.assert_allclose(
            curve.points,
            [[0.0, 0.0], [0.0, 0.5], [0.5, 1.0], [1.0, 1.0]],
        )
        assert curve.auc == pytest.approx(0.875, abs=1e-12)

    def test_starts_at_origin_ends_at_one_one(self):
        rng = np.random.default_rng(42)
        scores = rng.random(30)
        labels = (rng.random(30) < 0.5).astype(int)
        curve = sl.roc_curve(scores, labels)
        assert (curve.points[0] == [0.0, 0.0]).all()
        assert (curve.points[-1] == [1.0, 1.0]).all()
        assert (np.diff(curve.points[:, 0]) >= 0).all()
        assert (np.diff(curve.points[:, 1]) >= 0).all()

    def test_matches_concordance_oracle_with_ties(self):
        rng = np.random.default_rng(43)
        for trial in range(50):
            n = int(rng.integers(4, 30))
            # coarse grid forces plenty of tied scores
            scores = rng.integers(0, 6, size=n) / 5.0
            labels = (rng.random(n) < 0.5).astype(int)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            curve = sl.roc_curve(scores, labels)
            assert curve.auc == pytest.approx(auc_concordance(scores, labels), abs=1e-9)

    def test_degenerate_labels_rejected(self):
        with pytest.raises(sl.DegenerateLabelsError):
            sl.roc_curve(np.array([0.1, 0.2]), np.array([0, 0]))

    @pytest.mark.parametrize("labels", [[2.0, 1], [2, 1], [-1, 1], ["x", 1],
                                        np.array([False, True])])
    def test_labels_must_be_0_or_1(self, labels):
        # the class-label rule with two classes; a bool column is not an integer one
        with pytest.raises(sl.UsageError, match="labels"):
            sl.roc_curve([0.2, 0.5], labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        with pytest.raises(sl.NumericError, match="scores must be finite"):
            sl.roc_curve(np.array([bad, 1.0, 0.5]), np.array([0, 1, 0]))


class TestEvaluate:
    def _toy_windows(self, labels):
        rng = np.random.default_rng(44)
        return sl.WindowSet(
            features=np.stack([rng.normal(size=(12, 5)) for _ in labels]),
            labels=labels, vehicle_ids=["v"] * len(labels), end_frames=np.arange(len(labels)),
        )

    def test_report_consistency(self):
        model = sl.new_model(seed=5)
        report = sl.evaluate(model, self._toy_windows([0, 1, 2] * 20))
        assert report.n_samples == 60
        assert report.confusion.sum() == 60
        assert report.accuracy == pytest.approx(
            report.confusion.trace() / report.confusion.sum()
        )
        assert len(report.roc_curves) == 3

    def test_random_model_near_chance_auc(self):
        # labels are independent of the inputs, so ranking is chance level
        model = sl.new_model(seed=6)
        report = sl.evaluate(model, self._toy_windows([0, 1, 2] * 200))
        assert abs(report.macro_auc - 0.5) < 0.1

    def test_absent_class_warned_and_skipped(self):
        model = sl.new_model(seed=7)
        report = sl.evaluate(model, self._toy_windows([0, 1] * 15))
        assert report.roc_curves[2] is None
        assert any("right" in w for w in report.warnings)
        available = [c for c in report.roc_curves if c is not None]
        assert len(available) == 2
        assert report.macro_auc == pytest.approx(
            np.mean([c.auc for c in available])
        )

    def test_separable_toy_case_perfect(self):
        # bias model predicts class 1 for everything; test set is all 1s
        # except one other class to keep ROC defined
        model = model_with_fixed_logits([0.0, 3.0, 0.0])
        windows = self._toy_windows([1] * 10 + [0])
        report = sl.evaluate(model, windows)
        assert report.confusion[1, 1] == 10
        assert report.accuracy == pytest.approx(10 / 11)

    def test_empty_rejected(self):
        with pytest.raises(sl.UsageError):
            sl.evaluate(sl.new_model(), [])


def fleet_windows(seed=31, vehicles=3):
    """Synthetic vehicles, their normalizer, and their normalized windows at
    the stride timeline_predict replays (one window per downsampled step)."""
    trajectories = sl.synthesize_dataset(seed, vehicles)
    factor = sl.downsample_factor(trajectories[0].sample_rate_hz, 4.0)
    windows = sl.build_windows(trajectories, sl.WindowConfig(stride_frames=factor))
    stats = sl.fit_normalizer(windows)
    return trajectories, stats, sl.apply_normalizer(stats, windows)


def stride_windows(stride, vehicles=3):
    """Normalized windows of synthetic vehicles, one every stride frames."""
    windows = sl.build_windows(sl.synthesize_dataset(31, vehicles),
                               sl.WindowConfig(stride_frames=stride))
    return sl.apply_normalizer(sl.fit_normalizer(windows), windows)


def one_run(windows, n):
    """n windows over the frame table of windows that form one run, as a
    stride-1 vehicle's do: starts 0 to n - 1, each with step 6."""
    return sl.WindowSet(windows.frames, np.zeros(n, dtype=np.intp), np.full(n, "v", dtype=object),
                        np.arange(n), starts=np.arange(n), steps=np.full(n, 6))


def assert_same_report(a, b):
    assert (a.n_samples, a.accuracy, a.macro_auc, a.warnings) == \
        (b.n_samples, b.accuracy, b.macro_auc, b.warnings)
    assert (a.spikes_per_window, a.synops_per_window) == (b.spikes_per_window, b.synops_per_window)
    assert np.array_equal(a.confusion, b.confusion)
    for curve_a, curve_b in zip(a.roc_curves, b.roc_curves, strict=True):
        assert np.array_equal(curve_a.thresholds, curve_b.thresholds)
        assert np.array_equal(curve_a.points, curve_b.points)
        assert curve_a.auc == curve_b.auc


class TestScoringPath:
    """predict, evaluate and timeline_predict share one batch-invariant scorer."""

    def test_predict_matches_evaluate_and_timeline_bitwise(self):
        trajectories, stats, windows = fleet_windows()
        model = sl.new_model(seed=5)
        predicted = [sl.predict(model, w) for w in windows.features]
        classes = np.array([k for k, _ in predicted])
        probs = np.array([p for _, p in predicted])

        report = sl.evaluate(model, windows)
        assert np.array_equal(
            report.confusion, sl.confusion_and_accuracy(classes, windows.labels)[0]
        )
        for k, curve in enumerate(report.roc_curves):
            # past the +inf corner, the thresholds are the distinct class-k scores
            assert np.array_equal(curve.thresholds[1:], np.unique(probs[:, k])[::-1])

        for traj in trajectories:
            mine = windows.vehicle_ids == traj.vehicle_id
            timeline = sl.timeline_predict(model, traj, stats)
            assert np.array_equal(np.array([e.probs for e in timeline.entries]), probs[mine])
            assert [e.predicted for e in timeline.entries] == classes[mine].tolist()

    @pytest.mark.parametrize("chunk", [1, 7, "N", "SCORE_CHUNK"])
    def test_report_independent_of_chunk_size(self, chunk, monkeypatch):
        _, _, windows = fleet_windows(vehicles=8)
        # more windows than the module's own chunk, so it scores several chunks
        assert len(windows) > model_module.SCORE_CHUNK
        # the same windows as their own (N * 12, 5) table, window i at row 12 * i
        stacked = sl.WindowSet(windows.features, windows.labels, windows.vehicle_ids,
                               windows.end_frames)
        assert len(windows.frames) < len(stacked.frames) == 12 * len(windows)
        size = {"N": len(windows), "SCORE_CHUNK": model_module.SCORE_CHUNK}.get(chunk, chunk)
        model = sl.new_model(seed=5)
        monkeypatch.setattr(model_module, "SCORE_CHUNK", 100_000)
        want = sl.evaluate(model, windows)
        monkeypatch.setattr(model_module, "SCORE_CHUNK", size)
        assert_same_report(sl.evaluate(model, windows), want)
        assert_same_report(sl.evaluate(model, stacked), want)

    @pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
    def test_bare_stack_scores_like_its_window_set(self, reset_mode):
        _, _, windows = fleet_windows(vehicles=8)
        assert len(windows) > model_module.SCORE_CHUNK  # several chunks of each path
        model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
        log_probs, spike_counts = sl.score(model, windows)
        stack_log_probs, stack_spike_counts = sl.score(model, windows.features)
        assert spike_counts.sum() > 0
        assert np.array_equal(stack_log_probs, log_probs)
        assert np.array_equal(stack_spike_counts, spike_counts)

    def test_spike_telemetry_counts_hidden_spikes(self):
        _, _, windows = fleet_windows()
        model = sl.new_model(seed=5)
        spikes = sl.forward_batch(model, windows.features).spikes.sum(axis=(1, 2))
        report = sl.evaluate(model, windows)
        assert report.spikes_per_window > 0
        assert report.spikes_per_window == pytest.approx(spikes.mean(), rel=1e-12)
        assert report.synops_per_window == pytest.approx(
            spikes.mean() * model.classes, rel=1e-12
        )

    @pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
    def test_spike_counts_are_exact(self, reset_mode):
        _, _, windows = fleet_windows()
        model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
        _, spike_counts = sl.score(model, windows)
        want = sl.forward_batch(model, windows.features).spikes.sum(axis=(1, 2))
        assert want.sum() > 0
        assert np.array_equal(spike_counts, want)

    @staticmethod
    def _with_frame(windows, row, value):
        frames = np.array(windows.frames)
        frames[row] = value
        return sl.WindowSet(frames, windows.labels, windows.vehicle_ids, windows.end_frames,
                            starts=windows.starts, steps=windows.steps)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
    def test_unused_frame_is_never_read(self, reset_mode, value):
        # at one window per downsampled step, five of every six frames
        # between a vehicle's first and last window belong to no window
        _, _, windows = fleet_windows()
        rows = windows.starts[:, None] + windows.steps[:, None] * np.arange(12)
        unused = np.setdiff1d(np.arange(rows.min(), rows.max()), rows)
        assert len(unused)
        model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
        got = sl.score(model, self._with_frame(windows, unused[0], value))
        want = sl.score(model, windows)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
    def test_unused_frame_is_never_read_at_stride_one(self, reset_mode, value):
        # the frames of a vehicle too short for a window, between two long
        # vehicles, inside a chunk's span: the per-frame path runs the
        # feature layer over them, but no window gathers their currents
        windows = stride_windows(1, vehicles=2)
        first = windows.starts[windows.vehicle_ids == windows.vehicle_ids[-1]].min()
        assert 0 < first < model_module.SCORE_CHUNK  # the first chunk spans both vehicles
        short = np.full((30, 5), value)
        frames = np.concatenate([windows.frames[:first], short, windows.frames[first:]])
        starts = np.where(windows.starts < first, windows.starts, windows.starts + len(short))
        poisoned = sl.WindowSet(frames, windows.labels, windows.vehicle_ids, windows.end_frames,
                                starts=starts, steps=windows.steps)
        model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
        got = sl.score(model, poisoned)
        want = sl.score(model, windows)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
    @pytest.mark.parametrize("case", ["stride 1", "stride 2", "stride 6", "stride 20",
                                      "split side", "shuffled", "shuffled fleet", "chunk - 1",
                                      "chunk", "chunk + 1", "run - 1", "run", "run + 1",
                                      "vehicle chunk - 1", "vehicle chunk", "vehicle chunk + 1",
                                      "hole"])
    def test_window_set_scores_like_its_bare_stack_bit_for_bit(self, reset_mode, case):
        # a WindowSet chunk's currents come in place from a run's frames, per
        # frame of its span, or per gathered window; a bare stack's always
        # per window copy.  The "run" cases are one vehicle's first windows,
        # just below, at and above the run threshold; the "vehicle" ones a
        # single run of about a chunk, longer than any synthetic vehicle;
        # "hole" masks out one window, which splits its vehicle's run in two.
        chunk = model_module.SCORE_CHUNK
        stride = {"stride 2": 2, "stride 6": 6, "stride 20": 20}.get(case, 1)
        windows = stride_windows(stride, vehicles=10 if case == "shuffled fleet" else 3)
        if case == "split side":
            windows = sl.split_by_vehicle(windows, 0.5, seed=3).test
        elif case.startswith("shuffled"):
            windows = windows[np.random.default_rng(4).permutation(len(windows))]
        elif case.startswith("chunk"):
            windows = windows[: chunk + {"chunk - 1": -1, "chunk": 0, "chunk + 1": 1}[case]]
        elif case.startswith("run"):
            windows = windows[: chunk // 4 + {"run - 1": -1, "run": 0, "run + 1": 1}[case]]
        elif case.startswith("vehicle"):
            windows = one_run(windows, chunk + {"vehicle chunk - 1": -1, "vehicle chunk": 0,
                                                "vehicle chunk + 1": 1}[case])
        elif case == "hole":
            windows = windows[np.arange(len(windows)) != 400]
        model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
        log_probs, spike_counts = sl.score(model, windows)
        stack_log_probs, stack_spike_counts = sl.score(model, windows.features)
        assert spike_counts.sum() > 0
        assert log_probs.tobytes() == stack_log_probs.tobytes()
        assert spike_counts.tobytes() == stack_spike_counts.tobytes()

    def test_both_current_paths_run(self, monkeypatch):
        # a stride-1 set is scored in place from each run's frames, a
        # stride-2 one per frame of each chunk's span, and a shuffled one,
        # whose every chunk spans about the whole table, more than
        # _SPAN_LIMIT frames per window, and a bare stack per window copy
        calls = []
        for name in ("_run_currents", "_span_currents", "_feature_currents"):
            def spy(*args, _name=name, _real=getattr(model_module, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(model_module, name, spy)
        windows = stride_windows(1, vehicles=10)
        chunks = -(-len(windows) // model_module.SCORE_CHUNK)
        assert len(windows.span()[0]) > model_module._SPAN_LIMIT * model_module.SCORE_CHUNK
        model = sl.new_model(seed=5)
        shuffled = windows[np.random.default_rng(4).permutation(len(windows))]
        strided = windows[windows.starts % 2 == 0]
        assert not strided.runs(2)
        for source, path, count in (
                (windows, "_run_currents", 10),  # one run per vehicle
                (strided, "_span_currents", -(-len(strided) // model_module.SCORE_CHUNK)),
                (shuffled, "_feature_currents", chunks),
                (windows.features, "_feature_currents", chunks)):
            calls.clear()
            sl.score(model, source)
            assert calls == [path] * count

    def test_chunks_follow_runs(self, monkeypatch):
        # a shuffled set keeps the SCORE_CHUNK grid; a stride-1 set's runs
        # are cut into chunks of their own, at most two more per long run
        sizes = []

        def spy(currents, *args, _real=model_module._lif_steps, **kwargs):
            sizes.append(currents.shape[1])
            return _real(currents, *args, **kwargs)

        monkeypatch.setattr(model_module, "_lif_steps", spy)
        chunk = model_module.SCORE_CHUNK
        model = sl.new_model(seed=5)
        windows = stride_windows(1, vehicles=10)
        shuffled = windows[np.random.default_rng(4).permutation(len(windows))]
        sl.score(model, shuffled)
        assert len(sizes) == -(-len(windows) // chunk) and max(sizes) == chunk
        for source in (windows, windows[: chunk + 300], windows[100:-100],
                       one_run(windows, 2 * chunk + 1)):
            sizes.clear()
            sl.score(model, source)
            runs = len(source.runs(chunk // 4))
            assert runs
            assert sum(sizes) == len(source) and max(sizes) <= chunk
            assert len(sizes) <= -(-len(source) // chunk) + 2 * runs
        assert len(sizes) == 3 and max(sizes) - min(sizes) <= 1  # equal chunks of a long run

    @pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
    def test_used_nan_in_a_run_raises_the_gathered_currents_error(self, reset_mode):
        windows = stride_windows(1)
        row = windows.starts[1200] + 3 * windows.steps[1200]  # the fourth frame of window 1200
        poisoned = self._with_frame(windows, row, np.nan)
        model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
        with pytest.raises(sl.NumericError) as gathered:
            sl.score(model, poisoned.features)
        with pytest.raises(sl.NumericError) as in_place:
            sl.score(model, poisoned)
        assert str(in_place.value) == str(gathered.value)
        assert str(gathered.value) == (f"currents must be finite and within "
                                       f"+-{model_module._CURRENT_LIMIT:.3g}, got nan at (t=0, j=0)")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
    def test_unused_frame_inside_a_run_is_never_read(self, value, monkeypatch):
        # three windows at step 6 read rows 0-2, 6-8, ...: rows 3-5 of the
        # run's frames are in its current block but in no window
        monkeypatch.setattr(model_module, "SCORE_CHUNK", 8)  # runs from two windows on
        run = one_run(stride_windows(1), 3)
        assert len(run.runs(2)) == 1
        model = sl.new_model(seed=5)
        got, want = sl.score(model, self._with_frame(run, 4, value)), sl.score(model, run)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()

    def test_score_leaves_the_frame_table_unchanged(self):
        windows = stride_windows(1)
        frames = windows.frames.copy()
        sl.score(sl.new_model(seed=5), windows)
        assert windows.frames.tobytes() == frames.tobytes() and windows.frames.flags.writeable

    @pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
    def test_used_non_finite_frame_is_rejected(self, reset_mode):
        _, _, windows = fleet_windows()
        model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
        used = windows.starts[-1] + 3 * windows.steps[-1]  # the last window's fourth frame
        with pytest.raises(sl.NumericError):
            sl.score(model, self._with_frame(windows, used, np.nan))

    def test_evaluate_memory_is_bounded(self):
        # a whole-set activation cache would hold three (N, 12, 24) float64
        # arrays: about 200 MB for these 30,000 windows
        rng = np.random.default_rng(47)
        n = 30_000
        windows = sl.WindowSet(
            features=rng.normal(size=(n, 12, 5)), labels=rng.integers(0, 3, size=n),
            vehicle_ids=np.full(n, "v"), end_frames=np.arange(n),
        )
        model = sl.new_model(seed=5)
        tracemalloc.start()
        try:
            sl.evaluate(model, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_evaluate_holds_few_whole_set_arrays(self):
        # 57,600 stride-1 windows over one frame table, each with its own
        # score, so that every ROC curve has about 56,000 points.  The peak
        # above live data measured 12.3 MB while score allocated its arrays
        # per chunk and evaluate and roc_curve held every whole-set
        # temporary to the end, and 7.7 MB with one working set per score
        # call and each temporary dropped once read.
        rng = np.random.default_rng(47)
        n = 57_600
        windows = sl.WindowSet(rng.normal(size=(n + 11, 5)), rng.integers(0, 3, size=n),
                               np.full(n, "v", dtype=object), np.arange(n),
                               starts=np.arange(n), steps=np.ones(n, dtype=np.intp))
        model = sl.new_model(seed=5)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            report = sl.evaluate(model, windows)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert min(len(curve.thresholds) for curve in report.roc_curves) > 50_000
        assert peak < 9 * 2**20


class TestDetectRuns:
    def test_debounce_thresholds(self):
        assert sl.detect_runs([0, 1, 1, 1, 0]) == [1]
        assert sl.detect_runs([0, 1, 1, 0]) == []
        assert sl.detect_runs([1, 1, 1, 2, 2, 2]) == [0, 3]
        assert sl.detect_runs([0, 0, 0, 0]) == []

    def test_single_blip_never_counts(self):
        assert sl.detect_runs([0, 2, 0, 0, 1, 0]) == []

    def test_run_must_be_constant(self):
        assert sl.detect_runs([1, 2, 1, 2, 1, 2]) == []

    def test_keep_runs_ignored_however_long(self):
        assert sl.detect_runs([0] * 50 + [1] * 3) == [50]


class TestTimeline:
    def _normalizer(self):
        return sl.NormStats(mean=np.zeros(5), std=np.ones(5))

    def test_row_count_and_frame_alignment(self):
        traj = sl.synthesize_dataset(21, 1)[0]
        model = sl.new_model(seed=8)
        report = sl.timeline_predict(model, traj, self._normalizer())
        factor = sl.downsample_factor(traj.sample_rate_hz, 4.0)
        span = 11 * factor
        want = len(range(0, len(traj) - span, factor))
        assert len(report.entries) == want
        assert report.entries[0].end_frame == span
        assert report.entries[1].end_frame == span + factor
        assert report.onsets == tuple(e.onset_frame for e in traj.events)

    def test_too_short_trajectory_rejected(self):
        rng = np.random.default_rng(45)
        traj = sl.Trajectory(
            vehicle_id="tiny", sample_rate_hz=25.0,
            t_index=np.arange(30, dtype=np.int64),
            features=rng.normal(size=(30, 5)),
        )
        with pytest.raises(sl.UsageError):
            sl.timeline_predict(sl.new_model(), traj, self._normalizer())

    def test_end_frames_are_build_windows_at_one_step_stride(self):
        traj = sl.synthesize_dataset(26, 1)[0]
        report = sl.timeline_predict(
            sl.new_model(seed=8), traj, self._normalizer(), window_rate_hz=2.0
        )
        factor = sl.downsample_factor(traj.sample_rate_hz, 2.0)
        windows = sl.build_windows([traj], sl.WindowConfig(2.0, stride_frames=factor))
        assert [e.end_frame for e in report.entries] == windows.end_frames.tolist()
        assert report.entries[0].end_frame == 11 * factor

    def test_probabilities_normalized_per_entry(self):
        traj = sl.synthesize_dataset(22, 1)[0]
        report = sl.timeline_predict(sl.new_model(seed=9), traj, self._normalizer())
        for entry in report.entries:
            assert entry.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_built_without_timeline_entries(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("a TimelineEntry was built")

        monkeypatch.setattr(sl.evaluation, "TimelineEntry", refuse)
        traj = sl.synthesize_dataset(27, 1)[0]
        report = sl.timeline_predict(model_with_fixed_logits([0.0, 5.0, 0.0]), traj,
                                     self._normalizer())
        assert len(report.detections) == 1
        sl.write_timeline_csv(report, tmp_path / "timeline.csv")
        assert (tmp_path / "timeline.csv").read_text().count("\n") == len(report.end_frames) + 1

    def test_entries_and_predicted_read_the_arrays(self):
        probs = np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [1 / 3, 1 / 3, 1 / 3], [0.1, 0.2, 0.7]])
        end_frames = np.array([11, 17, 23, 29], dtype=np.int64)
        report = sl.TimelineReport("v", end_frames, probs, (), (), ())
        # a tie resolves to the lowest class, toward keep
        assert report.predicted.tolist() == [0, 1, 0, 2]
        entries = report.entries
        assert all(isinstance(e, sl.TimelineEntry) for e in entries)
        assert [e.end_frame for e in entries] == end_frames.tolist()
        assert all(type(e.end_frame) is int and type(e.predicted) is int for e in entries)
        assert [e.predicted for e in entries] == report.predicted.tolist()
        assert np.array_equal(np.array([e.probs for e in entries]), probs)

    def test_built_from_lists_writes_the_bytes_of_arrays(self, tmp_path):
        probs = [[0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [0.1, 0.2, 0.7]]
        end_frames = [11, 17, 23]
        written = []
        for report in (sl.TimelineReport("v", end_frames, probs, (), (), ()),
                       sl.TimelineReport("v", np.array(end_frames, dtype=np.int64),
                                         np.array(probs), (), (), ())):
            path = tmp_path / f"timeline{len(written)}.csv"
            sl.write_timeline_csv(report, path)
            written.append(path.read_bytes())
            assert report.end_frames.dtype == np.int64 and report.probs.dtype == np.float64
        assert written[0] == written[1]

    @pytest.mark.parametrize("end_frames, probs, error", [
        ([11, 17], [[0.4, 0.4, 0.2]], sl.ShapeError),
        ([11], [[0.4, 0.4, 0.2], [0.2, 0.4, 0.4]], sl.ShapeError),
        ([11], [[0.5, 0.5]], sl.ShapeError),
        ([[11]], [[0.4, 0.4, 0.2]], sl.ShapeError),
        ([11.0], [[0.4, 0.4, 0.2]], sl.UsageError),
        ([2**63], [[0.4, 0.4, 0.2]], sl.UsageError),
    ])
    def test_mismatched_columns_rejected(self, end_frames, probs, error):
        with pytest.raises(error, match="timeline end_frames"):
            sl.TimelineReport("v", end_frames, probs, (), (), ())

    def test_normalizer_must_be_norm_stats(self):
        traj = sl.synthesize_dataset(28, 1)[0]
        with pytest.raises(sl.UsageError, match="normalizer must be a NormStats"):
            sl.timeline_predict(sl.new_model(), traj, {})

    def test_false_detection_bookkeeping(self):
        # keep-only vehicle: any detection must be counted false
        traj = sl.synthesize_dataset(23, 1, maneuvers=(0, 0))[0]
        model = model_with_fixed_logits([0.0, 5.0, 0.0])  # always "left"
        report = sl.timeline_predict(model, traj, self._normalizer())
        assert len(report.detections) == 1
        assert report.false_detections == report.detections
        assert report.onsets == ()


class TestReportWriters:
    def test_eval_report_files(self, tmp_path):
        model = sl.new_model(seed=10)
        rng = np.random.default_rng(46)
        labels = [0, 1, 2] * 10
        windows = sl.WindowSet(
            features=np.stack([rng.normal(size=(12, 5)) for _ in labels]),
            labels=labels, vehicle_ids=["v"] * len(labels), end_frames=np.arange(len(labels)),
        )
        report = sl.evaluate(model, windows)
        paths = sl.write_eval_report(report, tmp_path)
        text = (tmp_path / "eval_report.txt").read_text()
        assert "accuracy:" in text and "macro_auc:" in text
        assert text.splitlines()[-2:] == [
            f"spikes_per_window: {report.spikes_per_window:.6f}",
            f"synops_per_window: {report.synops_per_window:.6f}",
        ]
        for k, curve in enumerate(report.roc_curves):
            if curve is None:
                continue
            roc_path = tmp_path / f"roc_class{k}.csv"
            assert roc_path in paths
            with open(roc_path) as handle:
                rows = list(csv.DictReader(handle))
            assert len(rows) == len(curve.thresholds)
            assert float(rows[0]["fpr"]) == 0.0 and float(rows[0]["tpr"]) == 0.0
            assert float(rows[-1]["fpr"]) == 1.0 and float(rows[-1]["tpr"]) == 1.0

    def test_timeline_csv(self, tmp_path):
        traj = sl.synthesize_dataset(24, 1)[0]
        report = sl.timeline_predict(
            sl.new_model(seed=11), traj,
            sl.NormStats(mean=np.zeros(5), std=np.ones(5)),
        )
        path = tmp_path / "timeline.csv"
        sl.write_timeline_csv(report, path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(report.entries)
        assert int(rows[0]["end_frame"]) == report.entries[0].end_frame


def csv_writer_bytes(header, rows):
    """What csv.writer writes for these rows: the oracle for the block writer."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestWriterBytes:
    """ROC and timeline CSVs are byte for byte what csv.writer wrote."""

    def test_roc_csv_bytes(self, tmp_path):
        # ties, an exponent-sized score, a 9-digit-rounded one and zero; the
        # first threshold is +inf
        scores = np.array([0.9, 0.8, 0.8, 1 / 3, 1 / 3, 1.5e-300, 0.0, 0.8, 0.123456789123])
        labels = np.array([1, 1, 0, 0, 1, 0, 0, 1, 0])
        curves = (None, sl.roc_curve(scores, labels, class_id=1),
                  sl.roc_curve(-scores, 1 - labels, class_id=2))
        report = sl.EvalReport(
            n_samples=len(scores), accuracy=0.5, confusion=np.zeros((3, 3), dtype=np.int64),
            roc_curves=curves, macro_auc=0.5, warnings=(), spikes_per_window=0.0,
            synops_per_window=0.0,
        )
        paths = sl.write_eval_report(report, tmp_path)
        assert not (tmp_path / "roc_class0.csv").exists()
        for k in (1, 2):
            curve = curves[k]
            assert curve.thresholds[0] == np.inf
            want = csv_writer_bytes(("threshold", "fpr", "tpr"), [
                (format(t, ".9g"), format(fpr, ".9g"), format(tpr, ".9g"))
                for t, (fpr, tpr) in zip(curve.thresholds, curve.points)
            ])
            path = tmp_path / f"roc_class{k}.csv"
            assert path in paths
            assert path.read_bytes() == want

    def test_timeline_csv_bytes(self, tmp_path):
        traj = sl.synthesize_dataset(25, 1)[0]
        report = sl.timeline_predict(
            sl.new_model(seed=12), traj, sl.NormStats(mean=np.zeros(5), std=np.ones(5)),
        )
        extreme = sl.TimelineEntry(
            end_frame=-(2**63), predicted=2, probs=np.array([1e-300, 1 / 3, 1.0])
        )
        for entries in (report.entries, (extreme,)):
            case = sl.TimelineReport(
                "v", np.array([e.end_frame for e in entries], dtype=np.int64),
                np.array([e.probs for e in entries]), (), (), (),
            )
            path = tmp_path / "timeline.csv"
            sl.write_timeline_csv(case, path)
            want = csv_writer_bytes(("end_frame", "predicted", "p_keep", "p_left", "p_right"), [
                (e.end_frame, e.predicted) + tuple(format(p, ".9g") for p in e.probs)
                for e in entries
            ])
            assert path.read_bytes() == want
