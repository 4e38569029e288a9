"""Ingestion, labeling, windowing, normalization, and splitting."""

import io

import numpy as np
import pytest

import spikelane as sl
from spikelane.dataset import CSV_HEADER


HEADER = ",".join(CSV_HEADER)


def keep_row(vid, frame, lane=3, delta=0.0):
    return f"{vid},{frame},{delta},30.0,0.0,0.0,0.0,{lane}"


def make_traj(n=300, rate=25.0, events=(), vid="v1", rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return sl.Trajectory(
        vehicle_id=vid,
        sample_rate_hz=rate,
        t_index=np.arange(n, dtype=np.int64),
        features=rng.normal(size=(n, 5)),
        events=tuple(events),
    )


class TestParse:
    def test_two_vehicles_no_events(self):
        rows = [HEADER]
        rows += [keep_row("a", f) for f in range(3)]
        rows += [keep_row("b", f) for f in range(2)]
        trajs = sl.parse_trajectories(io.StringIO("\n".join(rows)), 25.0)
        assert [t.vehicle_id for t in trajs] == ["a", "b"]
        assert [len(t) for t in trajs] == [3, 2]
        assert all(t.events == () for t in trajs)

    def test_lane_change_yields_event_at_switch_frame(self):
        rows = [HEADER]
        # drifting left (delta_y climbing), lane id increments at frame 100
        rows += [keep_row("a", f, lane=3, delta=1.5) for f in range(99, 100)]
        rows += [keep_row("a", f, lane=4, delta=-1.6) for f in range(100, 102)]
        trajs = sl.parse_trajectories(io.StringIO("\n".join(rows)), 25.0)
        assert trajs[0].events == (sl.LaneChangeEvent(onset_frame=100, direction="left"),)

    def test_right_change_from_positive_jump(self):
        rows = [HEADER,
                keep_row("a", 0, lane=3, delta=-1.6),
                keep_row("a", 1, lane=2, delta=1.5)]
        trajs = sl.parse_trajectories(io.StringIO("\n".join(rows)), 25.0)
        assert trajs[0].events[0].direction == "right"

    def test_malformed_row_names_line(self):
        with pytest.raises(sl.ParseError, match="line 2"):
            sl.parse_trajectories(io.StringIO(HEADER + "\na,b,c"), 25.0)

    def test_bad_header(self):
        with pytest.raises(sl.ParseError, match="line 1"):
            sl.parse_trajectories(io.StringIO("x,y\n1,2"), 25.0)

    def test_non_numeric_cell_names_line(self):
        body = "\n".join([HEADER, keep_row("a", 0), "a,1,oops,30.0,0.0,0.0,0.0,3"])
        with pytest.raises(sl.ParseError, match="line 3"):
            sl.parse_trajectories(io.StringIO(body), 25.0)

    def test_duplicate_frame_rejected(self):
        body = "\n".join([HEADER, keep_row("a", 5), keep_row("a", 5)])
        with pytest.raises(sl.ParseError, match="line 3"):
            sl.parse_trajectories(io.StringIO(body), 25.0)

    def test_unsorted_rows_are_ordered_by_frame(self):
        body = "\n".join([HEADER, keep_row("a", 2), keep_row("a", 0), keep_row("a", 1)])
        (traj,) = sl.parse_trajectories(io.StringIO(body), 25.0)
        assert traj.t_index.tolist() == [0, 1, 2]

    def test_empty_input(self):
        with pytest.raises(sl.ParseError, match="line 1"):
            sl.parse_trajectories(io.StringIO(""), 25.0)


class TestLabelFrames:
    def test_three_second_window_before_onset(self):
        traj = make_traj(n=200, events=[sl.LaneChangeEvent(100, "left")])
        labels = sl.label_frames(traj)
        assert (labels[25:100] == sl.LABEL_LEFT).all()
        assert (labels[:25] == sl.LABEL_KEEP).all()
        assert (labels[100:] == sl.LABEL_KEEP).all()

    def test_no_events_all_keep(self):
        labels = sl.label_frames(make_traj(n=50))
        assert (labels == sl.LABEL_KEEP).all()

    def test_truncated_window_at_start(self):
        traj = make_traj(n=50, events=[sl.LaneChangeEvent(10, "right")])
        labels = sl.label_frames(traj)
        assert (labels[:10] == sl.LABEL_RIGHT).all()
        assert (labels[10:] == sl.LABEL_KEEP).all()

    def test_later_event_wins_overlap(self):
        traj = make_traj(
            n=300,
            events=[sl.LaneChangeEvent(100, "left"), sl.LaneChangeEvent(160, "right")],
        )
        labels = sl.label_frames(traj)
        assert (labels[25:85] == sl.LABEL_LEFT).all()
        # the second event's window [85, 160) overrides the first's tail
        assert (labels[85:160] == sl.LABEL_RIGHT).all()
        assert (labels[160:] == sl.LABEL_KEEP).all()


class TestMakeWindows:
    def test_first_window_spans_strided_frames(self):
        traj = make_traj(n=80)
        labels = sl.label_frames(traj)
        windows = sl.make_windows(traj, labels)
        first = windows[0]
        assert first.features.shape == (12, 5)
        np.testing.assert_array_equal(first.features, traj.features[0:67:6])
        assert first.end_frame == 66

    def test_window_count_at_stride_one(self):
        traj = make_traj(n=100)
        windows = sl.make_windows(traj, sl.label_frames(traj))
        assert len(windows) == 100 - 66

    def test_stride_thins_starts(self):
        traj = make_traj(n=100)
        windows = sl.make_windows(traj, sl.label_frames(traj), stride_frames=5)
        assert [w.end_frame for w in windows] == [66, 71, 76, 81, 86, 91, 96]

    def test_too_short_gives_empty_list(self):
        traj = make_traj(n=66)
        assert sl.make_windows(traj, sl.label_frames(traj)) == []

    def test_label_comes_from_final_frame(self):
        traj = make_traj(n=200, events=[sl.LaneChangeEvent(150, "left")])
        labels = sl.label_frames(traj)
        windows = sl.make_windows(traj, labels)
        for w in windows:
            assert w.label == labels[w.end_frame]
        assert any(w.label == sl.LABEL_LEFT for w in windows)

    def test_downsample_factor_rounds(self):
        assert sl.downsample_factor(25.0, 4.0) == 6
        assert sl.downsample_factor(10.0, 4.0) == 2
        assert sl.downsample_factor(4.0, 4.0) == 1
        with pytest.raises(sl.ConfigError):
            sl.downsample_factor(1.0, 4.0)

    def test_bad_stride_rejected(self):
        traj = make_traj(n=100)
        with pytest.raises(sl.ConfigError):
            sl.make_windows(traj, sl.label_frames(traj), stride_frames=0)


class TestNormalizer:
    def test_moments_zero_one_after_normalizing(self):
        trajs = [make_traj(n=150, vid=f"v{i}", rng_seed=i) for i in range(3)]
        windows = sl.build_windows(trajs)
        stats = sl.fit_normalizer(windows)
        normalized = sl.apply_normalizer(stats, windows)
        rows = np.concatenate([w.features for w in normalized])
        np.testing.assert_allclose(rows.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(rows.std(axis=0), 1.0, atol=1e-12)

    def test_stats_match_direct_recomputation(self):
        trajs = [make_traj(n=140, vid="v", rng_seed=9)]
        windows = sl.build_windows(trajs)
        stats = sl.fit_normalizer(windows)
        rows = np.concatenate([w.features for w in windows])
        np.testing.assert_allclose(stats.mean, rows.mean(axis=0), atol=0)
        np.testing.assert_allclose(stats.std, rows.std(axis=0), atol=0)

    def test_constant_feature_named_in_error(self):
        traj = make_traj(n=100)
        traj.features[:, 1] = 30.0  # constant v_x column
        windows = sl.make_windows(traj, sl.label_frames(traj))
        with pytest.raises(sl.DegenerateFeatureError, match="v_x"):
            sl.fit_normalizer(windows)

    def test_single_window_means_subtract_exactly(self):
        traj = make_traj(n=67)
        windows = sl.make_windows(traj, sl.label_frames(traj))
        assert len(windows) == 1
        stats = sl.fit_normalizer(windows)
        normalized = sl.apply_normalizer(stats, windows)
        np.testing.assert_allclose(normalized[0].features.mean(axis=0), 0.0, atol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        trajs = [make_traj(n=100, rng_seed=4)]
        stats = sl.fit_normalizer(sl.build_windows(trajs))
        path = tmp_path / "norm.csv"
        sl.save_norm_stats(stats, path)
        loaded = sl.load_norm_stats(path)
        assert (loaded.mean == stats.mean).all()
        assert (loaded.std == stats.std).all()

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "norm.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(sl.ParseError):
            sl.load_norm_stats(path)


class TestSplit:
    def _windows(self, n_vehicles=10):
        trajs = [make_traj(n=90, vid=f"v{i:02d}", rng_seed=i) for i in range(n_vehicles)]
        return sl.build_windows(trajs)

    def test_ten_vehicles_ratio_point_eight(self):
        split = sl.split_by_vehicle(self._windows(10), 0.8, seed=0)
        train_v = {s.vehicle_id for s in split.train}
        test_v = {s.vehicle_id for s in split.test}
        assert len(train_v) == 8 and len(test_v) == 2

    def test_same_seed_same_split(self):
        windows = self._windows(6)
        a = sl.split_by_vehicle(windows, 0.7, seed=3)
        b = sl.split_by_vehicle(windows, 0.7, seed=3)
        assert [s.end_frame for s in a.train] == [s.end_frame for s in b.train]
        assert {s.vehicle_id for s in a.test} == {s.vehicle_id for s in b.test}

    def test_vehicle_disjointness_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            windows = self._windows(n)
            ratio = float(rng.uniform(0.2, 0.9))
            split = sl.split_by_vehicle(windows, ratio, seed=int(rng.integers(1000)))
            train_v = {s.vehicle_id for s in split.train}
            test_v = {s.vehicle_id for s in split.test}
            assert train_v and test_v
            assert not (train_v & test_v)
            assert len(split.train) + len(split.test) == len(windows)

    def test_single_vehicle_rejected(self):
        with pytest.raises(sl.SplitError):
            sl.split_by_vehicle(self._windows(1), 0.8, seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(sl.ConfigError):
            sl.split_by_vehicle(self._windows(4), 1.0, seed=0)


class TestExportAndWrite:
    def test_trajectory_csv_round_trip(self, tmp_path):
        trajs = sl.synthesize_dataset(5, 3)
        path = tmp_path / "data.csv"
        sl.write_trajectories_csv(trajs, path)
        parsed = sl.parse_trajectories(path, 25.0)
        assert len(parsed) == 3
        for orig, back in zip(trajs, parsed):
            assert back.vehicle_id == orig.vehicle_id
            assert back.events == orig.events
            # %.17g output reproduces float64 exactly
            assert (back.features == orig.features).all()

    def test_export_windows_line_count(self, tmp_path):
        windows = sl.build_windows([make_traj(n=80)])
        path = tmp_path / "windows.csv"
        sl.export_windows(windows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(windows)
        first = lines[0].split(",")
        assert len(first) == 1 + 12 * 5

    def test_stack_windows_shapes(self):
        windows = sl.build_windows([make_traj(n=80)])
        xs, ys = sl.stack_windows(windows)
        assert xs.shape == (len(windows), 12, 5)
        assert ys.shape == (len(windows),)
        with pytest.raises(sl.UsageError):
            sl.stack_windows([])
