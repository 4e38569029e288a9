"""Synthetic trajectory generator properties."""

import numpy as np
import pytest

import spikelane as sl
from spikelane.synth import LANE_WIDTH_M


def reconstruct_absolute_path(traj):
    """Re-attach lane centers to the lateral offsets."""
    lane = np.zeros(len(traj), dtype=np.int64)
    for event in traj.events:
        lane[event.onset_frame:] += 1 if event.direction == "left" else -1
    return traj.features[:, 0] + LANE_WIDTH_M * lane


class TestDeterminism:
    def test_same_seed_identical(self):
        a = sl.synthesize_dataset(5, 4)
        b = sl.synthesize_dataset(5, 4)
        for ta, tb in zip(a, b):
            assert (ta.features == tb.features).all()
            assert ta.events == tb.events

    def test_different_seeds_differ(self):
        a = sl.synthesize_dataset(5, 2)
        b = sl.synthesize_dataset(6, 2)
        n = min(len(a[0]), len(b[0]))
        assert (a[0].features[:n] != b[0].features[:n]).any()

    def test_vehicle_streams_independent_of_count(self):
        few = sl.synthesize_dataset(5, 2)
        many = sl.synthesize_dataset(5, 4)
        assert (few[1].features == many[1].features).all()


class TestKinematics:
    def test_lateral_velocity_is_path_derivative(self):
        for traj in sl.synthesize_dataset(9, 3):
            y = reconstruct_absolute_path(traj)
            dt = 1.0 / traj.sample_rate_hz
            np.testing.assert_allclose(
                np.gradient(y, dt), traj.features[:, 3], atol=1e-6
            )

    def test_lateral_acceleration_is_velocity_derivative(self):
        for traj in sl.synthesize_dataset(10, 2):
            dt = 1.0 / traj.sample_rate_hz
            np.testing.assert_allclose(
                np.gradient(traj.features[:, 3], dt), traj.features[:, 4], atol=1e-6
            )

    def test_longitudinal_acceleration_consistent(self):
        for traj in sl.synthesize_dataset(11, 2):
            dt = 1.0 / traj.sample_rate_hz
            np.testing.assert_allclose(
                np.gradient(traj.features[:, 1], dt), traj.features[:, 2], atol=1e-6
            )

    def test_offset_stays_within_half_lane(self):
        for traj in sl.synthesize_dataset(12, 3):
            # half a lane width plus the wobble amplitude budget
            assert np.abs(traj.features[:, 0]).max() <= LANE_WIDTH_M / 2 + 0.03

    def test_offset_recenters_across_switch(self):
        traj = sl.synthesize_dataset(13, 1)[0]
        assert traj.events
        delta = traj.features[:, 0]
        for event in traj.events:
            pos = event.onset_frame
            jump = delta[pos] - delta[pos - 1]
            assert abs(abs(jump) - LANE_WIDTH_M) < 0.1
            if event.direction == "left":
                assert jump < 0
            else:
                assert jump > 0


class TestStructure:
    def test_event_counts_and_alternation(self):
        for traj in sl.synthesize_dataset(7, 6):
            assert 5 <= len(traj.events) <= 6
            directions = [e.direction for e in traj.events]
            for a, b in zip(directions, directions[1:]):
                assert a != b

    def test_forced_single_left_maneuver(self):
        trajs = sl.synthesize_dataset(3, 1, maneuvers=(1, 1))
        assert len(trajs) == 1
        assert len(trajs[0].events) == 1
        assert trajs[0].events[0].direction == "left"

    def test_keep_only_vehicle(self):
        traj = sl.synthesize_dataset(4, 1, maneuvers=(0, 0))[0]
        assert traj.events == ()
        assert np.abs(traj.features[:, 0]).max() < 0.05

    def test_window_label_proportions(self):
        trajs = sl.synthesize_dataset(7, 20)
        windows = sl.build_windows(trajs, sl.WindowConfig(stride_frames=2))
        labels = np.array([w.label for w in windows])
        assert labels.size >= 2000
        keep = (labels == sl.LABEL_KEEP).mean()
        left = (labels == sl.LABEL_LEFT).mean()
        right = (labels == sl.LABEL_RIGHT).mean()
        assert abs(keep - 0.60) < 0.10
        assert abs(left - 0.20) < 0.10
        assert abs(right - 0.20) < 0.10
        assert abs(left - right) < 0.05

    def test_bad_arguments(self):
        with pytest.raises(sl.UsageError):
            sl.synthesize_dataset(0, 0)
        with pytest.raises(sl.UsageError):
            sl.synthesize_dataset(0, 2, maneuvers=(3, 1))

    @pytest.mark.parametrize("seed, n", [(1.5, 2), (0, 2.5), (1.0, 2), (0, 2.0), ("1", 2)])
    def test_non_integer_seed_or_count(self, seed, n):
        # floats would reach np.random.SeedSequence and spawn as a bare TypeError
        with pytest.raises(sl.UsageError, match="must be an integer"):
            sl.synthesize_dataset(seed, n)

    @pytest.mark.parametrize("seed, rate", [(-1, 25.0), (0, 0.0), (0, np.nan), (0, -5.0),
                                            (0, 1e-9), (0, np.inf), (0, 1e308)])
    def test_bad_seed_or_rate(self, seed, rate):
        with pytest.raises(sl.UsageError):
            sl.synthesize_dataset(seed, 2, sample_rate_hz=rate)

    @pytest.mark.parametrize("n, rate, reached", [
        (9_523, 25.0, True),  # 9,523 x 1,050 frames: within MAX_FRAMES
        (9_524, 25.0, False),
        (100_000_000_000, 25.0, False),
        (1, 1e8, False),  # one record of 4.2e9 frames
    ])
    def test_frame_bound_checked_before_spawning_streams(self, n, rate, reached, monkeypatch):
        class Reached(Exception):
            pass

        def spawn_guard(*args):
            raise Reached

        # a missing bound fails here instead of allocating every vehicle
        monkeypatch.setattr(np.random, "SeedSequence", spawn_guard)
        with pytest.raises(Reached if reached else sl.UsageError):
            sl.synthesize_dataset(0, n, sample_rate_hz=rate)

    @pytest.mark.parametrize("rate", [0.1, 0.3, 1.0, 2.5, 10.0, 25.0])
    def test_csv_round_trip_keeps_events(self, rate, tmp_path):
        # synth and the CSV parser derive events from lane changes by one rule
        trajs = sl.synthesize_dataset(14, 8, sample_rate_hz=rate)
        sl.write_trajectories_csv(trajs, tmp_path / "fleet.csv")
        parsed = sl.parse_trajectories(tmp_path / "fleet.csv", rate)
        assert [t.events for t in parsed] == [t.events for t in trajs]
        assert sum(len(t.events) for t in trajs) > 0

    def test_onsets_match_half_crossing(self):
        traj = sl.synthesize_dataset(8, 1)[0]
        y = reconstruct_absolute_path(traj)
        for event in traj.events:
            # the smooth path crosses the lane boundary within one frame
            pos = event.onset_frame
            boundary_side_before = y[pos - 1]
            boundary_side_after = y[pos]
            assert abs(boundary_side_after - boundary_side_before) < 0.3
