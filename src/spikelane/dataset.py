"""Trajectory ingestion, intention labeling, and window construction.

A trajectory is a per-vehicle time series of five state features: lateral
offset to the current lane center, longitudinal velocity and acceleration,
and lateral velocity and acceleration.  Lane-change events mark the frame at
which the vehicle's lane id flips; every frame in the 3 seconds before an
event carries that event's direction as its intention label, all other
frames are lane-keeping.

Windows are built by downsampling the frame stream toward a target rate and
taking 12 consecutive downsampled steps; the window's label is the per-frame
label at its final frame.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import (
    ConfigError,
    DegenerateFeatureError,
    NumericError,
    ParseError,
    ShapeError,
    SplitError,
    UsageError,
)

FEATURE_NAMES = ("delta_y", "v_x", "a_x", "v_y", "a_y")
CSV_HEADER = ("vehicle_id", "frame", "delta_y", "v_x", "a_x", "v_y", "a_y", "lane_id")

LABEL_KEEP, LABEL_LEFT, LABEL_RIGHT = 0, 1, 2
LABEL_NAMES = ("keep", "left", "right")
DIRECTION_LEFT, DIRECTION_RIGHT = "left", "right"

INTENTION_HORIZON_S = 3.0  # intention labels span this long before each event


@dataclass(frozen=True)
class LaneChangeEvent:
    onset_frame: int
    direction: str  # "left" or "right"


@dataclass(frozen=True)
class Trajectory:
    """One vehicle's ordered state record plus its lane-change events."""

    vehicle_id: str
    sample_rate_hz: float
    t_index: np.ndarray   # (n,) strictly increasing frame numbers
    features: np.ndarray  # (n, 5) columns in FEATURE_NAMES order
    events: tuple[LaneChangeEvent, ...] = ()

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise ConfigError(f"sample_rate_hz must be > 0, got {self.sample_rate_hz}")
        t = np.asarray(self.t_index, dtype=np.int64)
        f = np.asarray(self.features, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != len(FEATURE_NAMES) or f.shape[0] != t.shape[0]:
            raise ShapeError(
                f"features shape {f.shape} does not match {t.shape[0]} frames x "
                f"{len(FEATURE_NAMES)} features"
            )
        if t.size and np.any(np.diff(t) <= 0):
            raise UsageError(f"t_index not strictly increasing for vehicle {self.vehicle_id}")
        if not np.isfinite(f).all():
            raise NumericError(f"non-finite feature values for vehicle {self.vehicle_id}")
        events = tuple(self.events)
        onsets = [e.onset_frame for e in events]
        if onsets != sorted(onsets):
            raise UsageError(f"events not sorted by onset for vehicle {self.vehicle_id}")
        for e in events:
            if e.direction not in (DIRECTION_LEFT, DIRECTION_RIGHT):
                raise UsageError(f"unknown event direction {e.direction!r}")
            if t.size == 0 or not t[0] <= e.onset_frame <= t[-1]:
                raise UsageError(
                    f"event onset {e.onset_frame} outside frame range for vehicle "
                    f"{self.vehicle_id}"
                )
        object.__setattr__(self, "t_index", t)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return self.t_index.shape[0]


@dataclass(frozen=True)
class WindowSample:
    """One (12, 5) feature window with its intention label and origin."""

    features: np.ndarray
    label: int
    vehicle_id: str
    end_frame: int


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score statistics, fitted on training windows only."""

    mean: np.ndarray  # (5,)
    std: np.ndarray   # (5,)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (features - self.mean) / self.std


@dataclass(frozen=True)
class DatasetSplit:
    train: list[WindowSample]
    test: list[WindowSample]
    seed: int
    ratio: float


@dataclass(frozen=True)
class WindowConfig:
    window_rate_hz: float = 4.0
    stride_frames: int = 1


# ---------------------------------------------------------------------------
# CSV ingest
# ---------------------------------------------------------------------------


def parse_trajectories(
    source: str | Path | TextIO, sample_rate_hz: float
) -> list[Trajectory]:
    """Parse delimiter-separated trajectory exports into Trajectory records.

    Expects a UTF-8 CSV with the exact header
    ``vehicle_id,frame,delta_y,v_x,a_x,v_y,a_y,lane_id``.  Lane-change events
    are derived from frames where lane_id changes; the direction comes from
    the sign of the lateral-offset jump across the change (the offset
    re-centers on the new lane, so a drop means a move to the left with the
    left-positive convention used throughout).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _parse_stream(handle, sample_rate_hz)
    return _parse_stream(source, sample_rate_hz)


def _parse_stream(stream: TextIO, sample_rate_hz: float) -> list[Trajectory]:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty input, expected header") from None
    if tuple(cell.strip() for cell in header) != CSV_HEADER:
        raise ParseError(
            f"line 1: header {header} does not match {','.join(CSV_HEADER)}"
        )

    per_vehicle: dict[str, list[tuple[int, float, float, float, float, float, int]]] = {}
    seen: set[tuple[str, int]] = set()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"line {line_no}: expected {len(CSV_HEADER)} cells, got {len(row)}")
        vid = row[0].strip()
        try:
            frame = int(row[1])
            values = [float(cell) for cell in row[2:7]]
            lane = int(row[7])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric cell in {row}") from None
        if not all(np.isfinite(values)):
            raise ParseError(f"line {line_no}: non-finite feature value")
        key = (vid, frame)
        if key in seen:
            raise ParseError(f"line {line_no}: duplicate (vehicle, frame) = {key}")
        seen.add(key)
        per_vehicle.setdefault(vid, []).append((frame, *values, lane))

    trajectories = []
    for vid in sorted(per_vehicle):
        rows = sorted(per_vehicle[vid])
        t_index = np.array([r[0] for r in rows], dtype=np.int64)
        features = np.array([r[1:6] for r in rows], dtype=np.float64)
        lanes = np.array([r[6] for r in rows], dtype=np.int64)
        events = _events_from_lanes(t_index, features[:, 0], lanes)
        trajectories.append(
            Trajectory(
                vehicle_id=vid,
                sample_rate_hz=sample_rate_hz,
                t_index=t_index,
                features=features,
                events=events,
            )
        )
    return trajectories


def _events_from_lanes(
    t_index: np.ndarray, delta_y: np.ndarray, lanes: np.ndarray
) -> tuple[LaneChangeEvent, ...]:
    events = []
    for pos in np.nonzero(np.diff(lanes) != 0)[0] + 1:
        jump = delta_y[pos] - delta_y[pos - 1]
        direction = DIRECTION_LEFT if jump < 0 else DIRECTION_RIGHT
        events.append(LaneChangeEvent(onset_frame=int(t_index[pos]), direction=direction))
    return tuple(events)


def write_trajectories_csv(
    trajectories: Sequence[Trajectory], destination: str | Path
) -> None:
    """Write trajectories in the ingest schema; lane ids are reconstructed
    from the event list starting from a canonical base lane."""
    base_lane = 3
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for traj in trajectories:
            lane = np.full(len(traj), base_lane, dtype=np.int64)
            for event in traj.events:
                pos = _frame_position(traj, event.onset_frame)
                step = 1 if event.direction == DIRECTION_LEFT else -1
                lane[pos:] += step
            for i in range(len(traj)):
                writer.writerow(
                    [traj.vehicle_id, int(traj.t_index[i])]
                    + [format(v, ".17g") for v in traj.features[i]]
                    + [int(lane[i])]
                )


# ---------------------------------------------------------------------------
# labeling and windowing
# ---------------------------------------------------------------------------


def _frame_position(traj: Trajectory, frame: int) -> int:
    pos = int(np.searchsorted(traj.t_index, frame))
    if pos >= len(traj) or traj.t_index[pos] != frame:
        raise UsageError(f"frame {frame} not present in vehicle {traj.vehicle_id}")
    return pos


def label_frames(traj: Trajectory) -> np.ndarray:
    """Per-frame intention labels under the 3-second rule.

    Frames in [onset - 3 s, onset) carry the event's direction; everything
    else is lane-keeping.  Windows truncated by the trajectory start are
    allowed; when two events' label windows overlap, the later event wins.
    """
    labels = np.full(len(traj), LABEL_KEEP, dtype=np.int64)
    horizon = int(round(INTENTION_HORIZON_S * traj.sample_rate_hz))
    for event in traj.events:
        onset_pos = _frame_position(traj, event.onset_frame)
        start = max(0, onset_pos - horizon)
        value = LABEL_LEFT if event.direction == DIRECTION_LEFT else LABEL_RIGHT
        labels[start:onset_pos] = value
    return labels


def downsample_factor(sample_rate_hz: float, window_rate_hz: float) -> int:
    if not window_rate_hz > 0:
        raise ConfigError(f"window_rate_hz must be > 0, got {window_rate_hz}")
    factor = int(round(sample_rate_hz / window_rate_hz))
    if factor < 1:
        raise ConfigError(
            f"downsample factor {sample_rate_hz}/{window_rate_hz} rounds below 1"
        )
    return factor


def make_windows(
    traj: Trajectory,
    labels: np.ndarray,
    window_rate_hz: float = 4.0,
    stride_frames: int = 1,
    window_steps: int = 12,
) -> list[WindowSample]:
    """Slice a trajectory into (window_steps, 5) samples.

    The stream is downsampled by the integer factor round(rate / window_rate);
    each sample takes window_steps consecutive downsampled frames starting
    every stride_frames raw frames, and is labeled by the per-frame label at
    its final raw frame.  Trajectories shorter than one window yield an
    empty list.
    """
    if stride_frames < 1:
        raise ConfigError(f"stride_frames must be >= 1, got {stride_frames}")
    labels = np.asarray(labels)
    if labels.shape != (len(traj),):
        raise ShapeError(f"labels shape {labels.shape} does not match {len(traj)} frames")
    factor = downsample_factor(traj.sample_rate_hz, window_rate_hz)
    span = (window_steps - 1) * factor
    samples = []
    for start in range(0, len(traj) - span, stride_frames):
        end = start + span
        samples.append(
            WindowSample(
                features=traj.features[start : end + 1 : factor].copy(),
                label=int(labels[end]),
                vehicle_id=traj.vehicle_id,
                end_frame=int(traj.t_index[end]),
            )
        )
    return samples


def build_windows(
    trajectories: Sequence[Trajectory], config: WindowConfig = WindowConfig()
) -> list[WindowSample]:
    """Label and window every trajectory; result ordered by (vehicle, end frame)."""
    samples = [
        s
        for traj in trajectories
        for s in make_windows(
            traj, label_frames(traj), config.window_rate_hz, config.stride_frames
        )
    ]
    samples.sort(key=lambda s: (s.vehicle_id, s.end_frame))
    return samples


# ---------------------------------------------------------------------------
# normalization and splitting
# ---------------------------------------------------------------------------


def fit_normalizer(train: Sequence[WindowSample]) -> NormStats:
    """Per-feature mean/std over all rows of the training windows."""
    if not train:
        raise UsageError("fit_normalizer needs at least one window")
    rows = np.concatenate([s.features for s in train], axis=0)
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    degenerate = std <= 1e-12 * (1.0 + np.abs(mean))
    if degenerate.any():
        name = FEATURE_NAMES[int(np.argmax(degenerate))]
        raise DegenerateFeatureError(f"feature {name} has zero variance")
    return NormStats(mean=mean, std=std)


def apply_normalizer(
    stats: NormStats, samples: Iterable[WindowSample]
) -> list[WindowSample]:
    return [replace(s, features=stats.transform(s.features)) for s in samples]


def save_norm_stats(stats: NormStats, destination: str | Path) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("feature", "mean", "std"))
        for i, name in enumerate(FEATURE_NAMES):
            writer.writerow((name, format(stats.mean[i], ".17g"), format(stats.std[i], ".17g")))


def load_norm_stats(source: str | Path) -> NormStats:
    """Read statistics written by save_norm_stats; every std must be finite and > 0."""
    values = {}
    with open(source, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != ("feature", "mean", "std"):
            raise ParseError(f"line 1: bad normalizer header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"line {line_no}: expected 3 cells, got {len(row)}")
            try:
                mean, std = float(row[1]), float(row[2])
            except ValueError:
                raise ParseError(f"line {line_no}: non-numeric cell in {row}") from None
            if not (np.isfinite(mean) and np.isfinite(std) and std > 0):
                raise ParseError(
                    f"line {line_no}: need a finite mean and a finite std > 0, got {row}"
                )
            values[row[0]] = (mean, std)
    missing = [name for name in FEATURE_NAMES if name not in values]
    if missing:
        raise ParseError(f"normalizer file missing features {missing}")
    mean = np.array([values[n][0] for n in FEATURE_NAMES])
    std = np.array([values[n][1] for n in FEATURE_NAMES])
    return NormStats(mean=mean, std=std)


def split_by_vehicle(
    samples: Sequence[WindowSample], ratio: float, seed: int
) -> DatasetSplit:
    """Seeded split keeping every vehicle entirely on one side."""
    if not 0.0 < ratio < 1.0:
        raise ConfigError(f"ratio must lie in (0, 1), got {ratio}")
    vehicles = sorted({s.vehicle_id for s in samples})
    if len(vehicles) < 2:
        raise SplitError(f"need at least 2 vehicles to split, got {len(vehicles)}")
    rng = np.random.default_rng(seed)
    order = [vehicles[i] for i in rng.permutation(len(vehicles))]
    n_train = int(round(ratio * len(vehicles)))
    n_train = min(max(n_train, 1), len(vehicles) - 1)
    train_vehicles = set(order[:n_train])
    key = lambda s: (s.vehicle_id, s.end_frame)
    train = sorted((s for s in samples if s.vehicle_id in train_vehicles), key=key)
    test = sorted((s for s in samples if s.vehicle_id not in train_vehicles), key=key)
    return DatasetSplit(train=train, test=test, seed=seed, ratio=ratio)


# ---------------------------------------------------------------------------
# array helpers and debug export
# ---------------------------------------------------------------------------


def stack_windows(samples: Sequence[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """Stack samples into (N, 12, 5) features and (N,) labels."""
    if not samples:
        raise UsageError("no windows to stack")
    xs = np.stack([s.features for s in samples])
    ys = np.array([s.label for s in samples], dtype=np.intp)
    return xs, ys


def export_windows(samples: Sequence[WindowSample], destination: str | Path) -> None:
    """Debug export: one `label,f0_0,...,f11_4` row-major line per window."""
    with open(destination, "w", encoding="utf-8") as handle:
        for s in samples:
            flat = ",".join(format(v, ".17g") for v in s.features.ravel())
            handle.write(f"{s.label},{flat}\n")
