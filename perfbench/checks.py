"""Independent output checks for the benchmark.

Everything here is computed from the synthesized trajectories and from the
files the program wrote, without calling the program's own windowing,
labeling, AUC or report code.  A check returns nothing when it holds and
raises CheckFailed with a message when it does not.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 25.0
WINDOW_RATE_HZ = 4.0
WINDOW_STEPS = 12
HORIZON_S = 3.0
CSV_HEADER = "vehicle_id,frame,delta_y,v_x,a_x,v_y,a_y,lane_id"
LABELS = {"left": 1, "right": 2}
N_CLASSES = 3


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def write_fleet_csv(trajectories, path: Path) -> None:
    """Write synthesized trajectories in the ingest schema.

    Floats are written with repr(), the shortest string that parses back to
    the same double, so an exact reader returns the synthesized values bit
    for bit.  The lane id steps up at each left change and down at each
    right one, so it flips exactly at every onset.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        for traj in trajectories:
            lanes = np.full(len(traj.t_index), 3, dtype=np.int64)
            for event in traj.events:
                lanes[event.onset_frame:] += 1 if event.direction == "left" else -1
            for frame, row, lane in zip(
                traj.t_index.tolist(), traj.features.tolist(), lanes.tolist()
            ):
                handle.write(f"{traj.vehicle_id},{frame},{','.join(map(repr, row))},{lane}\n")


def check_parsed(parsed, synthesized) -> None:
    """The program's parse of the CSV equals the synthesized trajectories."""
    require(
        [t.vehicle_id for t in parsed] == [t.vehicle_id for t in synthesized],
        "parsed vehicle ids differ from the synthesized ones",
    )
    for got, want in zip(parsed, synthesized):
        require(np.array_equal(got.t_index, want.t_index), f"{want.vehicle_id}: frames differ")
        require(
            np.array_equal(got.features, want.features),
            f"{want.vehicle_id}: features differ from the synthesized values",
        )
        got_events = [(e.onset_frame, e.direction) for e in got.events]
        want_events = [(e.onset_frame, e.direction) for e in want.events]
        require(got_events == want_events, f"{want.vehicle_id}: events {got_events} != {want_events}")


# ---------------------------------------------------------------------------
# windows and labels
# ---------------------------------------------------------------------------


def window_span() -> int:
    """Raw frames between a window's first and last step."""
    factor = round(SAMPLE_RATE_HZ / WINDOW_RATE_HZ)
    return (WINDOW_STEPS - 1) * factor


def window_count(n_frames: int, stride: int) -> int:
    """Closed-form number of windows starting every `stride` raw frames."""
    return max(0, (n_frames - window_span() - 1) // stride + 1)


def frame_labels(n_frames: int, events) -> np.ndarray:
    """The 3-second rule: frames in [onset - 3 s, onset) carry the event's
    direction; a later event overwrites an earlier one where they overlap."""
    horizon = round(HORIZON_S * SAMPLE_RATE_HZ)
    labels = np.zeros(n_frames, dtype=np.int64)
    for event in events:
        labels[max(0, event.onset_frame - horizon) : event.onset_frame] = LABELS[event.direction]
    return labels


def window_labels(traj, stride: int) -> np.ndarray:
    """Label of every window of one synthesized trajectory, in order."""
    ends = window_span() + stride * np.arange(window_count(len(traj.t_index), stride))
    return frame_labels(len(traj.t_index), traj.events)[ends]


def fleet_labels(trajectories, stride: int) -> np.ndarray:
    return np.concatenate([window_labels(t, stride) for t in trajectories])


def fleet_windows(trajectories, stride: int, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Normalized (N, 12, 5) windows of every trajectory, in order."""
    factor = round(SAMPLE_RATE_HZ / WINDOW_RATE_HZ)
    steps = np.arange(WINDOW_STEPS) * factor
    out = []
    for traj in trajectories:
        starts = stride * np.arange(window_count(len(traj.t_index), stride))
        out.append((traj.features[starts[:, None] + steps] - mean) / std)
    return np.concatenate(out)


def check_windows(windows, trajectories, stride: int) -> None:
    """Window objects from the program: count, order, end frame and label."""
    by_vehicle: dict[str, list] = {}
    for w in windows:
        by_vehicle.setdefault(w.vehicle_id, []).append(w)
    for traj in trajectories:
        got = by_vehicle.pop(traj.vehicle_id, [])
        expected = window_count(len(traj.t_index), stride)
        require(len(got) == expected, f"{traj.vehicle_id}: {len(got)} windows, expected {expected}")
        ends = window_span() + stride * np.arange(expected)
        require(
            [w.end_frame for w in got] == ends.tolist(),
            f"{traj.vehicle_id}: window end frames out of order",
        )
        require(
            [w.label for w in got] == window_labels(traj, stride).tolist(),
            f"{traj.vehicle_id}: window labels break the 3-second rule",
        )
    require(not by_vehicle, f"windows for unknown vehicles {sorted(by_vehicle)}")


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing the mean of their ranks."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1]]))
    ends = np.concatenate([starts[1:], [ordered.size]])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def mann_whitney_auc(scores: np.ndarray, positive: np.ndarray) -> float:
    """P(score of a positive > score of a negative), ties counting half."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    rank_sum = midranks(np.asarray(scores, dtype=np.float64))[positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def class_aucs(probs: np.ndarray, labels: np.ndarray) -> list[float]:
    return [mann_whitney_auc(probs[:, k], labels == k) for k in range(N_CLASSES)]


def check_close(name: str, got: float, want: float, tol: float) -> None:
    require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{name} = {got!r}, independent value {want!r} (tolerance {tol:g})",
    )


def check_quality(accuracy: float, macro_auc: float, labels: np.ndarray) -> None:
    """Floors well above what a constant guess of the majority class scores."""
    majority = np.bincount(labels, minlength=N_CLASSES).max() / labels.size
    floor = max(0.80, majority + 0.15)
    require(accuracy >= floor, f"accuracy {accuracy:.4f} below floor {floor:.4f}")
    require(macro_auc >= 0.93, f"macro AUC {macro_auc:.4f} below floor 0.93")


def check_loss_falls(losses) -> None:
    require(len(losses) >= 2 and losses[-1] < losses[0], f"loss did not fall: {losses}")


# ---------------------------------------------------------------------------
# files written by the program
# ---------------------------------------------------------------------------


def read_norm_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return (
        np.array([float(r[1]) for r in rows]),
        np.array([float(r[2]) for r in rows]),
    )


def read_train_log(path: Path) -> list[float]:
    with open(path, encoding="utf-8", newline="") as handle:
        return [float(r["mean_loss"]) for r in csv.DictReader(handle)]


def read_eval_report(path: Path) -> dict:
    """Sample count, accuracy, macro AUC and confusion rows of eval_report.txt."""
    report = {"confusion": []}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.strip().partition(":")
        if key in ("samples",):
            report[key] = int(value)
        elif key in ("accuracy", "macro_auc"):
            report[key] = float(value)
        elif key in ("keep", "left", "right"):
            report["confusion"].append([int(c) for c in value.split()])
    report["confusion"] = np.array(report["confusion"], dtype=np.int64)
    return report


def check_roc_csv(path: Path) -> float:
    """A ROC CSV runs monotonically from (0,0) to (1,1); returns its area."""
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    fpr = np.array([float(r["fpr"]) for r in rows])
    tpr = np.array([float(r["tpr"]) for r in rows])
    require(len(rows) >= 2, f"{path.name}: fewer than two points")
    require((fpr[0], tpr[0]) == (0.0, 0.0), f"{path.name}: does not start at (0,0)")
    require((fpr[-1], tpr[-1]) == (1.0, 1.0), f"{path.name}: does not end at (1,1)")
    require(
        bool(np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)),
        f"{path.name}: not monotone",
    )
    return float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
