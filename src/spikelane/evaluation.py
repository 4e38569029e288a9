"""Classification metrics, one-vs-rest ROC curves, and timeline replay."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._atomic import atomic_open, write_numeric_csv
from .dataset import (
    INTENTION_HORIZON_S,
    LABEL_KEEP,
    LABEL_NAMES,
    NormStats,
    WINDOW_STEPS,
    Trajectory,
    WindowConfig,
    WindowSet,
    _class_column,
    _float_array,
    _float_cast,
    _integer_column,
    apply_normalizer,
    build_windows,
    downsample_factor,
)
from .errors import DegenerateLabelsError, ShapeError, UsageError
from .model import Model, score


def predict(model: Model, window: np.ndarray) -> tuple[int, np.ndarray]:
    """Class index and class probabilities for one (12, 5) window.

    Ties resolve to the lowest class index, i.e. toward lane-keeping.  The
    window is scored as a stack of one, so the probabilities are bit for bit
    those evaluate and timeline_predict give the same window.
    """
    log_probs, _ = score(model, _float_cast("window", window)[None])
    probs = np.exp(log_probs[0])
    return int(probs.argmax()), probs


def confusion_and_accuracy(
    predictions: Sequence[int], labels: Sequence[int]
) -> tuple[np.ndarray, float]:
    """(3, 3) count matrix indexed [true, predicted], plus accuracy."""
    n_classes = len(LABEL_NAMES)
    predictions = _class_column("predictions", predictions)
    labels = _class_column("labels", labels)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise UsageError(
            f"predictions shape {predictions.shape} vs labels shape {labels.shape}"
        )
    if predictions.size == 0:
        raise UsageError("need at least one prediction")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    accuracy = float((predictions == labels).mean())
    return confusion, accuracy


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over every distinct score, highest first.

    points[0] is the all-negative corner (0, 0) at threshold +inf; the last
    point is (1, 1) because the lowest threshold admits every sample.
    """

    class_id: int
    thresholds: np.ndarray  # (K,)
    points: np.ndarray      # (K, 2) rows of (fpr, tpr)
    auc: float


def roc_curve(scores: np.ndarray, labels: np.ndarray, class_id: int = 1) -> RocCurve:
    """ROC curve over descending score thresholds with trapezoidal AUC.

    Tied scores collapse into a single operating point, so the curve walks
    diagonally through ties, matching the ties-count-half convention of the
    pairwise ranking formulation of AUC.  labels are binary class indices,
    0 or 1, under the class-label rule (a bool column is not one).
    """
    scores = _float_array("scores", scores, (None,))
    labels = _class_column("labels", labels, classes=2)
    if scores.shape != labels.shape:
        raise ShapeError(f"scores shape {scores.shape} vs labels shape {labels.shape}")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("both binary classes must be present")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = positive[order].astype(np.float64)
    # last index of each run of tied scores
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    last = np.concatenate([boundary, [scores.size - 1]])
    tp = np.cumsum(sorted_pos)[last]
    fp = (last + 1) - tp
    thresholds = np.concatenate([[np.inf], sorted_scores[last]])
    fpr = np.concatenate([[0.0], fp / n_neg])
    tpr = np.concatenate([[0.0], tp / n_pos])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(
        class_id=class_id,
        thresholds=thresholds,
        points=np.column_stack([fpr, tpr]),
        auc=auc,
    )


@dataclass(frozen=True)
class EvalReport:
    n_samples: int
    accuracy: float
    confusion: np.ndarray                 # (3, 3) counts, [true, predicted]
    roc_curves: tuple[RocCurve | None, ...]  # per class, None when degenerate
    macro_auc: float                      # mean over available curves, nan if none
    warnings: tuple[str, ...]
    spikes_per_window: float              # mean hidden-layer spikes per window
    synops_per_window: float              # spikes_per_window x classifier fan-out


def evaluate(model: Model, test_set: WindowSet) -> EvalReport:
    """Accuracy, confusion matrix, and one-vs-rest ROC/AUC per class.

    A class with no positives or no negatives in the test labels gets no
    curve and a warning instead; the macro AUC averages whatever remains.
    Spike telemetry comes from the same scoring pass: each hidden spike
    drives one synaptic operation per classifier output (SynOps).
    """
    if len(test_set) == 0:
        raise UsageError("test_set is empty")
    labels = test_set.labels
    log_probs, spike_counts = score(model, test_set)
    spikes_per_window = float(spike_counts.mean())
    probs = np.exp(log_probs)
    predictions = np.argmax(probs, axis=1)
    confusion, accuracy = confusion_and_accuracy(predictions, labels)

    curves: list[RocCurve | None] = []
    warnings: list[str] = []
    for k, name in enumerate(LABEL_NAMES):
        binary = (labels == k).astype(np.int64)
        if binary.min() == binary.max():
            word = "absent from" if binary.max() == 0 else "the only class in"
            warnings.append(f"class {name} is {word} the test labels; ROC unavailable")
            curves.append(None)
            continue
        curves.append(roc_curve(probs[:, k], binary, class_id=k))
    available = [c.auc for c in curves if c is not None]
    macro = float(np.mean(available)) if available else float("nan")
    return EvalReport(
        n_samples=len(test_set),
        accuracy=accuracy,
        confusion=confusion,
        roc_curves=tuple(curves),
        macro_auc=macro,
        warnings=tuple(warnings),
        spikes_per_window=spikes_per_window,
        synops_per_window=spikes_per_window * model.classes,
    )


# ---------------------------------------------------------------------------
# timeline replay
# ---------------------------------------------------------------------------


DEBOUNCE_STEPS = 3  # consecutive identical non-keep predictions that make a detection


def detect_runs(predictions: Sequence[int]) -> list[int]:
    """Start indices of runs of >= DEBOUNCE_STEPS consecutive identical non-keep values.

    Shorter blips and anything predicting keep never count.  Anything but a
    1-D column of class indices, nan included, raises UsageError.
    """
    values = _class_column("predictions", predictions)
    if values.ndim != 1:
        raise UsageError(f"predictions must be 1-D, got shape {values.shape}")
    starts = np.flatnonzero(np.diff(values, prepend=-1))
    lengths = np.diff(starts, append=len(values))
    return starts[(values[starts] != LABEL_KEEP) & (lengths >= DEBOUNCE_STEPS)].tolist()


@dataclass(frozen=True)
class TimelineEntry:
    end_frame: int
    predicted: int
    probs: np.ndarray  # (3,)


@dataclass(frozen=True)
class TimelineReport:
    """One vehicle's replay: score's arrays, one row per window, and the
    detections made from them."""

    vehicle_id: str
    end_frames: np.ndarray             # (N,) int64, each window's last frame
    probs: np.ndarray                  # (N, 3) class probabilities
    detections: tuple[int, ...]        # end frames starting debounced non-keep runs
    onsets: tuple[int, ...]            # ground-truth lane-change onset frames
    false_detections: tuple[int, ...]  # detections with no onset within 3 s after

    def __post_init__(self):
        end_frames = _integer_column("timeline end_frames", self.end_frames, np.int64, UsageError)
        if end_frames.ndim != 1:
            raise ShapeError(f"timeline end_frames shape {end_frames.shape}, expected (n,)")
        probs = _float_array(f"timeline end_frames shape {end_frames.shape} and probs",
                             self.probs, (len(end_frames), len(LABEL_NAMES)))
        object.__setattr__(self, "end_frames", end_frames)
        object.__setattr__(self, "probs", probs)

    @property
    def predicted(self) -> np.ndarray:
        """(N,) class indices; ties resolve to the lowest, toward keep."""
        return np.argmax(self.probs, axis=1)

    @property
    def entries(self) -> tuple[TimelineEntry, ...]:
        """The rows as TimelineEntry objects, built on each read."""
        return tuple(map(TimelineEntry, self.end_frames.tolist(), self.predicted.tolist(),
                         self.probs))


def timeline_predict(
    model: Model,
    traj: Trajectory,
    normalizer: NormStats,
    window_rate_hz: float = 4.0,
) -> TimelineReport:
    """Slide one window per downsampled step along a trajectory: the windows
    build_windows cuts at a stride of one downsampled step, normalized by
    apply_normalizer.

    A detection is the start of a run of DEBOUNCE_STEPS or more consecutive
    identical non-keep predictions.  A detection is counted false when no
    ground-truth onset follows it within the 3-second intention horizon.
    """
    factor = downsample_factor(traj.sample_rate_hz, window_rate_hz)
    config = WindowConfig(window_rate_hz, stride_frames=factor)
    windows = apply_normalizer(normalizer, build_windows([traj], config))
    if len(windows) == 0:
        raise UsageError(
            f"trajectory {traj.vehicle_id} has {len(traj)} frames, "
            f"needs {(WINDOW_STEPS - 1) * factor + 1}"
        )
    log_probs, _ = score(model, windows)
    probs = np.exp(log_probs)
    detections = windows.end_frames[detect_runs(np.argmax(probs, axis=1))].tolist()

    horizon = int(round(INTENTION_HORIZON_S * traj.sample_rate_hz))
    onsets = tuple(e.onset_frame for e in traj.events)
    false_detections = tuple(
        d for d in detections if not any(d <= o <= d + horizon for o in onsets)
    )
    return TimelineReport(
        vehicle_id=traj.vehicle_id,
        end_frames=windows.end_frames,
        probs=probs,
        detections=tuple(detections),
        onsets=onsets,
        false_detections=false_detections,
    )


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------


def write_eval_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write eval_report.txt plus one roc_class<k>.csv per available curve."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    text = out_dir / "eval_report.txt"
    with atomic_open(text, "w", encoding="utf-8") as handle:
        handle.write(f"samples: {report.n_samples}\n")
        handle.write(f"accuracy: {report.accuracy:.6f}\n")
        handle.write(f"macro_auc: {report.macro_auc:.6f}\n")
        handle.write("confusion (rows true, columns predicted, order "
                     + "/".join(LABEL_NAMES) + "):\n")
        for k, row in enumerate(report.confusion):
            handle.write(f"  {LABEL_NAMES[k]:>5}: " + " ".join(str(int(c)) for c in row) + "\n")
        for k, curve in enumerate(report.roc_curves):
            if curve is None:
                handle.write(f"auc_{LABEL_NAMES[k]}: unavailable\n")
            else:
                handle.write(f"auc_{LABEL_NAMES[k]}: {curve.auc:.6f}\n")
        for warning in report.warnings:
            handle.write(f"warning: {warning}\n")
        handle.write(f"spikes_per_window: {report.spikes_per_window:.6f}\n")
        handle.write(f"synops_per_window: {report.synops_per_window:.6f}\n")
    paths.append(text)
    for k, curve in enumerate(report.roc_curves):
        if curve is None:
            continue
        path = out_dir / f"roc_class{k}.csv"
        fpr, tpr = curve.points.T
        write_numeric_csv(
            path, ("threshold", "fpr", "tpr"), "%.9g,%.9g,%.9g",
            zip(curve.thresholds.tolist(), fpr.tolist(), tpr.tolist()),
        )
        paths.append(path)
    return paths


def write_timeline_csv(report: TimelineReport, destination: str | Path) -> None:
    write_numeric_csv(
        destination, ("end_frame", "predicted", "p_keep", "p_left", "p_right"),
        "%d,%d,%.9g,%.9g,%.9g",
        zip(report.end_frames.tolist(), report.predicted.tolist(), *report.probs.T.tolist()),
    )
