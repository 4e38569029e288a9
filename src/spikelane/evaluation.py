"""Classification metrics, one-vs-rest ROC curves, and timeline replay."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (
    INTENTION_HORIZON_S,
    LABEL_KEEP,
    LABEL_NAMES,
    NormStats,
    Trajectory,
    WindowConfig,
    WindowSample,
    downsample_factor,
    stack_windows,
)
from .errors import DegenerateLabelsError, ShapeError, UsageError
from .model import Model, forward, forward_batch


def predict(model: Model, window) -> tuple[int, np.ndarray]:
    """Class index and class probabilities for one window.

    Accepts a WindowSample or a bare (input_steps, input_dim) array.  Ties
    resolve to the lowest class index, i.e. toward lane-keeping.
    """
    features = window.features if isinstance(window, WindowSample) else window
    cache = forward(model, features)
    probs = np.exp(cache.log_probs)
    return int(np.argmax(probs)), probs


def confusion_and_accuracy(
    predictions: Sequence[int], labels: Sequence[int], n_classes: int = 3
) -> tuple[np.ndarray, float]:
    """(n_classes, n_classes) count matrix indexed [true, predicted], plus accuracy."""
    predictions = np.asarray(predictions, dtype=np.intp)
    labels = np.asarray(labels, dtype=np.intp)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise UsageError(
            f"predictions shape {predictions.shape} vs labels shape {labels.shape}"
        )
    if predictions.size == 0:
        raise UsageError("need at least one prediction")
    for name, arr in (("prediction", predictions), ("label", labels)):
        if arr.min() < 0 or arr.max() >= n_classes:
            raise UsageError(f"{name} outside [0, {n_classes})")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    accuracy = float((predictions == labels).mean())
    return confusion, accuracy


def binary_rates(
    scores: np.ndarray, labels: np.ndarray, threshold: float
) -> tuple[float, float]:
    """(false positive rate, true positive rate) at `score >= threshold`."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ShapeError(f"scores shape {scores.shape} vs labels shape {labels.shape}")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("both binary classes must be present")
    predicted = scores >= threshold
    tp = int((predicted & positive).sum())
    fp = int((predicted & ~positive).sum())
    return fp / n_neg, tp / n_pos


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
    pairwise ranking formulation of AUC.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
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


def evaluate(model: Model, test_set: Sequence[WindowSample]) -> EvalReport:
    """Accuracy, confusion matrix, and one-vs-rest ROC/AUC per class.

    A class with no positives or no negatives in the test labels gets no
    curve and a warning instead; the macro AUC averages whatever remains.
    """
    if not test_set:
        raise UsageError("test_set is empty")
    windows, labels = stack_windows(test_set)
    cache = forward_batch(model, windows)
    probs = np.exp(cache.log_probs)
    predictions = np.argmax(probs, axis=1)
    confusion, accuracy = confusion_and_accuracy(predictions, labels, model.classes)

    curves: list[RocCurve | None] = []
    warnings: list[str] = []
    for k in range(model.classes):
        binary = (labels == k).astype(np.int64)
        if binary.min() == binary.max():
            word = "absent from" if binary.max() == 0 else "the only class in"
            warnings.append(
                f"class {LABEL_NAMES[k] if k < len(LABEL_NAMES) else k} is {word} "
                f"the test labels; ROC unavailable"
            )
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
    )


# ---------------------------------------------------------------------------
# timeline replay
# ---------------------------------------------------------------------------


def detect_runs(
    predictions: Sequence[int], debounce: int = 3, keep: int = LABEL_KEEP
) -> list[int]:
    """Start indices of runs of >= debounce consecutive identical non-keep values.

    Shorter blips and anything predicting keep never count.
    """
    if debounce < 1:
        raise UsageError(f"debounce must be >= 1, got {debounce}")
    starts = []
    i = 0
    n = len(predictions)
    while i < n:
        j = i
        while j < n and predictions[j] == predictions[i]:
            j += 1
        if predictions[i] != keep and j - i >= debounce:
            starts.append(i)
        i = j
    return starts


@dataclass(frozen=True)
class TimelineEntry:
    end_frame: int
    predicted: int
    probs: np.ndarray  # (3,)


@dataclass(frozen=True)
class TimelineReport:
    vehicle_id: str
    entries: tuple[TimelineEntry, ...]
    detections: tuple[int, ...]        # end frames starting debounced non-keep runs
    onsets: tuple[int, ...]            # ground-truth lane-change onset frames
    false_detections: tuple[int, ...]  # detections with no onset within 3 s after

    @property
    def debounce_runs(self) -> int:
        return len(self.detections)


def timeline_predict(
    model: Model,
    traj: Trajectory,
    normalizer: NormStats,
    config: WindowConfig = WindowConfig(),
    debounce: int = 3,
) -> TimelineReport:
    """Slide one window per downsampled step along a trajectory.

    A detection is the start of a run of `debounce` or more consecutive
    identical non-keep predictions.  A detection is counted false when no
    ground-truth onset follows it within the 3-second intention horizon.
    """
    factor = downsample_factor(traj.sample_rate_hz, config.window_rate_hz)
    span = (model.input_steps - 1) * factor
    if len(traj) < span + 1:
        raise UsageError(
            f"trajectory {traj.vehicle_id} has {len(traj)} frames, needs {span + 1}"
        )
    starts = range(0, len(traj) - span, factor)
    stack = np.stack(
        [normalizer.transform(traj.features[s : s + span + 1 : factor]) for s in starts]
    )
    cache = forward_batch(model, stack)
    probs = np.exp(cache.log_probs)
    predicted = np.argmax(probs, axis=1)
    end_frames = [int(traj.t_index[s + span]) for s in starts]
    entries = tuple(
        TimelineEntry(end_frame=end_frames[i], predicted=int(predicted[i]), probs=probs[i])
        for i in range(len(end_frames))
    )

    detections = [
        entries[i].end_frame for i in detect_runs(predicted, debounce)
    ]

    horizon = int(round(INTENTION_HORIZON_S * traj.sample_rate_hz))
    onsets = tuple(e.onset_frame for e in traj.events)
    false_detections = tuple(
        d for d in detections if not any(d <= o <= d + horizon for o in onsets)
    )
    return TimelineReport(
        vehicle_id=traj.vehicle_id,
        entries=entries,
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
    with open(text, "w", encoding="utf-8") as handle:
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
    paths.append(text)
    for k, curve in enumerate(report.roc_curves):
        if curve is None:
            continue
        path = out_dir / f"roc_class{k}.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("threshold", "fpr", "tpr"))
            for threshold, (fpr, tpr) in zip(curve.thresholds, curve.points):
                writer.writerow(
                    (format(threshold, ".9g"), format(fpr, ".9g"), format(tpr, ".9g"))
                )
        paths.append(path)
    return paths


def write_timeline_csv(report: TimelineReport, destination: str | Path) -> None:
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("end_frame", "predicted", "p_keep", "p_left", "p_right"))
        for entry in report.entries:
            writer.writerow(
                (entry.end_frame, entry.predicted)
                + tuple(format(p, ".9g") for p in entry.probs)
            )
