"""Per-layer spans, counts and memory for the traced benchmark run.

The tracer wraps the program's public functions at the places where the
calling module looks them up (for example `spikelane.training.forward_batch`,
which `train` calls, and `spikelane.evaluation.forward_batch`, which
`evaluate` calls).  Each call records a span: name, phase, start, end and
parent.  A layer's self time is its span time minus the time of the spans it
caused.  Hooks are installed only for the traced phases and removed after,
so untraced rounds run the program unmodified.

With memory=True each span also records, through tracemalloc, its peak
allocation above the level at entry and what it still held at exit.
tracemalloc slows allocation-heavy code several-fold, so memory figures come
from a separate pass and never from the timed one.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

MB = 1024.0 * 1024.0


def _count_rows(span, args, kwargs, result):
    span.counts["rows"] = sum(len(t.t_index) for t in result)


def _count_windows(span, args, kwargs, result):
    span.counts["windows"] = len(result)


def _count_spikes(span, args, kwargs, result):
    spikes = getattr(result, "spikes", None)
    log_probs = getattr(result, "log_probs", None)
    if spikes is None or log_probs is None:
        return
    windows = spikes.shape[0] if spikes.ndim == 3 else 1
    span.counts["spikes"] = float(spikes.sum())
    span.counts["slots"] = spikes.size
    span.counts["scored"] = windows
    span.counts["fan_out"] = log_probs.shape[-1]


def _count_file_bytes(span, args, kwargs, result):
    path = kwargs.get("destination", kwargs.get("source", args[-1] if args else None))
    if isinstance(path, (str, Path)) and Path(path).is_file():
        span.counts["bytes"] = Path(path).stat().st_size


# (module, attribute, span name, counter).  A function imported into several
# modules is hooked in each module that calls it.
HOOKS = (
    ("spikelane.dataset", "parse_trajectories", "dataset.parse", _count_rows),
    ("spikelane.dataset", "build_windows", "dataset.build_windows", _count_windows),
    ("spikelane.dataset", "split_by_vehicle", "dataset.split", None),
    ("spikelane.dataset", "fit_normalizer", "dataset.normalize", None),
    ("spikelane.dataset", "apply_normalizer", "dataset.normalize", None),
    ("spikelane.dataset.NormStats", "transform", "dataset.normalize", None),
    ("spikelane.training", "stack_windows", "dataset.stack", None),
    ("spikelane.evaluation", "stack_windows", "dataset.stack", None),
    ("spikelane.training", "forward_batch", "model.forward_batch", _count_spikes),
    ("spikelane.evaluation", "forward_batch", "model.forward_batch", _count_spikes),
    ("spikelane.training", "backward_batch", "model.backward_batch", None),
    ("spikelane.evaluation", "forward", "model.forward", _count_spikes),
    ("spikelane.training", "optimizer_step", "training.optimizer_step", None),
    ("spikelane.training", "replace_params", "training.replace_params", None),
    ("spikelane.training", "train", "training.train", None),
    ("spikelane.evaluation", "evaluate", "evaluation.evaluate", None),
    ("spikelane.evaluation", "roc_curve", "evaluation.roc_curve", None),
    ("spikelane.evaluation", "write_eval_report", "evaluation.write_eval_report", None),
    ("spikelane.evaluation", "predict", "evaluation.predict", None),
    ("spikelane.evaluation", "timeline_predict", "evaluation.timeline_predict", None),
    ("spikelane.checkpoint", "save_model", "checkpoint.save_model", _count_file_bytes),
    ("spikelane.checkpoint", "load_model", "checkpoint.load_model", _count_file_bytes),
    ("spikelane.cli", "save_model", "checkpoint.save_model", _count_file_bytes),
    ("spikelane.cli", "load_model", "checkpoint.load_model", _count_file_bytes),
    ("spikelane.cli", "main", "cli.main", None),
)


class Span:
    __slots__ = ("name", "phase", "instance", "parent", "start", "end", "child_time",
                 "counts", "base", "peak_abs", "peak", "retained")

    def __init__(self, name, phase, instance, parent):
        self.name = name
        self.phase = phase
        self.instance = instance
        self.parent = parent
        self.child_time = 0.0
        self.counts = {}
        self.peak = self.retained = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _resolve(path: str):
    """Import `a.b.C` as module a.b, attribute C, tolerating a missing name."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    """Collects spans while hooks are installed and a root phase is open."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.scale: dict[int, float] = {}  # host normalization per root instance
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._phase = None
        self._instance = 0
        self._thread = threading.get_ident()

    @contextmanager
    def installed(self):
        """Wrap every hook target that exists; restore the originals after."""
        saved = []
        self.absent = []
        for owner_path, attr, name, counter in HOOKS:
            owner = _resolve(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{owner_path}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def phase(self, phase: str):
        """One root instance: a set-up, a round or the check pass."""
        self._phase = phase
        self._instance += 1
        try:
            yield self._instance
        finally:
            self._phase = None

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if (
                tracer._phase is None
                or threading.get_ident() != tracer._thread
                or (stack and stack[-1].name == name)
            ):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(name, tracer._phase, tracer._instance, parent)
            if tracer.memory:
                tracer._memory_enter(span, parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if tracer.memory:
                    tracer._memory_exit(span, parent)
                tracer.spans.append(span)
            if counter is not None:
                tic = time.perf_counter()
                counter(span, args, kwargs, result)
                if parent is not None:  # counting is tracer work, not the parent's
                    parent.child_time += time.perf_counter() - tic
            if parent is not None:
                parent.child_time += span.duration
            return result

        return wrapper

    @staticmethod
    def _memory_enter(span, parent):
        current, peak = tracemalloc.get_traced_memory()
        if parent is not None:
            parent.peak_abs = max(parent.peak_abs, peak)
        tracemalloc.reset_peak()
        span.base = span.peak_abs = current

    @staticmethod
    def _memory_exit(span, parent):
        current, peak = tracemalloc.get_traced_memory()
        span.peak_abs = max(span.peak_abs, peak)
        span.peak = span.peak_abs - span.base
        span.retained = current - span.base
        if parent is not None:
            parent.peak_abs = max(parent.peak_abs, span.peak_abs)
        tracemalloc.reset_peak()


def memory_spans(workload) -> list[Span]:
    """Spans of one set-up and one round under tracemalloc."""
    memory = Tracer(memory=True)
    with memory.installed():
        with memory.phase("setup"):
            state = workload.setup()
        with memory.phase("round"):
            workload.round(state)
    return memory.spans


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

PHASE_ORDER = ("round", "setup", "check")

# name -> (unit, better); the order is the order of the traced output
PER_LAYER = {
    "dataset.parse_s": ("s", "lower"),
    "dataset.rows_per_s": ("rows/s", "higher"),
    "dataset.build_windows_s": ("s", "lower"),
    "dataset.split_s": ("s", "lower"),
    "dataset.normalize_s": ("s", "lower"),
    "dataset.stack_s": ("s", "lower"),
    "dataset.windows": ("count", "higher"),
    "dataset.window_set_mb": ("MB", "lower"),
    "dataset.bytes_per_window": ("B", "lower"),
    "model.forward_batch_s": ("s", "lower"),
    "model.forward_batch_calls": ("count", "lower"),
    "model.backward_batch_s": ("s", "lower"),
    "model.backward_batch_calls": ("count", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.forward_batch_peak_mb": ("MB", "lower"),
    "model.spike_rate": ("ratio", "lower"),
    "model.synops_per_window": ("count", "lower"),
    "training.optimizer_step_s": ("s", "lower"),
    "training.optimizer_step_calls": ("count", "lower"),
    "training.replace_params_s": ("s", "lower"),
    "training.loop_self_s": ("s", "lower"),
    "evaluation.evaluate_s": ("s", "lower"),
    "evaluation.evaluate_peak_mb": ("MB", "lower"),
    "evaluation.roc_curve_s": ("s", "lower"),
    "evaluation.write_eval_report_s": ("s", "lower"),
    "evaluation.predict_self_s": ("s", "lower"),
    "evaluation.timeline_predict_s": ("s", "lower"),
    "checkpoint.load_model_s": ("s", "lower"),
    "checkpoint.save_model_s": ("s", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "process.import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _per_instance(spans, name, value, combine=sum):
    """{(phase, instance): combined value} over spans called `name`."""
    grouped: dict[tuple[str, int], list] = {}
    for span in spans:
        if span.name == name:
            grouped.setdefault((span.phase, span.instance), []).append(value(span))
    return {key: combine(values) for key, values in grouped.items()}


def _phase_median(spans, name, value, combine=sum):
    """Median over the instances of the first phase, in PHASE_ORDER, that
    has spans called `name`; every instance of that phase counts, with 0
    where the span did not occur.  None when no phase has it."""
    per = _per_instance(spans, name, value, combine)
    instances: dict[str, set] = {}
    for span in spans:
        instances.setdefault(span.phase, set()).add(span.instance)
    for phase in PHASE_ORDER:
        if any(p == phase for p, _ in per):
            return statistics.median(per.get((phase, i), 0) for i in instances[phase])
    return None


def _ratio_median(spans, names, numerator, denominator):
    """Median over instances of sum(numerator) / sum(denominator), pooled
    over spans with any of `names`, in the first phase that has them."""
    per: dict[tuple[str, int], list[float]] = {}
    for span in spans:
        if span.name in names and denominator(span):
            acc = per.setdefault((span.phase, span.instance), [0.0, 0.0])
            acc[0] += numerator(span)
            acc[1] += denominator(span)
    for phase in PHASE_ORDER:
        ratios = [n / d for (p, _), (n, d) in per.items() if p == phase]
        if ratios:
            return statistics.median(ratios)
    return None


def layer_metrics(tracer, memory_spans, import_s, overhead_s) -> dict[str, float | None]:
    """Every PER_LAYER metric; None where no span of that layer occurred.
    Times are host-normalized with the factor of their root instance."""
    spans = tracer.spans
    duration = lambda s: s.duration * tracer.scale.get(s.instance, 1.0)
    self_time = lambda s: s.self_time * tracer.scale.get(s.instance, 1.0)
    one = lambda s: 1
    count = lambda key: (lambda s: s.counts.get(key, 0))
    forwards = ("model.forward_batch", "model.forward")

    window_set = _phase_median(memory_spans, "dataset.build_windows", lambda s: s.retained)
    windows = _phase_median(spans, "dataset.build_windows", count("windows"))
    out = {
        "dataset.parse_s": _phase_median(spans, "dataset.parse", duration),
        "dataset.rows_per_s": _ratio_median(spans, ("dataset.parse",), count("rows"), duration),
        "dataset.build_windows_s": _phase_median(spans, "dataset.build_windows", duration),
        "dataset.split_s": _phase_median(spans, "dataset.split", duration),
        "dataset.normalize_s": _phase_median(spans, "dataset.normalize", duration),
        "dataset.stack_s": _phase_median(spans, "dataset.stack", duration),
        "dataset.windows": windows,
        "dataset.window_set_mb": None if window_set is None else window_set / MB,
        "dataset.bytes_per_window": (
            window_set / windows if window_set is not None and windows else None
        ),
        "model.forward_batch_s": _phase_median(spans, "model.forward_batch", duration),
        "model.forward_batch_calls": _phase_median(spans, "model.forward_batch", one),
        "model.backward_batch_s": _phase_median(spans, "model.backward_batch", duration),
        "model.backward_batch_calls": _phase_median(spans, "model.backward_batch", one),
        "model.forward_s": _phase_median(spans, "model.forward", duration),
        "model.forward_calls": _phase_median(spans, "model.forward", one),
        "model.forward_batch_peak_mb": _mb(
            _phase_median(memory_spans, "model.forward_batch", lambda s: s.peak, max)
        ),
        "model.spike_rate": _ratio_median(spans, forwards, count("spikes"), count("slots")),
        "model.synops_per_window": _ratio_median(
            spans, forwards, lambda s: s.counts.get("spikes", 0) * s.counts.get("fan_out", 0),
            count("scored"),
        ),
        "training.optimizer_step_s": _phase_median(spans, "training.optimizer_step", duration),
        "training.optimizer_step_calls": _phase_median(spans, "training.optimizer_step", one),
        "training.replace_params_s": _phase_median(spans, "training.replace_params", duration),
        "training.loop_self_s": _phase_median(spans, "training.train", self_time),
        "evaluation.evaluate_s": _phase_median(spans, "evaluation.evaluate", duration),
        "evaluation.evaluate_peak_mb": _mb(
            _phase_median(memory_spans, "evaluation.evaluate", lambda s: s.peak, max)
        ),
        "evaluation.roc_curve_s": _phase_median(spans, "evaluation.roc_curve", duration),
        "evaluation.write_eval_report_s": _phase_median(
            spans, "evaluation.write_eval_report", duration
        ),
        "evaluation.predict_self_s": _phase_median(spans, "evaluation.predict", self_time),
        "evaluation.timeline_predict_s": _phase_median(
            spans, "evaluation.timeline_predict", duration
        ),
        "checkpoint.load_model_s": _phase_median(spans, "checkpoint.load_model", duration),
        "checkpoint.save_model_s": _phase_median(spans, "checkpoint.save_model", duration),
        "checkpoint.bytes": _phase_median(
            spans, "checkpoint.save_model", count("bytes"), max
        ) or _phase_median(spans, "checkpoint.load_model", count("bytes"), max),
        "cli.main_s": _phase_median(spans, "cli.main", duration),
        "cli.self_s": _phase_median(spans, "cli.main", self_time),
        "process.import_s": import_s,
        "trace.overhead_s": overhead_s,
    }
    return out


def _mb(value):
    return None if value is None else value / MB
