"""Efficiency reporting: parameter, storage, memory, and epoch-time figures."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from ._atomic import atomic_open, write_numeric_csv
from .model import Model, param_count
from .checkpoint import model_to_bytes
from .training import EpochLog

# float64 parameters; adam keeps two extra accumulators per parameter
_BYTES_PER_PARAM = 8


@dataclass(frozen=True)
class BenchReport:
    param_count: int
    checkpoint_bytes: int
    train_memory_bytes: int   # parameters plus optimizer accumulators
    epochs_run: int
    mean_epoch_time_s: float
    min_epoch_time_s: float
    max_epoch_time_s: float
    final_accuracy: float
    macro_auc: float


def make_bench_report(
    model: Model,
    logs: Sequence[EpochLog],
    final_accuracy: float,
    macro_auc: float,
    optimizer: str = "adam",
) -> BenchReport:
    times = [log.wall_time_s for log in logs]
    return BenchReport(
        param_count=param_count(model),
        checkpoint_bytes=len(model_to_bytes(model)),
        train_memory_bytes=param_count(model) * _BYTES_PER_PARAM * (3 if optimizer == "adam" else 1),
        epochs_run=len(logs),
        mean_epoch_time_s=sum(times) / len(times) if times else 0.0,
        min_epoch_time_s=min(times) if times else 0.0,
        max_epoch_time_s=max(times) if times else 0.0,
        final_accuracy=final_accuracy,
        macro_auc=macro_auc,
    )


def format_bench_report(report: BenchReport) -> str:
    lines = [f"parameters: {report.param_count}"]
    for f in fields(BenchReport)[1:]:
        value = getattr(report, f.name)
        lines.append(f"{f.name}: {value}" if isinstance(value, int) else f"{f.name}: {value:.6f}")
    return "\n".join(lines) + "\n"


def write_bench_report(report: BenchReport, out_dir: str | Path) -> list[Path]:
    """Write bench_report.txt and a one-row bench_report.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = out_dir / "bench_report.txt"
    with atomic_open(text, "w", encoding="utf-8") as handle:
        handle.write(format_bench_report(report))
    table = out_dir / "bench_report.csv"
    names = [f.name for f in fields(BenchReport)]
    values = tuple(getattr(report, name) for name in names)
    row_format = ",".join("%d" if isinstance(v, int) else "%.9g" for v in values)
    write_numeric_csv(table, names, row_format, [values])
    return [text, table]
