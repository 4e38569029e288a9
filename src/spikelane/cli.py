"""Batch command-line interface.

Five subcommands cover the pipeline end to end: `synth` writes a synthetic
trajectory CSV, `train` fits a model and saves its artifacts, `eval` scores a
saved model, `predict` replays one vehicle's timeline, and `bench` reports
efficiency figures.  Exit codes: 0 on success, 2 for usage, configuration,
or input-format problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
from pathlib import Path

from . import bench as bench_mod
from . import dataset, evaluation, synth, training
from .checkpoint import load_model, save_model
from .errors import (
    CheckpointError,
    ConfigError,
    ParseError,
    SpikeLaneError,
    UsageError,
)
from .model import new_model

# OSError: an input that cannot be read or an output path that cannot be written;
# UnicodeDecodeError: a text input (trajectory CSV, normalizer, config) that is not UTF-8;
# csv.Error: a CSV the csv module rejects, e.g. a quote that opens a field past its size limit
_USAGE_ERRORS = (
    UsageError, ConfigError, ParseError, CheckpointError, OSError, UnicodeDecodeError, csv.Error,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spikelane",
        description="Spiking-network lane-change intention classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--data", required=True, help="trajectory CSV to read")
        p.add_argument("--rate-hz", type=float, default=25.0,
                       help="sample rate of the data in Hz (default 25)")

    def add_window_flags(p):
        p.add_argument("--window-rate-hz", type=float, default=4.0,
                       help="downsampled step rate inside each window (default 4)")
        p.add_argument("--stride", type=int, default=1,
                       help="window start stride in raw frames (default 1)")

    def add_split_flags(p):
        p.add_argument("--train-ratio", type=float, default=0.8,
                       help="fraction of vehicles assigned to training (default 0.8)")

    def add_train_flags(p):
        p.add_argument("--seed", type=int, default=None,
                       help="seed for split, init, and shuffling (default 0)")
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None,
                       help="learning rate")
        p.add_argument("--max-epochs", type=int, default=None)
        p.add_argument("--patience", dest="patience_epochs", metavar="PATIENCE", type=int,
                       default=None, help="epochs without improvement before stopping")
        p.add_argument("--min-loss-delta", type=float, default=None)
        p.add_argument("--optimizer", choices=training.OPTIMIZERS, default=None)
        p.add_argument("--config", default=None,
                       help="key=value config file; explicit flags override it")

    p_synth = sub.add_parser("synth", help="generate a synthetic trajectory CSV")
    p_synth.add_argument("--n", type=int, required=True, help="number of vehicles")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--rate-hz", type=float, default=25.0)
    p_synth.add_argument("--out", required=True, help="CSV path to write")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser("train", help="train a model on a trajectory CSV")
    add_data_flags(p_train)
    add_window_flags(p_train)
    add_split_flags(p_train)
    add_train_flags(p_train)
    p_train.add_argument("--out", required=True, help="directory for artifacts")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved model")
    add_data_flags(p_eval)
    add_window_flags(p_eval)
    add_split_flags(p_eval)
    p_eval.add_argument("--seed", type=int, default=0,
                        help="split seed; must match the training run")
    p_eval.add_argument("--model", required=True, help="checkpoint to load")
    p_eval.add_argument("--norm", required=True, help="normalizer stats CSV")
    p_eval.add_argument("--split", choices=("test", "train", "all"), default="test")
    p_eval.add_argument("--out", required=True, help="directory for reports")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="replay one vehicle's timeline")
    add_data_flags(p_pred)
    p_pred.add_argument("--window-rate-hz", type=float, default=4.0)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--norm", required=True)
    p_pred.add_argument("--vehicle", required=True, help="vehicle id to replay")
    p_pred.add_argument("--out", required=True, help="directory for the timeline CSV")
    p_pred.set_defaults(func=cmd_predict)

    p_bench = sub.add_parser("bench", help="train, evaluate, and report efficiency")
    add_data_flags(p_bench)
    add_window_flags(p_bench)
    add_split_flags(p_bench)
    add_train_flags(p_bench)
    p_bench.add_argument("--out", required=True, help="directory for reports")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _train_config(args) -> training.TrainConfig:
    # each TrainConfig field has one flag of the same dest; None means not given
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(training.TrainConfig)
        if getattr(args, f.name) is not None
    }
    if args.config is not None:
        return training.load_train_config(args.config, **overrides)
    return training.TrainConfig(**overrides)


def _load_windows(args) -> dataset.WindowSet:
    config = dataset.WindowConfig(
        window_rate_hz=args.window_rate_hz, stride_frames=args.stride
    )
    trajectories = dataset.parse_trajectories(args.data, args.rate_hz)
    return dataset.build_windows(trajectories, config)


def _normalized_split(args, seed: int):
    """Windows -> split -> fit on the train side -> normalize -> split again.
    Returns the stats and both normalized sides, which share one normalized
    frame table; the raw windows die with this call.  The split depends only
    on the vehicle ids and the seed, so both splits put every window on the
    same side."""
    windows = _load_windows(args)
    stats = dataset.fit_normalizer(dataset.split_by_vehicle(windows, args.train_ratio, seed).train)
    normalized = dataset.apply_normalizer(stats, windows)
    split = dataset.split_by_vehicle(normalized, args.train_ratio, seed)
    return stats, split.train, split.test


def _fit_and_train(args):
    """Shared train/bench path: normalized split -> train, then write the
    checkpoint, normalizer and log to --out."""
    config = _train_config(args)
    stats, train_set, test_set = _normalized_split(args, config.seed)
    trained, logs = training.train(new_model(seed=config.seed), train_set, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(trained, out / "model.spkl")
    dataset.save_norm_stats(stats, out / "norm.csv")
    training.write_training_log(logs, out / "train_log.csv")
    return config, trained, logs, test_set, out


def cmd_synth(args) -> int:
    trajectories = synth.synthesize_dataset(args.seed, args.n, args.rate_hz)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataset.write_trajectories_csv(trajectories, out)
    frames = sum(len(t) for t in trajectories)
    events = sum(len(t.events) for t in trajectories)
    print(f"wrote {len(trajectories)} vehicles, {frames} frames, {events} lane changes to {out}")
    return 0


def cmd_train(args) -> int:
    _, _, logs, _, out = _fit_and_train(args)
    total = sum(log.wall_time_s for log in logs)
    best = min(log.mean_loss for log in logs)
    print(f"trained {logs[-1].epoch} epochs in {total:.2f} s "
          f"(best loss {best:.6f}, final train accuracy {logs[-1].train_accuracy:.4f})")
    print(f"artifacts: {out / 'model.spkl'}, {out / 'norm.csv'}, {out / 'train_log.csv'}")
    return 0


def _eval_windows(args, stats):
    """The --split side of the windows, normalized before the split."""
    windows = dataset.apply_normalizer(stats, _load_windows(args))
    if args.split == "all":
        return windows
    split = dataset.split_by_vehicle(windows, args.train_ratio, args.seed)
    return split.train if args.split == "train" else split.test


def cmd_eval(args) -> int:
    model = load_model(args.model)
    stats = dataset.load_norm_stats(args.norm)
    samples = _eval_windows(args, stats)
    report = evaluation.evaluate(model, samples)
    paths = evaluation.write_eval_report(report, args.out)
    print(f"samples: {report.n_samples}")
    print(f"accuracy: {report.accuracy:.6f}")
    print(f"macro_auc: {report.macro_auc:.6f}")
    print(f"spikes_per_window: {report.spikes_per_window:.6f}")
    print(f"synops_per_window: {report.synops_per_window:.6f}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"reports: {', '.join(str(p) for p in paths)}")
    return 0


def _timeline_name(vehicle_id: str) -> str:
    """The timeline file name of a vehicle, for an id that names one file in --out."""
    if vehicle_id in (".", "..") or any(
        sep and sep in vehicle_id for sep in (os.sep, os.altsep, "\0")
    ):
        raise UsageError(
            f"vehicle id {vehicle_id!r} cannot name a timeline file in --out: it is . or .. "
            f"or holds a path separator or NUL"
        )
    return f"timeline_{vehicle_id}.csv"


def cmd_predict(args) -> int:
    name = _timeline_name(args.vehicle)
    model = load_model(args.model)
    stats = dataset.load_norm_stats(args.norm)
    trajectories = dataset.parse_trajectories(args.data, args.rate_hz)
    by_id = {t.vehicle_id: t for t in trajectories}
    if args.vehicle not in by_id:
        raise UsageError(
            f"vehicle {args.vehicle!r} not in data (have {', '.join(sorted(by_id))})"
        )
    report = evaluation.timeline_predict(model, by_id[args.vehicle], stats, args.window_rate_hz)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    evaluation.write_timeline_csv(report, path)
    print(f"vehicle {report.vehicle_id}: {len(report.detections)} detections, "
          f"{len(report.onsets)} onsets, {len(report.false_detections)} false detections")
    for d in report.detections:
        mark = " (false)" if d in report.false_detections else ""
        print(f"detection at frame {d}{mark}")
    print(f"timeline: {path}")
    return 0


def cmd_bench(args) -> int:
    config, trained, logs, test_set, out = _fit_and_train(args)
    eval_report = evaluation.evaluate(trained, test_set)
    report = bench_mod.make_bench_report(
        trained,
        logs,
        final_accuracy=eval_report.accuracy,
        macro_auc=eval_report.macro_auc,
        optimizer=config.optimizer,
    )
    paths = bench_mod.write_bench_report(report, out)
    sys.stdout.write(bench_mod.format_bench_report(report))
    print(f"reports: {', '.join(str(p) for p in paths)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpikeLaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
