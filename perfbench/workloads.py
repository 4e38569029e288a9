"""The three benchmark workloads.

Each workload writes its synthetic CSVs in `inputs` (untimed), prepares the
program's state in `setup` (timed, repeated), runs whole `round`s of the same
operations (timed) and verifies the program's outputs in `check`.  The
program is driven through its public modules and through `spikelane.cli.main`
called in-process; it sees only the CSV files.

train        training on a mid-sized fleet: model and training layers.
batch_score  `spikelane eval --split all` over a larger fleet at stride 1:
             dataset, evaluation and memory.
stream       held-out vehicles replayed one 4 Hz step at a time: the
             single-window path of model and evaluation.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import require

STRIDE_TRAIN = 2
STRIDE_SCORE = 1
LEARNING_RATE = 0.03
TRAIN_RATIO = 0.7

TRAIN_FLEET = 40       # vehicles the train workload ingests: 28 train, 12 test
EPOCHS_PER_ROUND = 3   # one train round is one train() call of this many epochs
ROUNDS_PER_MODEL = 5   # a model is trained for 15 epochs over five rounds
PREP_FLEET = 20        # vehicles the batch_score and stream model is trained on
PREP_EPOCHS = 15
PREP_SEED = 1          # the same model for every workload seed
SCORE_FLEET = 60       # vehicles scored per batch_score pass
STREAM_FLEET = 20      # held-out vehicles replayed per stream round


def fleet_seed(seed: int, tag: int) -> int:
    """Independent data seed per fleet, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


class Workload:
    """Shared plumbing; subclasses define the four steps."""

    name = ""
    min_rounds = 3
    reference = "mixed"  # host-clock kernel closest to the workload's mix

    def __init__(self, sl, workdir: Path, seed: int):
        self.sl = sl
        self.workdir = workdir
        self.seed = seed

    def ops_per_round(self, state) -> int:
        """Operations one round attempts; `attempted` counts these."""
        return 1

    def latency_ms(self, rounds) -> tuple[float, float]:
        """Normalized p50 and p99 latency.  Here a user waits on a whole
        round, and a run has far fewer than the 1000 rounds a p99 needs,
        so both report the median round."""
        median = float(np.median(rounds.normalized)) * 1e3
        return median, median

    def synth(self, seed: int, tag: int, n: int, filename: str):
        trajectories = self.sl.synth.synthesize_dataset(fleet_seed(seed, tag), n)
        path = self.workdir / filename
        checks.write_fleet_csv(trajectories, path)
        return trajectories, path

    def cli(self, *argv) -> str:
        """Run `spikelane <argv>` in-process; returns its standard output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sl.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"spikelane {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check_checkpoint(self, model, path: Path) -> None:
        """A saved checkpoint reloads to the same bytes."""
        ckpt = self.sl.checkpoint
        blob = ckpt.save_model(model, path)
        reloaded = ckpt.model_to_bytes(ckpt.load_model(path))
        require(blob == path.read_bytes() == reloaded, "checkpoint does not reload to the same bytes")


# ---------------------------------------------------------------------------
# models for batch_score and stream, trained by `spikelane train`
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    model: object
    stats: object
    out_dir: Path


class PreparedModel(Workload):
    """Set-up shared by batch_score and stream: train a model with the CLI,
    then load its checkpoint and normalizer the way a user would."""

    def inputs(self):
        _, self.prep_csv = self.synth(PREP_SEED, 2, PREP_FLEET, "prep.csv")
        self._setups = 0

    def prepare(self) -> Prepared:
        self._setups += 1
        out_dir = self.workdir / f"prep{self._setups}"
        self.cli(
            "train", "--data", self.prep_csv, "--stride", STRIDE_TRAIN,
            "--max-epochs", PREP_EPOCHS, "--patience", PREP_EPOCHS + 1,
            "--lr", LEARNING_RATE, "--seed", PREP_SEED, "--out", out_dir,
        )
        model = self.sl.checkpoint.load_model(out_dir / "model.spkl")
        stats = self.sl.dataset.load_norm_stats(out_dir / "norm.csv")
        return Prepared(model, stats, out_dir)

    def check_prepared(self, state: Prepared) -> None:
        """Every set-up trained the same model, its loss fell, and its
        checkpoint round-trips."""
        first = (self.workdir / "prep1" / "model.spkl").read_bytes()
        for i in range(2, self._setups + 1):
            require(
                (self.workdir / f"prep{i}" / "model.spkl").read_bytes() == first,
                "repeated training produced different checkpoints",
            )
        checks.check_loss_falls(checks.read_train_log(state.out_dir / "train_log.csv"))
        self.check_checkpoint(state.model, self.workdir / "resaved.spkl")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


@dataclass
class Ingested:
    parsed: list
    windows: list
    split: object
    train_set: list
    test_set: list


class Train(Workload):
    name = "train"
    min_rounds = ROUNDS_PER_MODEL
    reference = "spiking"

    def inputs(self):
        self.trajectories, self.csv = self.synth(self.seed, 1, TRAIN_FLEET, "train.csv")
        self._rounds = 0
        self._model = None

    def setup(self) -> Ingested:
        ds = self.sl.dataset
        parsed = ds.parse_trajectories(self.csv, checks.SAMPLE_RATE_HZ)
        windows = ds.build_windows(parsed, ds.WindowConfig(stride_frames=STRIDE_TRAIN))
        split = ds.split_by_vehicle(windows, TRAIN_RATIO, self.seed)
        stats = ds.fit_normalizer(split.train)
        return Ingested(
            parsed, windows, split,
            ds.apply_normalizer(stats, split.train),
            ds.apply_normalizer(stats, split.test),
        )

    def windows_per_round(self, state: Ingested) -> int:
        return len(state.train_set) * EPOCHS_PER_ROUND

    def round(self, state: Ingested):
        """One train() call with early stopping out of reach.  Every
        ROUNDS_PER_MODEL rounds start from a fresh model; the rounds between
        resume from the model the previous round returned, so rounds stay
        short for timing while each model still gets 15 epochs."""
        position = self._rounds % ROUNDS_PER_MODEL
        self._rounds += 1
        if position == 0:
            self._model = self.sl.model.new_model(seed=self.seed)
        config = self.sl.training.TrainConfig(
            max_epochs=EPOCHS_PER_ROUND,
            patience_epochs=EPOCHS_PER_ROUND + 1,
            learning_rate=LEARNING_RATE,
            seed=self.seed,
        )
        self._model, logs = self.sl.training.train(self._model, state.train_set, config)
        return position, self._model, logs

    def check(self, state: Ingested, outputs) -> tuple[float, float]:
        sl = self.sl
        checks.check_parsed(state.parsed, self.trajectories)
        checks.check_windows(state.windows, self.trajectories, STRIDE_TRAIN)

        # models that completed all their rounds within the run
        positions = [position for position, _, _ in outputs]
        ends = [
            i for i in range(ROUNDS_PER_MODEL - 1, len(outputs))
            if positions[i - ROUNDS_PER_MODEL + 1 : i + 1] == list(range(ROUNDS_PER_MODEL))
        ]
        require(bool(ends), "no model completed its training rounds")
        blobs = {sl.checkpoint.model_to_bytes(outputs[i][1]) for i in ends}
        require(len(blobs) == 1, "training rounds on the same input produced different models")
        last = outputs[ends[-1] - ROUNDS_PER_MODEL + 1 : ends[-1] + 1]
        checks.check_loss_falls([log.mean_loss for _, _, logs in last for log in logs])
        model = outputs[ends[-1]][1]
        self.check_checkpoint(model, self.workdir / "trained.spkl")

        test_ids = sorted({w.vehicle_id for w in state.test_set})
        labels = checks.fleet_labels(
            [t for t in self.trajectories if t.vehicle_id in test_ids], STRIDE_TRAIN
        )
        report = sl.evaluation.evaluate(model, state.test_set)
        require(
            report.confusion.sum(axis=1).tolist()
            == np.bincount(labels, minlength=checks.N_CLASSES).tolist(),
            "confusion rows do not match the independent label counts",
        )
        windows, _ = sl.dataset.stack_windows(state.test_set)
        probs = np.exp(sl.model.forward_batch(model, windows).log_probs)
        checks.check_close("accuracy", report.accuracy, float((probs.argmax(1) == labels).mean()), 0.0)
        checks.check_close("macro_auc", report.macro_auc, float(np.mean(checks.class_aucs(probs, labels))), 1e-9)
        checks.check_quality(report.accuracy, report.macro_auc, labels)
        return report.accuracy, report.macro_auc


# ---------------------------------------------------------------------------
# batch_score
# ---------------------------------------------------------------------------


class BatchScore(PreparedModel):
    name = "batch_score"

    def inputs(self):
        super().inputs()
        self.trajectories, self.csv = self.synth(self.seed, 3, SCORE_FLEET, "score.csv")
        self.n_windows = sum(
            checks.window_count(len(t.t_index), STRIDE_SCORE) for t in self.trajectories
        )
        self.out_dir = self.workdir / "scores"

    def setup(self) -> Prepared:
        return self.prepare()

    def windows_per_round(self, state: Prepared) -> int:
        return self.n_windows

    def round(self, state: Prepared):
        return self.cli(
            "eval", "--data", self.csv, "--stride", STRIDE_SCORE, "--split", "all",
            "--model", state.out_dir / "model.spkl", "--norm", state.out_dir / "norm.csv",
            "--out", self.out_dir,
        )

    def check(self, state: Prepared, outputs) -> tuple[float, float]:
        self.check_prepared(state)
        report = checks.read_eval_report(self.out_dir / "eval_report.txt")
        labels = checks.fleet_labels(self.trajectories, STRIDE_SCORE)
        require(
            report["samples"] == labels.size,
            f"{report['samples']} windows scored, closed form gives {labels.size}",
        )
        confusion = report["confusion"]
        require(
            confusion.sum(axis=1).tolist()
            == np.bincount(labels, minlength=checks.N_CLASSES).tolist(),
            "confusion rows do not match the independent label counts",
        )
        accuracy = float(np.trace(confusion) / confusion.sum())
        checks.check_close("printed accuracy", report["accuracy"], accuracy, 5.1e-7)

        # the program's scores for independently built windows
        mean, std = checks.read_norm_csv(state.out_dir / "norm.csv")
        windows = checks.fleet_windows(self.trajectories, STRIDE_SCORE, mean, std)
        probs = np.concatenate([
            np.exp(self.sl.model.forward_batch(state.model, windows[i : i + 8192]).log_probs)
            for i in range(0, len(windows), 8192)
        ])
        checks.check_close("accuracy", accuracy, float((probs.argmax(1) == labels).mean()), 0.0)
        aucs = checks.class_aucs(probs, labels)
        for k, auc in enumerate(aucs):
            area = checks.check_roc_csv(self.out_dir / f"roc_class{k}.csv")
            checks.check_close(f"roc_class{k}.csv area", area, auc, 1e-6)
        macro_auc = float(np.mean(aucs))
        checks.check_close("printed macro_auc", report["macro_auc"], macro_auc, 5.1e-7)
        checks.check_quality(accuracy, report["macro_auc"], labels)
        return accuracy, report["macro_auc"]


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


@dataclass
class Replay:
    prepared: Prepared
    parsed: list
    windows: list  # raw (12, 5) views, in replay order


@dataclass
class Streamed:
    probs: np.ndarray       # (windows, 3)
    latencies: np.ndarray   # (windows,) seconds, normalize + predict


class Stream(PreparedModel):
    name = "stream"

    def inputs(self):
        super().inputs()
        self.trajectories, self.csv = self.synth(self.seed, 4, STREAM_FLEET, "heldout.csv")

    def setup(self) -> Replay:
        prepared = self.prepare()
        parsed = self.sl.dataset.parse_trajectories(self.csv, checks.SAMPLE_RATE_HZ)
        factor = round(checks.SAMPLE_RATE_HZ / checks.WINDOW_RATE_HZ)
        span = checks.window_span()
        windows = [
            t.features[s : s + span + 1 : factor]
            for t in parsed
            for s in range(0, len(t.t_index) - span, factor)
        ]
        return Replay(prepared, parsed, windows)

    def ops_per_round(self, state: Replay) -> int:
        return len(state.windows)

    windows_per_round = ops_per_round

    def latency_ms(self, rounds) -> tuple[float, float]:
        """Per-window p50 and p99 of each round (over 1000 windows each),
        medians over rounds."""
        per_round = np.array([
            np.percentile(o.latencies * k, [50, 99]) for o, k in zip(rounds.outputs, rounds.scale)
        ])
        p50, p99 = np.median(per_round, axis=0) * 1e3
        return float(p50), float(p99)

    def round(self, state: Replay) -> Streamed:
        """Closed loop, one caller: each window is normalized and predicted
        only after the previous prediction returned."""
        transform = state.prepared.stats.transform
        predict = self.sl.evaluation.predict
        model = state.prepared.model
        n = len(state.windows)
        probs = np.empty((n, checks.N_CLASSES))
        latencies = np.empty(n)
        clock = time.perf_counter
        for i, raw in enumerate(state.windows):
            tic = clock()
            _, p = predict(model, transform(raw))
            latencies[i] = clock() - tic
            probs[i] = p
        return Streamed(probs, latencies)

    def check(self, state: Replay, outputs) -> tuple[float, float]:
        sl = self.sl
        prepared = state.prepared
        self.check_prepared(prepared)
        checks.check_parsed(state.parsed, self.trajectories)
        probs = outputs[-1].probs
        for other in outputs[:-1]:
            require(np.array_equal(other.probs, probs), "replay rounds gave different probabilities")
        require(bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-12)), "probabilities do not sum to 1")

        batched = np.concatenate([
            np.array([e.probs for e in sl.evaluation.timeline_predict(prepared.model, t, prepared.stats).entries])
            for t in state.parsed
        ])
        require(batched.shape == probs.shape, f"timeline gives {batched.shape}, stream {probs.shape}")
        gap = float(np.abs(batched - probs).max())
        require(gap <= 1e-12, f"streamed probabilities differ from timeline_predict by {gap:g}")

        factor = round(checks.SAMPLE_RATE_HZ / checks.WINDOW_RATE_HZ)
        labels = checks.fleet_labels(self.trajectories, factor)
        require(labels.size == probs.shape[0], "replayed window count differs from closed form")
        accuracy = float((probs.argmax(axis=1) == labels).mean())
        curves = [sl.evaluation.roc_curve(probs[:, k], (labels == k).astype(np.int64), k)
                  for k in range(checks.N_CLASSES)]
        macro_auc = float(np.mean([c.auc for c in curves]))
        checks.check_close("macro_auc", macro_auc, float(np.mean(checks.class_aucs(probs, labels))), 1e-9)
        checks.check_quality(accuracy, macro_auc, labels)
        return accuracy, macro_auc


WORKLOADS = {w.name: w for w in (Train, BatchScore, Stream)}
