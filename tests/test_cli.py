"""End-to-end command-line runs, exercised in process via cli.main."""

import argparse
import csv
import dataclasses
import errno
import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spikelane as sl
from spikelane import cli


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "traj.csv"
    code = cli.main(["synth", "--n", "6", "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_csv):
    """A tiny but real training run shared by the eval/predict/bench tests."""
    out = tmp_path_factory.mktemp("trained")
    code = cli.main([
        "train", "--data", str(data_csv), "--stride", "4",
        "--max-epochs", "2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fleet_csv(tmp_path_factory):
    """A 40-vehicle fleet (41,022 frames) for the memory guards."""
    path = tmp_path_factory.mktemp("fleet") / "fleet.csv"
    assert cli.main(["synth", "--n", "40", "--seed", "5", "--out", str(path)]) == 0
    return path


def window_bytes(data, stride):
    """The bytes of the (N, 12, 5) window array of every window of a fleet."""
    config = sl.WindowConfig(stride_frames=stride)
    windows = sl.build_windows(sl.parse_trajectories(data, 25.0), config)
    return len(windows) * 12 * 5 * 8


def traced_peak(argv):
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_one_error_line(err):
    """A failure prints one `error:` line and no traceback."""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err


class TestArguments:
    def test_argparse_error_returns_2(self, capsys):
        assert cli.main(["synth", "--n", "2", "--out", "x.csv", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")


class TestSynth:
    def test_writes_parseable_csv(self, data_csv, capsys):
        trajectories = sl.parse_trajectories(data_csv, 25.0)
        assert len(trajectories) == 6
        assert all(len(t.events) >= 1 for t in trajectories)

    def test_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        assert cli.main(["synth", "--n", "2", "--seed", "9", "--out", str(path)]) == 0
        out = capsys.readouterr().out
        assert "wrote 2 vehicles" in out
        assert str(path) in out

    def test_same_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["synth", "--n", "3", "--seed", "11", "--out", str(a)])
        cli.main(["synth", "--n", "3", "--seed", "11", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_vehicles_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"], ["--rate-hz", "0"], ["--rate-hz", "nan"], ["--rate-hz", "-5"],
        ["--rate-hz", "1e-9"], ["--rate-hz", "inf"], ["--rate-hz", "1e308"],
    ])
    def test_bad_seed_or_rate_is_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["synth", "--n", "2", *flags, "--out", str(out)]) == 2
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", "100000000000"], ["--n", "1", "--rate-hz", "1e8"]])
    def test_fleet_past_frame_bound_is_usage_error(self, flags, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the per-vehicle streams were about to be spawned")

        # without the bound, this fails here instead of allocating every vehicle
        monkeypatch.setattr(np.random, "SeedSequence", unreachable)
        out = tmp_path / "x.csv"
        assert cli.main(["synth", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "frame limit" in err
        assert not out.exists()


class TestTrain:
    def test_artifacts_exist(self, trained_dir):
        assert (trained_dir / "model.spkl").is_file()
        assert (trained_dir / "norm.csv").is_file()
        assert (trained_dir / "train_log.csv").is_file()

    def test_checkpoint_loads(self, trained_dir):
        model = sl.load_model(trained_dir / "model.spkl")
        assert sl.param_count(model) == 219

    def test_log_row_per_epoch(self, trained_dir):
        lines = (trained_dir / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,wall_time_s,train_accuracy"
        assert len(lines) == 3  # header plus the two capped epochs

    def test_missing_data_file(self, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path),
        ])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_unreadable_data_is_usage_error(self, data_csv, tmp_path, capsys, monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        monkeypatch.setattr(sl.dataset, "open", denied, raising=False)
        code = cli.main(["train", "--data", str(data_csv), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Permission denied" in err

    def test_runaway_quote_is_usage_error(self, data_csv, tmp_path, capsys):
        # a quote opening a cell swallows the rest of the file into one field
        lines = data_csv.read_text().splitlines()
        lines[2] = lines[2].replace(",", ',"', 1)
        bad = tmp_path / "quote.csv"
        bad.write_text("\n".join(lines) + "\n")
        code = cli.main(["train", "--data", str(bad), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_config_file_applies(self, tmp_path, data_csv, capsys):
        config = tmp_path / "train.cfg"
        config.write_text("max_epochs = 1\nseed = 2\n")
        out = tmp_path / "run"
        code = cli.main([
            "train", "--data", str(data_csv), "--stride", "8",
            "--config", str(config), "--out", str(out),
        ])
        assert code == 0
        assert "trained 1 epochs" in capsys.readouterr().out

    def test_bad_config_value_is_usage_error(self, tmp_path, data_csv, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("max_epochs = soon\n")
        code = cli.main([
            "train", "--data", str(data_csv),
            "--config", str(config), "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        assert "line 1" in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [
        ["--rate-hz", "inf"], ["--rate-hz", "1e308"], ["--window-rate-hz", "1e-320"],
    ])
    def test_rate_without_frame_count_is_usage_error(self, flags, data_csv, tmp_path, capsys):
        code = cli.main(["train", "--data", str(data_csv), *flags, "--out", str(tmp_path / "run")])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_peak_memory_holds_no_window_array(self, fleet_csv, tmp_path, capsys):
        # fit_normalizer gathers the training windows a chunk at a time, so
        # train never holds an (N, 12, 5) window array.  The peak of a 1-epoch
        # train at stride 2 (19,200 windows, 15,340 of them training) measured
        # 0.62x the bytes of all windows, set by the CSV parse (1.43x while
        # the parse held every line as a str).  A fit that gathers the whole
        # training stack and its squared deviations measured 2.73x.
        peak = traced_peak([
            "train", "--data", str(fleet_csv), "--stride", "2", "--max-epochs", "1",
            "--seed", "1", "--out", str(tmp_path / "out"),
        ])
        assert peak < 1.6 * window_bytes(fleet_csv, 2)

    def test_split_sides_share_one_normalized_table(self, data_csv):
        args = argparse.Namespace(data=str(data_csv), rate_hz=25.0, window_rate_hz=4.0,
                                  stride=4, train_ratio=0.8)
        stats, train_set, test_set = cli._normalized_split(args, 1)
        assert train_set.frames is test_set.frames
        # the windows of normalizing each split side on its own
        raw = sl.split_by_vehicle(cli._load_windows(args), 0.8, 1)
        fitted = sl.fit_normalizer(raw.train)
        assert (stats.mean.tobytes(), stats.std.tobytes()) == (fitted.mean.tobytes(),
                                                               fitted.std.tobytes())
        for got, side in ((train_set, raw.train), (test_set, raw.test)):
            want = sl.apply_normalizer(stats, side)
            assert got.features.tobytes() == want.features.tobytes()
            for column in ("labels", "vehicle_ids", "end_frames"):
                assert np.array_equal(getattr(got, column), getattr(want, column))


class TestStrideBound:
    """A stride past the int64 step np.arange takes is a usage error."""

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_exit_2(self, command, data_csv, trained_dir, tmp_path, capsys):
        argv = [command, "--data", str(data_csv), "--stride", str(2**63),
                "--out", str(tmp_path / "out")]
        if command == "eval":
            argv += ["--model", str(trained_dir / "model.spkl"),
                     "--norm", str(trained_dir / "norm.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "stride_frames" in err

    def test_largest_stride_runs(self, data_csv, tmp_path):
        assert cli.main([
            "train", "--data", str(data_csv), "--stride", str(2**63 - 1),
            "--max-epochs", "1", "--out", str(tmp_path / "out"),
        ]) == 0


class TestUndecodableInput:
    """Text inputs that are not UTF-8 give exit 2 with an error line."""

    @pytest.mark.parametrize("reader", ["data", "norm", "config"])
    def test_exit_2(self, reader, data_csv, trained_dir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe" + (trained_dir / "norm.csv").read_bytes())
        data = bad if reader == "data" else data_csv
        if reader == "norm":
            argv = ["eval", "--data", str(data), "--model", str(trained_dir / "model.spkl"),
                    "--norm", str(bad)]
        else:
            argv = ["train", "--data", str(data), "--max-epochs", "1"]
            if reader == "config":
                argv += ["--config", str(bad)]
        code = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


class TestThreadCount:
    # perfbench pins one BLAS thread, tier-1 runs with whatever the
    # environment gives: the artifacts must not depend on the count
    SCRIPT = """
import sys
from spikelane import cli
data, out = sys.argv[1:]
assert cli.main(["train", "--data", data, "--stride", "4", "--max-epochs", "3", "--seed", "2",
                 "--out", out]) == 0
assert cli.main(["eval", "--data", data, "--stride", "4", "--seed", "2", "--model",
                 out + "/model.spkl", "--norm", out + "/norm.csv", "--out", out]) == 0
"""
    ARTIFACTS = ("model.spkl", "norm.csv", "eval_report.txt",
                 "roc_class0.csv", "roc_class1.csv", "roc_class2.csv")

    def test_artifacts_identical_at_one_and_two_threads(self, data_csv, tmp_path):
        digests = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=str(Path(sl.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-c", self.SCRIPT, str(data_csv), str(out)],
                           env=env, capture_output=True, check=True)
            digests[threads] = [hashlib.sha256((out / name).read_bytes()).hexdigest()
                                for name in self.ARTIFACTS]
        assert digests["1"] == digests["2"]


class TestEval:
    def _run(self, data_csv, trained_dir, out, split="test"):
        return cli.main([
            "eval", "--data", str(data_csv), "--stride", "4", "--seed", "1",
            "--model", str(trained_dir / "model.spkl"),
            "--norm", str(trained_dir / "norm.csv"),
            "--split", split, "--out", str(out),
        ])

    def test_reports_written(self, data_csv, trained_dir, tmp_path, capsys):
        assert self._run(data_csv, trained_dir, tmp_path) == 0
        out = capsys.readouterr().out
        accuracy = float(next(l for l in out.splitlines() if l.startswith("accuracy:")).split()[1])
        assert 0.0 <= accuracy <= 1.0
        assert (tmp_path / "eval_report.txt").is_file()
        report = (tmp_path / "eval_report.txt").read_text().splitlines()
        for key in ("spikes_per_window:", "synops_per_window:"):
            printed = [l for l in out.splitlines() if l.startswith(key)]
            assert len(printed) == 1 and printed == [l for l in report if l.startswith(key)]

    def test_absent_class_warned_in_the_report_and_on_stderr(self, trained_dir, tmp_path, capsys):
        # vehicles that never change lanes give only keep windows
        data = tmp_path / "keep.csv"
        data.write_text("\n".join([",".join(sl.dataset.CSV_HEADER)] + [
            f"v{v},{f},{0.01 * f},30.0,0.0,0.0,0.0,3" for v in range(2) for f in range(100)
        ]) + "\n")
        assert self._run(data, trained_dir, tmp_path / "out", split="all") == 0
        err = capsys.readouterr().err.splitlines()
        report = (tmp_path / "out" / "eval_report.txt").read_text().splitlines()
        warnings = [l for l in report if l.startswith("warning:")]
        assert "warning: class left is absent from the scored labels; ROC unavailable" in warnings
        assert err == warnings

    def test_roc_csv_spans_unit_square(self, data_csv, trained_dir, tmp_path):
        self._run(data_csv, trained_dir, tmp_path)
        roc_files = sorted(tmp_path.glob("roc_class*.csv"))
        assert roc_files
        for path in roc_files:
            with open(path) as handle:
                rows = list(csv.DictReader(handle))
            assert (float(rows[0]["fpr"]), float(rows[0]["tpr"])) == (0.0, 0.0)
            assert (float(rows[-1]["fpr"]), float(rows[-1]["tpr"])) == (1.0, 1.0)

    def test_deterministic_reports(self, data_csv, trained_dir, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        self._run(data_csv, trained_dir, first)
        self._run(data_csv, trained_dir, second)
        assert (first / "eval_report.txt").read_bytes() == (second / "eval_report.txt").read_bytes()

    def test_peak_memory_holds_one_window_array(self, fleet_csv, trained_dir, tmp_path, capsys):
        # a window set stores each frame once, so eval never holds one
        # (N, 12, 5) window array.  The peak measured 0.44x its bytes, in
        # evaluate (0.56x while score allocated its arrays per chunk and
        # evaluate held its whole-set temporaries, 0.71x in the CSV parse
        # while it held every line as a str), and a returning window array
        # takes it past 1x.
        peak = traced_peak([
            "eval", "--data", str(fleet_csv), "--stride", "1", "--split", "all",
            "--model", str(trained_dir / "model.spkl"),
            "--norm", str(trained_dir / "norm.csv"), "--out", str(tmp_path / "out"),
        ])
        assert peak < 0.85 * window_bytes(fleet_csv, 1)

    def test_split_sizes_add_up(self, data_csv, trained_dir, tmp_path, capsys):
        counts = {}
        for split in ("train", "test", "all"):
            self._run(data_csv, trained_dir, tmp_path / split, split=split)
            out = capsys.readouterr().out
            counts[split] = int(next(
                l for l in out.splitlines() if l.startswith("samples:")
            ).split()[1])
        assert counts["train"] + counts["test"] == counts["all"]

    @pytest.mark.parametrize("row", [
        "v_x,1.5",            # short row
        "v_x,fast,2.0",       # non-numeric cell
        "v_x,1.5,0",          # zero std
        "v_x,1.5,-2",         # negative std
        "v_x,nan,2.0",        # non-finite mean
        "v_x,1.5,inf",        # non-finite std
        "delta_y,0.1,1.0",    # duplicate feature
        "bogus,1.5,2.0",      # unknown feature
    ])
    def test_bad_normalizer_row_is_usage_error(
        self, data_csv, trained_dir, tmp_path, capsys, row
    ):
        lines = (trained_dir / "norm.csv").read_text().splitlines()
        bad = tmp_path / "norm.csv"
        bad.write_text("\n".join(row if l.startswith("v_x,") else l for l in lines) + "\n")
        code = cli.main([
            "eval", "--data", str(data_csv),
            "--model", str(trained_dir / "model.spkl"), "--norm", str(bad),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_corrupt_model_is_usage_error(self, data_csv, trained_dir, tmp_path, capsys):
        bad = tmp_path / "bad.spkl"
        bad.write_bytes(b"NOPE" + bytes(42))
        code = cli.main([
            "eval", "--data", str(data_csv),
            "--model", str(bad), "--norm", str(trained_dir / "norm.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTrainConfigFlags:
    NON_DEFAULT = {
        "batch_size": 7, "learning_rate": 0.02, "max_epochs": 3, "patience_epochs": 4,
        "min_loss_delta": 0.5, "seed": 9, "optimizer": "sgd",
    }

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_every_field_has_one_flag_that_reaches_the_config(self, command):
        parser = cli._build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        actions = subparsers.choices[command]._actions
        names = [f.name for f in dataclasses.fields(sl.TrainConfig)]
        assert sorted(names) == sorted(self.NON_DEFAULT)
        argv = [command, "--data", "d.csv", "--out", "o"]
        for name in names:
            flags = [a for a in actions if a.dest == name]
            assert len(flags) == 1, name
            argv += [flags[0].option_strings[0], str(self.NON_DEFAULT[name])]
            assert self.NON_DEFAULT[name] != getattr(sl.TrainConfig(), name)
        assert cli._train_config(parser.parse_args(argv)) == sl.TrainConfig(**self.NON_DEFAULT)


class TestOffSchemaCheckpoint:
    """A checkpoint for another window shape or class count is a bad input."""

    @pytest.mark.parametrize("command", ["eval", "predict"])
    @pytest.mark.parametrize("slot,value", [(0, 11), (4, 4), (12, 4)],
                             ids=["input_steps=11", "input_dim=4", "classes=4"])
    def test_exit_2(self, command, slot, value, data_csv, trained_dir, tmp_path, capsys):
        header = bytearray((trained_dir / "model.spkl").read_bytes()[:46])
        struct.pack_into("<I", header, 5 + slot, value)
        _, in_dim, hidden, classes = struct.unpack_from("<4I", header, 5)
        params = in_dim * hidden + hidden + hidden * classes + classes
        model = tmp_path / "model.spkl"
        model.write_bytes(bytes(header) + bytes(8 * params))
        argv = [command, "--data", str(data_csv), "--model", str(model),
                "--norm", str(trained_dir / "norm.csv"), "--out", str(tmp_path / "out")]
        argv += ["--split", "all"] if command == "eval" else ["--vehicle", "veh0000"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "schema" in err


class TestNonFiniteLifCheckpoint:
    """A checkpoint whose threshold or surrogate slope is infinite is a bad input."""

    @pytest.mark.parametrize("offset", [30, 38], ids=["v_threshold", "surrogate_slope"])
    def test_exit_2(self, offset, data_csv, trained_dir, tmp_path, capsys):
        blob = bytearray((trained_dir / "model.spkl").read_bytes())
        struct.pack_into("<d", blob, offset, float("inf"))
        model = tmp_path / "model.spkl"
        model.write_bytes(bytes(blob))
        assert cli.main([
            "eval", "--data", str(data_csv), "--model", str(model),
            "--norm", str(trained_dir / "norm.csv"), "--out", str(tmp_path / "out"),
        ]) == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "must be finite" in err


class TestNoWindows:
    """Inputs that give no window at all keep the exit codes of an empty set."""

    @pytest.fixture(params=["header_only", "all_too_short"])
    def sparse_csv(self, request, tmp_path):
        rows = [",".join(sl.dataset.CSV_HEADER)]
        if request.param == "all_too_short":
            rows += [f"{v},{f},0.0,30.0,0.0,0.0,0.0,3" for v in ("a", "b") for f in range(30)]
        path = tmp_path / "sparse.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_train_needs_two_vehicles(self, sparse_csv, tmp_path, capsys):
        code = cli.main(["train", "--data", str(sparse_csv), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "need at least 2 vehicles" in capsys.readouterr().err

    def test_train_rate_too_high_for_one_window(self, data_csv, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(data_csv), "--rate-hz", "1e12", "--out", str(tmp_path / "run"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "window set is empty" in err and "need at least 2 vehicles" in err

    def test_bad_window_rate_named_before_any_window(self, sparse_csv, tmp_path, capsys):
        code = cli.main([
            "train", "--data", str(sparse_csv), "--window-rate-hz", "-1",
            "--out", str(tmp_path / "run"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "window_rate_hz" in err

    def test_eval_all_has_nothing_to_score(self, sparse_csv, trained_dir, tmp_path, capsys):
        code = cli.main([
            "eval", "--data", str(sparse_csv), "--split", "all",
            "--model", str(trained_dir / "model.spkl"),
            "--norm", str(trained_dir / "norm.csv"), "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "test_set is empty" in capsys.readouterr().err


class TestPredict:
    def test_timeline_written(self, data_csv, trained_dir, tmp_path, capsys):
        code = cli.main([
            "predict", "--data", str(data_csv),
            "--model", str(trained_dir / "model.spkl"),
            "--norm", str(trained_dir / "norm.csv"),
            "--vehicle", "veh0000", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "vehicle veh0000:" in out
        path = tmp_path / "timeline_veh0000.csv"
        assert path.is_file()
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        traj = next(t for t in sl.parse_trajectories(data_csv, 25.0)
                    if t.vehicle_id == "veh0000")
        factor = sl.downsample_factor(25.0, 4.0)
        assert len(rows) == len(range(0, len(traj) - 11 * factor, factor))

    def test_unknown_vehicle_lists_available(self, data_csv, trained_dir, tmp_path, capsys):
        code = cli.main([
            "predict", "--data", str(data_csv),
            "--model", str(trained_dir / "model.spkl"),
            "--norm", str(trained_dir / "norm.csv"),
            "--vehicle", "ghost", "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "ghost" in err and "veh0000" in err

    @pytest.mark.parametrize("vehicle", ["a/b", ".", "..", "a\0b"])
    def test_id_that_is_no_file_name_rejected(self, data_csv, trained_dir, tmp_path, capsys,
                                              vehicle):
        # the id is in the data, so only its use as a file name can fail
        data = tmp_path / "renamed.csv"
        with open(data_csv, newline="") as src, open(data, "w", newline="") as dst:
            rows = list(csv.reader(src))
            csv.writer(dst).writerows(
                [vehicle if row[0] == "veh0000" else row[0], *row[1:]] for row in rows
            )
        assert vehicle in {t.vehicle_id for t in sl.parse_trajectories(data, 25.0)}
        out = tmp_path / "out"
        code = cli.main([
            "predict", "--data", str(data),
            "--model", str(trained_dir / "model.spkl"),
            "--norm", str(trained_dir / "norm.csv"),
            "--vehicle", vehicle, "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert repr(vehicle) in err and ".tmp" not in err
        assert not out.exists()


class TestOverflowingNormalizer:
    """A std that load_norm_stats accepts (finite, > 0) but that overflows the
    transform ends in one error line and exit 1, not a NumPy warning, which
    `python -W error` and pytest's filterwarnings = error would raise."""

    @pytest.mark.parametrize("command", [["eval", "--stride", "4"],
                                         ["predict", "--vehicle", "veh0000"]])
    def test_exit_1(self, command, data_csv, trained_dir, tmp_path, capsys):
        lines = (trained_dir / "norm.csv").read_text().splitlines()
        norm = tmp_path / "norm.csv"
        norm.write_text("\n".join(
            "delta_y,0,1e-320" if l.startswith("delta_y,") else l for l in lines) + "\n")
        code = cli.main([
            *command, "--data", str(data_csv), "--model", str(trained_dir / "model.spkl"),
            "--norm", str(norm), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "must be finite" in err


class TestOverflowingWindow:
    """A finite CSV frame whose feature currents overflow float64 ends in one
    error line and exit 1, not a NumPy warning from the feature GEMM and
    scores from infinite currents."""

    @pytest.mark.parametrize("command", [["eval", "--stride", "4"],
                                         ["predict", "--vehicle", "veh0000"]])
    def test_exit_1(self, command, data_csv, trained_dir, tmp_path, capsys):
        weights = sl.load_model(trained_dir / "model.spkl").feature_layer.weights
        j = np.abs(weights).sum(axis=0).argmax()
        assert np.abs(weights[:, j]).sum() * 1.7 > 1.8
        huge = [repr(v) for v in (1.7e308 * np.sign(weights[:, j])).tolist()]
        lines = data_csv.read_text().splitlines()
        for i in range(1, len(lines)):
            row = lines[i].split(",")
            if row[0] != lines[i - 1].split(",")[0]:  # each vehicle's first frame
                row[2:7] = huge  # its five feature columns
                lines[i] = ",".join(row)
        data = tmp_path / "traj.csv"
        data.write_text("\n".join(lines) + "\n")
        norm = tmp_path / "norm.csv"
        sl.save_norm_stats(sl.NormStats(mean=np.zeros(5), std=np.ones(5)), norm)
        code = cli.main([
            *command, "--data", str(data), "--model", str(trained_dir / "model.spkl"),
            "--norm", str(norm), "--out", str(tmp_path / "out"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert "must be finite" in err


class TestBench:
    @pytest.mark.parametrize("optimizer, copies", [("adam", 3), ("sgd", 1)])
    def test_param_memory_counts_parameters_and_optimizer_state(
        self, optimizer, copies, tmp_path
    ):
        report = sl.make_bench_report(sl.new_model(), [], final_accuracy=0.5, macro_auc=0.5,
                                      optimizer=optimizer)
        assert report.param_memory_bytes == 219 * 8 * copies
        sl.write_bench_report(report, tmp_path)
        text = (tmp_path / "bench_report.txt").read_text()
        assert f"param_memory_bytes: {219 * 8 * copies}\n" in text
        assert "final_accuracy: 0.500000\n" in text and "train_memory" not in text
        with open(tmp_path / "bench_report.csv") as handle:
            row = next(csv.DictReader(handle))
        assert int(row["param_memory_bytes"]) == 219 * 8 * copies

    def test_report_and_stdout(self, data_csv, tmp_path, capsys):
        out = tmp_path / "bench"
        code = cli.main([
            "bench", "--data", str(data_csv), "--stride", "4",
            "--max-epochs", "2", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "parameters: 219" in printed
        assert (out / "bench_report.txt").is_file()
        assert (out / "bench_report.csv").is_file()
        lines = dict(
            line.split(": ") for line in
            (out / "bench_report.txt").read_text().splitlines() if ": " in line
        )
        lo = float(lines["min_epoch_time_s"])
        mid = float(lines["mean_epoch_time_s"])
        hi = float(lines["max_epoch_time_s"])
        assert lo <= mid <= hi
        assert int(lines["checkpoint_bytes"]) == 46 + 8 * 219


class TestOutputPath:
    def test_out_is_existing_file(self, data_csv, trained_dir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main([
            "eval", "--data", str(data_csv), "--stride", "4", "--seed", "1",
            "--model", str(trained_dir / "model.spkl"),
            "--norm", str(trained_dir / "norm.csv"), "--out", str(taken),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_out_below_a_file(self, data_csv, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = cli.main([
            "train", "--data", str(data_csv), "--stride", "8", "--max-epochs", "1",
            "--out", str(taken / "run"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_synth_out_is_directory(self, tmp_path, capsys):
        code = cli.main(["synth", "--n", "1", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
