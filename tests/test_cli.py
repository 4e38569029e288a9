"""End-to-end command-line runs, exercised in process via cli.main."""

import csv

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


class TestBench:
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
