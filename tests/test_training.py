"""Optimizer math, the training loop, early stopping, and the log file."""

import csv

import numpy as np
import pytest

import spikelane as sl
from spikelane import training as tr


def zero_model():
    model = sl.new_model()
    zeros = [np.zeros_like(p) for p in sl.model_params(model)]
    return sl.replace_params(model, zeros)


def zero_windows(n, labels):
    return [
        sl.WindowSample(features=np.zeros((12, 5)), label=int(labels[i]),
                        vehicle_id="z", end_frame=i)
        for i in range(n)
    ]


def synth_train_set(seed=7, n_vehicles=5, stride=2):
    trajs = sl.synthesize_dataset(seed, n_vehicles)
    windows = sl.build_windows(trajs, sl.WindowConfig(stride_frames=stride))
    stats = sl.fit_normalizer(windows)
    return sl.apply_normalizer(stats, windows)


class TestOptimizerStep:
    def test_sgd_basic(self):
        config = sl.TrainConfig(optimizer="sgd", learning_rate=0.1)
        (out,) = sl.optimizer_step([np.array([1.0])], [np.array([1.0])], None, config)
        assert out[0] == pytest.approx(0.9, abs=0)

    def test_adam_first_step_closed_form(self):
        # bias correction makes step one lr * g / (|g| + eps), so the update
        # magnitude is ~lr at any gradient scale
        config = sl.TrainConfig(optimizer="adam", learning_rate=1e-3)
        for scale in (1e-5, 1.0, 1e6):
            g = np.array([scale, -scale])
            state = sl.init_optimizer_state([np.zeros(2)], config)
            (out,) = sl.optimizer_step([np.zeros(2)], [g], state, config)
            want = -config.learning_rate * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(out, want, rtol=1e-12)
            assert np.abs(out).max() == pytest.approx(1e-3, rel=2e-3)

    def test_adam_second_step_matches_hand_recurrence(self):
        config = sl.TrainConfig(optimizer="adam", learning_rate=0.01)
        g1, g2 = np.array([0.3]), np.array([-0.2])
        p = np.array([1.0])
        state = sl.init_optimizer_state([p], config)
        (p1,) = sl.optimizer_step([p], [g1], state, config)
        (p2,) = sl.optimizer_step([p1], [g2], state, config)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1**2) + 0.001 * g2**2
        m_hat = m / (1 - 0.9**2)
        v_hat = v / (1 - 0.999**2)
        want = p1 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p2, want, rtol=1e-12)

    def test_zero_grads_leave_params_unchanged(self):
        p = [np.array([1.0, -2.0])]
        g = [np.zeros(2)]
        sgd = sl.TrainConfig(optimizer="sgd")
        assert (sl.optimizer_step(p, g, None, sgd)[0] == p[0]).all()
        adam = sl.TrainConfig(optimizer="adam")
        state = sl.init_optimizer_state(p, adam)
        np.testing.assert_allclose(sl.optimizer_step(p, g, state, adam)[0], p[0], atol=1e-12)

    def test_misaligned_shapes_rejected(self):
        config = sl.TrainConfig()
        state = sl.init_optimizer_state([np.zeros(2)], config)
        with pytest.raises(sl.UsageError):
            sl.optimizer_step([np.zeros(2)], [np.zeros(3)], state, config)
        with pytest.raises(sl.UsageError):
            sl.optimizer_step([np.zeros(2)], [np.zeros(2)], None, config)


class TestTrainConfig:
    def test_defaults(self):
        config = sl.TrainConfig()
        assert config.batch_size == 128
        assert config.learning_rate == 1e-3
        assert config.patience_epochs == 50
        assert config.min_loss_delta == 1e-6
        assert config.optimizer == "adam"

    def test_validation(self):
        with pytest.raises(sl.ConfigError):
            sl.TrainConfig(batch_size=0)
        with pytest.raises(sl.ConfigError):
            sl.TrainConfig(learning_rate=0.0)
        with pytest.raises(sl.ConfigError):
            sl.TrainConfig(optimizer="rmsprop")
        with pytest.raises(sl.ConfigError):
            sl.TrainConfig(min_loss_delta=-1.0)

    def test_config_file_load_and_overrides(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# comment\n\nbatch_size = 64\nlearning_rate=0.01\noptimizer=sgd\n"
        )
        config = sl.load_train_config(path)
        assert config.batch_size == 64
        assert config.learning_rate == 0.01
        assert config.optimizer == "sgd"
        overridden = sl.load_train_config(path, batch_size=32)
        assert overridden.batch_size == 32

    def test_config_file_errors(self, tmp_path):
        bad_key = tmp_path / "a.cfg"
        bad_key.write_text("momentum=0.9\n")
        with pytest.raises(sl.ConfigError, match="line 1"):
            sl.load_train_config(bad_key)
        bad_value = tmp_path / "b.cfg"
        bad_value.write_text("batch_size=lots\n")
        with pytest.raises(sl.ConfigError, match="line 1"):
            sl.load_train_config(bad_value)
        no_eq = tmp_path / "c.cfg"
        no_eq.write_text("batch_size\n")
        with pytest.raises(sl.ConfigError, match="line 1"):
            sl.load_train_config(no_eq)
        duplicate = tmp_path / "d.cfg"
        duplicate.write_text("max_epochs=1\n# again\nmax_epochs=2\n")
        with pytest.raises(sl.ConfigError, match="line 3.*duplicate"):
            sl.load_train_config(duplicate)


class TestTrainLoop:
    def test_plateau_stops_at_patience_plus_one(self):
        # zero model + zero inputs + balanced labels sit exactly at the
        # uniform saddle: every gradient vanishes, loss stays ln 3 forever
        samples = zero_windows(6, [0, 1, 2, 0, 1, 2])
        config = sl.TrainConfig(patience_epochs=5, max_epochs=100, seed=0)
        trained, logs = sl.train(zero_model(), samples, config)
        assert len(logs) == config.patience_epochs + 1
        for log in logs:
            assert log.mean_loss == pytest.approx(np.log(3.0), abs=1e-12)
        # sum of uniform probabilities over a balanced batch cancels the
        # one-hots only up to float roundoff, so allow crumbs
        assert all(np.abs(p).max() < 1e-9 for p in sl.model_params(trained))

    def test_determinism_across_runs(self):
        train_set = synth_train_set(n_vehicles=2)
        config = sl.TrainConfig(max_epochs=5, seed=11)
        model = sl.new_model(seed=11)
        a, logs_a = sl.train(model, train_set, config)
        b, logs_b = sl.train(model, train_set, config)
        for pa, pb in zip(sl.model_params(a), sl.model_params(b)):
            assert (pa == pb).all()
        assert [l.mean_loss for l in logs_a] == [l.mean_loss for l in logs_b]

    def test_loss_decreases_on_separable_data(self):
        train_set = synth_train_set(n_vehicles=2)
        config = sl.TrainConfig(max_epochs=30, seed=1)
        _, logs = sl.train(sl.new_model(seed=1), train_set, config)
        assert logs[-1].mean_loss < logs[0].mean_loss

    def test_best_model_restored_not_last(self):
        # with a plateau from epoch 1, the returned model is epoch 1's
        samples = zero_windows(6, [0, 1, 2, 0, 1, 2])
        config = sl.TrainConfig(patience_epochs=2, max_epochs=10, seed=0)
        trained, _ = sl.train(zero_model(), samples, config)
        assert all(np.abs(p).max() < 1e-9 for p in sl.model_params(trained))

    def test_max_epochs_one(self):
        train_set = synth_train_set(n_vehicles=2)
        _, logs = sl.train(sl.new_model(), train_set, sl.TrainConfig(max_epochs=1))
        assert len(logs) == 1
        assert logs[0].epoch == 1

    def test_empty_train_set_rejected(self):
        with pytest.raises(sl.UsageError):
            sl.train(sl.new_model(), [], sl.TrainConfig())

    def test_shape_mismatch_rejected(self):
        bad = [sl.WindowSample(features=np.zeros((10, 5)), label=0,
                               vehicle_id="x", end_frame=0)]
        with pytest.raises(sl.UsageError):
            sl.train(sl.new_model(), bad, sl.TrainConfig())

    def test_nonfinite_loss_raises_divergence(self, monkeypatch):
        # finite-parameter arithmetic cannot actually produce a non-finite
        # loss here, so exercise the guard by faking a poisoned batch
        real = tr.forward_batch

        def poisoned(model, windows):
            cache = real(model, windows)
            bad = cache.log_probs.copy()
            bad[0, :] = -np.inf
            return type(cache)(
                cache.input, cache.currents, cache.membrane,
                cache.spikes, cache.pooled, cache.logits, bad,
            )

        monkeypatch.setattr(tr, "forward_batch", poisoned)
        samples = zero_windows(4, [0, 1, 2, 0])
        with pytest.raises(sl.DivergenceError, match="epoch 1"):
            sl.train(zero_model(), samples, sl.TrainConfig(max_epochs=3))

    def test_seeded_convergence_regression(self):
        # separable seed-7 set, 2000 windows: loss under 0.1 and train
        # accuracy above 0.95 well inside 500 epochs
        train_set = synth_train_set(seed=7, n_vehicles=5, stride=2)[:2000]
        config = sl.TrainConfig(max_epochs=500, seed=7, learning_rate=2e-3)
        _, logs = sl.train(sl.new_model(seed=7), train_set, config)
        assert len(logs) <= 500
        assert logs[-1].mean_loss < 0.1
        assert logs[-1].train_accuracy > 0.95


class TestTrainingLog:
    def test_three_epochs_four_lines(self, tmp_path):
        logs = [sl.EpochLog(i + 1, 0.5 / (i + 1), 0.01, 0.8) for i in range(3)]
        path = tmp_path / "train_log.csv"
        sl.write_training_log(logs, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "epoch,mean_loss,wall_time_s,train_accuracy"

    def test_round_trip_to_nine_digits(self, tmp_path):
        logs = [sl.EpochLog(1, 1 / 3, 0.123456789123, 2 / 3)]
        path = tmp_path / "train_log.csv"
        sl.write_training_log(logs, path)
        with open(path) as handle:
            row = list(csv.DictReader(handle))[0]
        assert float(row["mean_loss"]) == pytest.approx(1 / 3, abs=1e-9)
        assert float(row["train_accuracy"]) == pytest.approx(2 / 3, abs=1e-9)
        assert int(row["epoch"]) == 1

    def test_empty_log_header_only(self, tmp_path):
        path = tmp_path / "train_log.csv"
        sl.write_training_log([], path)
        assert path.read_text().splitlines() == ["epoch,mean_loss,wall_time_s,train_accuracy"]
