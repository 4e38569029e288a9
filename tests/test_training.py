"""Optimizer math, the training loop, early stopping, and the log file."""

import csv
from dataclasses import fields

import numpy as np
import pytest

import spikelane as sl
from spikelane import training as tr

from oracles import backward_batch_batch_major, forward_batch_batch_major


def zero_model():
    model = sl.new_model()
    zeros = [np.zeros_like(p) for p in sl.model_params(model)]
    return sl.replace_params(model, zeros)


def zero_windows(n, labels):
    return sl.WindowSet(features=np.zeros((n, 12, 5)), labels=labels[:n],
                        vehicle_ids=["z"] * n, end_frames=np.arange(n))


def synth_train_set(seed=7, n_vehicles=5, stride=2):
    trajs = sl.synthesize_dataset(seed, n_vehicles)
    windows = sl.build_windows(trajs, sl.WindowConfig(stride_frames=stride))
    stats = sl.fit_normalizer(windows)
    return sl.apply_normalizer(stats, windows)


class TestOptimizerStep:
    def test_sgd_basic(self):
        config = sl.TrainConfig(optimizer="sgd", learning_rate=0.1)
        out = sl.optimizer_step(np.array([1.0]), np.array([1.0]), None, config)
        assert out[0] == pytest.approx(0.9, abs=0)

    def test_adam_first_step_closed_form(self):
        # bias correction makes step one lr * g / (|g| + eps), so the update
        # magnitude is ~lr at any gradient scale
        config = sl.TrainConfig(optimizer="adam", learning_rate=1e-3)
        for scale in (1e-5, 1.0, 1e6):
            g = np.array([scale, -scale])
            state = sl.init_optimizer_state(np.zeros(2), config)
            out = sl.optimizer_step(np.zeros(2), g, state, config)
            want = -config.learning_rate * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(out, want, rtol=1e-12)
            assert np.abs(out).max() == pytest.approx(1e-3, rel=2e-3)

    def test_adam_second_step_matches_hand_recurrence(self):
        config = sl.TrainConfig(optimizer="adam", learning_rate=0.01)
        g1, g2 = np.array([0.3]), np.array([-0.2])
        p = np.array([1.0])
        state = sl.init_optimizer_state(p, config)
        p1 = sl.optimizer_step(p, g1, state, config)
        p2 = sl.optimizer_step(p1, g2, state, config)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1**2) + 0.001 * g2**2
        m_hat = m / (1 - 0.9**2)
        v_hat = v / (1 - 0.999**2)
        want = p1 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p2, want, rtol=1e-12)

    def test_zero_grads_leave_params_unchanged(self):
        p = np.array([1.0, -2.0])
        g = np.zeros(2)
        sgd = sl.TrainConfig(optimizer="sgd")
        assert (sl.optimizer_step(p, g, None, sgd) == p).all()
        adam = sl.TrainConfig(optimizer="adam")
        state = sl.init_optimizer_state(p, adam)
        np.testing.assert_allclose(sl.optimizer_step(p, g, state, adam), p, atol=1e-12)

    def test_misaligned_shapes_rejected(self):
        config = sl.TrainConfig()
        state = sl.init_optimizer_state(np.zeros(2), config)
        with pytest.raises(sl.UsageError):
            sl.optimizer_step(np.zeros(2), np.zeros(3), state, config)
        with pytest.raises(sl.UsageError):
            sl.optimizer_step(np.zeros(2), np.zeros(2), None, config)

    @pytest.mark.parametrize("m,v,name", [
        (np.zeros(2), np.zeros(3), "first"),
        (np.zeros(3), np.zeros((1, 3)), "second"),
    ])
    def test_adam_moments_of_the_wrong_shape_rejected(self, m, v, name):
        # a wrong length once raised a bare ValueError from broadcasting
        state = sl.AdamState(m, v)
        with pytest.raises(sl.ShapeError, match=f"Adam {name} moment shape"):
            sl.optimizer_step(np.zeros(3), np.zeros(3), state, sl.TrainConfig())
        assert state.step == 0

    def test_adam_moments_that_cannot_be_cast_rejected(self):
        state = sl.AdamState(np.zeros(3), ["x", 0.0, 0.0])
        with pytest.raises(sl.NumericError, match="Adam second moment must be numeric"):
            sl.optimizer_step(np.zeros(3), np.zeros(3), state, sl.TrainConfig())

    def test_adam_moments_given_as_lists_are_arrays(self):
        # lists once raised a bare TypeError; they give the array state's bits
        config = sl.TrainConfig()
        g = np.array([0.3, -0.2, 0.0])
        want_state = sl.AdamState(np.array([0.1, 0.0, -0.1]), np.array([0.01, 0.0, 0.02]), step=2)
        want = sl.optimizer_step(np.ones(3), g, want_state, config)
        state = sl.AdamState([0.1, 0.0, -0.1], [0.01, 0.0, 0.02], step=2)
        got = sl.optimizer_step(np.ones(3), g, state, config)
        assert got.tobytes() == want.tobytes()
        assert state.m.tobytes() == want_state.m.tobytes()
        assert state.v.tobytes() == want_state.v.tobytes()
        assert state.step == 3

    @pytest.mark.parametrize("optimizer,learning_rate,gradient", [
        ("adam", 1e-3, [np.inf, 0.0, 0.0]),  # inf / inf in the update
        ("adam", 1e-3, [np.nan, 0.0, 0.0]),
        ("adam", 1e-3, [1e200, 0.0, 0.0]),  # finite; the second moment overflows
        ("sgd", 1e-3, [-np.inf, 0.0, 0.0]),
        ("sgd", 1e300, [1e10, 0.0, 0.0]),  # finite; lr * gradient overflows
    ])
    def test_step_that_is_not_finite_rejected(self, optimizer, learning_rate, gradient):
        config = sl.TrainConfig(optimizer=optimizer, learning_rate=learning_rate)
        state = sl.init_optimizer_state(np.zeros(3), config)
        with pytest.raises(sl.NumericError, match="optimizer step is not finite"):
            sl.optimizer_step(np.zeros(3), np.array(gradient), state, config)


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
        for bad in ({"learning_rate": np.inf}, {"learning_rate": np.nan},
                    {"min_loss_delta": np.inf}, {"min_loss_delta": np.nan}):
            with pytest.raises(sl.ConfigError):
                sl.TrainConfig(**bad)

    def test_negative_seed_rejected(self):
        with pytest.raises(sl.ConfigError, match="seed"):
            sl.TrainConfig(seed=-1)

    @pytest.mark.parametrize("name", ["batch_size", "max_epochs", "patience_epochs", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2"])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(sl.ConfigError, match=f"{name} must be an integer"):
            sl.TrainConfig(**{name: value})

    def test_config_file_naming_every_field_loads(self, tmp_path):
        values = dict(batch_size=16, learning_rate=0.5, max_epochs=7, patience_epochs=3,
                      min_loss_delta=0.25, seed=9, optimizer="sgd")
        assert set(values) == {f.name for f in fields(sl.TrainConfig)}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert sl.load_train_config(path) == sl.TrainConfig(**values)

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
        # a window set off the schema's (N, 12, 5) cannot be built, so never reaches train
        with pytest.raises(sl.ShapeError):
            sl.WindowSet(features=np.zeros((1, 10, 5)), labels=[0],
                         vehicle_ids=["x"], end_frames=[0])

    def test_nonfinite_loss_raises_divergence(self, monkeypatch):
        # finite-parameter arithmetic cannot actually produce a non-finite
        # loss here, so exercise the guard by faking a poisoned batch
        real = tr.forward_batch

        def poisoned(model, windows, **kwargs):
            cache = real(model, windows, **kwargs)
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

    def test_nonfinite_parameter_mid_epoch_raises_divergence(self, monkeypatch):
        # three batches per epoch; the fifth gradient (epoch 2) is poisoned
        real, calls = tr.backward_batch, []

        def poisoned(model, cache, labels, **kwargs):
            grads = real(model, cache, labels, **kwargs)
            calls.append(None)
            if len(calls) == 5:
                grads.feature_weights[0, 0] = np.nan
            return grads

        monkeypatch.setattr(tr, "backward_batch", poisoned)
        samples = zero_windows(6, [0, 1, 2, 0, 1, 2])
        config = sl.TrainConfig(batch_size=2, max_epochs=3, patience_epochs=5)
        with pytest.raises(sl.DivergenceError, match="epoch 2"):
            sl.train(zero_model(), samples, config)
        assert len(calls) == 5

    def test_input_model_left_unchanged(self):
        model = sl.new_model(seed=3)
        before = [p.copy() for p in sl.model_params(model)]
        sl.train(model, synth_train_set(n_vehicles=2), sl.TrainConfig(max_epochs=2, seed=3))
        for p, q in zip(sl.model_params(model), before):
            assert (p == q).all()

    def test_returned_models_share_no_memory(self):
        model = sl.new_model(seed=4)
        train_set = synth_train_set(n_vehicles=2)
        config = sl.TrainConfig(max_epochs=2, seed=4)
        a, _ = sl.train(model, train_set, config)
        b, _ = sl.train(model, train_set, config)
        for pa in sl.model_params(a):
            for pb in sl.model_params(b) + sl.model_params(model):
                assert not np.shares_memory(pa, pb)

    @pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
    def test_step_keeps_batch_major_bits(self, monkeypatch, reset_mode):
        # the same run with the batch-major reference step: equal bytes on any
        # host, where a pinned checkpoint hash would depend on the BLAS build
        samples = synth_train_set(seed=11, n_vehicles=4, stride=3)
        model = sl.new_model(seed=4, lif=sl.LifConfig(reset_mode=reset_mode))
        config = sl.TrainConfig(max_epochs=2, patience_epochs=3, learning_rate=0.03, seed=2)
        got, got_logs = sl.train(model, samples, config)
        # train passes its working set as _work, which the reference step allocates without
        monkeypatch.setattr(tr, "forward_batch", lambda model, windows, _work: (
            forward_batch_batch_major(model, windows)))
        monkeypatch.setattr(tr, "backward_batch", lambda model, cache, labels, _work: (
            backward_batch_batch_major(model, cache, labels)))
        want, want_logs = sl.train(model, samples, config)
        assert sl.model_to_bytes(got) == sl.model_to_bytes(want)
        assert [log.mean_loss for log in got_logs] == [log.mean_loss for log in want_logs]
        assert sl.model_to_bytes(got) != sl.model_to_bytes(model)

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
