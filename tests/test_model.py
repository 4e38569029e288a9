"""Core network ops against independent naive oracles."""

from dataclasses import fields

import numpy as np
import pytest

import spikelane as sl
from spikelane.model import (
    _MULTIPLY_RESET_SIZE, DEFAULT_HIDDEN_DIM, SCORE_CHUNK, ForwardCache, _log_softmax,
)

from oracles import (
    backward_batch_batch_major,
    forward_batch_batch_major,
    naive_lif,
    naive_matmul,
    smooth_cache,
)


def with_feature_layer(weights, bias):
    """The default model with the given feature layer and a zero classifier."""
    return sl.replace_params(sl.new_model(), [weights, bias, np.zeros((24, 3)), np.zeros(3)])


class TestLinearForward:
    """The feature layer's currents, as forward returns them."""

    def test_zero_input_rows_equal_bias(self):
        model = sl.new_model(seed=1)
        currents = sl.forward(model, np.zeros((12, 5))).currents
        assert currents.shape == (12, 24)
        assert (currents == model.feature_layer.bias).all()

    def test_identity_weights_pass_through(self):
        model = sl.Model(
            feature_layer=sl.LinearLayer(weights=np.eye(5), bias=np.zeros(5)),
            classifier=sl.LinearLayer(weights=np.zeros((5, 3)), bias=np.zeros(3)),
        )
        x = np.random.default_rng(2).normal(size=(12, 5))
        assert (sl.forward(model, x).currents == x).all()

    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 5))
        model = sl.new_model(seed=3)
        got = sl.forward(model, x).currents
        layer = model.feature_layer
        want = naive_matmul(x, layer.weights, layer.bias)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(sl.ShapeError, match=r"\(12, 4\).*\(12, 5\)"):
            sl.forward(sl.new_model(), np.zeros((12, 4)))


class TestLifForward:
    def test_hand_computed_recurrence(self):
        # beta 0.5: membrane walks 0.6, 0.9, 1.05; the third step crosses
        cfg = sl.LifConfig(beta=0.5, v_threshold=1.0)
        currents = np.array([[0.6], [0.6], [0.6], [0.0]])
        spikes, membrane = sl.lif_forward(currents, cfg)
        np.testing.assert_allclose(membrane[:, 0], [0.6, 0.9, 1.05, 0.0], atol=1e-12)
        assert spikes[:, 0].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_zero_currents_stay_silent(self):
        spikes, membrane = sl.lif_forward(np.zeros((12, 24)), sl.LifConfig())
        assert not spikes.any()
        assert not membrane.any()

    def test_threshold_is_inclusive(self):
        currents = np.zeros((3, 1))
        currents[1, 0] = 1.0
        spikes, _ = sl.lif_forward(currents, sl.LifConfig())
        assert spikes[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_subtract_reset_keeps_residual(self):
        cfg = sl.LifConfig(beta=0.5, v_threshold=1.0, reset_mode="subtract")
        currents = np.array([[1.2], [0.0]])
        spikes, membrane = sl.lif_forward(currents, cfg)
        assert spikes[0, 0] == 1.0
        # residual 0.2 decays to 0.1 at the next step
        np.testing.assert_allclose(membrane[:, 0], [1.2, 0.1], atol=1e-12)

    def test_subthreshold_matches_geometric_sum(self):
        rng = np.random.default_rng(11)
        cfg = sl.LifConfig()
        currents = rng.uniform(-0.05, 0.08, size=(12, 24))
        spikes, membrane = sl.lif_forward(currents, cfg)
        assert not spikes.any()
        t_idx = np.arange(12)
        for t in range(12):
            closed_form = (cfg.beta ** (t - t_idx[: t + 1])) @ currents[: t + 1]
            np.testing.assert_allclose(membrane[t], closed_form, atol=1e-12)

    @pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
    def test_suprathreshold_matches_naive_recurrence_bitwise(self, reset_mode):
        rng = np.random.default_rng(12)
        cfg = sl.LifConfig(reset_mode=reset_mode)
        currents = rng.uniform(-0.5, 1.5, size=(12, 24))
        spikes, membrane = sl.lif_forward(currents, cfg)
        want_s, want_m = naive_lif(currents, cfg.beta, cfg.v_threshold, reset_mode)
        assert spikes.sum() > 0
        assert (spikes == want_s).all()
        assert (membrane == want_m).all()

    def test_nonfinite_current_names_position(self):
        currents = np.zeros((12, 24))
        currents[3, 7] = np.nan
        with pytest.raises(sl.NumericError, match=r"t=3.*j=7"):
            sl.lif_forward(currents, sl.LifConfig())

    @pytest.mark.parametrize("reset_mode,current", [("to_zero", -1e308), ("subtract", 1e308)])
    def test_currents_overflowing_the_state_rejected(self, reset_mode, current):
        # finite, but two steps of u = beta * u + current overflow the state
        # (with a warning, an error under filterwarnings) without the bound
        with pytest.raises(sl.NumericError, match="must be finite and within"):
            sl.lif_forward(np.full((2, 1), current), sl.LifConfig(reset_mode=reset_mode))

    def test_no_time_steps_rejected(self):
        with pytest.raises(sl.ShapeError, match=r"currents shape \(0, 24\), expected \(T, H\)"):
            sl.lif_forward(np.zeros((0, 24)), sl.LifConfig())


def dyadic(rng, shape):
    """Values whose LIF sums at beta 0.5 are exact, so potentials land exactly
    on a threshold of 1.0, and signed zeros, with the smallest subnormal,
    whose product with beta is -0.0."""
    return rng.choice([-1.0, -0.5, -5e-324, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5], size=shape)


def same_bits(a, b):
    return a.shape == b.shape and (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


@pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
class TestLifContract:
    """Every caller of the LIF recurrence against naive_lif, bit for bit, where
    a potential lands exactly on v_threshold, on +0.0 and on -0.0."""

    CFG = dict(beta=0.5, v_threshold=1.0)

    def check_step_outputs(self, currents, spikes, membrane, cfg):
        assert spikes.dtype == np.float64 and membrane.dtype == np.float64
        assert np.isin(spikes, [0.0, 1.0]).all()
        assert not np.shares_memory(spikes, membrane)
        assert not np.shares_memory(membrane, currents)
        want_s, want_m = naive_lif(currents, cfg.beta, cfg.v_threshold, cfg.reset_mode)
        assert same_bits(spikes, want_s)
        assert same_bits(membrane, want_m)  # a row aliased to the running state would differ
        return want_m

    def test_lif_forward(self, reset_mode):
        cfg = sl.LifConfig(reset_mode=reset_mode, **self.CFG)
        currents = dyadic(np.random.default_rng(21), (12, 40))
        currents[:4, 0] = [1.0, 0.5, 0.75, -0.0]    # fires on the threshold at steps 0 and 2
        currents[:4, 1] = [-5e-324, -0.0, -0.0, 1.5]  # -0.0 potential at steps 1 and 2
        currents[:, 2] = 0.0
        spikes, membrane = sl.lif_forward(currents, cfg)
        want_m = self.check_step_outputs(currents, spikes, membrane, cfg)
        assert (want_m == 1.0).sum() >= 2
        assert (np.signbit(want_m) & (want_m == 0)).sum() >= 2
        assert (~np.signbit(want_m) & (want_m == 0)).sum() >= 12

    def test_lif_forward_past_the_reset_switch(self, reset_mode):
        # a (T, H) state of _MULTIPLY_RESET_SIZE neurons takes the multiply
        # reset; the feature GEMM of the batched paths drops the sign of a
        # zero current, so here a -0.0 potential meets it
        cfg = sl.LifConfig(reset_mode=reset_mode, **self.CFG)
        currents = dyadic(np.random.default_rng(23), (12, _MULTIPLY_RESET_SIZE))
        currents[:4, 0] = [1.0, 0.5, 0.75, -0.0]
        currents[:4, 1] = [-5e-324, -0.0, -0.0, 1.5]
        spikes, membrane = sl.lif_forward(currents, cfg)
        want_m = self.check_step_outputs(currents, spikes, membrane, cfg)
        assert (want_m == 1.0).sum() >= 2
        assert (np.signbit(want_m) & (want_m == 0)).sum() >= 2

    # The to_zero reset switches from putmask to a multiply at a state of
    # _MULTIPLY_RESET_SIZE values: at SWITCH windows of these 5 neurons, so
    # SWITCH - 1 windows are the largest batch that takes putmask, as
    # predict's one window does.  score's chunks of SCORE_CHUNK + 1 windows
    # take the multiply, then putmask.  Both sides pool the same way.
    SWITCH = -(-_MULTIPLY_RESET_SIZE // 5)

    @pytest.mark.parametrize("n", [1, 37, SWITCH - 1, SWITCH, SCORE_CHUNK + 1])
    def test_forward_batch_and_score(self, reset_mode, n):
        # identity feature layer: each window's currents are its features, but
        # for the sign of a zero, which the GEMM may drop; so naive_lif reads
        # the currents the cache holds
        model = sl.Model(
            feature_layer=sl.LinearLayer(np.eye(5), np.zeros(5)),
            classifier=sl.LinearLayer(np.zeros((5, 3)), np.zeros(3)),
            lif=sl.LifConfig(reset_mode=reset_mode, **self.CFG),
        )
        windows = dyadic(np.random.default_rng(22 + n), (n, 12, 5))
        windows[0, :4, 0] = [1.0, 0.5, 0.75, 0.0]
        windows[0, :, 1] = 0.0
        cache = sl.forward_batch(model, windows)
        _, counts = sl.score(model, windows)
        hits = 0
        for i in range(n):
            want_m = self.check_step_outputs(
                cache.currents[i], cache.spikes[i], cache.membrane[i], model.lif
            )
            assert counts[i] == cache.spikes[i].sum()
            hits += (want_m == 1.0).sum()
        assert hits >= 2
        assert same_bits(cache.pooled, cache.spikes.mean(axis=1))


class TestLifContractNumpyScalars(TestLifContract):
    """The same contract for a config built from a NumPy scalar and an int,
    which _lif_steps turns into 0-d float64 operands like any float."""

    CFG = dict(beta=np.float64(0.5), v_threshold=1)


class TestResetSwitch:
    """Which to_zero reset each caller's LIF state takes, by counting
    np.putmask calls rather than by timing them."""

    @pytest.fixture
    def putmask_calls(self, monkeypatch):
        calls = []
        putmask = np.putmask

        def spy(a, mask, values):
            calls.append(a.shape)
            putmask(a, mask, values)

        monkeypatch.setattr(np, "putmask", spy)
        return calls

    def test_a_default_training_batch_multiplies(self, putmask_calls):
        n = sl.TrainConfig().batch_size
        rng = np.random.default_rng(34)
        windows = sl.WindowSet(features=rng.normal(size=(n, 12, 5)), labels=np.arange(n) % 3,
                               vehicle_ids=["v"] * n, end_frames=np.arange(n))
        _, logs = sl.train(sl.new_model(seed=1), windows, sl.TrainConfig(max_epochs=1))
        assert len(logs) == 1
        assert putmask_calls == []

    def test_predict_resets_each_step_with_putmask(self, putmask_calls):
        window = np.random.default_rng(34).normal(size=(12, 5))
        sl.predict(sl.new_model(seed=1), window)
        assert putmask_calls == [(1, DEFAULT_HIDDEN_DIM)] * 12


class TestPoolingAndSoftmax:
    def test_all_ones_pool_to_one(self):
        # a bias at twice the threshold fires every neuron on every step
        firing = with_feature_layer(np.zeros((5, 24)), np.full(24, 2.0))
        assert (sl.forward(firing, np.zeros((12, 5))).pooled == 1.0).all()
        silent = with_feature_layer(np.zeros((5, 24)), np.zeros(24))
        assert (sl.forward(silent, np.zeros((12, 5))).pooled == 0.0).all()

    def test_single_spike_pools_to_one_twelfth(self):
        # feature 0 drives neuron 9 alone; one unit pulse at step 4 fires it once
        weights = np.zeros((5, 24))
        weights[0, 9] = 1.0
        x = np.zeros((12, 5))
        x[4, 0] = 1.0
        cache = sl.forward(with_feature_layer(weights, np.zeros(24)), x)
        assert cache.spikes.sum() == cache.spikes[4, 9] == 1.0
        pooled = cache.pooled
        assert pooled[9] == pytest.approx(1 / 12, abs=0)
        assert pooled.sum() == pooled[9]

    def test_uniform_logits_give_uniform_probs(self):
        lp = sl.softmax_logprobs(np.zeros(3))
        np.testing.assert_allclose(lp, np.log(1 / 3), atol=1e-15)

    @pytest.mark.parametrize("logits", [[], np.zeros(0), np.zeros((1, 3))])
    def test_empty_or_not_1d_rejected(self, logits):
        with pytest.raises(sl.ShapeError, match="logits shape"):
            sl.softmax_logprobs(logits)

    def test_huge_logit_does_not_overflow(self):
        lp = sl.softmax_logprobs(np.array([1000.0, 0.0, 0.0]))
        probs = np.exp(lp)
        assert np.isfinite(lp).all()
        np.testing.assert_allclose(probs, [1.0, 0.0, 0.0], atol=1e-300)

    def test_matches_naive_softmax(self):
        z = np.array([1.0, 2.0, 3.0])
        naive = np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(np.exp(sl.softmax_logprobs(z)), naive, atol=1e-12)

    def test_normalization_and_shift_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = rng.normal(scale=10.0, size=3)
            lp = sl.softmax_logprobs(z)
            assert abs(np.exp(lp).sum() - 1.0) < 1e-9
            shifted = sl.softmax_logprobs(z + rng.normal(scale=100.0))
            np.testing.assert_allclose(lp, shifted, atol=1e-12)


class TestForward:
    def test_zero_model_zero_input_is_uniform(self):
        model = sl.replace_params(
            sl.new_model(), [np.zeros((5, 24)), np.zeros(24), np.zeros((24, 3)), np.zeros(3)]
        )
        cache = sl.forward(model, np.zeros((12, 5)))
        np.testing.assert_allclose(np.exp(cache.log_probs), 1 / 3, atol=1e-15)

    def test_probabilities_normalize(self):
        rng = np.random.default_rng(8)
        model = sl.new_model(seed=2)
        for _ in range(20):
            cache = sl.forward(model, rng.normal(size=(12, 5)))
            assert abs(np.exp(cache.log_probs).sum() - 1.0) < 1e-9

    def test_cache_is_deterministic(self):
        model = sl.new_model(seed=3)
        x = np.random.default_rng(9).normal(size=(12, 5))
        a, b = sl.forward(model, x), sl.forward(model, x)
        for name in ("currents", "membrane", "spikes", "pooled", "logits", "log_probs"):
            assert (getattr(a, name) == getattr(b, name)).all()

    def test_spikes_are_binary(self):
        model = sl.new_model(seed=4)
        cache = sl.forward(model, np.random.default_rng(10).normal(size=(12, 5)))
        assert set(np.unique(cache.spikes)) <= {0.0, 1.0}

    def test_rejects_wrong_shape_and_nan(self):
        model = sl.new_model()
        with pytest.raises(sl.ShapeError):
            sl.forward(model, np.zeros((11, 5)))
        bad = np.zeros((12, 5))
        bad[0, 0] = np.inf
        with pytest.raises(sl.NumericError):
            sl.forward(model, bad)


class TestScore:
    def test_matches_forward_batch(self):
        model = sl.new_model(seed=5)
        windows = np.random.default_rng(16).normal(size=(300, 12, 5))
        log_probs, spike_counts = sl.score(model, windows)
        cache = sl.forward_batch(model, windows)
        assert spike_counts.dtype == np.int64
        assert np.array_equal(spike_counts, cache.spikes.sum(axis=(1, 2)))
        assert spike_counts.sum() > 0
        # the readouts differ only in summation order
        np.testing.assert_allclose(log_probs, cache.log_probs, rtol=0, atol=1e-14)

    def test_rejects_wrong_shape_and_nan(self):
        model = sl.new_model()
        with pytest.raises(sl.ShapeError):
            sl.score(model, np.zeros((4, 11, 5)))
        bad = np.zeros((4, 12, 5))
        bad[2, 0, 0] = np.inf
        with pytest.raises(sl.NumericError):
            sl.score(model, bad)

    def test_empty_stack(self):
        log_probs, spike_counts = sl.score(sl.new_model(), np.zeros((0, 12, 5)))
        assert log_probs.shape == (0, 3) and spike_counts.shape == (0,)


@pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
@pytest.mark.parametrize("call", [
    lambda model, window: sl.score(model, window[None]),
    lambda model, window: sl.predict(model, window),
    lambda model, window: sl.forward_batch(model, window[None]),
], ids=["score", "predict", "forward_batch"])
def test_window_overflowing_the_feature_layer_is_rejected(call, reset_mode):
    # one finite frame of 1.7e308 times the signs of one neuron's weights:
    # its current on that neuron passes the largest float64, and the GEMM
    # must not warn first (filterwarnings = error would raise the warning)
    model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
    weights = model.feature_layer.weights
    j = np.abs(weights).sum(axis=0).argmax()
    assert np.abs(weights[:, j]).sum() * 1.7 > 1.8
    window = np.zeros((12, 5))
    window[3] = 1.7e308 * np.sign(weights[:, j])
    with pytest.raises(sl.NumericError, match="must be finite"):
        call(model, window)


@pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
@pytest.mark.parametrize("call", [
    lambda model, window: sl.score(model, window[None]),
    lambda model, window: sl.predict(model, window),
    lambda model, window: sl.forward_batch(model, window[None]),
], ids=["score", "predict", "forward_batch"])
def test_window_overflowing_the_lif_state_is_rejected(call, reset_mode):
    # every current on one neuron is about -1e308, finite, but twelve steps of
    # u = beta * u + current would overflow the state (with a warning) to -inf
    model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
    weights = model.feature_layer.weights[:, 0]
    window = np.tile(-1e308 * np.sign(weights) / np.abs(weights).sum(), (12, 1))
    with pytest.raises(sl.NumericError, match="must be finite"):
        call(model, window)


@pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
def test_backward_of_huge_currents_is_finite(reset_mode):
    # (1 + slope * |v|) ** 2 overflows at currents of 1e200; the surrogate
    # gradient is then 0.0, its limit, with no warning
    model = sl.new_model(seed=5, lif=sl.LifConfig(reset_mode=reset_mode))
    weights = model.feature_layer.weights[:, 0]
    window = np.tile(1e200 * np.sign(weights) / np.abs(weights).sum(), (12, 1))
    cache = sl.forward_batch(model, window[None])
    assert cache.currents[0, :, 0].min() > 9e199
    grads = sl.backward_batch(model, cache, np.array([1]))
    assert all(np.isfinite(g).all() for g in grads.as_list())


@pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
def test_backward_with_a_threshold_near_the_float64_limit_is_finite(reset_mode):
    # currents just inside the bound take the membrane to about -7e307, and
    # membrane - v_threshold overflows to -inf, whose surrogate gradient is 0.0
    model = sl.new_model(seed=5, lif=sl.LifConfig(v_threshold=1.5e308, reset_mode=reset_mode))
    weights = model.feature_layer.weights[:, 0]
    window = np.tile(-1e307 * np.sign(weights) / np.abs(weights).sum(), (12, 1))
    cache = sl.forward_batch(model, window[None])
    assert cache.membrane[0, :, 0].min() < -7e307
    grads = sl.backward_batch(model, cache, np.array([1]))
    assert all(np.isfinite(g).all() for g in grads.as_list())


@pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
@pytest.mark.parametrize("lif", [dict(surrogate_slope=1e300), dict(v_threshold=1e200)])
def test_overflowing_adjoint_is_rejected_by_the_optimizer(lif, reset_mode):
    # the membrane at threshold on every step multiplies the adjoint by
    # about v_threshold * surrogate_slope per step: the gradients overflow
    # without a warning, and optimizer_step rejects them
    model = sl.new_model(seed=5, lif=sl.LifConfig(**lif, reset_mode=reset_mode))
    shape = (1, model.input_steps, model.hidden_dim)
    cache = ForwardCache(
        input=np.ones((1, model.input_steps, model.input_dim)), currents=np.zeros(shape),
        membrane=np.full(shape, model.lif.v_threshold), spikes=np.ones(shape),
        pooled=np.ones((1, model.hidden_dim)), logits=np.zeros((1, 3)),
        log_probs=np.log(np.full((1, 3), 1 / 3)),
    )
    flat = sl.flatten_params(sl.backward_batch(model, cache, np.array([0])).as_list())
    assert not np.isfinite(flat).all()
    config = sl.TrainConfig()
    with pytest.raises(sl.NumericError, match="optimizer step is not finite"):
        sl.optimizer_step(np.zeros_like(flat), flat, sl.init_optimizer_state(flat, config), config)


class TestNllLoss:
    def test_uniform_single_sample_is_ln3(self):
        lp = np.log(np.full(3, 1 / 3))
        assert sl.nll_loss([lp], [1]) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_certain_prediction_is_zero(self):
        lp = np.array([0.0, -np.inf, -np.inf])
        assert sl.nll_loss([lp], [0]) == 0.0

    def test_hand_computed_batch_of_two(self):
        lp1 = np.log(np.array([0.5, 0.3, 0.2]))
        lp2 = np.log(np.array([0.25, 0.5, 0.25]))
        want = (np.log(2.0) + np.log(4.0)) / 2.0
        assert sl.nll_loss([lp1, lp2], [0, 0]) == pytest.approx(want, abs=1e-12)

    def test_usage_errors(self):
        lp = np.log(np.full(3, 1 / 3))
        with pytest.raises(sl.UsageError):
            sl.nll_loss([], [])
        with pytest.raises(sl.UsageError):
            sl.nll_loss([lp], [0, 1])
        with pytest.raises(sl.UsageError):
            sl.nll_loss([lp], [3])

    @pytest.mark.parametrize("labels", [[1.5], [1.0], np.array([True]), [[1]]])
    def test_non_integer_labels_rejected(self, labels):
        # casting would truncate 1.5 to class 1
        lp = np.log(np.full(3, 1 / 3))
        with pytest.raises(sl.UsageError):
            sl.nll_loss([lp], labels)


class TestParamsAndConfig:
    def test_default_model_has_219_parameters(self):
        assert sl.param_count(sl.new_model()) == 219

    def test_dims_come_from_the_dataset_schema(self):
        model = sl.new_model()
        assert model.input_steps == sl.dataset.WINDOW_STEPS
        assert model.input_dim == len(sl.FEATURE_NAMES)
        assert model.classes == len(sl.LABEL_NAMES)

    def test_tiny_model_count_closed_form(self):
        model = sl.new_model(hidden_dim=1)
        assert sl.param_count(model) == 5 + 1 + 3 + 3

    def test_degenerate_dims_rejected(self):
        with pytest.raises(sl.ConfigError):
            sl.new_model(hidden_dim=0)

    @pytest.mark.parametrize("hidden_dim", [2**64, 1_000_001])
    def test_hidden_dim_past_the_cap_rejected(self, hidden_dim):
        with pytest.raises(sl.ConfigError, match="hidden_dim must be <= 1,000,000"):
            sl.new_model(hidden_dim=hidden_dim)

    @pytest.mark.parametrize("input_dim,classes", [(5, 4), (4, 3)])
    def test_dims_off_the_schema_rejected(self, input_dim, classes):
        with pytest.raises(sl.ConfigError, match="schema"):
            sl.Model(
                feature_layer=sl.LinearLayer(np.zeros((input_dim, 24)), np.zeros(24)),
                classifier=sl.LinearLayer(np.zeros((24, classes)), np.zeros(classes)),
            )

    def test_classifier_width_must_match_the_feature_layer(self):
        with pytest.raises(sl.ConfigError, match="classifier expects 23 inputs but the "
                                                 "feature layer produces 24"):
            sl.Model(feature_layer=sl.LinearLayer(np.zeros((5, 24)), np.zeros(24)),
                     classifier=sl.LinearLayer(np.zeros((23, 3)), np.zeros(3)))

    def test_negative_seed_rejected(self):
        with pytest.raises(sl.ConfigError, match="seed"):
            sl.new_model(seed=-1)

    @pytest.mark.parametrize("name", ["seed", "hidden_dim"])
    @pytest.mark.parametrize("value", [2.5, 2.0])
    def test_non_integer_arguments_rejected(self, name, value):
        with pytest.raises(sl.ConfigError, match=f"{name} must be an integer"):
            sl.new_model(**{name: value})

    @pytest.mark.parametrize("lif", ["x", {"beta": 0.9}])
    def test_lif_must_be_lif_config(self, lif):
        with pytest.raises(sl.ConfigError, match="lif must be a LifConfig"):
            sl.new_model(lif=lif)
        layers = sl.new_model()
        with pytest.raises(sl.ConfigError, match="lif must be a LifConfig"):
            sl.Model(layers.feature_layer, layers.classifier, lif=lif)

    def test_lif_config_validation(self):
        with pytest.raises(sl.ConfigError):
            sl.LifConfig(beta=1.0)
        with pytest.raises(sl.ConfigError):
            sl.LifConfig(v_threshold=0.0)
        with pytest.raises(sl.ConfigError):
            sl.LifConfig(reset_mode="clamp")

    @pytest.mark.parametrize("field", ["v_threshold", "surrogate_slope"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    def test_lif_config_values_must_be_finite(self, field, value):
        with pytest.raises(sl.ConfigError, match=f"{field} must be finite"):
            sl.LifConfig(**{field: value})

    def test_new_model_seeded_and_bounded(self):
        a, b = sl.new_model(seed=42), sl.new_model(seed=42)
        for pa, pb in zip(sl.model_params(a), sl.model_params(b)):
            assert (pa == pb).all()
        assert np.abs(a.feature_layer.weights).max() <= 1 / np.sqrt(5)
        assert np.abs(a.classifier.weights).max() <= 1 / np.sqrt(24)
        c = sl.new_model(seed=43)
        assert (a.feature_layer.weights != c.feature_layer.weights).any()

    def test_replace_params_roundtrip(self):
        model = sl.new_model(seed=6)
        same = sl.replace_params(model, sl.model_params(model))
        for pa, pb in zip(sl.model_params(model), sl.model_params(same)):
            assert (pa == pb).all()
        assert same.lif == model.lif


class TestBatchedTwins:
    def test_forward_batch_matches_single_forward_bitwise(self):
        rng = np.random.default_rng(13)
        model = sl.new_model(seed=5)
        windows = rng.normal(size=(17, 12, 5))
        batch = sl.forward_batch(model, windows)
        for i in range(17):
            single = sl.forward(model, windows[i])
            assert (batch.spikes[i] == single.spikes).all()
            assert (batch.membrane[i] == single.membrane).all()
            np.testing.assert_allclose(batch.log_probs[i], single.log_probs, atol=1e-12)

    def test_backward_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(14)
        model = sl.new_model(seed=5)
        windows = rng.normal(size=(9, 12, 5))
        labels = rng.integers(0, 3, size=9)
        batch = sl.forward_batch(model, windows)
        got = sl.backward_batch(model, batch, labels)
        singles = [
            sl.backward(model, sl.forward(model, windows[i]), int(labels[i])).as_list()
            for i in range(9)
        ]
        for k, arr in enumerate(got.as_list()):
            want = np.mean([s[k] for s in singles], axis=0)
            np.testing.assert_allclose(arr, want, atol=1e-12)

    def test_label_length_mismatch(self):
        model = sl.new_model()
        batch = sl.forward_batch(model, np.zeros((4, 12, 5)))
        with pytest.raises(sl.UsageError):
            sl.backward_batch(model, batch, np.zeros(3, dtype=int))

    def test_float_labels_rejected(self):
        # casting would truncate 1.5 to class 1
        model = sl.new_model()
        batch = sl.forward_batch(model, np.zeros((2, 12, 5)))
        with pytest.raises(sl.UsageError, match="labels must be integers"):
            sl.backward_batch(model, batch, np.array([0.0, 1.5]))
        with pytest.raises(sl.UsageError, match="labels must be integers"):
            sl.backward(model, sl.forward(model, np.zeros((12, 5))), 1.5)


class TestTimeMajorStepMatchesBatchMajor:
    """forward_batch/backward_batch against the batch-major reference step,
    bit for bit: the time-major layout must not move a single ulp."""

    @staticmethod
    def make_case(reset_mode, n, seed):
        rng = np.random.default_rng(seed)
        model = sl.new_model(seed=seed, lif=sl.LifConfig(reset_mode=reset_mode))
        # scaled so that some neurons fire and some do not
        windows = rng.normal(size=(n, 12, 5)) * 3.0
        labels = rng.integers(0, 3, size=n)
        return model, windows, labels

    @staticmethod
    def assert_same_bits(got, want):
        for name in ("input", "currents", "membrane", "spikes", "pooled", "logits", "log_probs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), name

    @staticmethod
    def assert_same_grads(got, want):
        for a, b in zip(got.as_list(), want.as_list()):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
    @pytest.mark.parametrize("n", [1, 128, 1000])
    def test_forward_and_backward(self, reset_mode, n):
        model, windows, labels = self.make_case(reset_mode, n, seed=40 + n)
        cache = sl.forward_batch(model, windows)
        want = forward_batch_batch_major(model, windows)
        self.assert_same_bits(cache, want)
        assert 0 < want.spikes.mean() < 1
        self.assert_same_grads(
            sl.backward_batch(model, cache, labels),
            backward_batch_batch_major(model, want, labels),
        )

    @pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
    def test_backward_on_contiguous_batch_major_cache(self, reset_mode):
        model, windows, labels = self.make_case(reset_mode, 128, seed=7)
        cache = sl.forward_batch(model, windows)
        copied = ForwardCache(
            *(np.ascontiguousarray(getattr(cache, f.name)) for f in fields(ForwardCache))
        )
        assert copied.membrane.flags.c_contiguous
        want = backward_batch_batch_major(model, copied, labels)
        self.assert_same_grads(sl.backward_batch(model, copied, labels), want)
        self.assert_same_grads(sl.backward_batch(model, cache, labels), want)

    @pytest.mark.parametrize("reset_mode", ["to_zero", "subtract"])
    @pytest.mark.parametrize("n", [1, 128])
    def test_backward_on_smooth_cache(self, reset_mode, n):
        # non-binary spikes, stacked into C-contiguous (N, T, H) fields
        model, windows, labels = self.make_case(reset_mode, n, seed=8 + n)
        singles = [smooth_cache(model, w) for w in windows]
        cache = ForwardCache(
            *(np.stack([getattr(c, f.name) for c in singles]) for f in fields(ForwardCache))
        )
        assert not np.isin(cache.spikes, (0.0, 1.0)).any()
        self.assert_same_grads(
            sl.backward_batch(model, cache, labels),
            backward_batch_batch_major(model, cache, labels),
        )


def test_log_softmax_batched_rows_match_single():
    rng = np.random.default_rng(15)
    z = rng.normal(size=(6, 3)) * 5
    rows = _log_softmax(z)
    for i in range(6):
        np.testing.assert_allclose(rows[i], sl.softmax_logprobs(z[i]), atol=1e-15)
