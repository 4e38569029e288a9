"""train and score take their working arrays from one working set per call.

score's chunks and train's batches each read blocks of one _WorkingSet, a
shorter chunk or batch the front of the same memory.  These tests check that the
reuse changes no bit against the single-window path and the public step
functions, that no call hands back memory another call holds, and, in a
child process whose glibc cannot grow its mmap threshold, that a batch or a
chunk no longer faults its arrays in afresh.
"""

import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spikelane as sl
from spikelane import model as model_module
from spikelane import training as training_module

CHUNK = model_module.SCORE_CHUNK
SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5)


@pytest.fixture(scope="module")
def windows():
    """2,542 normalized windows at the timeline stride, more than SIZES needs."""
    trajectories = sl.synthesize_dataset(31, 16)
    factor = sl.downsample_factor(trajectories[0].sample_rate_hz, 4.0)
    windows = sl.build_windows(trajectories, sl.WindowConfig(stride_frames=factor))
    assert len(windows) >= max(SIZES)
    return sl.apply_normalizer(sl.fit_normalizer(windows), windows)


def _model(reset_mode):
    return sl.new_model(seed=5, lif=sl.LifConfig(v_threshold=0.35, reset_mode=reset_mode))


@pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
def test_score_gives_predicts_bits_on_either_side_of_a_chunk(windows, reset_mode):
    model = _model(reset_mode)
    stack = windows[: max(SIZES)].features
    probs = np.array([sl.predict(model, window)[1] for window in stack])
    counts = np.array([sl.score(model, window[None])[1][0] for window in stack])
    assert counts.sum() > 0
    for n in SIZES:
        for source in (windows[:n], stack[:n]):
            log_probs, spike_counts = sl.score(model, source)
            assert np.array_equal(np.exp(log_probs), probs[:n])
            assert np.array_equal(spike_counts, counts[:n])


def test_calls_share_no_memory(windows):
    model = _model("to_zero")
    window_set = windows[: CHUNK + 1]
    for source in (window_set, window_set.features):
        first, second = sl.score(model, source), sl.score(model, source)
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)
    caches = [sl.forward_batch(model, windows[:7].features) for _ in range(2)]
    grads = [sl.backward_batch(model, cache, windows.labels[:7]).as_list() for cache in caches]
    fields = ("input", "currents", "membrane", "spikes", "pooled", "logits", "log_probs")
    first, second = ([getattr(c, f) for f in fields] + g for c, g in zip(caches, grads))
    for a in first:
        for b in second:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
def test_non_finite_window_in_the_shorter_last_chunk(windows, reset_mode):
    model = _model(reset_mode)
    window_set = windows[: CHUNK + 5]
    want = sl.score(model, window_set)
    stack = window_set.features
    stack[CHUNK + 3, 4, 2] = np.nan
    poisoned = sl.WindowSet(stack, window_set.labels, window_set.vehicle_ids,
                            window_set.end_frames)
    for source in (stack, poisoned):
        with pytest.raises(sl.NumericError):
            sl.score(model, source)
        got = sl.score(model, window_set)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


@pytest.mark.parametrize("batch_size", (1, 100))
@pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
def test_train_matches_a_loop_over_the_public_steps(windows, reset_mode, batch_size):
    # train's loop written out with forward_batch, backward_batch and
    # optimizer_step, whose arrays are new at every call; 100 windows a
    # batch leave a shorter last batch, and one window a batch runs the
    # shared blocks at their smallest shape, where to_zero resets by putmask
    train_set = windows[::2]
    assert batch_size == 1 or len(train_set) % batch_size
    model = _model(reset_mode)
    config = sl.TrainConfig(batch_size=batch_size, max_epochs=2, learning_rate=3e-2, seed=2)
    got, logs = sl.train(model, train_set, config)

    rng = np.random.default_rng(config.seed)
    theta = sl.flatten_params(sl.model_params(model))
    state = sl.init_optimizer_state(theta, config)
    best_loss, best = np.inf, None
    for log in logs:
        order = rng.permutation(len(train_set))
        total = 0.0
        for start in range(0, len(train_set), config.batch_size):
            idx = order[start : start + config.batch_size]
            current = sl.replace_params(model, sl.split_params(theta, model.hidden_dim))
            cache = sl.forward_batch(current, train_set.take(idx))
            labels = train_set.labels[idx]
            total -= float(cache.log_probs[np.arange(idx.size), labels].sum())
            grads = sl.backward_batch(current, cache, labels)
            theta = sl.optimizer_step(theta, sl.flatten_params(grads.as_list()), state, config)
        assert log.mean_loss == total / len(train_set)
        if log.mean_loss < best_loss:
            best_loss, best = log.mean_loss, theta.copy()
    want = sl.replace_params(model, sl.split_params(best, model.hidden_dim))
    assert sl.model_to_bytes(got) == sl.model_to_bytes(want)
    assert sl.model_to_bytes(got) != sl.model_to_bytes(model)


@pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
def test_train_holds_three_stacks_made_at_the_first_batch(windows, reset_mode, monkeypatch):
    # the backward pass writes into the forward's spent "currents",
    # "membrane" and "spikes" blocks; with blocks of its own it made six
    # float64 (T, N, hidden) stacks
    requested, allocated = [], []

    class Counting(model_module._WorkingSet):
        def block(self, name, shape, dtype=np.float64):
            requested.append(name)
            before = self._flat.get(name)
            block = super().block(name, shape, dtype)
            if self._flat[name] is not before:
                allocated.append((requested.count("windows"), name, block.shape, block.dtype))
            return block

    monkeypatch.setattr(training_module, "_WorkingSet", Counting)
    train_set = windows[::2]
    config = sl.TrainConfig(batch_size=128, max_epochs=2, seed=2)
    assert len(train_set) % config.batch_size
    sl.train(_model(reset_mode), train_set, config)
    assert requested.count("windows") == 2 * -(-len(train_set) // config.batch_size)
    assert {batch for batch, *_ in allocated} == {1}
    stack = (model_module.WINDOW_STEPS, config.batch_size, model_module.DEFAULT_HIDDEN_DIM)
    stacks = [name for _, name, shape, dtype in allocated
              if shape == stack and dtype == np.float64]
    assert sorted(stacks) == ["currents", "membrane", "spikes"]
    assert not {"surrogate", "reset", "adjoint"} & set(requested)


@pytest.mark.parametrize("reset_mode", model_module.RESET_MODES)
def test_backward_batch_leaves_the_cache_as_it_was(windows, reset_mode):
    # without train's working set the backward's blocks are new arrays
    model = _model(reset_mode)
    cache = sl.forward_batch(model, windows[:100].features)
    assert not cache.spikes.flags.c_contiguous
    copied = sl.ForwardCache(*(np.array(getattr(cache, f.name), order="C")
                               for f in dataclasses.fields(cache)))
    assert copied.spikes.flags.c_contiguous and copied.spikes.any()
    for source in (cache, copied):
        before = [getattr(source, f.name).tobytes() for f in dataclasses.fields(source)]
        sl.backward_batch(model, source, windows.labels[:100])
        assert [getattr(source, f.name).tobytes() for f in dataclasses.fields(source)] == before


_FAULTS = """
import json, resource
import spikelane as sl
from spikelane.model import SCORE_CHUNK

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

trajectories = sl.synthesize_dataset(7, 20)
scored = sl.build_windows(trajectories, sl.WindowConfig(stride_frames=1))
scored = sl.apply_normalizer(sl.fit_normalizer(scored), scored)
train_set = scored[::8]
model = sl.new_model(seed=7)
config = sl.TrainConfig(max_epochs=3, patience_epochs=10, seed=7)
sl.train(model, train_set, sl.TrainConfig(max_epochs=1, seed=7))  # warm-up
sl.score(model, scored)
before = faults()
_, logs = sl.train(model, train_set, config)
train_faults = faults() - before
before = faults()
sl.score(model, scored)
score_faults = faults() - before
print(json.dumps({
    "per_batch": train_faults / (len(logs) * -(-len(train_set) // config.batch_size)),
    "per_chunk": score_faults / -(-len(scored) // SCORE_CHUNK),
}))
"""


def test_batches_and_chunks_do_not_fault_their_arrays_in_again():
    # MALLOC_MMAP_THRESHOLD_ pins glibc's threshold at its 128 KiB default,
    # so that a larger array the heap cannot hold is mapped afresh.  With
    # arrays allocated per batch and per chunk this child took 744 minor
    # faults a batch and 942 a chunk; with them allocated once per call, 9
    # and 82, most of which are each call's own arrays spread over its
    # 57 batches or 19 chunks.
    pytest.importorskip("resource")
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("MALLOC_MMAP_THRESHOLD_ is a glibc setting")
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(sl.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True,
                            text=True, check=True, timeout=300)
    faults = json.loads(result.stdout)
    assert faults["per_batch"] < 100
    assert faults["per_chunk"] < 200
