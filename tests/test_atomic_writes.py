"""Artifact writers replace their destination whole, or leave it as it was."""

import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spikelane as sl
from spikelane import _atomic


@pytest.fixture(scope="module")
def writers():
    """name -> (write into a directory, a CSV it writes, the first file it writes)."""
    model = sl.new_model(seed=1)
    traj = sl.synthesize_dataset(24, 1)[0]
    stats = sl.NormStats(mean=np.zeros(5), std=np.ones(5))
    windows = sl.build_windows(sl.synthesize_dataset(25, 2), sl.WindowConfig(stride_frames=6))
    logs = [sl.EpochLog(epoch, 1.0 / epoch, 0.1, 0.5) for epoch in (1, 2, 3)]
    report = sl.evaluate(model, sl.apply_normalizer(sl.fit_normalizer(windows), windows))
    bench = sl.make_bench_report(model, logs, final_accuracy=0.5, macro_auc=0.5)
    return {
        "save_model": (lambda d: sl.save_model(model, d / "model.spkl"), None, "model.spkl"),
        "save_norm_stats": (lambda d: sl.save_norm_stats(stats, d / "norm.csv"),
                            "norm.csv", "norm.csv"),
        "write_training_log": (lambda d: sl.write_training_log(logs, d / "log.csv"),
                               "log.csv", "log.csv"),
        "write_eval_report": (lambda d: sl.write_eval_report(report, d),
                              "roc_class0.csv", "eval_report.txt"),
        "write_timeline_csv": (
            lambda d: sl.write_timeline_csv(sl.timeline_predict(model, traj, stats), d / "t.csv"),
            "t.csv", "t.csv"),
        "write_bench_report": (lambda d: sl.write_bench_report(bench, d),
                               "bench_report.csv", "bench_report.txt"),
        "write_trajectories_csv": (lambda d: sl.write_trajectories_csv([traj], d / "traj.csv"),
                                   "traj.csv", "traj.csv"),
    }


ALL_WRITERS = [
    "save_model", "save_norm_stats", "write_training_log", "write_eval_report",
    "write_timeline_csv", "write_bench_report", "write_trajectories_csv",
]
CSV_WRITERS = ALL_WRITERS[1:]


def _temp_files(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("old", [b"old\n", None], ids=["replacing", "new"])
@pytest.mark.parametrize("name", CSV_WRITERS)
def test_writer_failing_midway_leaves_no_partial_file(name, old, writers, tmp_path, monkeypatch):
    write, target, _ = writers[name]
    if old is not None:
        (tmp_path / target).write_bytes(old)
    real_open = open

    class FailingOnSecondWrite:
        """The file a writer opens, except that its second write fails, as on
        a full disk: after the header, whether rows go out one by one or as
        one block."""

        def __init__(self, handle):
            self._handle, self._writes = handle, 0

        def write(self, text):
            self._writes += 1
            if self._writes == 2:
                raise RuntimeError("disk full")
            return self._handle.write(text)

        def __getattr__(self, attr):
            return getattr(self._handle, attr)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return self._handle.__exit__(*exc_info)

    def open_failing_for_target(path, *args, **kwargs):
        handle = real_open(path, *args, **kwargs)
        if Path(path).name.startswith(f".{target}."):  # atomic_open's temp file
            return FailingOnSecondWrite(handle)
        return handle

    monkeypatch.setattr(_atomic, "open", open_failing_for_target, raising=False)
    with pytest.raises(RuntimeError, match="disk full"):
        write(tmp_path)
    if old is None:
        assert not (tmp_path / target).exists()
    else:
        assert (tmp_path / target).read_bytes() == old
    assert _temp_files(tmp_path) == []


@pytest.mark.parametrize("name", ALL_WRITERS)
def test_failed_rename_keeps_old_file(name, writers, tmp_path, monkeypatch):
    write, _, first = writers[name]
    (tmp_path / first).write_bytes(b"old\n")

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(PermissionError):
        write(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [first]
    assert (tmp_path / first).read_bytes() == b"old\n"


@pytest.mark.parametrize("name", ALL_WRITERS)
def test_success_leaves_no_temp_file_and_usual_permissions(name, writers, tmp_path):
    write, _, first = writers[name]
    write(tmp_path)
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    assert _temp_files(tmp_path) == []
    assert os.stat(tmp_path / first).st_mode == os.stat(plain).st_mode


def _joined_whole(header, row_format, rows):
    """The bytes of writing the header and every row as one joined block."""
    line = row_format + "\r\n"
    return (",".join(header) + "\r\n" + "".join(line % row for row in rows)).encode("utf-8")


@pytest.mark.parametrize("block_rows", [1, 3, _atomic._BLOCK_ROWS])
@pytest.mark.parametrize("n", [0, 1, 5, 6, _atomic._BLOCK_ROWS * 2 + 7])
def test_rows_written_a_block_at_a_time_give_the_whole_file_bytes(
    n, block_rows, tmp_path, monkeypatch
):
    rng = np.random.default_rng(n)
    ints, floats = rng.integers(-10**6, 10**6, n), rng.normal(size=(2, n)) * 1e5
    floats[:, :1] = np.inf  # a ROC curve's first threshold
    header, row_format = ("frame", "a", "b"), "%d,%.9g,%.17g"
    want = _joined_whole(header, row_format, zip(ints.tolist(), *floats.tolist()))
    monkeypatch.setattr(_atomic, "_BLOCK_ROWS", block_rows)
    _atomic.write_numeric_csv(tmp_path / "x.csv", header, row_format,
                              _atomic.array_rows(ints, *floats))
    assert (tmp_path / "x.csv").read_bytes() == want


def _peak_above_live(write):
    """The tracemalloc peak of write() above what was allocated before it."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        write()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def _wide_report(n):
    """An EvalReport whose three ROC curves have n + 1 points each."""
    rng = np.random.default_rng(n)
    curve = sl.roc_curve(rng.random(n), rng.integers(0, 2, n))
    return sl.EvalReport(n_samples=n, accuracy=0.5, confusion=np.zeros((3, 3), dtype=int),
                         roc_curves=(curve, curve, curve), macro_auc=curve.auc, warnings=(),
                         spikes_per_window=0.0, synops_per_window=0.0)


def test_numeric_csv_transient_does_not_grow_with_rows(tmp_path):
    # formatting every row before one write held a str per row: 7.4 MB above
    # live data for 80,000 rows, four times that of 20,000
    peaks = [
        _peak_above_live(lambda: _atomic.write_numeric_csv(
            tmp_path / "x.csv", ("i", "x"), "%d,%.9g", ((i, i / 7) for i in range(n))))
        for n in (20_000, 80_000)
    ]
    assert peaks[1] < 2 * 2**20
    assert peaks[1] < peaks[0] + 2**18


def test_eval_report_transient_does_not_grow_with_curve_length(tmp_path):
    # whole-column tolist() lists and a str per row: 15.7 MB above live data
    # for three 80,001-point curves, four times that of 20,001-point ones
    peaks = []
    for n in (20_000, 80_000):
        report = _wide_report(n)
        peaks.append(_peak_above_live(lambda: sl.write_eval_report(report, tmp_path / str(n))))
    assert peaks[1] < 2 * 2**20
    assert peaks[1] < peaks[0] + 2**18
