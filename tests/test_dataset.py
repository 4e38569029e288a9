"""Ingestion, labeling, windowing, normalization, and splitting."""

import contextlib
import csv
import io
import os
import random
import threading
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import spikelane as sl
from spikelane import dataset
from spikelane.dataset import CSV_HEADER

from oracles import naive_windows


HEADER = ",".join(CSV_HEADER)


def keep_row(vid, frame, lane=3, delta=0.0):
    return f"{vid},{frame},{delta},30.0,0.0,0.0,0.0,{lane}"


def make_traj(n=300, rate=25.0, events=(), vid="v1", rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return sl.Trajectory(
        vehicle_id=vid,
        sample_rate_hz=rate,
        t_index=np.arange(n, dtype=np.int64),
        features=rng.normal(size=(n, 5)),
        events=tuple(events),
    )


class TestParse:
    def test_two_vehicles_no_events(self):
        rows = [HEADER]
        rows += [keep_row("a", f) for f in range(3)]
        rows += [keep_row("b", f) for f in range(2)]
        trajs = sl.parse_trajectories(io.StringIO("\n".join(rows)), 25.0)
        assert [t.vehicle_id for t in trajs] == ["a", "b"]
        assert [len(t) for t in trajs] == [3, 2]
        assert all(t.events == () for t in trajs)

    def test_lane_change_yields_event_at_switch_frame(self):
        rows = [HEADER]
        # drifting left (delta_y climbing), lane id increments at frame 100
        rows += [keep_row("a", f, lane=3, delta=1.5) for f in range(99, 100)]
        rows += [keep_row("a", f, lane=4, delta=-1.6) for f in range(100, 102)]
        trajs = sl.parse_trajectories(io.StringIO("\n".join(rows)), 25.0)
        assert trajs[0].events == (sl.LaneChangeEvent(onset_frame=100, direction="left"),)

    def test_right_change_from_positive_jump(self):
        rows = [HEADER,
                keep_row("a", 0, lane=3, delta=-1.6),
                keep_row("a", 1, lane=2, delta=1.5)]
        trajs = sl.parse_trajectories(io.StringIO("\n".join(rows)), 25.0)
        assert trajs[0].events[0].direction == "right"

    def test_malformed_row_names_line(self):
        with pytest.raises(sl.ParseError, match="line 2"):
            sl.parse_trajectories(io.StringIO(HEADER + "\na,b,c"), 25.0)

    def test_bad_header(self):
        with pytest.raises(sl.ParseError, match="line 1"):
            sl.parse_trajectories(io.StringIO("x,y\n1,2"), 25.0)

    def test_non_numeric_cell_names_line(self):
        body = "\n".join([HEADER, keep_row("a", 0), "a,1,oops,30.0,0.0,0.0,0.0,3"])
        with pytest.raises(sl.ParseError, match="line 3"):
            sl.parse_trajectories(io.StringIO(body), 25.0)

    @pytest.mark.parametrize("frame,lane", [("99999999999999999999999", "3"),
                                            ("1", "-99999999999999999999999")])
    def test_integer_beyond_int64_names_line(self, frame, lane):
        body = "\n".join([HEADER, keep_row("a", 0), f"a,{frame},0.0,30.0,0.0,0.0,0.0,{lane}"])
        with pytest.raises(sl.ParseError, match="line 3"):
            sl.parse_trajectories(io.StringIO(body), 25.0)

    def test_duplicate_frame_rejected(self):
        body = "\n".join([HEADER, keep_row("a", 5), keep_row("a", 5)])
        with pytest.raises(sl.ParseError, match="line 3"):
            sl.parse_trajectories(io.StringIO(body), 25.0)

    def test_frames_at_int64_extremes(self):
        lo, hi = -(2**63), 2**63 - 1
        body = "\n".join([HEADER, keep_row("a", hi), keep_row("a", lo)])
        (traj,) = sl.parse_trajectories(io.StringIO(body), 25.0)
        assert traj.t_index.tolist() == [lo, hi]
        with pytest.raises(sl.UsageError, match="strictly increasing"):
            sl.Trajectory("a", 25.0, np.array([hi, lo]), np.zeros((2, 5)))

    @pytest.mark.parametrize("t_index", [[0.5, 1.7], [0.0, 1.0], [0, 2**64], [0, 2**63]])
    def test_non_integer_t_index_rejected(self, t_index):
        with pytest.raises(sl.UsageError, match="t_index must be integers within int64"):
            sl.Trajectory("v", 25.0, t_index, np.zeros((2, 5)))

    @pytest.mark.parametrize("t_index,features", [
        (5, np.zeros((1, 5))), ([[0, 1], [2, 3]], np.zeros((2, 5))),
        ([0, 1], np.zeros((3, 5))), ([0, 1], np.zeros((2, 4))), ([0, 1], np.zeros(10)),
    ])
    def test_shapes_checked(self, t_index, features):
        with pytest.raises(sl.ShapeError, match="t_index shape"):
            sl.Trajectory("v", 25.0, t_index, features)

    @pytest.mark.parametrize("onset", [1.0, 1.5, "1", None])
    def test_non_integer_onset_rejected(self, onset):
        with pytest.raises(sl.UsageError, match="onset_frame must be an integer"):
            sl.LaneChangeEvent(onset_frame=onset, direction="left")
        assert sl.LaneChangeEvent(np.int64(1), "left").onset_frame == 1

    @pytest.mark.parametrize("onset", [101, -2, 400])
    def test_onset_not_a_frame_rejected_at_construction(self, onset):
        frames = np.arange(0, 400, 2)  # onset 101 falls between frames 100 and 102
        with pytest.raises(sl.UsageError, match=f"onset {onset} is not a frame"):
            sl.Trajectory("a", 25.0, frames, np.zeros((200, 5)),
                          (sl.LaneChangeEvent(onset, "left"),))

    @pytest.mark.parametrize("events, message", [
        ((sl.LaneChangeEvent(100, "left"), sl.LaneChangeEvent(50, "right")),
         "events not sorted by onset for vehicle a"),
        ((sl.LaneChangeEvent(100, "up"),), "unknown event direction 'up'"),
    ])
    def test_bad_events_rejected_at_construction(self, events, message):
        with pytest.raises(sl.UsageError, match=message):
            sl.Trajectory("a", 25.0, np.arange(200), np.zeros((200, 5)), events)

    def test_unsorted_rows_are_ordered_by_frame(self):
        body = "\n".join([HEADER, keep_row("a", 2), keep_row("a", 0), keep_row("a", 1)])
        (traj,) = sl.parse_trajectories(io.StringIO(body), 25.0)
        assert traj.t_index.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("rate", [0.0, -5.0, np.nan, np.inf, 1e308])
    def test_sample_rate_without_finite_horizon_rejected(self, rate):
        with pytest.raises(sl.ConfigError, match="sample_rate_hz"):
            make_traj(n=10, rate=rate)

    def test_empty_input(self):
        with pytest.raises(sl.ParseError, match="line 1"):
            sl.parse_trajectories(io.StringIO(""), 25.0)


def _rows_only(text):
    """Parse with the row parser alone, the reference for the column path;
    a ParseError becomes its message."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    try:
        return dataset._parse_rows(reader, 25.0)
    except sl.ParseError as error:
        return str(error)


def _assert_same_parse(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert [t.vehicle_id for t in got] == [t.vehicle_id for t in want]
    for a, b in zip(got, want):
        assert a.sample_rate_hz == b.sample_rate_hz
        assert a.t_index.dtype == b.t_index.dtype
        assert a.t_index.tolist() == b.t_index.tolist()
        assert a.features.dtype == b.features.dtype
        assert a.features.tobytes() == b.features.tobytes()  # bit for bit, NaN-safe
        assert a.events == b.events


def _body(*rows, newline="\n"):
    return newline.join([HEADER, *rows]) + newline


def _synth_csv():
    """A synthetic fleet in the ingest schema, with CRLF line ends as
    csv.writer writes them; the lane id steps at every lane change."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    for traj in sl.synthesize_dataset(7, 3):
        lanes = np.full(len(traj), 3)
        for event in traj.events:
            lanes[traj.t_index >= event.onset_frame] += 1 if event.direction == "left" else -1
        for frame, row, lane in zip(traj.t_index.tolist(), traj.features.tolist(), lanes.tolist()):
            writer.writerow([traj.vehicle_id, frame, *map(repr, row), lane])
    return buffer.getvalue()


# (name, CSV text, whether the column path accepts it without the row parser)
PARITY_CASES = [
    ("synth", _synth_csv(), True),
    ("long_id", _body(keep_row("x" * 300, 0), keep_row("b", 0), keep_row("x" * 300, 1)), True),
    ("quoted_comma_id", _body('"a,b",0,0.0,30.0,0.0,0.0,0.0,3', keep_row("a", 0)), True),
    ("padded_id", _body(keep_row("  a  ", 1), keep_row("a", 0), keep_row("\ta", 2)), True),
    ("crlf", _body(keep_row("a", 0), keep_row("a", 1), newline="\r\n"), True),
    ("blank_lines", _body(keep_row("a", 0), "", keep_row("a", 1), ""), True),
    ("trailing_blank_line", _body(keep_row("a", 0), keep_row("a", 1), ""), True),
    ("crlf_blank_lines",
     _body("", keep_row("a", 0), "", "", keep_row("a", 1), newline="\r\n"), True),
    ("quoted_cell_spans_blank_line",
     _body('"a\n\nb",0,0.0,30.0,0.0,0.0,0.0,3', keep_row("a", 0)), True),
    ("whitespace_line", _body(keep_row("a", 0), "   ", keep_row("a", 1)), False),
    ("hash_line", _body("# comment", keep_row("a", 0)), False),
    ("underscore_frame", _body(keep_row("a", "1_000"), keep_row("a", 0)), False),
    ("signed_padded_frame", _body(keep_row("a", "+5"), keep_row("a", " 12 ")), True),
    ("interleaved", _body(*(keep_row(v, f) for f in (3, 1, 2, 0) for v in "cab")), True),
    ("duplicate", _body(keep_row("a", 0), keep_row("b", 0), keep_row(" a", 0)), False),
    ("blank_line_then_duplicate", _body(keep_row("a", 0), "", keep_row("a", 0)), False),
    ("nan", _body(keep_row("a", 0), "a,1,nan,30.0,0.0,0.0,0.0,3"), False),
    ("infinity", _body(keep_row("a", 0), "a,1,0.0,infinity,0.0,0.0,0.0,3"), False),
    ("frame_2_63", _body(keep_row("a", 0), keep_row("a", 2**63)), False),
    ("extra_cell", _body(keep_row("a", 0), keep_row("a", 1) + ",9"), False),
    ("nul_in_id", _body(keep_row("a\0", 0), keep_row("a", 1)), True),
    ("one_row", _body(keep_row("a", 7, lane=2, delta=-0.25)), True),
    ("header_only", _body(), False),
]


class TestParseParity:
    """The column path and the row parser agree on results and on errors."""

    @pytest.mark.parametrize("name,text,columnar", PARITY_CASES,
                             ids=[case[0] for case in PARITY_CASES])
    def test_path_matches_row_parser(self, tmp_path, name, text, columnar):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        want = _rows_only(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = io.StringIO(text, newline="").readlines()[1:]
            direct = dataset._parse_columns(body, 25.0)
            try:
                got = sl.parse_trajectories(path, 25.0)
            except sl.ParseError as error:
                got = str(error)
        assert (direct is not None) == columnar
        if direct is not None:
            _assert_same_parse(direct, want)
        _assert_same_parse(got, want)

    @pytest.mark.parametrize("block", [1, 2])
    @pytest.mark.parametrize("name,text,columnar", PARITY_CASES,
                             ids=[case[0] for case in PARITY_CASES])
    def test_blocks_of_rows_match_row_parser(self, monkeypatch, name, text, columnar, block):
        # The column parser reads _PARSE_BLOCK rows per loadtxt call.  With
        # blocks of one or two rows every case crosses block boundaries: a
        # row rejected in any block still leaves the file to the row parser,
        # and an accepted file parses the same.  A block of blank lines only
        # may hand a file with blank lines to the row parser as well.
        monkeypatch.setattr(dataset, "_PARSE_BLOCK", block)
        want = _rows_only(text)
        body = io.StringIO(text, newline="").readlines()[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            direct = dataset._parse_columns(body, 25.0)
        if direct is not None:
            _assert_same_parse(direct, want)
        blank = any(not line.strip() for line in body)
        assert (direct is not None) == columnar or (columnar and blank)

    @pytest.mark.parametrize("name,text,columnar", PARITY_CASES,
                             ids=[case[0] for case in PARITY_CASES])
    def test_text_source_matches_path(self, tmp_path, name, text, columnar):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        outcomes = []
        for source in (path, io.StringIO(text, newline="")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    outcomes.append(sl.parse_trajectories(source, 25.0))
                except sl.ParseError as error:
                    outcomes.append(str(error))
        _assert_same_parse(*outcomes)

    def test_cell_past_csv_field_limit_still_rejected(self):
        # NumPy would read this zero-padded frame as 5; the csv module refuses it
        frame = "0" * csv.field_size_limit() + "5"
        with pytest.raises(csv.Error, match="field limit"):
            sl.parse_trajectories(io.StringIO(_body(keep_row("a", frame))), 25.0)

    def test_bad_row_before_undecodable_bytes_is_reported(self, tmp_path):
        # A bad row ahead of an invalid UTF-8 byte is the error reported; the
        # decode error only when the rows before it are sound.
        path = tmp_path / "bad.csv"
        rows = [keep_row("a", f) for f in range(3000)]
        rows[1] = "a,1,oops,30.0,0.0,0.0,0.0,3"
        path.write_bytes(_body(*rows).encode("utf-8") + b"\xff\n")
        with pytest.raises(sl.ParseError, match="line 3: non-numeric"):
            sl.parse_trajectories(path, 25.0)
        path.write_bytes(_body(keep_row("a", 0)).encode("utf-8") + b"\xff\n")
        with pytest.raises(UnicodeDecodeError):
            sl.parse_trajectories(path, 25.0)


DIFF_SEED = 20_261_018
DIFF_CASES = 300


def _unusual_number(cell, rng):
    kind = rng.choice(("plus", "spaces", "quoted", "unicode_digits", "1e308", "4.9e-324"))
    if kind == "plus":
        return kind, "+" + cell.lstrip("-")
    if kind == "spaces":
        return kind, f" {cell} "
    if kind == "quoted":
        return kind, f'"{cell}"'
    if kind == "unicode_digits":  # Arabic-Indic, Devanagari or fullwidth digits
        zero = rng.choice((0x660, 0x966, 0xFF10))
        return kind, cell.translate({ord("0") + d: zero + d for d in range(10)})
    return kind, kind


def _unusual_id(cell, rng):
    kind = rng.choice(("quote", "comma", "pad", "pad", "pad"))
    if kind == "quote":
        return kind, f'"{cell}""q"'
    if kind == "comma":
        return kind, f'"{cell},c"'
    pad = rng.choice(("\u3000", "\x1c", "\x85"))  # whitespace to str.strip, not to csv
    return f"pad {pad!r}", f"{pad}{cell}{pad}"


def _differential_case(rng):
    """A valid body but for one unusual cell; returns (kind, CSV text)."""
    rows = []
    for v in range(rng.randint(1, 3)):
        lane = 3
        for frame in rng.sample(range(40), rng.randint(1, 8)):
            lane += rng.choice((0, 0, 0, -1, 1))
            rows.append([f"v{v}", str(frame), *(repr(rng.uniform(-3, 3)) for _ in range(5)),
                         str(lane)])
    rng.shuffle(rows)
    row = rng.choice(rows)
    column = rng.randrange(len(CSV_HEADER))
    unusual = _unusual_id if column == 0 else _unusual_number
    kind, row[column] = unusual(row[column], rng)
    return f"{CSV_HEADER[column]}:{kind}", _body(*(",".join(r) for r in rows))


class TestParseDifferential:
    """Seeded bodies with one unusual cell each: the column path and the
    public parser agree with the row parser, results and errors alike."""

    def test_parsers_agree(self):
        rng = random.Random(DIFF_SEED)
        columnar = 0
        for case in range(DIFF_CASES):
            kind, text = _differential_case(rng)
            want = _rows_only(text)
            try:
                got = sl.parse_trajectories(io.StringIO(text, newline=""), 25.0)
            except sl.ParseError as error:
                got = str(error)
            direct = dataset._parse_columns(io.StringIO(text, newline="").readlines()[1:], 25.0)
            try:
                _assert_same_parse(got, want)
                if direct is not None:
                    columnar += 1
                    _assert_same_parse(direct, want)
            except AssertionError as error:
                pytest.fail(f"case {case} ({kind}) of {text!r}: {error}")
        assert columnar > 0  # the column path took part


# PARITY_CASES, plus bodies that are not the row parser's to judge alone: a
# cell past the csv field limit, invalid UTF-8 after sound and after bad rows,
# lone \r line ends, and an id byte that is not UTF-8 (a lone surrogate once
# read as sys.stdin reads it)
SOURCE_CASES = [(name, text.encode("utf-8")) for name, text, _ in PARITY_CASES] + [
    ("past_field_limit",
     _body(keep_row("a", 0), keep_row("a", "0" * csv.field_size_limit() + "1")).encode("utf-8")),
    ("undecodable_after_sound_rows",
     _body(*(keep_row("a", f) for f in range(3000))).encode("utf-8") + b"\xff\n"),
    ("undecodable_after_bad_row",
     _body(keep_row("a", 0), "a,1,oops,30.0,0.0,0.0,0.0,3",
           *(keep_row("a", f) for f in range(2, 3000))).encode("utf-8") + b"\xff\n"),
    ("lone_cr", _body(keep_row("a", 0), keep_row("b", 0), keep_row("a", 1), newline="\r")
     .encode("utf-8")),
    ("lone_surrogate_id",  # past the first 8 KB that a text handle decodes
     _body(*(keep_row("b", f) for f in range(3000)), keep_row("a\udcff", 0),
           keep_row("a\udcff", 1)).encode("utf-8", "surrogateescape")),
]


def _outcome(source):
    """What parse_trajectories gives for a source: the trajectories, the
    ParseError's message, or the name of any other error's type (a decode
    error's position depends on how the bytes were read)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return sl.parse_trajectories(source, 25.0)
        except sl.ParseError as error:
            return str(error)
        except (UnicodeDecodeError, csv.Error) as error:
            return type(error).__name__


def _fifo_outcome(path, data):
    """_outcome of a FIFO at path that a thread fills with data: a source
    that cannot seek."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as handle:
                handle.write(data)
        except BrokenPipeError:  # the parser stopped reading at a decode error
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return _outcome(path)
    finally:
        writer.join(timeout=30)


class Unseekable(io.TextIOWrapper):
    """A text handle that cannot seek, as one on a pipe cannot."""

    def seekable(self):
        return False


def _source(path, seekable):
    """The file at path as a parse source, in a with block: the path itself,
    or a text handle on it that cannot seek."""
    if seekable:
        return contextlib.nullcontext(path)
    return Unseekable(open(path, "rb"), encoding="utf-8", newline="")


class RewindRecorder(io.StringIO):
    """A StringIO that records where it stood at each seek."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rewound_from = []

    def seek(self, *args):
        self.rewound_from.append(self.tell())
        return super().seek(*args)


class TestParseSources:
    """A seekable source is read lazily, a line at a time; a source that
    cannot seek is spooled first; every source gives the result or error the
    same text gives from a path."""

    @pytest.mark.parametrize("name,data", SOURCE_CASES, ids=[case[0] for case in SOURCE_CASES])
    def test_sources_match_path(self, tmp_path, name, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        want = _outcome(path)
        (tmp_path / "skip.csv").write_bytes(b"a line before the header\n" + data)
        with open(tmp_path / "skip.csv", encoding="utf-8", newline="") as handle:
            handle.readline()  # seekable, and not at its start
            _assert_same_parse(_outcome(handle), want)
        with open(tmp_path / "skip.csv", encoding="utf-8", newline="") as handle:
            next(handle)  # a text file read by next() cannot tell() its position
            _assert_same_parse(_outcome(handle), want)
        # bytes that are not UTF-8 read as lone surrogates, as sys.stdin reads them
        text = data.decode("utf-8", "surrogateescape")
        source = io.StringIO("a line before the header\n" + text, newline="")
        source.readline()
        got = _outcome(source)
        with Unseekable(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                        newline="") as stdin:
            _assert_same_parse(_outcome(stdin), got)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:  # a decode error from the path
            return
        _assert_same_parse(got, want)

    @pytest.mark.parametrize("name,data", SOURCE_CASES, ids=[case[0] for case in SOURCE_CASES])
    def test_spool_past_its_memory_matches_path(self, tmp_path, monkeypatch, name, data):
        # a spool of a few bytes in memory moves to its file on the first block of two lines
        monkeypatch.setattr(dataset, "_SPOOL_MEMORY", 8)
        monkeypatch.setattr(dataset, "_SPOOL_LINES", 2)
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        with _source(path, seekable=False) as source:
            _assert_same_parse(_outcome(source), _outcome(path))

    def test_iterable_of_lines_splits_at_lone_cr_as_a_path_does(self, tmp_path):
        # An iterable of lines is spooled and read back as a file is, so a
        # lone \r inside one of its lines ends a record there.
        lines = [HEADER + "\n", keep_row("a", 0) + "\r" + keep_row("a", 1) + "\n"]
        path = tmp_path / "data.csv"
        path.write_bytes("".join(lines).encode("utf-8"))
        want = _outcome(path)
        assert [len(traj) for traj in want] == [2]
        _assert_same_parse(_outcome(iter(lines)), want)

    def test_source_stays_open_after_parse_error(self):
        # the caller's handle is theirs to close, after a result or an error
        source = io.StringIO(_body(keep_row("a", 0), "a,1,oops,30.0,0.0,0.0,0.0,3"))
        with pytest.raises(sl.ParseError, match="line 3: non-numeric"):
            sl.parse_trajectories(source, 25.0)
        assert not source.closed

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    @pytest.mark.parametrize("name,data", SOURCE_CASES, ids=[case[0] for case in SOURCE_CASES])
    def test_fifo_matches_path(self, tmp_path, name, data):
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        _assert_same_parse(_fifo_outcome(tmp_path / "fifo.csv", data), _outcome(path))

    @pytest.mark.parametrize("bad_row,error", [
        ("a,4000,oops,30.0,0.0,0.0,0.0,3", "line 4002: non-numeric cell"),
        ("a,4000,nan,30.0,0.0,0.0,0.0,3", "line 4002: non-finite feature value"),
        (keep_row("a", 17), r"line 4002: duplicate \(vehicle, frame\) = \('a', 17\)"),
        (keep_row("a", 4000) + ",9", "line 4002: expected 8 cells, got 9"),
    ])
    def test_bad_row_after_lines_read_lazily_names_its_line(self, tmp_path, bad_row, error):
        rows = [keep_row("a", f) for f in range(5000)]
        rows[4000] = bad_row
        text = _body(*rows)
        source = RewindRecorder(text, newline="")
        with pytest.raises(sl.ParseError, match=error):
            sl.parse_trajectories(source, 25.0)
        # the column parser read its way past the bad row, then rewound
        assert len(source.rewound_from) == 1
        assert source.rewound_from[0] > text.index(bad_row)
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(sl.ParseError, match=error):
            sl.parse_trajectories(path, 25.0)

    def test_sound_seekable_source_is_read_once(self):
        source = RewindRecorder(_synth_csv(), newline="")
        assert len(sl.parse_trajectories(source, 25.0)) == 3
        assert source.rewound_from == []

    @pytest.mark.parametrize("last_row,error", [
        (keep_row("a", "1_003_000"), None),  # an int to int(), not to loadtxt
        ("a,2999,oops,30.0,0.0,0.0,0.0,3", "line 3001: non-numeric cell"),
    ], ids=["underscore_frame", "bad_cell"])
    def test_column_parser_runs_once_per_source(self, tmp_path, monkeypatch, last_row, error):
        # A file the column parser rejects goes to the row parser, which
        # reads the rewound source; it is not column-parsed a second time,
        # whatever its header.  A source that cannot seek is column-parsed
        # once too, from its spool.
        rows = [keep_row("a", f) for f in range(2999)] + [last_row]
        want = _rows_only(_body(*rows))
        if error is None:
            assert want[0].t_index[-1] == 1_003_000
        else:
            assert want.startswith(error)
        calls = []

        def counted(lines, sample_rate_hz):
            calls.append(1)
            return real(lines, sample_rate_hz)

        real = dataset._parse_columns
        monkeypatch.setattr(dataset, "_parse_columns", counted)
        for name, header in (("plain", HEADER), ("quoted", '"vehicle_id"' + HEADER[10:])):
            data = _body(*rows).replace(HEADER, header, 1).encode("utf-8")
            path = tmp_path / f"{name}.csv"
            path.write_bytes(data)
            sources = [path]
            if hasattr(os, "mkfifo"):
                sources.append(tmp_path / f"{name}.fifo")
            for source in sources:
                calls.clear()
                got = _outcome(path) if source == path else _fifo_outcome(source, data)
                _assert_same_parse(got, want)
                assert len(calls) == 1, (name, source)

    @pytest.mark.parametrize("seekable", [True, False], ids=["path", "unseekable"])
    def test_parse_memory_per_row_is_bounded(self, tmp_path, seekable):
        # The parse holds the parsed columns, not a str per line: 138 B a row
        # at its tracemalloc peak on 40 synthetic vehicles, from a path or
        # from a spool, where a list of every line took the peak to 316 B a row.
        path = tmp_path / "fleet.csv"
        trajectories = sl.synthesize_dataset(5, 40)
        sl.write_trajectories_csv(trajectories, path)
        rows = sum(map(len, trajectories))
        assert rows >= 40_000
        with _source(path, seekable) as source:
            tracemalloc.start()
            try:
                live = tracemalloc.get_traced_memory()[0]
                parsed = sl.parse_trajectories(source, 25.0)
                peak = tracemalloc.get_traced_memory()[1] - live
            finally:
                tracemalloc.stop()
        assert sum(map(len, parsed)) == rows
        assert peak < 200 * rows

    @pytest.mark.parametrize("seekable", [True, False], ids=["path", "unseekable"])
    def test_row_parser_memory_per_row_is_bounded(self, tmp_path, seekable):
        # The last row's frame, 1_000_000, is an int to int() but not to the
        # column parser, so the whole file goes to the row parser.  That
        # parser holds four columns, not a tuple, a list, an id str and a
        # duplicate key per row, and reads the rewound file or spool a line
        # at a time: 249 B a row at its tracemalloc peak, against 422 B a row
        # with a list of the file's lines and 833 B with the per-row objects.
        path = tmp_path / "fleet.csv"
        trajectories = sl.synthesize_dataset(5, 40)
        sl.write_trajectories_csv(trajectories, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[-1].split(",")
        cells[1] = f"{int(cells[1]) + 1_000_000:_}"
        lines[-1] = ",".join(cells)
        path.write_text("".join(lines), encoding="utf-8")
        rows = len(lines) - 1
        assert rows >= 40_000
        with _source(path, seekable) as source:
            tracemalloc.start()
            try:
                live = tracemalloc.get_traced_memory()[0]
                parsed = sl.parse_trajectories(source, 25.0)
                peak = tracemalloc.get_traced_memory()[1] - live
            finally:
                tracemalloc.stop()
        assert sum(map(len, parsed)) == rows
        assert parsed[-1].t_index[-1] >= 1_000_000
        assert peak < 300 * rows


class TestLabelFrames:
    def test_three_second_window_before_onset(self):
        traj = make_traj(n=200, events=[sl.LaneChangeEvent(100, "left")])
        labels = sl.label_frames(traj)
        assert (labels[25:100] == sl.LABEL_LEFT).all()
        assert (labels[:25] == sl.LABEL_KEEP).all()
        assert (labels[100:] == sl.LABEL_KEEP).all()

    def test_no_events_all_keep(self):
        labels = sl.label_frames(make_traj(n=50))
        assert (labels == sl.LABEL_KEEP).all()

    def test_truncated_window_at_start(self):
        traj = make_traj(n=50, events=[sl.LaneChangeEvent(10, "right")])
        labels = sl.label_frames(traj)
        assert (labels[:10] == sl.LABEL_RIGHT).all()
        assert (labels[10:] == sl.LABEL_KEEP).all()

    def test_later_event_wins_overlap(self):
        traj = make_traj(
            n=300,
            events=[sl.LaneChangeEvent(100, "left"), sl.LaneChangeEvent(160, "right")],
        )
        labels = sl.label_frames(traj)
        assert (labels[25:85] == sl.LABEL_LEFT).all()
        # the second event's window [85, 160) overrides the first's tail
        assert (labels[85:160] == sl.LABEL_RIGHT).all()
        assert (labels[160:] == sl.LABEL_KEEP).all()


class TestMakeWindows:
    def test_first_window_spans_strided_frames(self):
        traj = make_traj(n=80)
        labels = sl.label_frames(traj)
        windows = sl.build_windows([traj])
        first = windows[0]
        assert first.features.shape == (12, 5)
        np.testing.assert_array_equal(first.features, traj.features[0:67:6])
        assert first.end_frame == 66

    def test_window_count_at_stride_one(self):
        traj = make_traj(n=100)
        windows = sl.build_windows([traj])
        assert len(windows) == 100 - 66

    def test_stride_thins_starts(self):
        traj = make_traj(n=100)
        windows = sl.build_windows([traj], sl.WindowConfig(stride_frames=5))
        assert [w.end_frame for w in windows] == [66, 71, 76, 81, 86, 91, 96]

    def test_too_short_gives_empty_list(self):
        traj = make_traj(n=66)
        assert len(sl.build_windows([traj])) == 0

    def test_label_comes_from_final_frame(self):
        traj = make_traj(n=200, events=[sl.LaneChangeEvent(150, "left")])
        labels = sl.label_frames(traj)
        windows = sl.build_windows([traj])
        for w in windows:
            assert w.label == labels[w.end_frame]
        assert any(w.label == sl.LABEL_LEFT for w in windows)

    def test_downsample_factor_rounds(self):
        assert sl.downsample_factor(25.0, 4.0) == 6
        assert sl.downsample_factor(10.0, 4.0) == 2
        assert sl.downsample_factor(4.0, 4.0) == 1
        with pytest.raises(sl.ConfigError):
            sl.downsample_factor(1.0, 4.0)

    @pytest.mark.parametrize("rate, window_rate", [(25.0, 1e-320), (1e307, 4.0), (25.0, np.nan)])
    def test_downsample_factor_beyond_int64_rejected(self, rate, window_rate):
        with pytest.raises(sl.ConfigError):
            sl.downsample_factor(rate, window_rate)

    def test_window_longer_than_any_trajectory_gives_no_windows(self):
        # factor 2.5e18: the eleven steps of one window span more frames than int64 holds
        assert len(sl.build_windows([make_traj(n=100, rate=1e19)])) == 0

    def test_bad_stride_rejected(self):
        traj = make_traj(n=100)
        with pytest.raises(sl.ConfigError):
            sl.build_windows([traj], sl.WindowConfig(stride_frames=0))

    @pytest.mark.parametrize("stride", [2.5, 2.0, "2", None])
    def test_non_integer_stride_rejected(self, stride):
        with pytest.raises(sl.ConfigError, match="stride_frames must be an integer"):
            sl.WindowConfig(stride_frames=stride)

    def test_stride_bounded_by_int64(self):
        with pytest.raises(sl.ConfigError, match="stride_frames"):
            sl.WindowConfig(stride_frames=2**63)
        windows = sl.build_windows(
            [make_traj(n=100, vid="a"), make_traj(n=90, vid="b")],
            sl.WindowConfig(stride_frames=2**63 - 1),
        )
        assert windows.vehicle_ids.tolist() == ["a", "b"]


class TestWindowOracle:
    @pytest.mark.parametrize("stride", [1, 2, 5])
    def test_matches_slice_loop_row_for_row(self, stride):
        trajs = sl.synthesize_dataset(12, 4) + [make_traj(n=50, vid="short")]
        shuffled = [trajs[i] for i in np.random.default_rng(stride).permutation(len(trajs))]
        got = sl.build_windows(shuffled, sl.WindowConfig(stride_frames=stride))
        want = sorted(
            (w for t in trajs for w in naive_windows(t, stride)), key=lambda w: (w[2], w[3])
        )
        assert len(got) == len(want)
        assert np.array_equal(got.features, np.stack([w[0] for w in want]))
        assert got.labels.tolist() == [w[1] for w in want]
        assert got.vehicle_ids.tolist() == [w[2] for w in want]
        assert got.end_frames.tolist() == [w[3] for w in want]

    def test_shared_vehicle_id_rejected(self):
        with pytest.raises(sl.UsageError, match="vehicle id"):
            sl.build_windows([make_traj(n=80), make_traj(n=90)])

    def test_window_set_rows_and_subsets(self):
        windows = sl.build_windows([make_traj(n=80, vid="a"), make_traj(n=70, vid="b")])
        # each frame once in one table; each window its first row and step in it
        assert windows.frames.flags.c_contiguous and windows.frames.shape == (150, 5)
        assert windows.starts.shape == windows.steps.shape == (len(windows),)
        assert windows.starts.dtype == windows.steps.dtype == np.intp
        assert windows.starts.tolist() == list(range(14)) + list(range(80, 84))
        assert windows.steps.tolist() == [6] * len(windows)  # 25 Hz down to 4 Hz
        assert windows.features.shape == (len(windows), 12, 5)
        row = windows[-1]
        assert isinstance(row, sl.WindowSample)
        assert (row.vehicle_id, row.end_frame, row.label) == ("b", 69, 0)
        assert np.array_equal(row.features, windows.frames[83 + 6 * np.arange(12)])
        head = windows[:3]
        assert isinstance(head, sl.WindowSet) and len(head) == 3
        assert [w.end_frame for w in head] == [66, 67, 68]
        only_b = windows[windows.vehicle_ids == "b"]
        assert only_b.end_frames.tolist() == [66, 67, 68, 69]
        assert only_b.starts.tolist() == [80, 81, 82, 83] and only_b.steps.tolist() == [6] * 4
        assert head.frames is windows.frames and only_b.frames is windows.frames
        xs, ys = sl.stack_windows(windows)
        assert np.array_equal(xs, windows.features) and ys is windows.labels

    @pytest.mark.parametrize("stride", [1, 2, 7])
    @pytest.mark.parametrize("window_rate", [4.0, 5.0])
    def test_frame_table_matches_oracle(self, stride, window_rate):
        trajs = [
            make_traj(n=200, rate=25.0, vid="a", rng_seed=1),
            make_traj(n=150, rate=12.0, vid="b", rng_seed=2),
            make_traj(n=40, rate=25.0, vid="c", rng_seed=3),  # shorter than one window
        ]
        windows = sl.build_windows(trajs, sl.WindowConfig(window_rate, stride))
        want, ends = [], []
        for traj in trajs:
            factor = round(traj.sample_rate_hz / window_rate)
            for start in range(0, len(traj) - 11 * factor, stride):
                want.append(traj.features[start + factor * np.arange(12)])
                ends.append(traj.t_index[start + 11 * factor])
        rows = windows.starts[:, None] + windows.steps[:, None] * np.arange(12)
        assert windows.frames[rows].tobytes() == np.array(want).tobytes()
        assert windows.end_frames.tolist() == ends
        factors = {"a": round(25.0 / window_rate), "b": round(12.0 / window_rate)}
        assert windows.steps.tolist() == [factors[v] for v in windows.vehicle_ids]
        assert set(windows.vehicle_ids) == {"a", "b"}
        split = sl.split_by_vehicle(windows, 0.5, seed=0)
        assert split.train.frames is split.test.frames is windows.frames

    def _two_rate_windows(self):
        """24 Hz and 20 Hz trajectories windowed at 4 Hz: steps 6 and 5."""
        trajs = [make_traj(n=90, rate=24.0, vid="a", rng_seed=1),
                 make_traj(n=70, rate=20.0, vid="b", rng_seed=2)]
        windows = sl.build_windows(trajs)
        assert sorted(set(windows.steps.tolist())) == [5, 6]
        return windows

    def test_take_int_gives_one_window(self):
        windows = self._two_rate_windows()
        features = windows.features
        for i in (0, 5, len(windows) - 1, -1, np.int64(20)):
            assert windows.take(i).shape == (12, 5)
            assert np.array_equal(windows.take(i), features[i])

    def test_take_batch_and_time_major(self):
        windows = self._two_rate_windows()
        features = windows.features
        assert np.array_equal(windows.take(), features)
        for index in [slice(3, 30, 4), slice(None, None, -1), windows.vehicle_ids == "b",
                      np.array([7, 0, 7, len(windows) - 1]), np.arange(len(windows))[::-3]]:
            want = features[index]
            got = windows.take(index)
            assert got.shape == want.shape and np.array_equal(got, want)
            time_major = windows.take(index, time_major=True)
            assert time_major.flags.c_contiguous
            assert time_major.shape == (12, len(want), 5)
            assert np.array_equal(time_major, want.transpose(1, 0, 2))

    def test_take_empty(self):
        windows = self._two_rate_windows()
        assert windows.take(slice(0, 0)).shape == (0, 12, 5)
        assert windows.take(slice(0, 0), time_major=True).shape == (12, 0, 5)

    def test_rows_must_index_the_table(self):
        table = np.zeros((23, 5))  # room for one window of step 2
        for start, step in [
            (-1, 1),          # a negative start
            (0, 0),           # a step of 0
            (0, -1),
            (12, 1),          # the last frame one past the table
            (0, 3),
            (0, 2**62),       # 11 * step wraps around int64
            (2**62, 2**62),
        ]:
            with pytest.raises(sl.ShapeError, match="outside the 23 frames"):
                sl.WindowSet(table, [0], ["v"], [0], starts=[start], steps=[step])
            with pytest.raises(sl.ShapeError, match=r"window 1 \(start"):
                sl.WindowSet(table, [0, 0], ["v", "v"], [0, 1], starts=[0, start],
                             steps=[2, step])
        with pytest.raises(sl.ShapeError, match=r"steps shape \(2,\)"):
            sl.WindowSet(table, [0], ["v"], [0], starts=[0], steps=[1, 1])
        with pytest.raises(sl.ShapeError, match="together"):
            sl.WindowSet(table, [0], ["v"], [0], starts=[0])
        edge = sl.WindowSet(table, [0, 0], ["v", "v"], [0, 1], starts=[0, 11], steps=[2, 1])
        assert np.array_equal(edge.features[0], table[0:23:2])
        assert np.array_equal(edge.features[1], table[11:23])

    def test_non_integer_columns_rejected(self):
        table = np.zeros((23, 5))
        for error, column, columns in [
            (sl.ShapeError, "starts", {"starts": [0.7], "steps": [1.9]}),
            (sl.ShapeError, "starts", {"starts": [2**64]}),
            (sl.ShapeError, "starts", {"starts": [2**63]}),  # a uint64 column
            (sl.ShapeError, "steps", {"steps": [1.0]}),
            (sl.ShapeError, "steps", {"steps": [-2**63 - 1]}),
            (sl.UsageError, "labels", {"labels": [1.9], "end_frames": [3.5]}),
            (sl.UsageError, "end_frames", {"end_frames": [3.5]}),
            (sl.UsageError, "end_frames", {"end_frames": [2**64]}),
            (sl.UsageError, "end_frames", {"end_frames": np.array([2**63], dtype=np.uint64)}),
        ]:
            args = {"labels": [1], "vehicle_ids": ["v"], "end_frames": [3],
                    "starts": [0], "steps": [1], **columns}
            with pytest.raises(error, match=rf"window {column} must be integers within int64"):
                sl.WindowSet(table, **args)
        edge = sl.WindowSet(table, np.array([2], dtype=np.uint8), ["v"],
                            np.array([2**63 - 1], dtype=np.uint64), starts=np.array([11], np.int32),
                            steps=[1])
        assert (edge.starts.dtype, edge.labels.dtype, edge.end_frames.dtype) == (
            np.intp, np.intp, np.int64)
        assert (edge.starts[0], edge.labels[0], edge.end_frames[0]) == (11, 2, 2**63 - 1)
        empty = sl.WindowSet(table, [], [], [], starts=[], steps=[])
        assert len(empty) == 0 and empty.starts.dtype == np.intp

    def test_mismatched_columns_rejected(self):
        with pytest.raises(sl.ShapeError):
            sl.WindowSet(np.zeros((2, 12, 5)), [0], ["v", "v"], [0, 1])

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_classes_rejected(self, label):
        with pytest.raises(sl.UsageError, match=rf"label {label} outside \[0, 3\)"):
            sl.WindowSet(np.zeros((2, 12, 5)), [0, label], ["v", "v"], [0, 1])
        assert len(sl.WindowSet(np.zeros((0, 12, 5)), [], [], [])) == 0


class TestNormalizer:
    def test_moments_zero_one_after_normalizing(self):
        trajs = [make_traj(n=150, vid=f"v{i}", rng_seed=i) for i in range(3)]
        windows = sl.build_windows(trajs)
        stats = sl.fit_normalizer(windows)
        normalized = sl.apply_normalizer(stats, windows)
        rows = np.concatenate([w.features for w in normalized])
        np.testing.assert_allclose(rows.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(rows.std(axis=0), 1.0, atol=1e-12)

    def test_stats_match_direct_recomputation(self, monkeypatch):
        # the bits of NumPy's own mean and std over the whole window stack,
        # whatever the chunks the fit gathers: a NumPy release that reorders
        # the reduction fails here rather than changing norm.csv unseen
        trajs = [make_traj(n=140, vid="v", rng_seed=9), make_traj(n=112, vid="w", rng_seed=3)]
        windows = sl.build_windows(trajs, sl.WindowConfig(4.0, 2))
        n = len(windows)
        assert n == 60
        rows = windows.features.reshape(-1, 5)
        for chunk in (1, 7, 12, n, n + 5):  # 12 divides n, 7 does not
            monkeypatch.setattr(dataset, "_FIT_CHUNK", chunk)
            stats = sl.fit_normalizer(windows)
            assert np.array_equal(stats.mean, rows.mean(axis=0)), chunk
            assert np.array_equal(stats.std, rows.std(axis=0)), chunk
            # the sign of a zero too
            assert stats.mean.tobytes() == rows.mean(axis=0).tobytes(), chunk
            assert stats.std.tobytes() == rows.std(axis=0).tobytes(), chunk

    def test_constant_feature_named_in_error(self):
        traj = make_traj(n=100)
        traj.features[:, 1] = 30.0  # constant v_x column
        windows = sl.build_windows([traj])
        with pytest.raises(sl.DegenerateFeatureError, match="v_x"):
            sl.fit_normalizer(windows)

    def test_empty_set_rejected(self):
        windows = sl.build_windows([make_traj(n=100)])
        with pytest.raises(sl.UsageError, match="fit_normalizer needs at least one window"):
            sl.fit_normalizer(windows[:0])

    def test_single_window_means_subtract_exactly(self):
        traj = make_traj(n=67)
        windows = sl.build_windows([traj])
        assert len(windows) == 1
        stats = sl.fit_normalizer(windows)
        normalized = sl.apply_normalizer(stats, windows)
        np.testing.assert_allclose(normalized[0].features.mean(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("window_rate", [4.0, 5.0])
    @pytest.mark.parametrize("stride", [1, 2, 7])
    def test_windows_of_normalized_frames_match_normalized_windows(self, stride, window_rate):
        trajs = sl.synthesize_dataset(8, 3)
        config = sl.WindowConfig(window_rate, stride)
        raw = sl.build_windows(trajs, config)
        stats = sl.fit_normalizer(raw)
        got = sl.apply_normalizer(stats, raw)
        want = stats.transform(raw.features)  # each window's own (12, 5) frames
        assert np.array_equal(got.features, want)
        assert got.features.tobytes() == want.tobytes()  # the same bits, signs of 0 too
        for column in ("labels", "vehicle_ids", "end_frames"):
            assert np.array_equal(getattr(got, column), getattr(raw, column))

    def test_save_load_round_trip(self, tmp_path):
        trajs = [make_traj(n=100, rng_seed=4)]
        stats = sl.fit_normalizer(sl.build_windows(trajs))
        path = tmp_path / "norm.csv"
        sl.save_norm_stats(stats, path)
        loaded = sl.load_norm_stats(path)
        assert (loaded.mean == stats.mean).all()
        assert (loaded.std == stats.std).all()

    def test_stats_are_float64_arrays(self):
        stats = sl.NormStats(mean=[0, 1, 2, 3, 4], std=[1, 1, 2, 2, 3])
        for values in (stats.mean, stats.std):
            assert isinstance(values, np.ndarray) and values.dtype == np.float64

    @pytest.mark.parametrize("mean, std, error", [
        (np.zeros(3), np.ones(3), sl.ShapeError),
        (np.zeros(5), np.ones((1, 5)), sl.ShapeError),
        (np.zeros(5), np.ones(6), sl.ShapeError),
        (np.full(5, np.nan), np.ones(5), sl.NumericError),
        (np.zeros(5), np.array([1.0, 1.0, np.inf, 1.0, 1.0]), sl.NumericError),
        (np.zeros(5), np.array([1.0, -1.0, 1.0, 1.0, 1.0]), sl.ConfigError),
        (np.zeros(5), np.array([1.0, 1.0, 1.0, 1.0, 0.0]), sl.ConfigError),
        ("x", np.ones(5), sl.NumericError),
    ])
    def test_bad_stats_rejected(self, mean, std, error):
        with pytest.raises(error, match="normalizer"):
            sl.NormStats(mean=mean, std=std)

    def test_complex_element_of_an_object_array_rejected(self):
        # the object array passes the dtype check; its cast would only warn
        mean = np.array([np.complex128(1j), 0, 0, 0, 0], dtype=object)
        with pytest.raises(sl.NumericError, match="normalizer mean must be real"):
            sl.NormStats(mean=mean, std=np.ones(5))

    def test_apply_rejects_what_is_not_norm_stats(self):
        windows = sl.build_windows([make_traj(n=100)])
        with pytest.raises(sl.UsageError, match="normalizer must be a NormStats"):
            sl.apply_normalizer({"mean": np.zeros(5), "std": np.ones(5)}, windows)

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "norm.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(sl.ParseError):
            sl.load_norm_stats(path)

    def test_load_skips_blank_lines(self, tmp_path):
        stats = sl.fit_normalizer(sl.build_windows([make_traj(n=100, rng_seed=4)]))
        path = tmp_path / "norm.csv"
        sl.save_norm_stats(stats, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", *lines[1:3], "", *lines[3:], ""]) + "\n")
        loaded = sl.load_norm_stats(path)
        assert loaded.mean.tobytes() == stats.mean.tobytes()
        assert loaded.std.tobytes() == stats.std.tobytes()

    def test_load_rejects_a_missing_feature(self, tmp_path):
        stats = sl.fit_normalizer(sl.build_windows([make_traj(n=100, rng_seed=4)]))
        path = tmp_path / "norm.csv"
        sl.save_norm_stats(stats, path)
        path.write_text("".join(l for l in path.read_text().splitlines(keepends=True)
                                if not l.startswith("v_x,")))
        with pytest.raises(sl.ParseError, match=r"normalizer file missing features \['v_x'\]"):
            sl.load_norm_stats(path)


class TestSplit:
    def _windows(self, n_vehicles=10):
        trajs = [make_traj(n=90, vid=f"v{i:02d}", rng_seed=i) for i in range(n_vehicles)]
        return sl.build_windows(trajs)

    def test_ten_vehicles_ratio_point_eight(self):
        split = sl.split_by_vehicle(self._windows(10), 0.8, seed=0)
        train_v = {s.vehicle_id for s in split.train}
        test_v = {s.vehicle_id for s in split.test}
        assert len(train_v) == 8 and len(test_v) == 2

    def test_same_seed_same_split(self):
        windows = self._windows(6)
        a = sl.split_by_vehicle(windows, 0.7, seed=3)
        b = sl.split_by_vehicle(windows, 0.7, seed=3)
        assert [s.end_frame for s in a.train] == [s.end_frame for s in b.train]
        assert {s.vehicle_id for s in a.test} == {s.vehicle_id for s in b.test}

    def test_vehicle_disjointness_random_inputs(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            windows = self._windows(n)
            ratio = float(rng.uniform(0.2, 0.9))
            split = sl.split_by_vehicle(windows, ratio, seed=int(rng.integers(1000)))
            train_v = {s.vehicle_id for s in split.train}
            test_v = {s.vehicle_id for s in split.test}
            assert train_v and test_v
            assert not (train_v & test_v)
            assert len(split.train) + len(split.test) == len(windows)

    def test_ids_differing_by_a_trailing_nul_stay_apart(self):
        rows = [HEADER] + [keep_row(vid, f) for vid in ("a\0", "a", "b") for f in range(100)]
        trajs = sl.parse_trajectories(io.StringIO("\n".join(rows) + "\n"), 25.0)
        assert [t.vehicle_id for t in trajs] == ["a", "a\0", "b"]
        windows = sl.build_windows(trajs)
        assert Counter(windows.vehicle_ids.tolist()) == {"a": 34, "a\0": 34, "b": 34}
        split = sl.split_by_vehicle(windows, 0.5, seed=0)
        train_v = {s.vehicle_id for s in split.train}
        test_v = {s.vehicle_id for s in split.test}
        assert len(train_v) == 2 and len(test_v) == 1
        assert train_v | test_v == {"a", "a\0", "b"}

    def test_single_vehicle_rejected(self):
        with pytest.raises(sl.SplitError):
            sl.split_by_vehicle(self._windows(1), 0.8, seed=0)

    def test_bad_ratio_rejected(self):
        with pytest.raises(sl.ConfigError):
            sl.split_by_vehicle(self._windows(4), 1.0, seed=0)
        with pytest.raises(sl.ConfigError):
            sl.split_by_vehicle(self._windows(4), 0.8, seed=-1)
        with pytest.raises(sl.ConfigError, match="seed must be an integer"):
            sl.split_by_vehicle(self._windows(4), 0.5, 1.5)


class TestExportAndWrite:
    def test_trajectory_csv_round_trip(self, tmp_path):
        trajs = sl.synthesize_dataset(5, 3)
        path = tmp_path / "data.csv"
        sl.write_trajectories_csv(trajs, path)
        parsed = sl.parse_trajectories(path, 25.0)
        assert len(parsed) == 3
        for orig, back in zip(trajs, parsed):
            assert back.vehicle_id == orig.vehicle_id
            assert back.events == orig.events
            # %.17g output reproduces float64 exactly
            assert (back.features == orig.features).all()

    def test_trajectory_csv_quotes_free_text_ids(self, tmp_path):
        # ids are free text, which is why this writer keeps csv.writer
        traj = replace(make_traj(n=20), vehicle_id='car "7", lane 2')
        path = tmp_path / "data.csv"
        sl.write_trajectories_csv([traj], path)
        assert '"car ""7"", lane 2"' in path.read_text()
        (back,) = sl.parse_trajectories(path, 25.0)
        assert back.vehicle_id == traj.vehicle_id
        assert (back.features == traj.features).all()

    def test_stack_windows_shapes(self):
        windows = sl.build_windows([make_traj(n=80)])
        xs, ys = sl.stack_windows(windows)
        assert xs.shape == (len(windows), 12, 5)
        assert ys.shape == (len(windows),)
        with pytest.raises(sl.UsageError):
            sl.stack_windows([])
