"""Trajectory ingestion, intention labeling, and window construction.

A trajectory is a per-vehicle time series of five state features: lateral
offset to the current lane center, longitudinal velocity and acceleration,
and lateral velocity and acceleration.  Lane-change events mark the frame at
which the vehicle's lane id flips; every frame in the 3 seconds before an
event carries that event's direction as its intention label, all other
frames are lane-keeping.

Windows are built by downsampling the frame stream toward a target rate and
taking 12 consecutive downsampled steps; the window's label is the per-frame
label at its final frame.  A window set is a `WindowSet`: one table of frames,
each stored once however many windows use it, and five parallel per-window
arrays (each window's first table row and the step between its rows, labels,
vehicle ids, end frames), not one object per window; indexing it with an int
gives one `WindowSample`.
"""

from __future__ import annotations

import csv
import itertools
import numbers
import operator
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from ._atomic import atomic_open, write_numeric_csv
from .errors import (
    ConfigError,
    DegenerateFeatureError,
    NumericError,
    ParseError,
    ShapeError,
    SplitError,
    UsageError,
)

FEATURE_NAMES = ("delta_y", "v_x", "a_x", "v_y", "a_y")
CSV_HEADER = ("vehicle_id", "frame", "delta_y", "v_x", "a_x", "v_y", "a_y", "lane_id")

LABEL_KEEP, LABEL_LEFT, LABEL_RIGHT = 0, 1, 2
LABEL_NAMES = ("keep", "left", "right")
DIRECTION_LEFT, DIRECTION_RIGHT = "left", "right"

INTENTION_HORIZON_S = 3.0  # intention labels span this long before each event
WINDOW_STEPS = 12  # downsampled steps per window
_STEP_OFFSETS = np.arange(WINDOW_STEPS)
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1  # frame and lane_id are stored as int64


@dataclass(frozen=True)
class LaneChangeEvent:
    onset_frame: int
    direction: str  # "left" or "right"

    def __post_init__(self):
        _integer_value("onset_frame", self.onset_frame, UsageError)


@dataclass(frozen=True)
class Trajectory:
    """One vehicle's ordered state record plus its lane-change events."""

    vehicle_id: str
    sample_rate_hz: float
    t_index: np.ndarray   # (n,) strictly increasing frame numbers
    features: np.ndarray  # (n, 5) columns in FEATURE_NAMES order
    events: tuple[LaneChangeEvent, ...] = ()

    def __post_init__(self):
        # finite in frames over the intention horizon, which label_frames rounds to an int
        _real_value("sample_rate_hz", self.sample_rate_hz, 0.0,
                    np.finfo(np.float64).max / INTENTION_HORIZON_S)
        t = _integer_column("t_index", self.t_index, np.int64, UsageError, (None,))
        f = _float_array(f"features of vehicle {self.vehicle_id} (t_index shape {t.shape})",
                         self.features, (len(t), len(FEATURE_NAMES)))
        if np.any(t[1:] <= t[:-1]):  # not np.diff, which overflows int64
            raise UsageError(f"t_index not strictly increasing for vehicle {self.vehicle_id}")
        events = tuple(self.events)
        onsets = [e.onset_frame for e in events]
        if onsets != sorted(onsets):
            raise UsageError(f"events not sorted by onset for vehicle {self.vehicle_id}")
        for e in events:
            if e.direction not in (DIRECTION_LEFT, DIRECTION_RIGHT):
                raise UsageError(f"unknown event direction {e.direction!r}")
            if e.onset_frame not in t:
                raise UsageError(
                    f"event onset {e.onset_frame} is not a frame of vehicle {self.vehicle_id}"
                )
        object.__setattr__(self, "t_index", t)
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return self.t_index.shape[0]


@dataclass(frozen=True)
class WindowSample:
    """One (12, 5) feature window with its intention label and origin: a row
    of a WindowSet."""

    features: np.ndarray
    label: int
    vehicle_id: str
    end_frame: int


@dataclass(frozen=True, init=False)
class WindowSet:
    """N windows over one frame table: window i is
    frames[starts[i] + steps[i] * arange(12)].

    Each frame is stored once, however many windows use it; slices, masks
    and both split_by_vehicle sides share one frames array.
    WindowSet(features, labels, vehicle_ids, end_frames) takes an (N, 12, 5)
    stack as its own (N * 12, 5) table (a view when it is already
    C-contiguous float64), window i starting at row 12 * i with step 1.
    With starts= and steps=, features is the (F, 5) table they index: every
    start must be >= 0, every step >= 1, and every window's last row inside
    the table.  The starts, steps, labels and end_frames must be integers
    within int64.

    take(index, time_major=False), span(index) and runs(min_length) are the
    only readers of this layout: take gathers the windows at index from the
    table, batch-major or time-major, span gives the frames they cover with
    their rows in it, and runs finds the stretches of windows at
    consecutive starts with one step, whose rows in their frames follow
    from their position alone (a stride-1 vehicle's windows).  The features
    property is take() of every window.

    An int index gives a WindowSample; a slice, mask or index array gives a
    WindowSet.  Iteration yields WindowSamples.  vehicle_ids is an object
    array of Python strs, not a NumPy str array, which drops trailing NULs
    and so merges two ids that differ only in them.
    """

    frames: np.ndarray       # (F, 5) float64, C-contiguous
    starts: np.ndarray       # (N,) intp, each window's first row in frames
    steps: np.ndarray        # (N,) intp >= 1, the rows between its frames
    labels: np.ndarray       # (N,) intp
    vehicle_ids: np.ndarray  # (N,) object, each a str
    end_frames: np.ndarray   # (N,) int64

    def __init__(self, features, labels, vehicle_ids, end_frames, starts=None, steps=None):
        if (starts is None) != (steps is None):
            raise ShapeError("window starts and steps must be given together")
        if starts is None:
            features = window_stack(features).reshape(-1, len(FEATURE_NAMES))
            starts = np.arange(0, len(features), WINDOW_STEPS, dtype=np.intp)
            steps = np.ones_like(starts)
        frames = np.ascontiguousarray(
            _float_cast("frame table", features, (None, len(FEATURE_NAMES))))
        starts = _integer_column("window starts", starts, np.intp, ShapeError, (None,))
        steps = _integer_column("window steps", steps, np.intp, ShapeError, starts.shape)
        # the last row bound as a quotient, so that no step * 11 can wrap around int64
        last = (len(frames) - 1 - starts) // (WINDOW_STEPS - 1)
        bad = (starts < 0) | (steps < 1) | (steps > last)
        if bad.any():
            i = int(np.argmax(bad))
            raise ShapeError(f"window {i} (start {starts[i]}, step {steps[i]}) reaches outside "
                             f"the {len(frames)} frames of the table")
        columns = {
            "labels": _class_column("window labels", labels, shape=starts.shape),
            "vehicle_ids": _shaped("window vehicle_ids", np.asarray(vehicle_ids, dtype=object),
                                   starts.shape),
            "end_frames": _integer_column("window end_frames", end_frames, np.int64, UsageError,
                                          starts.shape),
        }
        for name, column in {"frames": frames, "starts": starts, "steps": steps,
                             **columns}.items():
            object.__setattr__(self, name, column)

    def take(self, index=slice(None), time_major: bool = False, *, _out=None) -> np.ndarray:
        """The features of the windows at index, gathered from the frame
        table into a new C-contiguous array: (12, 5) for an int, (k, 12, 5)
        for a slice, mask or index array, and (12, k, 5) with time_major.
        _out, an array of that shape, is filled and returned instead."""
        rows = np.multiply.outer(self.steps[index], _STEP_OFFSETS)
        rows += self.starts[index][..., None]
        # __init__ keeps every row a window reaches inside the table, so "clip"
        # never clips; unlike "raise", it writes into _out without a
        # temporary of the gathered size.
        return np.take(self.frames, rows.T if time_major else rows, axis=0, out=_out, mode="clip")

    def span(self, index=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The frames that the windows at index (a slice, mask or index array)
        span, from the first row of any of them to the last, as a view of the
        frame table, and the windows' rows in that view as a C-contiguous
        (12, k) intp array: np.take(frames, rows, axis=0) is
        take(index, time_major=True).  The span may hold frames that no
        window at index uses."""
        rows = np.multiply.outer(_STEP_OFFSETS, self.steps[index])
        rows += self.starts[index]
        if not rows.size:
            return self.frames[:0], rows
        low = rows[0].min()  # steps are >= 1, so each window's rows rise
        rows -= low
        return self.frames[low : low + rows[-1].max() + 1], rows

    def runs(self, min_length: int) -> list[tuple[int, int, int, np.ndarray]]:
        """The runs of at least min_length windows, and at least one, in
        index order whose starts rise by one and which share one step m,
        each as (begin, end, m, frames): windows begin to end - 1, and the
        frames they span, a view of the frame table in which window
        begin + i reads rows i + m * t.  So the windows at a slice of a run,
        from begin + i to begin + j, span frames[i : j + 11 * m].  Found in
        one pass over starts and steps."""
        cuts = np.flatnonzero((np.diff(self.starts) != 1) | (np.diff(self.steps) != 0)) + 1
        bounds = np.concatenate(([0], cuts, [len(self)]))
        long = np.flatnonzero(np.diff(bounds) >= max(min_length, 1))
        begins, ends = bounds[long], bounds[long + 1]
        return [(b, e, m, self.frames[first : first + e - b + (WINDOW_STEPS - 1) * m])
                for b, e, m, first in zip(*(column.tolist() for column in (
                    begins, ends, self.steps[begins], self.starts[begins])))]

    @property
    def features(self) -> np.ndarray:
        """The (N, 12, 5) window stack, gathered from the frame table: a copy."""
        return self.take()

    def __len__(self) -> int:
        return self.starts.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return WindowSample(self.take(index), int(self.labels[index]),
                                str(self.vehicle_ids[index]), int(self.end_frames[index]))
        return WindowSet(self.frames, self.labels[index], self.vehicle_ids[index],
                         self.end_frames[index], starts=self.starts[index], steps=self.steps[index])


def window_stack(windows) -> np.ndarray:
    """The one window-shape check: windows as a float64 (N, 12, 5) stack.
    Only cast, not scanned for finiteness: the feature currents are."""
    xs = _float_cast("windows", windows)
    expected = (WINDOW_STEPS, len(FEATURE_NAMES))
    if xs.ndim != 3 or xs.shape[1:] != expected:
        raise ShapeError(
            f"window shape {xs.shape[1:]}, expected {expected} (stack shape {xs.shape})"
        )
    return xs


def _shaped(label: str, array: np.ndarray, shape: tuple[int | None, ...] | None) -> np.ndarray:
    """The shape rule of the casts below: array unless shape is given and
    array does not have it, None matching any length; that raises ShapeError
    naming the array by label."""
    if shape is not None and (array.ndim != len(shape)
                              or any(n not in (None, m) for n, m in zip(shape, array.shape))):
        raise ShapeError(f"{label} shape {array.shape}, expected {shape}")
    return array


def _integer_column(label: str, values, dtype, error: type[Exception], shape=None) -> np.ndarray:
    """values as a column of this integer dtype, which casting alone would
    truncate (floats) or overflow (a Python int past int64: an object or
    uint64 column); error names the column by label.  An empty column, of
    any dtype, stays empty.  Then the shape rule."""
    column = np.asarray(values)
    if column.size and (not np.issubdtype(column.dtype, np.integer)
                        or column.dtype == np.uint64 and column.max() > _INT64_MAX):
        raise error(f"{label} must be integers within int64, got dtype {column.dtype}")
    return _shaped(label, column.astype(dtype, copy=False), shape)


def _class_column(label: str, values, classes: int = len(LABEL_NAMES), shape=None) -> np.ndarray:
    """values as an intp column of class indices, integers in [0, classes);
    anything else, a bool column included, raises UsageError naming the
    column by label, and a wrong shape ShapeError."""
    column = _integer_column(label, values, np.intp, UsageError, shape)
    bad = (column < 0) | (column >= classes)
    if bad.any():
        raise UsageError(f"{label}: label {column[bad][0]} outside [0, {classes})")
    return column


def _float_cast(label: str, values, shape=None) -> np.ndarray:
    """values as a float64 array of this shape (the shape rule); an element
    NumPy cannot cast, such as a str or None, or a complex array or element,
    whose cast would drop the imaginary part, raises NumericError naming the
    array by label."""
    try:
        kind = np.asarray(values).dtype.kind
        if kind == "c":
            raise NumericError(f"{label} must be real, got a complex array")
        if kind != "O":
            return _shaped(label, np.asarray(values, dtype=np.float64), shape)
        # an object array may hold complex scalars, whose cast only warns
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            array = np.asarray(values, dtype=np.float64)
    except np.exceptions.ComplexWarning:
        raise NumericError(f"{label} must be real, got a complex element") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise NumericError(f"{label} must be numeric: {exc}") from None
    return _shaped(label, array, shape)


def _float_array(label: str, values, shape: tuple[int | None, ...]) -> np.ndarray:
    """The float-array rule: values as a finite float64 array of this shape, where
    None matches any length.  A wrong shape raises ShapeError, an element that
    cannot be cast, nan or inf NumericError; each names the array by label."""
    array = _float_cast(label, values, shape)
    if not np.isfinite(array).all():
        raise NumericError(f"{label} must be finite")
    return array


def _integer_value(
    name: str, value, error: type[Exception] = ConfigError, minimum: int | None = None
) -> None:
    """Reject a value that is not an integer, such as a float (even 2.0),
    which a count, step or seed would otherwise carry into NumPy or range(),
    and one below minimum."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


def _real_value(name: str, value, low: float, high: float = np.inf,
                error: type[Exception] = ConfigError, closed: bool = False,
                closed_high: bool = False) -> None:
    """Reject a value that is not a real number, such as a str or None, which
    would reach a comparison or NumPy as a bare TypeError, and one outside
    (low, high), with low admitted when closed and a finite high when
    closed_high.  nan fails every comparison."""
    if not (isinstance(value, numbers.Real) and (low <= value if closed else low < value)
            and (value <= high if closed_high else value < high)):
        raise error(f"{name} must be finite and lie in {'[' if closed else '('}{low:g}, "
                    f"{high:g}{']' if closed_high else ')'}, got {value!r}")


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score statistics, fitted on training windows only: a
    finite (5,) float64 mean and a finite (5,) float64 std > 0."""

    mean: np.ndarray  # (5,)
    std: np.ndarray   # (5,)

    def __post_init__(self):
        mean = _float_array("normalizer mean", self.mean, (len(FEATURE_NAMES),))
        std = _float_array("normalizer std", self.std, (len(FEATURE_NAMES),))
        if not (std > 0).all():
            raise ConfigError(f"normalizer std must be > 0, got {std.tolist()}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        out = features - self.mean
        out /= self.std
        return out


@dataclass(frozen=True)
class DatasetSplit:
    train: WindowSet
    test: WindowSet


@dataclass(frozen=True)
class WindowConfig:
    window_rate_hz: float = 4.0
    stride_frames: int = 1

    def __post_init__(self):
        _real_value("window_rate_hz", self.window_rate_hz, 0.0)
        _integer_value("stride_frames", self.stride_frames)
        if not 1 <= self.stride_frames <= _INT64_MAX:  # np.arange takes an int64 step
            raise ConfigError(f"stride_frames must lie in [1, 2**63 - 1], got {self.stride_frames}")


# ---------------------------------------------------------------------------
# CSV ingest
# ---------------------------------------------------------------------------


def parse_trajectories(
    source: str | Path | TextIO, sample_rate_hz: float
) -> list[Trajectory]:
    """Parse delimiter-separated trajectory exports into Trajectory records.

    Expects a UTF-8 CSV with the exact header
    ``vehicle_id,frame,delta_y,v_x,a_x,v_y,a_y,lane_id``.  Lane-change events
    are derived from frames where lane_id changes; the direction comes from
    the sign of the lateral-offset jump across the change (the offset
    re-centers on the new lane, so a drop means a move to the left with the
    left-positive convention used throughout).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _parse_stream(handle, sample_rate_hz)
    return _parse_stream(source, sample_rate_hz)


def _parse_stream(stream: TextIO, sample_rate_hz: float) -> list[Trajectory]:
    # A seekable source whose header is one plain line is read lazily by the
    # column parser, with no list of lines.  Any failure there rewinds it and
    # parses it as below, as a source that cannot seek is parsed, so results
    # and errors are the same whatever the source; the column parser, which
    # has seen these lines already, is then not run again, and the row
    # parser reads the rewound handle lazily too.  Any other source is read
    # into a list of lines, which both parsers may read.
    start = _position(stream)
    columns_tried = start is not None and _plain_header(stream)
    if columns_tried:
        trajectories = _parse_columns(stream, sample_rate_hz)
        if trajectories is not None:
            return trajectories
    if start is not None:
        stream.seek(start)
    # A decode error is held back until the row parser has seen the lines
    # before it, so that a bad row earlier in the file is the error reported.
    undecodable: list[UnicodeDecodeError] = []
    lines = _until_undecodable(stream, undecodable)
    if not columns_tried:
        lines = list(lines)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        if undecodable:
            raise undecodable[0] from None
        raise ParseError("line 1: empty input, expected header") from None
    if tuple(cell.strip() for cell in header) != CSV_HEADER:
        raise ParseError(
            f"line 1: header {header} does not match {','.join(CSV_HEADER)}"
        )
    if not undecodable and not columns_tried:
        trajectories = _parse_columns(lines[reader.line_num:], sample_rate_hz)
        if trajectories is not None:
            return trajectories
    trajectories = _parse_rows(reader, sample_rate_hz)
    if undecodable:
        raise undecodable[0]
    return trajectories


def _until_undecodable(stream: TextIO, undecodable: list[UnicodeDecodeError]) -> Iterator[str]:
    """The lines of a stream up to the first that cannot be decoded, whose
    error is appended to undecodable instead of raised."""
    try:
        yield from stream
    except UnicodeDecodeError as error:
        undecodable.append(error)


def _position(stream) -> int | None:
    """Where a stream stands, when it can seek back there; else None."""
    try:
        return stream.tell() if stream.seekable() else None
    except (AttributeError, OSError, ValueError):
        return None


def _plain_header(stream: TextIO) -> bool:
    """Reads a handle's first line: whether it is the header, alone on its
    line and without quotes, so that its csv parse cannot run on into the
    next line and the column parser may read the rest of the handle.  Any
    other header, or a decode error, sends the source to the list of lines.
    """
    try:
        line = stream.readline()
        header = next(csv.reader([line]), None)
    except (csv.Error, UnicodeDecodeError):
        return False
    return (header is not None and '"' not in line
            and tuple(cell.strip() for cell in header) == CSV_HEADER)


# Rows per loadtxt call, 1 MB of table.  One call over a whole file grows
# its table by reallocation in 1.25x steps (to 4.6 MB for 61,410 rows), and a
# step that finds no free block that large in the heap is mapped afresh, on
# top of the heap's resident free space: that raised batch_score's peak RSS
# by 4-8 MB in some processes.  Blocks of one size fit the heap's holes.
_PARSE_BLOCK = 16_384

# Every cell of a row, so that loadtxt rejects a row with more or fewer than
# eight.  Ids are read as Python strs, whose width the data sets.
_CSV_COLUMNS = np.dtype([
    ("vehicle_id", object),
    ("frame", np.int64),
    ("features", np.float64, (len(FEATURE_NAMES),)),
    ("lane_id", np.int64),
])


def _parse_columns(lines: Iterable[str], sample_rate_hz: float) -> list[Trajectory] | None:
    """Column-wise parse of the rows after the header with NumPy's C reader.

    Returns None whenever the row parser must decide instead: on any loadtxt
    error or warning (syntax the C reader rejects, such as `1_000`, which
    int() accepts; a wrong cell count; an integer outside int64) and on any
    failed column check (non-finite feature, duplicate (vehicle, frame)).
    The row parser then gives the result or the line-numbered ParseError.
    Lines past the csv module's field size limit, and a decode error while
    reading the lines, go to the row parser too.
    """
    # one str per distinct id: a str per row fragmented the allocator and raised peak RSS
    names = _StrippedIds()
    rows = _within_field_limit(lines)
    blocks = []
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # with max_rows, loadtxt notes that a blank line is not a row
            warnings.filterwarnings("ignore", "Input line [0-9]+ contained no data", UserWarning)
            for first in rows:  # each block starts at a line not yet read
                blocks.append(np.loadtxt(
                    itertools.chain([first], rows), dtype=_CSV_COLUMNS, delimiter=",",
                    quotechar='"', comments=None, ndmin=1, max_rows=_PARSE_BLOCK,
                    converters={0: names.__getitem__}))
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if not blocks:  # no row: the row parser decides, as loadtxt's empty-input warning did
        return None
    ids, frames, features, lanes = (np.concatenate([block[name] for block in blocks])
                                    for name in _CSV_COLUMNS.names)
    del blocks
    if not np.isfinite(features).all():
        return None
    return _build_trajectories(ids, frames, features, lanes, sample_rate_hz)


class _StrippedIds(dict):
    """Each id cell as read, mapped to its stripped str, made once per
    distinct cell: so every row of one id shares one str, and the lookup of
    a cell seen before is one C-level dict read, with no Python call."""

    def __missing__(self, cell: str) -> str:
        self[cell] = stripped = cell.strip()
        return stripped


def _within_field_limit(lines: Iterable[str]) -> Iterator[str]:
    """The lines, one at a time; a line past csv.field_size_limit() raises
    ValueError, since only the row parser may judge it."""
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit:
            raise ValueError("line past the csv field size limit")
        yield line


def _parse_rows(reader: Iterator[list[str]], sample_rate_hz: float) -> list[Trajectory]:
    """The row-by-row parser: every check per line, errors name the line.

    The rows go into four columns, not an object per row: the ids share one
    str per distinct id, as in _parse_columns, and the numbers go into typed
    arrays.  The duplicate check keeps one set of frames per id.
    """
    ids: list[str] = []
    frames, features, lanes = array("q"), array("d"), array("q")
    vehicles: dict[str, tuple[str, set[int]]] = {}  # id: (its shared str, its frames)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ParseError(f"line {line_no}: expected {len(CSV_HEADER)} cells, got {len(row)}")
        vid = row[0].strip()
        try:
            frame = int(row[1])
            values = [float(cell) for cell in row[2:7]]
            lane = int(row[7])
        except ValueError:
            raise ParseError(f"line {line_no}: non-numeric cell in {row}") from None
        if not (_INT64_MIN <= frame <= _INT64_MAX and _INT64_MIN <= lane <= _INT64_MAX):
            raise ParseError(f"line {line_no}: frame or lane_id outside the int64 range")
        if not all(np.isfinite(values)):
            raise ParseError(f"line {line_no}: non-finite feature value")
        vehicle = vehicles.get(vid)
        if vehicle is None:
            vehicle = vehicles[vid] = (vid, set())
        vid, vehicle_frames = vehicle
        if frame in vehicle_frames:
            raise ParseError(f"line {line_no}: duplicate (vehicle, frame) = {(vid, frame)}")
        vehicle_frames.add(frame)
        ids.append(vid)
        frames.append(frame)
        features.extend(values)
        lanes.append(lane)
    return _build_trajectories(
        np.array(ids, dtype=object), np.array(frames, dtype=np.int64),
        np.array(features, dtype=np.float64).reshape(-1, len(FEATURE_NAMES)),
        np.array(lanes, dtype=np.int64), sample_rate_hz,
    )


def _build_trajectories(
    ids: np.ndarray, frames: np.ndarray, features: np.ndarray, lanes: np.ndarray,
    sample_rate_hz: float,
) -> list[Trajectory] | None:
    """One Trajectory per distinct id, in id order, its rows in frame order.

    Both parsers pass ids as an object array of strs stripped with str.strip,
    not a NumPy str array, which drops trailing NULs.  Returns None on a
    repeated (vehicle, frame) pair, which only the column parser passes on:
    the row parser rejects it at its line.
    """
    vehicles, inverse = _id_codes(ids)
    counts = np.bincount(inverse, minlength=len(vehicles))
    order = np.lexsort((frames, inverse))
    frames, inverse = frames[order], inverse[order]
    if np.any((frames[1:] == frames[:-1]) & (inverse[1:] == inverse[:-1])):
        return None
    bounds = np.cumsum(counts)[:-1]
    return [
        Trajectory(
            vehicle_id=vid,
            sample_rate_hz=sample_rate_hz,
            t_index=t_index,
            features=values,
            events=_events_from_lanes(t_index, values[:, 0], lane_ids),
        )
        for vid, t_index, values, lane_ids in zip(
            vehicles,
            np.split(frames, bounds),
            np.split(features[order], bounds),
            np.split(lanes[order], bounds),
        )
    ]


def _id_codes(ids: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The distinct ids in str order, and each id's index among them.

    A dict over the distinct ids, not np.unique, which sorts every element of
    an object array with Python comparisons (about 7x slower on 61k ids).
    """
    vehicles = sorted(set(ids.tolist()))
    index = {vid: i for i, vid in enumerate(vehicles)}
    codes = np.fromiter(map(index.__getitem__, ids.tolist()), dtype=np.intp, count=len(ids))
    return vehicles, codes


def _events_from_lanes(
    t_index: np.ndarray, delta_y: np.ndarray, lanes: np.ndarray
) -> tuple[LaneChangeEvent, ...]:
    events = []
    for pos in np.nonzero(np.diff(lanes) != 0)[0] + 1:
        jump = delta_y[pos] - delta_y[pos - 1]
        direction = DIRECTION_LEFT if jump < 0 else DIRECTION_RIGHT
        events.append(LaneChangeEvent(onset_frame=int(t_index[pos]), direction=direction))
    return tuple(events)


def write_trajectories_csv(
    trajectories: Sequence[Trajectory], destination: str | Path
) -> None:
    """Write trajectories in the ingest schema; lane ids are reconstructed
    from the event list starting from a canonical base lane."""
    base_lane = 3
    with atomic_open(destination, "w", encoding="utf-8", newline="") as handle:
        # csv.writer, not write_numeric_csv: vehicle ids are free text that may need quoting
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for traj in trajectories:
            lane = np.full(len(traj), base_lane, dtype=np.int64)
            for event in traj.events:
                step = 1 if event.direction == DIRECTION_LEFT else -1
                lane[np.searchsorted(traj.t_index, event.onset_frame):] += step
            for i in range(len(traj)):
                writer.writerow(
                    [traj.vehicle_id, int(traj.t_index[i])]
                    + [format(v, ".17g") for v in traj.features[i]]
                    + [int(lane[i])]
                )


# ---------------------------------------------------------------------------
# labeling and windowing
# ---------------------------------------------------------------------------


def label_frames(traj: Trajectory) -> np.ndarray:
    """Per-frame intention labels under the 3-second rule.

    Frames in [onset - 3 s, onset) carry the event's direction; everything
    else is lane-keeping.  Windows truncated by the trajectory start are
    allowed; when two events' label windows overlap, the later event wins.
    """
    labels = np.full(len(traj), LABEL_KEEP, dtype=np.int64)
    horizon = int(round(INTENTION_HORIZON_S * traj.sample_rate_hz))
    for event in traj.events:
        onset_pos = int(np.searchsorted(traj.t_index, event.onset_frame))
        start = max(0, onset_pos - horizon)
        value = LABEL_LEFT if event.direction == DIRECTION_LEFT else LABEL_RIGHT
        labels[start:onset_pos] = value
    return labels


def downsample_factor(sample_rate_hz: float, window_rate_hz: float) -> int:
    _real_value("sample_rate_hz", sample_rate_hz, 0.0)
    _real_value("window_rate_hz", window_rate_hz, 0.0)
    ratio = sample_rate_hz / window_rate_hz
    if not ratio < _INT64_MAX:  # frame positions are int64
        raise ConfigError(
            f"downsample factor {sample_rate_hz}/{window_rate_hz} exceeds the int64 frame range"
        )
    factor = int(round(ratio))
    if factor < 1:
        raise ConfigError(
            f"downsample factor {sample_rate_hz}/{window_rate_hz} rounds below 1"
        )
    return factor


def build_windows(
    trajectories: Sequence[Trajectory], config: WindowConfig = WindowConfig()
) -> WindowSet:
    """Label and window every trajectory; result ordered by (vehicle, end frame).

    The stream is downsampled by the integer factor round(rate / window_rate);
    each window takes WINDOW_STEPS downsampled frames, starts every
    stride_frames raw frames, and is labeled by the per-frame label at its
    final raw frame.  Trajectories shorter than one window give no windows;
    two trajectories with one vehicle id raise UsageError.

    The frame table holds the raw frames of every trajectory that gives a
    window, each once; apply_normalizer normalizes it.
    """
    ordered = sorted(trajectories, key=lambda t: t.vehicle_id)
    ids = [t.vehicle_id for t in ordered]
    if len(set(ids)) < len(ids):
        raise UsageError("trajectories share a vehicle id")
    windowed = []
    for t in ordered:
        factor = downsample_factor(t.sample_rate_hz, config.window_rate_hz)
        # one window every stride frames while its last frame fits; the stop is clamped
        # at 0, since np.arange rejects one below the int64 range, as a huge factor gives
        starts = np.arange(0, max(len(t) - (WINDOW_STEPS - 1) * factor, 0), config.stride_frames)
        if len(starts):
            windowed.append((t, factor, starts))
    counts = [len(starts) for _, _, starts in windowed]
    # Each column is allocated once and filled trajectory by trajectory:
    # concatenated per-trajectory pieces left heap behind that raised the
    # peak RSS of ingest.
    frames = np.empty((sum(len(t) for t, _, _ in windowed), len(FEATURE_NAMES)))
    table_starts = np.empty(sum(counts), dtype=np.intp)
    steps = np.empty(sum(counts), dtype=np.intp)
    labels = np.empty(sum(counts), dtype=np.intp)
    end_frames = np.empty(sum(counts), dtype=np.int64)
    at = offset = 0
    for t, factor, starts in windowed:
        ends = starts + (WINDOW_STEPS - 1) * factor
        frames[offset : offset + len(t)] = t.features
        np.add(starts, offset, out=table_starts[at : at + len(starts)])
        steps[at : at + len(starts)] = factor
        labels[at : at + len(starts)] = label_frames(t)[ends]
        end_frames[at : at + len(starts)] = t.t_index[ends]
        at, offset = at + len(starts), offset + len(t)
    vehicle_ids = np.repeat(np.array([t.vehicle_id for t, _, _ in windowed], dtype=object), counts)
    return WindowSet(frames, labels, vehicle_ids, end_frames, starts=table_starts, steps=steps)


# ---------------------------------------------------------------------------
# normalization and splitting
# ---------------------------------------------------------------------------


# Windows gathered per fit_normalizer chunk, about 0.5 MB of rows.  On a
# 15,340-window training set the fit peaked at 1.0 MB under tracemalloc, where
# gathering the whole (N, 12, 5) stack and its squared deviations took
# 14.1 MB.  Every chunk size gives the same bits.
_FIT_CHUNK = 1024


def fit_normalizer(train: WindowSet) -> NormStats:
    """Per-feature mean/std over all rows of the training windows.

    The window rows are gathered _FIT_CHUNK windows at a time, never as one
    (N, 12, 5) stack.  NumPy sums a C-contiguous (M, 5) array along axis 0
    one row after another, so each chunk's sum starts from the running total
    (stacked on top as its first row), and the mean and std keep the bits
    of train.features.reshape(-1, 5).mean(axis=0) and .std(axis=0): a sum
    over every window copy of each frame, in window order.
    """
    if len(train) == 0:
        raise UsageError("fit_normalizer needs at least one window")
    count = len(train) * WINDOW_STEPS
    mean = _column_sum(_row_chunks(train)) / count
    std = np.sqrt(_column_sum(np.square(rows - mean) for rows in _row_chunks(train)) / count)
    degenerate = std <= 1e-12 * (1.0 + np.abs(mean))
    if degenerate.any():
        name = FEATURE_NAMES[int(np.argmax(degenerate))]
        raise DegenerateFeatureError(f"feature {name} has zero variance")
    return NormStats(mean=mean, std=std)


def _row_chunks(windows: WindowSet) -> Iterator[np.ndarray]:
    """The rows of every window, in window order, as (12 * chunk, 5) arrays
    of _FIT_CHUNK windows each."""
    for start in range(0, len(windows), _FIT_CHUNK):
        yield windows.take(slice(start, start + _FIT_CHUNK)).reshape(-1, len(FEATURE_NAMES))


def _column_sum(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """Column sums of the blocks stacked in order, with the bits of one
    np.add.reduce over the whole stack along axis 0."""
    total = np.zeros(len(FEATURE_NAMES))
    for block in blocks:
        total = np.add.reduce(np.vstack([total[None], block]), axis=0)
    return total


def apply_normalizer(stats: NormStats, samples: WindowSet) -> WindowSet:
    """The same windows over a normalized copy of the frame table.  The
    transform is elementwise, so each window gets the bits of transforming
    its own (12, 5) features.  A frame that a loaded std near 0 overflows
    to inf gives no warning here; score rejects every window that uses it."""
    if not isinstance(stats, NormStats):
        raise UsageError(f"normalizer must be a NormStats, got {type(stats).__name__}")
    with np.errstate(over="ignore"):
        frames = stats.transform(samples.frames)
    return WindowSet(frames, samples.labels, samples.vehicle_ids, samples.end_frames,
                     starts=samples.starts, steps=samples.steps)


def save_norm_stats(stats: NormStats, destination: str | Path) -> None:
    write_numeric_csv(
        destination, ("feature", "mean", "std"), "%s,%.17g,%.17g",
        zip(FEATURE_NAMES, stats.mean, stats.std),
    )


def load_norm_stats(source: str | Path) -> NormStats:
    """Read statistics written by save_norm_stats; every std must be finite and > 0."""
    values = {}
    with open(source, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != ("feature", "mean", "std"):
            raise ParseError(f"line 1: bad normalizer header {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"line {line_no}: expected 3 cells, got {len(row)}")
            try:
                mean, std = float(row[1]), float(row[2])
            except ValueError:
                raise ParseError(f"line {line_no}: non-numeric cell in {row}") from None
            if not (np.isfinite(mean) and np.isfinite(std) and std > 0):
                raise ParseError(
                    f"line {line_no}: need a finite mean and a finite std > 0, got {row}"
                )
            if row[0] not in FEATURE_NAMES or row[0] in values:
                word = "duplicate" if row[0] in values else "unknown"
                raise ParseError(f"line {line_no}: {word} feature {row[0]!r}")
            values[row[0]] = (mean, std)
    missing = [name for name in FEATURE_NAMES if name not in values]
    if missing:
        raise ParseError(f"normalizer file missing features {missing}")
    mean = np.array([values[n][0] for n in FEATURE_NAMES])
    std = np.array([values[n][1] for n in FEATURE_NAMES])
    return NormStats(mean=mean, std=std)


def split_by_vehicle(samples: WindowSet, ratio: float, seed: int) -> DatasetSplit:
    """Seeded split keeping every vehicle entirely on one side; both sides
    keep the input order."""
    _real_value("ratio", ratio, 0.0, 1.0)
    _integer_value("seed", seed, minimum=0)
    vehicles, codes = _id_codes(samples.vehicle_ids)
    if len(vehicles) < 2:
        empty = "the window set is empty; " if len(samples) == 0 else ""
        raise SplitError(f"{empty}need at least 2 vehicles to split, got {len(vehicles)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(vehicles))
    n_train = int(round(ratio * len(vehicles)))
    n_train = min(max(n_train, 1), len(vehicles) - 1)
    chosen = np.zeros(len(vehicles), dtype=bool)
    chosen[order[:n_train]] = True
    in_train = chosen[codes]
    return DatasetSplit(train=samples[in_train], test=samples[~in_train])


# ---------------------------------------------------------------------------
# array helpers
# ---------------------------------------------------------------------------


def stack_windows(samples: WindowSet) -> tuple[np.ndarray, np.ndarray]:
    """The (N, 12, 5) features, gathered from the frame table (a copy), and
    the (N,) labels of a window set."""
    if len(samples) == 0:
        raise UsageError("no windows to stack")
    return samples.features, samples.labels
