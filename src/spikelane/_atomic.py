"""Atomic artifact writes: a file appears at its destination complete or not at all.

write_numeric_csv is the one writer of the numeric CSV artifacts (normalizer,
training log, ROC curves, timeline, bench report).  It formats and writes
_BLOCK_ROWS rows at a time, and array_rows hands it array columns converted
as many rows at a time, so that neither holds a Python object per row of a
whole file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

# Rows formatted, written and converted from arrays at a time.  Writing the
# three 35,650-row ROC curves of a 60-vehicle fleet whole peaked at 6.9 MB
# above live data under tracemalloc; a block of this size keeps the peak
# near 1 MB whatever the row count, and every block size writes the same bytes.
_BLOCK_ROWS = 4096


@contextmanager
def atomic_open(destination: str | Path, mode: str = "w", **kwargs):
    """Open a new temp file beside `destination` for writing ("w" or "wb").

    When the with-block ends without error the data is flushed to disk and the
    temp file is renamed over `destination` with os.replace, which is atomic
    within one directory.  When anything raises, the temp file is removed and
    an older file at `destination` is left as it was.  `kwargs` go to open().
    """
    destination = Path(destination)
    # os.urandom, not the secrets module, whose import loads OpenSSL (~4 MB RSS)
    temp = destination.with_name(f".{destination.name}.{os.urandom(6).hex()}.tmp")
    # "x" creates the file with the usual umask-derived permissions and never
    # opens a file that is already there.
    handle = open(temp, mode.replace("w", "x"), **kwargs)
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, destination)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_numeric_csv(
    destination: str | Path, header: Sequence[str], row_format: str, rows: Iterable[tuple]
) -> None:
    """Write a header and rows, atomically, formatting _BLOCK_ROWS rows at a time.

    Every cell must need no CSV quoting: numbers, or fixed names like the
    header's.  `row_format` holds one %-conversion per cell, e.g. "%d,%.9g";
    %.9g gives the text of format(x, ".9g").  Lines end in \\r\\n like
    csv.writer's, so the bytes are those a csv.writer of the same formatted
    cells writes.  `rows` is read once, a block at a time: pass array columns
    through array_rows, not as whole-column lists.
    """
    line = row_format + "\r\n"
    rows = iter(rows)
    with atomic_open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        while block := "".join(map(line.__mod__, islice(rows, _BLOCK_ROWS))):
            handle.write(block)


def array_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length 1-D array columns, as tuples of the Python
    scalars tolist() gives, converted _BLOCK_ROWS rows at a time."""
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        yield from zip(*(column[start:start + _BLOCK_ROWS].tolist() for column in columns))
