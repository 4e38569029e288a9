"""Atomic artifact writes: a file appears at its destination complete or not at all.

write_numeric_csv is the one writer of the numeric CSV artifacts (normalizer,
training log, ROC curves, timeline, bench report).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence


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
    """Write a header and rows as one formatted block, atomically.

    Every cell must need no CSV quoting: numbers, or fixed names like the
    header's.  `row_format` holds one %-conversion per cell, e.g. "%d,%.9g";
    %.9g gives the text of format(x, ".9g").  Lines end in \\r\\n like
    csv.writer's, so the bytes are those a csv.writer of the same formatted
    cells writes.
    """
    line = row_format + "\r\n"
    with atomic_open(destination, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        handle.write("".join(map(line.__mod__, rows)))
