"""Atomic artifact writes: a file appears at its destination complete or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


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
