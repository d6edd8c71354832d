"""Crash-safe file output: the temp + rename + fsync discipline.

Long scans die — workers segfault, operators hit Ctrl-C, machines lose
power — and a scan that dies mid-``write()`` must never leave a *torn*
output file (half a CSV row, a JSONL line cut in two, a checkpoint with
a stale header and fresh tail).  Every durable artifact this codebase
produces therefore goes through one of two disciplines:

* **whole-file writes** (:func:`atomic_write_bytes` /
  :func:`atomic_write_text`): write the full content to a temporary file
  in the destination directory, ``fsync`` it, then ``os.replace`` it over
  the destination.  POSIX rename is atomic, so readers see either the old
  complete file or the new complete file, never a mix.
* **incremental writes** (:func:`partial_path`): streaming sinks append
  to ``<dest>.partial``, ``fsync`` it and atomically rename it to
  ``<dest>`` on a clean close.  A crash leaves only the clearly-labelled
  partial file; the final path either does not exist yet or holds a
  previous complete run.

Both fsync the containing directory afterwards (best effort — some
filesystems refuse), so the rename itself survives power loss.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "fsync_directory",
    "partial_path",
    "replace_partial",
]


def fsync_directory(directory: str | Path) -> None:
    """Flush a directory's entry table to disk (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not all filesystems allow this
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename).

    The temporary file lives in the destination directory so the final
    ``os.replace`` never crosses a filesystem boundary.  On any failure
    the temporary file is removed and the destination is untouched.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_directory(path.parent)


def atomic_write_text(
    path: str | Path, text: str, encoding: str = "utf-8"
) -> None:
    """Text-mode convenience wrapper over :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding))


def partial_path(path: str | Path) -> Path:
    """Where a streaming sink stages its in-progress output."""
    path = Path(path)
    return path.with_name(path.name + ".partial")


def replace_partial(path: str | Path) -> None:
    """Promote ``<path>.partial`` to ``<path>`` atomically."""
    path = Path(path)
    os.replace(partial_path(path), path)
    fsync_directory(path.parent)
