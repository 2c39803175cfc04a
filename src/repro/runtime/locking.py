"""Advisory file locking for multi-process JSONL appends.

Several processes may append to one file (a shared ``--cache-dir``, a
record book, a job log).  A single ``write()`` of a short line is atomic
on most POSIX filesystems, but NFS and long lines can interleave partial
writes; ``locked()`` serializes the writers instead.  Without ``fcntl``
(Windows) the lock is a no-op.
"""

from __future__ import annotations

import contextlib
from typing import IO, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]


@contextlib.contextmanager
def locked(handle: IO) -> Iterator[IO]:
    """Hold an exclusive ``flock`` on an open file for the block.

    The lock belongs to the file description, so a writer that dies
    mid-append releases it: it can tear its own line (which
    :class:`~repro.runtime.appendlog.AppendLog` replay skips) but never
    leave the file locked or splice into another writer's line.
    """
    if fcntl is None:
        yield handle
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield handle
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
