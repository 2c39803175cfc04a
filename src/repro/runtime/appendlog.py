"""One durable JSON-lines log, the file layer under every store.

The eval cache, the record book, tuner checkpoints and the job
write-ahead log each keep one JSON object per line, and
:class:`AppendLog` is the only code that writes or replays them, so all
four share one set of guarantees (``docs/robustness.md``):

* :meth:`~AppendLog.append` opens the file per call (no writer keeps a
  stale offset), holds the :func:`~.locking.locked` flock for one
  ``write`` and fsyncs before it returns: a kill tears at most the lines
  being written, and concurrent writers never splice lines.  After a
  torn final line it writes a newline first, so the new lines are not
  lost with the fragment.
* :meth:`~AppendLog.replay` reads front to back with
  ``errors="replace"``; a line that is not a JSON object, or that the
  store's parse rejects with ``KeyError``/``TypeError``/``ValueError``,
  is skipped with a warning and counted.
* :meth:`~AppendLog.newest` reads back to front and stops at the first
  valid object (a checkpoint's newest snapshot).
* :meth:`~AppendLog.rewrite` writes the newest ``keep`` lines to a ``.tmp``
  sibling (the new one a few rows at a time), fsyncs it and ``os.replace``-s
  it over the file, so a reader sees the old file or the new one, never torn.

``replayed``, ``skipped`` and ``bytes_read`` describe the last file read.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, TypeVar, Union

from .locking import locked

T = TypeVar("T")

#: Load stats of a store that has no file.
NO_LOAD_STATS = {"replayed": 0, "skipped": 0, "bytes_read": 0}
PIECE_ROWS = 16  # rows of a table (a list of lists or dicts) in one piece of _pieces


def _pieces(value) -> Iterator[str]:
    """``json.dumps(value)`` in pieces: a dict with ``str`` keys key by key, a
    few tables one by one, and a table ``PIECE_ROWS`` rows a piece."""
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        for i, (key, item) in enumerate(value.items()):
            yield ("{" if i == 0 else ", ") + json.dumps(key) + ": "
            yield from _pieces(item)
        yield "}"
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        tables = len(value) <= PIECE_ROWS and isinstance(next(iter(value[0]), None), (list, dict))
        step = 1 if tables else PIECE_ROWS
        for i in range(0, len(value), step):
            yield "[" if i == 0 else ", "
            yield from _pieces(value[i]) if step == 1 else [json.dumps(value[i:i + step])[1:-1]]
        yield "]"
    else:
        yield json.dumps(value)


class AppendLog:
    """A JSONL file that is appended durably and replayed tolerantly."""

    def __init__(self, path: Union[str, Path], what: str = "line"):
        self.path = Path(path)
        self.what = what                 # names a line in skip warnings
        self.replayed = self.skipped = self.bytes_read = 0

    def stats(self) -> Dict[str, int]:
        """Load stats of the last replay."""
        return {"replayed": self.replayed, "skipped": self.skipped,
                "bytes_read": self.bytes_read}

    def append(self, payloads: Iterable[Dict]) -> None:
        """Append one line per payload: one lock hold, one write, one fsync.

        A file that does not end in a newline (a writer was killed
        mid-line) gets one first, under the same lock.
        """
        data = "".join(json.dumps(payload) + "\n" for payload in payloads).encode()
        with open(self.path, "a+b") as f, locked(f):
            end = f.seek(0, os.SEEK_END)
            if end:
                f.seek(end - 1)
                if f.read(1) != b"\n":
                    data = b"\n" + data
            f.write(data)
            f.flush()
            os.fsync(f.fileno())

    def replay(self, parse: Callable[[Dict], Optional[T]]) -> Iterator[T]:
        """Every valid line's ``parse(payload)``, front to back.

        ``parse`` returns None for a line that is valid but not this
        reader's (a typed side-channel line); it is neither yielded nor
        counted.
        """
        for lineno, line in enumerate(self._read(), 1):
            value = self._parse(lineno, line, parse)
            if value is not None:
                yield value

    def newest(self) -> Optional[Dict]:
        """The last line that is a JSON object, or None; older lines are
        never parsed."""
        lines = self._read()
        for lineno in range(len(lines), 0, -1):
            payload = self._parse(lineno, lines[lineno - 1], lambda p: p)
            if payload is not None:
                return payload
        return None

    def rewrite(self, payload: Dict, keep: int) -> None:
        """Append ``payload``, written in :func:`_pieces`, and keep only the
        newest ``keep`` lines, atomically (temp file, fsync, ``os.replace``)."""
        lines = [line for line in self._read() if line.strip()]
        tmp = self.path.with_name(self.path.name + ".tmp")
        try:
            with open(tmp, "w", buffering=1 << 16) as f:  # a syscall per 64 KB, not per piece
                f.writelines(line + "\n" for line in lines[max(len(lines) + 1 - keep, 0):])
                f.writelines(_pieces(payload))
                f.write("\n")
                f.flush()
                os.fsync(f.fileno())
        except BaseException:          # e.g. a value json.dumps rejects
            tmp.unlink(missing_ok=True)
            raise
        os.replace(tmp, self.path)

    def _read(self) -> List[str]:
        self.replayed = self.skipped = 0
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        self.bytes_read = len(data)
        return data.decode("utf-8", errors="replace").splitlines()

    def _parse(self, lineno: int, line: str, parse: Callable[[Dict], Optional[T]]) -> Optional[T]:
        line = line.strip()
        if not line:
            return None
        try:
            payload = json.loads(line)
            if not isinstance(payload, dict):
                raise TypeError("not a JSON object")
            value = parse(payload)
        except (KeyError, TypeError, ValueError):
            self.skipped += 1
            warnings.warn(f"skipping corrupt {self.what} at {self.path}:{lineno}", stacklevel=3)
            return None
        if value is not None:
            self.replayed += 1
        return value
