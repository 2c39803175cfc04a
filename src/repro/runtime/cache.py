"""Persistent cross-run evaluation cache.

The :class:`~repro.runtime.measure.Evaluator`'s in-run memo (raw points)
answers repeat visits within one run.  This module adds the store that
outlives the run: one in-memory index over an append-only JSONL file,
keyed by ``(op signature, canonical point)`` so results survive across
processes and are shared by every tuner and ``tune_workload()``.

Entries record the final :class:`MeasureStatus` alongside the
performance value, so *permanent* failures (compile errors, lowering
errors, timeouts) are cached too and never re-measured on a warm run.
The file is an :class:`~repro.runtime.appendlog.AppendLog`: a line torn
by a killed process or corrupted on disk loses only itself, never the
cache.

Durability follows the caller's commit points.  Outside a
:meth:`EvalCache.deferred` span every ``put`` appends one fsync'd line.
Inside a span, ``put`` answers later reads at once but buffers its line;
:meth:`EvalCache.flush` writes the buffer under one lock with one fsync.
A tuner flushes right before each checkpoint snapshot, so a kill loses
exactly the entries measured after the newest durable snapshot, and the
resumed run measures (and bills) them again as an uninterrupted run did.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .appendlog import AppendLog

#: On-disk format version; bump when the entry layout changes.
EVALCACHE_VERSION = 1

#: File name used inside a cache directory.
EVALCACHE_FILENAME = "evalcache.jsonl"


class EvalCache:
    """Evaluation memo of one cache directory: an in-memory index over
    its on-disk JSONL log.

    The cache maps ``(op_signature, canonical_point)`` to
    ``(performance, status_value)``.  ``op_signature`` is produced by the
    evaluator and encodes operator structure, shapes, target and device,
    so one directory can safely serve many workloads.  Opening the cache
    replays the log into the index; outside a :meth:`deferred` span,
    writes append one fsync'd line, inside one they are buffered until
    :meth:`flush`.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        # Entries stored since the last flush of the open deferred span
        # (None: no span open, every put is durable at once).
        self._pending: Optional[List[Tuple[Tuple[str, Tuple[int, ...]], Tuple[float, str]]]] = None
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._log = AppendLog(self.cache_dir / EVALCACHE_FILENAME, "cache entry")
        self._index: Dict[Tuple[str, Tuple[int, ...]], Tuple[float, str]] = dict(
            self._log.replay(_parse_entry)
        )

    @property
    def path(self) -> Path:
        return self._log.path

    def _append(self, entries) -> None:
        self._log.append(
            {"v": EVALCACHE_VERSION, "sig": signature, "point": list(point),
             "perf": perf, "status": status}
            for (signature, point), (perf, status) in entries
        )

    @contextmanager
    def deferred(self) -> Iterator[None]:
        """Buffer durable writes until :meth:`flush` (or the span's end).

        Inside the span ``put`` updates the in-memory index at once, so
        later reads in this process hit, but its line waits for the next
        :meth:`flush`.  Leaving the span normally flushes; leaving it by
        an exception rolls back like a crash would: the unflushed lines
        never reach the file and their keys leave the index.  Spans do
        not nest.
        """
        if self._pending is not None:
            raise RuntimeError("EvalCache.deferred() spans do not nest")
        self._pending = []
        try:
            yield
        except BaseException:
            for key, _value in self._pending:
                self._index.pop(key, None)
            self.stores -= len(self._pending)
            raise
        else:
            self.flush()
        finally:
            self._pending = None

    def flush(self) -> None:
        """Make every entry buffered by the open deferred span durable
        (a no-op outside a span)."""
        if self._pending:
            entries, self._pending = self._pending, []
            self._append(entries)

    # -- public API --------------------------------------------------------

    def get(self, signature: str, point: Tuple[int, ...]) -> Optional[Tuple[float, str]]:
        """Cached ``(performance, status)`` for a canonical point, or None."""
        entry = self._index.get((signature, tuple(point)))
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def put(self, signature: str, point: Tuple[int, ...], perf: float, status: str) -> None:
        """Store one finished (permanent-status) evaluation."""
        key = (signature, tuple(point))
        if key in self._index:
            return
        self.stores += 1
        value = (perf, status)
        self._index[key] = value
        if self._pending is not None:
            self._pending.append((key, value))
        else:
            self._append([(key, value)])

    def __len__(self) -> int:
        return len(self._index)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for the throughput report, with the file's load stats."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "entries": len(self),
            **self._log.stats(),
        }


def _parse_entry(payload: Dict) -> Tuple[Tuple[str, Tuple[int, ...]], Tuple[float, str]]:
    if payload.get("v", EVALCACHE_VERSION) != EVALCACHE_VERSION:
        raise ValueError("version mismatch")
    # Interned: every entry of one workload repeats one signature, and
    # there are only a few statuses.
    key = (sys.intern(payload["sig"]), tuple(int(x) for x in payload["point"]))
    return key, (float(payload["perf"]), sys.intern(str(payload["status"])))
