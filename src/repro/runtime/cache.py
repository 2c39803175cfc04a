"""Persistent cross-run evaluation cache (level 2 of the two-level cache).

Level 1 is the :class:`~repro.runtime.measure.Evaluator`'s in-run memo
(raw points, drives the simulated clock).  This module adds the level-2
store: a bounded in-memory LRU in front of an append-only JSONL file,
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

from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .appendlog import NO_LOAD_STATS, AppendLog

#: On-disk format version; bump when the entry layout changes.
EVALCACHE_VERSION = 1

#: File name used inside a cache directory.
EVALCACHE_FILENAME = "evalcache.jsonl"


class EvalCache:
    """Two-level evaluation memo: in-memory LRU over an on-disk JSONL log.

    The cache maps ``(op_signature, canonical_point)`` to
    ``(performance, status_value)``.  ``op_signature`` is produced by the
    evaluator and encodes operator structure, shapes, target and device,
    so one directory can safely serve many workloads.  Outside a
    :meth:`deferred` span, writes append one fsync'd line; inside one
    they are buffered until :meth:`flush`.  Reads hit the LRU first and
    fall back to the disk-loaded index.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        max_memory_entries: int = 4096,
    ):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.max_memory_entries = max_memory_entries
        self._memory: "OrderedDict[Tuple[str, Tuple[int, ...]], Tuple[float, str]]" = OrderedDict()
        self._disk: Dict[Tuple[str, Tuple[int, ...]], Tuple[float, str]] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_hits = 0
        # Entries stored since the last flush of the open deferred span
        # (None: no span open, every put is durable at once).
        self._pending: Optional[List[Tuple[Tuple[str, Tuple[int, ...]], Tuple[float, str]]]] = None
        self._log: Optional[AppendLog] = None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self._log = AppendLog(self.cache_dir / EVALCACHE_FILENAME, "cache entry")
            self._disk.update(self._log.replay(_parse_entry))

    @property
    def path(self) -> Optional[Path]:
        return self._log.path if self._log is not None else None

    def _append(self, entries) -> None:
        if self._log is not None:
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
                self._memory.pop(key, None)
                self._disk.pop(key, None)
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
        key = (signature, tuple(point))
        entry = self._memory.get(key)
        if entry is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            return entry
        entry = self._disk.get(key)
        if entry is not None:
            self.hits += 1
            self.disk_hits += 1
            self._remember(key, entry)
            return entry
        self.misses += 1
        return None

    def put(self, signature: str, point: Tuple[int, ...], perf: float, status: str) -> None:
        """Store one finished (permanent-status) evaluation."""
        key = (signature, tuple(point))
        if key in self._memory or key in self._disk:
            return
        self.stores += 1
        value = (perf, status)
        self._remember(key, value)
        if self.cache_dir is not None:
            # Mirror into the durable index too, so the entry survives
            # LRU eviction within this process exactly as it does a
            # restart.
            self._disk[key] = value
        if self._pending is not None:
            self._pending.append((key, value))
        else:
            self._append([(key, value)])

    def _remember(self, key, value) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        keys = set(self._disk)
        keys.update(self._memory)
        return len(keys)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters for the throughput report, with the file's load stats."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "hit_rate": self.hit_rate,
            "entries": len(self),
            **(self._log.stats() if self._log is not None else NO_LOAD_STATS),
        }


def _parse_entry(payload: Dict) -> Tuple[Tuple[str, Tuple[int, ...]], Tuple[float, str]]:
    if payload.get("v", EVALCACHE_VERSION) != EVALCACHE_VERSION:
        raise ValueError("version mismatch")
    key = (payload["sig"], tuple(int(x) for x in payload["point"]))
    return key, (float(payload["perf"]), str(payload["status"]))
