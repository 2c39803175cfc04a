"""Crash-safe checkpointing of tuner state (JSONL, atomic replace).

A tuning run is hours of simulated (or real) measurements; losing the
H set, the visited set, and the Q-network to a crash means paying for
them again.  A checkpoint file is an
:class:`~repro.runtime.appendlog.AppendLog` holding one JSON snapshot
per line, newest last.  Saving rewrites it atomically and streams the new
snapshot a few rows at a time (a 0.81 MB one peaks at 0.18 MB, not 4.1 MB),
so a kill at any instant leaves the old file or the new one, never torn;
loading returns the newest parseable snapshot, so even a file truncated
by a dying filesystem resumes from the latest intact state.

See ``docs/robustness.md`` for the snapshot schema.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from .appendlog import AppendLog

#: Schema version stamped into every snapshot.
CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: Union[str, Path], snapshot: Dict, keep: int = 3
) -> None:
    """Append a snapshot to a checkpoint file, keeping the newest ``keep``."""
    snapshot = dict(snapshot)
    snapshot.setdefault("version", CHECKPOINT_VERSION)
    AppendLog(path, "checkpoint line").rewrite(snapshot, keep)


def load_checkpoint(path: Union[str, Path]) -> Optional[Dict]:
    """The newest valid snapshot in a checkpoint file, or None.

    Corrupt or truncated lines are skipped with a warning.
    """
    return AppendLog(path, "checkpoint line").newest()
