"""Persistent tuning records ("tophub"-style best-schedule store).

Tuning costs minutes; its artifact — the best configuration per
(operator, shape, device) — is a few hundred bytes.  A :class:`RecordBook`
appends every finished tuning run to a JSONL file and serves the best
known configuration back, so repeated runs warm-start instead of
re-searching (the deployment mode TVM calls a "tophub" package).  The
file is an :class:`~repro.runtime.appendlog.AppendLog`, so a torn or
corrupt line loses only itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..schedule import NodeConfig
from ..utils.serialization import config_from_dict, config_to_dict
from .appendlog import NO_LOAD_STATS, AppendLog


def workload_key(operator: str, params: Dict, device: str) -> str:
    """Canonical lookup key for a tuned workload."""
    shape = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{operator}[{shape}]@{device}"


@dataclass
class TuningRecord:
    """One finished tuning run."""

    key: str
    config: NodeConfig
    gflops: float
    trials: int = 0
    seed: int = 0
    #: Structural operator identity (:meth:`Evaluator.op_signature`) —
    #: keys the O(1) best-per-signature index serving the tuning
    #: service's read path.  Empty on records written before it existed.
    signature: str = ""

    def to_json(self) -> str:
        """Serialize the record as one JSONL line."""
        return json.dumps(self.to_dict())

    def to_dict(self) -> Dict:
        payload = {
            "key": self.key,
            "config": config_to_dict(self.config),
            "gflops": self.gflops,
            "trials": self.trials,
            "seed": self.seed,
        }
        if self.signature:
            payload["signature"] = self.signature
        return payload

    @classmethod
    def from_json(cls, line: str) -> "TuningRecord":
        """Parse a record from a JSONL line."""
        return cls.from_dict(json.loads(line))

    @classmethod
    def from_dict(cls, payload: Dict) -> "TuningRecord":
        return cls(
            key=payload["key"],
            config=config_from_dict(payload["config"]),
            gflops=payload["gflops"],
            trials=payload.get("trials", 0),
            seed=payload.get("seed", 0),
            signature=str(payload.get("signature", "")),
        )


class RecordBook:
    """Append-only store of tuning records with best-per-key lookup."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.path = Path(path) if path else None
        self._log = AppendLog(self.path, "record") if self.path else None
        self._best: Dict[str, TuningRecord] = {}
        # O(1) best-schedule index keyed by structural operator signature
        # (rebuilt on load, maintained on append): the high-QPS lookup
        # path of ``repro.serve`` never scans the JSONL file per query.
        self._best_by_signature: Dict[str, TuningRecord] = {}
        if self._log is not None:
            for record in self._log.replay(_parse_record):
                self._consider(record)

    def _consider(self, record: TuningRecord) -> bool:
        improved = False
        current = self._best.get(record.key)
        if current is None or record.gflops > current.gflops:
            self._best[record.key] = record
            improved = True
        if record.signature:
            by_sig = self._best_by_signature.get(record.signature)
            if by_sig is None or record.gflops > by_sig.gflops:
                self._best_by_signature[record.signature] = record
        return improved

    # -- public API --------------------------------------------------------

    def add(self, record: TuningRecord) -> None:
        """Append a record (and persist it if a path is configured)."""
        self._consider(record)
        if self._log is not None:
            self._log.append([record.to_dict()])

    def add_metrics(self, payload: Dict) -> None:
        """Append a throughput/metrics side-channel line.

        Metrics ride in the same JSONL file tagged ``"type": "metrics"``;
        record loading skips typed lines, so old readers are unaffected.
        """
        if self._log is not None:
            self._log.append([{"type": "metrics", **payload}])

    def metrics(self) -> List[Dict]:
        """All metrics lines in append order (empty without a path)."""
        if self._log is None:
            return []
        return list(self._log.replay(lambda p: p if p.get("type") == "metrics" else None))

    def load_stats(self) -> Dict[str, int]:
        """Load stats of the book's last file replay (zeros without a path)."""
        return self._log.stats() if self._log is not None else dict(NO_LOAD_STATS)

    def best(self, key: str) -> Optional[TuningRecord]:
        """Best known record for a workload key, or None."""
        return self._best.get(key)

    def best_for_signature(self, signature: str) -> Optional[TuningRecord]:
        """Best known record for a structural operator signature, or None.

        O(1): served from the index maintained on every append and
        rebuilt on load — property-tested against a full file scan in
        ``tests/test_serve.py``.
        """
        if not signature:
            return None
        return self._best_by_signature.get(signature)

    def signatures(self) -> List[str]:
        """All indexed operator signatures, sorted."""
        return sorted(self._best_by_signature)

    def keys(self) -> List[str]:
        """All workload keys with at least one record, sorted."""
        return sorted(self._best)

    def __len__(self) -> int:
        return len(self._best)

    def __contains__(self, key: str) -> bool:
        return key in self._best


def _parse_record(payload: Dict) -> Optional[TuningRecord]:
    # Typed lines (e.g. metrics) are side-channel data, not records.
    return TuningRecord.from_dict(payload) if payload.get("type") is None else None
