"""Reference (scalar) gradient-boosted trees: the ground truth the
vectorized implementation is property-tested against.

This is the original per-row / per-threshold implementation of
``repro.learn.gbt``, retained verbatim as an executable specification:
:class:`ReferenceRegressionTree` walks one row at a time through the node
tree and searches splits with an explicit feature x threshold double loop.
``repro.learn.gbt`` reimplements both as numpy array programs and must
produce **bit-identical** trees, predictions and checkpoints — the parity
suite (``tests/test_hotpath_parity.py``) holds the two implementations
against each other on random matrices.  It lives with the tests because
only they import it; it exists to keep "fast" honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _node_to_dict(node: _Node) -> Dict:
    if node.is_leaf:
        return {"value": node.value}
    return {
        "value": node.value,
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(payload: Dict) -> _Node:
    node = _Node(value=payload["value"])
    if "feature" in payload:
        node.feature = payload["feature"]
        node.threshold = payload["threshold"]
        node.left = _node_from_dict(payload["left"])
        node.right = _node_from_dict(payload["right"])
    return node


class ReferenceRegressionTree:
    """CART regression tree with greedy variance-reduction splits."""

    def __init__(self, max_depth: int = 3, min_samples: int = 4, num_thresholds: int = 8):
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.num_thresholds = num_thresholds
        self._root: Optional[_Node] = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ReferenceRegressionTree":
        self._root = self._build(x, y, depth=0)
        return self

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < self.min_samples or np.ptp(y) == 0:
            return node
        best_gain = 0.0
        best = None
        base_sse = float(((y - y.mean()) ** 2).sum())
        for feature in range(x.shape[1]):
            column = x[:, feature]
            if np.ptp(column) == 0:
                continue
            quantiles = np.quantile(
                column, np.linspace(0.1, 0.9, self.num_thresholds)
            )
            for threshold in np.unique(quantiles):
                mask = column <= threshold
                if mask.sum() == 0 or mask.sum() == len(y):
                    continue
                left, right = y[mask], y[~mask]
                sse = float(((left - left.mean()) ** 2).sum()) + float(
                    ((right - right.mean()) ** 2).sum()
                )
                gain = base_sse - sse
                if gain > best_gain:
                    best_gain = gain
                    best = (feature, float(threshold), mask)
        if best is None:
            return node
        feature, threshold, mask = best
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(x[mask], y[mask], depth + 1)
        node.right = self._build(x[~mask], y[~mask], depth + 1)
        return node

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        out = np.empty(len(x))
        for i, row in enumerate(x):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = node.value
        return out

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of the fitted tree structure."""
        return {
            "max_depth": self.max_depth,
            "min_samples": self.min_samples,
            "num_thresholds": self.num_thresholds,
            "root": _node_to_dict(self._root) if self._root is not None else None,
        }

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state` bit-exactly
        (thresholds and leaf values survive a JSON roundtrip unchanged)."""
        self.max_depth = state["max_depth"]
        self.min_samples = state["min_samples"]
        self.num_thresholds = state["num_thresholds"]
        root = state.get("root")
        self._root = _node_from_dict(root) if root is not None else None


class ReferenceGradientBoostedTrees:
    """Least-squares gradient boosting (the XGBoost role in AutoTVM)."""

    def __init__(self, num_rounds: int = 30, learning_rate: float = 0.3,
                 max_depth: int = 3, min_samples: int = 4):
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples = min_samples
        self._trees: List[ReferenceRegressionTree] = []
        self._base: float = 0.0

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees) or self._base != 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ReferenceGradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._trees = []
        self._base = float(y.mean()) if len(y) else 0.0
        residual = y - self._base
        for _ in range(self.num_rounds):
            if np.allclose(residual, 0):
                break
            tree = ReferenceRegressionTree(self.max_depth, self.min_samples).fit(x, residual)
            update = tree.predict(x)
            residual = residual - self.learning_rate * update
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.full(len(x), self._base)
        for tree in self._trees:
            out += self.learning_rate * tree.predict(x)
        return out

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of the whole fitted ensemble."""
        return {
            "num_rounds": self.num_rounds,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "min_samples": self.min_samples,
            "base": self._base,
            "trees": [tree.get_state() for tree in self._trees],
        }

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`; predictions
        of the restored model are bit-identical to the original's."""
        self.num_rounds = state["num_rounds"]
        self.learning_rate = state["learning_rate"]
        self.max_depth = state["max_depth"]
        self.min_samples = state["min_samples"]
        self._base = state["base"]
        self._trees = []
        for tree_state in state["trees"]:
            tree = ReferenceRegressionTree()
            tree.set_state(tree_state)
            self._trees.append(tree)
