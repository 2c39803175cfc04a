"""Gradient-boosted regression trees, from scratch in numpy.

A small XGBoost stand-in shared by the AutoTVM baseline's cost model [9]
and the online surrogate screen (``repro.explore.surrogate``):
least-squares boosting over depth-limited CART trees with quantile-sampled
split thresholds.  Deterministic given its inputs, and — because the
surrogate checkpoints alongside the Q-network — exactly serializable:
:meth:`GradientBoostedTrees.get_state` / :meth:`set_state` roundtrip the
fitted ensemble bit-identically through JSON.

Both halves of the hot path are array programs rather than Python loops:

* :meth:`RegressionTree.predict` flattens the fitted tree into parallel
  arrays (feature / threshold / left / right / value) and walks **all
  rows at once**, one tree level per iteration, instead of chasing nodes
  row by row.
* :meth:`RegressionTree.fit` replaces the feature x threshold double loop
  (one ``np.quantile`` + two ``mean()`` passes per candidate) with one
  stable argsort per *ensemble fit*, filtered down each tree by the split
  masks (stable filtering of a stable sort is the per-node stable sort):
  candidate thresholds come from an exact
  re-implementation of numpy's linear-interpolation quantile over the
  sorted columns, and split SSEs come from cumulative sums.

An ensemble fit also skips work that the rounds would repeat: columns
that are constant over the training rows (never a valid split) are
dropped once, and a node's thresholds and left-side counts, which depend
only on x and the node's rows, are computed once per distinct row set
and reused by every later round that grows the same node.

The contract — enforced by ``tests/test_hotpath_parity.py`` against the
scalar implementation kept in ``tests/gbt_reference.py`` — is that the
fitted trees, the predictions and the checkpoints are **bit-identical**
to the original code.  Cumulative-sum SSEs round differently than the
scalar two-pass formula, so they are used only to *shortlist* candidate
splits: every candidate within a conservative error band of the
vectorized maximum is re-scored with the scalar formula verbatim, and the
scalar first-strictly-greater scan picks the winner.  The band is not
small, but most of its candidates cut the rows the same way (duplicate or
monotone-related feature columns, thresholds between the same two rows):
over one surrogate-screened benchmark pass (95 refits of 30 trees, 15,193
split searches) it held 188,607 candidates, 12.4 per search, yet only
19,740 distinct left/right partitions, 1.3 per search.  So each distinct
partition is re-scored once; identical partitions have identical exact
SSEs, so the winner is the reference's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


@dataclass
class _FlatTree:
    """The fitted tree compiled to parallel arrays for batched predict.

    ``feature[i] < 0`` marks node ``i`` as a leaf; internal nodes route
    rows with ``x[:, feature] <= threshold`` to ``left`` and the rest to
    ``right``.  ``depth`` bounds the level-by-level walk.
    """

    feature: np.ndarray     # intp, -1 for leaves
    threshold: np.ndarray   # float64
    left: np.ndarray        # intp, self-loop for leaves
    right: np.ndarray       # intp, self-loop for leaves
    value: np.ndarray       # float64
    depth: int


def _flatten(root: _Node) -> _FlatTree:
    nodes: List[_Node] = []
    depths: List[int] = []
    left: List[int] = []
    right: List[int] = []

    def build(node: _Node, depth: int) -> int:
        index = len(nodes)
        nodes.append(node)
        depths.append(depth)
        left.append(index)
        right.append(index)
        if not node.is_leaf:
            left[index] = build(node.left, depth + 1)
            right[index] = build(node.right, depth + 1)
        return index

    build(root, 0)
    feature = np.array(
        [n.feature if not n.is_leaf else -1 for n in nodes], dtype=np.intp
    )
    threshold = np.array([n.threshold for n in nodes], dtype=np.float64)
    value = np.array([n.value for n in nodes], dtype=np.float64)
    return _FlatTree(
        feature=feature,
        threshold=threshold,
        left=np.array(left, dtype=np.intp),
        right=np.array(right, dtype=np.intp),
        value=value,
        depth=max(depths) if depths else 0,
    )


def _column_quantiles(sorted_columns: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """numpy's default (linear / Hyndman-Fan 7) quantiles of pre-sorted
    columns, bit-identical to ``np.quantile(column, fractions)`` per
    column.  ``sorted_columns`` is (n, F); returns (T, F).

    Replicates numpy's ``_quantile`` arithmetic exactly: virtual index
    ``q * (n - 1)``, floor/ceil gather, and the two-sided ``_lerp``
    (``a + (b - a) * g`` below g = 0.5, ``b - (b - a) * (1 - g)`` above).
    """
    n = sorted_columns.shape[0]
    virtual = fractions * (n - 1)
    previous = np.floor(virtual)
    nxt = previous + 1
    above = virtual >= n - 1
    previous[above] = n - 1
    nxt[above] = n - 1
    previous = previous.astype(np.intp)
    nxt = nxt.astype(np.intp)
    gamma = (virtual - previous)[:, None]
    a = sorted_columns[previous, :]
    b = sorted_columns[nxt, :]
    diff = b - a
    result = a + diff * gamma
    upper = gamma >= 0.5
    np.subtract(b, diff * (1 - gamma), out=result, where=upper)
    return result


@dataclass
class _FitData:
    """What every tree of one ensemble fit shares; it lives only as long
    as that fit, so nothing here stays on the fitted model.

    ``x`` keeps only the *live* columns — a column that is constant over
    the training rows puts every quantile threshold at its one value, so
    every candidate sends all rows left and is never a valid split.
    ``live`` maps a live column back to its original feature index.
    ``order`` is the stable per-column argsort of ``x``; ``stats`` memoizes
    :meth:`RegressionTree._x_split_stats` by node row set, which depends
    only on ``x`` and the rows, never on the residual being fitted.
    """

    x: np.ndarray
    live: np.ndarray
    order: np.ndarray
    stats: Dict[bytes, Tuple[np.ndarray, np.ndarray, np.ndarray]]

    @classmethod
    def of(cls, x: np.ndarray) -> "_FitData":
        if len(x):
            live = np.flatnonzero(x.min(axis=0) != x.max(axis=0))
            x = x[:, live]
        else:
            live = np.arange(x.shape[1], dtype=np.intp)
        return cls(x, live, np.argsort(x, axis=0, kind="stable"), {})


class RegressionTree:
    """CART regression tree with greedy variance-reduction splits."""

    def __init__(self, max_depth: int = 3, min_samples: int = 4, num_thresholds: int = 8):
        self.max_depth = max_depth
        self.min_samples = min_samples
        self.num_thresholds = num_thresholds
        self._root: Optional[_Node] = None
        self._flat: Optional[_FlatTree] = None
        self._fractions: Optional[np.ndarray] = None

    def _x_split_stats(self, xs: np.ndarray,
                       n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidate thresholds (T, F), which of them split the node's
        ``n`` rows into two non-empty sides, and their clipped left-side
        counts, for the node's sorted columns ``xs``."""
        if self._fractions is None or len(self._fractions) != self.num_thresholds:
            self._fractions = np.linspace(0.1, 0.9, self.num_thresholds)
        thresholds = _column_quantiles(xs, self._fractions)    # (T, F)
        counts = (xs[:, None, :] <= thresholds[None, :, :]).sum(axis=0)
        valid = (counts > 0) & (counts < n)
        k = np.clip(counts, 1, n - 1)
        return thresholds, valid, k

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RegressionTree":
        """Fit on ``(x, y)``."""
        return self._fit(_FitData.of(np.asarray(x)), np.asarray(y))

    def _fit(self, data: _FitData, y: np.ndarray) -> "RegressionTree":
        self._root = self._build_levels(data, y)
        self._flat = _flatten(self._root)
        return self

    def _build_levels(self, data: _FitData, y: np.ndarray) -> _Node:
        """Level-order tree construction.

        Bit-identical to depth-first recursion — node values, split
        choices and child partitions only depend on each node's own rows
        — but iterative, so the hot loop stays flat.  (A fully padded
        sibling-batched split search was tried here and *lost*: at the
        row counts the surrogate trains on, the dense (siblings, rows,
        features) broadcasts cost more than the numpy dispatch they
        save.)

        Per-node sorted orders are maintained by *filtering* the parent's
        order with the split mask: stable filtering of a stable sort keeps
        equal elements in ascending-row order, exactly what a fresh
        per-node stable argsort would produce.
        """
        x = data.x
        root = _Node()
        level = [(root, np.arange(len(y), dtype=np.intp), data.order)]
        depth = 0
        n_features = x.shape[1]
        while level:
            nxt_level = []
            for node, node_rows, node_order in level:
                yv = y[node_rows]
                n = len(yv)
                node.value = float(np.add.reduce(yv) / n) if n else float(yv.mean())
                if depth >= self.max_depth or n < self.min_samples or np.ptp(yv) == 0:
                    continue
                best = self._find_split(data, y, node_rows, node_order, yv)
                if best is None:
                    continue
                column, threshold = best
                mask = x[node_rows, column] <= threshold
                node.feature = int(data.live[column])
                node.threshold = threshold
                node.left = _Node()
                node.right = _Node()
                member = np.zeros(x.shape[0], dtype=bool)
                member[node_rows[mask]] = True
                picked = member[node_order.T]
                left_order = node_order.T[picked].reshape(n_features, -1).T
                right_order = node_order.T[~picked].reshape(n_features, -1).T
                nxt_level.append((node.left, node_rows[mask], left_order))
                nxt_level.append((node.right, node_rows[~mask], right_order))
            level = nxt_level
            depth += 1
        return root

    @staticmethod
    def _pick_from_band(x: np.ndarray, rows: np.ndarray, yv: np.ndarray,
                        base_sse: float, thresholds: np.ndarray,
                        band: np.ndarray) -> Optional[Tuple[int, float]]:
        """Reference-exact winner among the shortlisted candidates.

        ``band`` (F, T) marks the candidates within the error band of the
        vectorized maximum.  Their left/right masks are built at once;
        each *distinct* mask is re-scored once with the scalar two-pass
        formula (identical masks give identical SSEs), and the reference's
        first-strictly-greater scan runs over those gains in its (feature,
        then ascending threshold) order.

        ``np.add.reduce(v) / n`` below is numpy's own ``mean`` kernel
        (``_methods._mean`` is exactly ``umr_sum`` then a divide) minus
        the python-level dispatch, so the re-scored SSEs match the
        reference bit for bit.
        """
        n = len(yv)
        columns, t_index = np.nonzero(band)
        cuts = thresholds[t_index, columns]
        masks = x[rows[None, :], columns[:, None]] <= cuts[:, None]   # (m, n)
        inside = np.count_nonzero(masks, axis=1).tolist()
        gains: Dict[bytes, float] = {}
        best_gain = 0.0
        best: Optional[int] = None
        for i, k in enumerate(inside):
            if k == 0 or k == n:
                continue
            mask = masks[i]
            key = mask.tobytes()
            gain = gains.get(key)
            if gain is None:
                left, right = yv[mask], yv[~mask]
                ld = left - np.add.reduce(left) / k
                rd = right - np.add.reduce(right) / (n - k)
                exact = float(np.add.reduce(ld * ld)) + float(np.add.reduce(rd * rd))
                gain = gains[key] = base_sse - exact
            if gain > best_gain:
                best_gain = gain
                best = i
        if best is None:
            return None
        return int(columns[best]), float(cuts[best])

    def _find_split(self, data: _FitData, y: np.ndarray, rows: np.ndarray,
                    order: np.ndarray, yv: np.ndarray) -> Optional[Tuple[int, float]]:
        """Best (live column, threshold) by variance reduction, or None.

        Vectorized shortlist + scalar re-score: cumulative-sum SSEs over
        stably argsorted columns rank all feature x quantile candidates
        at once; every candidate within an error band of the maximum is
        then re-scored with the reference two-pass formula, and the
        reference's first-strictly-positive-improvement scan (feature
        order, then ascending threshold) picks among exact ties.
        """
        n = len(yv)
        columns = np.arange(data.x.shape[1], dtype=np.intp)[None, :]
        key = rows.tobytes()
        xstats = data.stats.get(key)
        if xstats is None:
            xstats = data.stats[key] = self._x_split_stats(data.x[order, columns], n)
        thresholds, valid, k = xstats
        if not valid.any():
            return None
        dv = yv - np.add.reduce(yv) / n
        base_sse = float(np.add.reduce(dv * dv))
        ys = y[order]
        csum = np.cumsum(ys, axis=0)
        csum2 = np.cumsum(ys * ys, axis=0)
        left_sum = csum[k - 1, columns]
        left_sum2 = csum2[k - 1, columns]
        right_count = n - k
        right_sum = csum[-1] - left_sum
        sse = (
            left_sum2
            - left_sum * left_sum / k
            + (csum2[-1] - left_sum2)
            - right_sum * right_sum / right_count
        )
        gains = np.where(valid, base_sse - sse, -np.inf).T     # (F, T)
        max_gain = gains.max()
        # Error band: cumulative sums accumulate O(n * eps) of the y**2
        # scale per candidate, so anything this close to the maximum (or
        # to the strict > 0 acceptance bound) must be settled by the
        # scalar formula.
        scale = float(csum2[-1].max()) + base_sse + 1.0
        tolerance = 1e-12 * n * scale + 1e-9 * base_sse
        if max_gain <= -tolerance:
            return None
        return self._pick_from_band(
            data.x, rows, yv, base_sse, thresholds, gains >= max_gain - tolerance,
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("tree is not fitted")
        if self._flat is None:
            self._flat = _flatten(self._root)
        flat = self._flat
        x = np.asarray(x)
        index = np.zeros(len(x), dtype=np.intp)
        rows = np.arange(len(x))
        for _ in range(flat.depth):
            feature = flat.feature[index]
            internal = feature >= 0
            if not internal.any():
                break
            goes_left = x[rows, np.maximum(feature, 0)] <= flat.threshold[index]
            index = np.where(
                internal,
                np.where(goes_left, flat.left[index], flat.right[index]),
                index,
            )
        return flat.value[index]

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
        self._flat = _flatten(self._root) if self._root is not None else None


class GradientBoostedTrees:
    """Least-squares gradient boosting (the XGBoost role in AutoTVM)."""

    def __init__(self, num_rounds: int = 30, learning_rate: float = 0.3,
                 max_depth: int = 3, min_samples: int = 4):
        self.num_rounds = num_rounds
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples = min_samples
        self._trees: List[RegressionTree] = []
        self._base: float = 0.0
        self._forest: Optional[_FlatTree] = None
        self._roots: Optional[np.ndarray] = None

    def _compile_forest(self) -> Optional[_FlatTree]:
        """Concatenate every tree's flat arrays into one forest.

        ``predict`` then routes all rows through all trees at once — one
        level-step per iteration over (rows x trees) index matrices —
        instead of walking the ensemble tree by tree.  Per-tree leaf
        values are still accumulated in boosting order, so predictions
        stay bit-identical to the sequential loop.
        """
        if self._forest is None and self._trees:
            flats = []
            for tree in self._trees:
                if tree._flat is None:
                    tree._flat = _flatten(tree._root)
                flats.append(tree._flat)
            offsets = np.cumsum([0] + [len(f.feature) for f in flats[:-1]])
            self._forest = _FlatTree(
                feature=np.concatenate([f.feature for f in flats]),
                threshold=np.concatenate([f.threshold for f in flats]),
                left=np.concatenate([f.left + o for f, o in zip(flats, offsets)]),
                right=np.concatenate([f.right + o for f, o in zip(flats, offsets)]),
                value=np.concatenate([f.value for f in flats]),
                depth=max(f.depth for f in flats),
            )
            self._roots = offsets.astype(np.intp)
        return self._forest

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees) or self._base != 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GradientBoostedTrees":
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._trees = []
        self._forest = None
        self._base = float(y.mean()) if len(y) else 0.0
        residual = y - self._base
        # Every round fits on the same x: its live columns, one stable
        # argsort and the per-node-row-set split stats serve all trees.
        data = _FitData.of(x)
        for _ in range(self.num_rounds):
            # np.allclose(residual, 0) without its generic-tolerance overhead.
            if (np.abs(residual) <= 1e-8).all():
                break
            tree = RegressionTree(self.max_depth, self.min_samples)._fit(data, residual)
            update = tree.predict(x)
            residual = residual - self.learning_rate * update
            self._trees.append(tree)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = np.full(len(x), self._base)
        forest = self._compile_forest()
        if forest is None:
            return out
        index = np.broadcast_to(self._roots, (len(x), len(self._roots))).copy()
        rows = np.arange(len(x))[:, None]
        for _ in range(forest.depth):
            feature = forest.feature[index]
            internal = feature >= 0
            if not internal.any():
                break
            goes_left = (
                x[rows, np.maximum(feature, 0)] <= forest.threshold[index]
            )
            index = np.where(
                internal,
                np.where(goes_left, forest.left[index], forest.right[index]),
                index,
            )
        leaf_values = forest.value[index]
        # Accumulate in boosting order — float addition is not
        # associative, so a vectorized row-sum would drift from the
        # sequential reference by ULPs.
        for t in range(leaf_values.shape[1]):
            out += self.learning_rate * leaf_values[:, t]
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
        self._forest = None
        self._trees = []
        for tree_state in state["trees"]:
            tree = RegressionTree()
            tree.set_state(tree_state)
            self._trees.append(tree)
