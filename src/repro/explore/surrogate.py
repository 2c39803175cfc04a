"""Surrogate-guided batch screening: spend measurement budget wisely.

The lint gate (``repro.analysis.lint``) rejects *illegal* candidates for
free, but legal-but-slow candidates still cost a full simulated
measurement each.  Following AutoTVM's "Learning to Optimize Tensor
Programs" recipe, :class:`SurrogateScreen` puts a cheap learned ranker in
front of real measurement: an online gradient-boosted-tree cost model
(``repro.learn``) is trained incrementally on every completed
measurement, and each candidate batch is ranked so that only the
top-``screen_ratio`` fraction — plus an ε-greedy exploration slice that
keeps the search unbiased — is forwarded to the measurement pipeline.
Screened-out points are billed at near-zero simulated cost (one model
inference) and answered with the surrogate's predicted performance.

Determinism: the screen owns a private seeded RNG for its ε draws, the
refit cadence is a pure function of the number of observations, and the
GBT ensemble serializes bit-exactly — so a seeded run with screening on
is reproducible and checkpoint/resume roundtrips through
:meth:`get_state` / :meth:`set_state` exactly like the Q-network.

The full measure pipeline with every stage enabled is::

    lint gate -> cache probe -> surrogate screen -> measure

See ``docs/surrogate.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..codegen import batch_point_features, point_features
from ..learn import GradientBoostedTrees
from ..space import Point

#: Simulated seconds one surrogate inference costs per candidate — the
#: "near-zero" price of a screened point (a GBT forward pass, ~10^4x
#: cheaper than compiling and running a kernel).
INFERENCE_SECONDS = 1e-4


@dataclass
class ScreenDecision:
    """Outcome of screening one candidate batch."""

    forward: List[int]                  # positions to measure, submission order
    screened: List[Tuple[int, float]]   # (position, predicted performance)
    scores: Dict[int, float]            # position -> model score (log1p GFLOPS)
    cost_seconds: float = 0.0           # simulated inference cost to bill
    ranked: bool = False                # whether the model actually ranked

    @property
    def predictions(self) -> Dict[int, float]:
        return dict(self.screened)


@dataclass
class _QualityStats:
    """Running rank-quality of the surrogate against real measurements."""

    batches: int = 0
    correlation_sum: float = 0.0
    top_hits: int = 0        # batches whose best measured point was ranked #1

    @property
    def mean_rank_correlation(self) -> float:
        return self.correlation_sum / self.batches if self.batches else 0.0


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation (0.0 when either side is constant)."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if len(x) < 2 or np.ptp(x) == 0 or np.ptp(y) == 0:
        return 0.0
    rx = np.argsort(np.argsort(x)).astype(np.float64)
    ry = np.argsort(np.argsort(y)).astype(np.float64)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx**2).sum()) * float((ry**2).sum()))
    if denom == 0:
        return 0.0
    return float((rx * ry).sum()) / denom


class SurrogateScreen:
    """Online learned cost model screening candidate batches.

    Args:
        space: the schedule space candidates come from (featurization).
        screen_ratio: fraction of each ranked batch forwarded to real
            measurement (at least one candidate is always forwarded).
        epsilon: per-candidate probability that a screened-out point is
            forwarded anyway — the exploration slice that keeps the
            search from collapsing onto the model's blind spots.
        min_train: observations required before ranking starts; until
            then every candidate is forwarded (the random warm-up that
            gives the model unbiased coverage).
        refit_every: base refit cadence.  The model is refit once this
            many new observations have accumulated since the last fit,
            with a deterministic backoff once the training set outgrows
            the warm-up (``12 * refit_every`` observations): the gap
            required becomes ``max(refit_every, (fitted_at - warmup) //
            4)``, growing geometrically with the training set so total
            refit cost stays O(n) instead of O(n²) over a long run while
            the early search keeps a fresh model.  A pure function of
            checkpointed fields (observation count and ``fitted_at``),
            so seeded runs and kill+resume are bit-identical.
        seed: seed of the private ε-draw RNG.
        inference_seconds: simulated cost billed per ranked candidate.
        window: size of the rolling score window used to screen batches
            too small to rank internally (serial tuners submit one
            candidate at a time): a lone candidate is forwarded iff its
            score reaches the window's top ``screen_ratio`` quantile.
    """

    def __init__(
        self,
        space,
        screen_ratio: float = 0.25,
        epsilon: float = 0.15,
        min_train: int = 12,
        refit_every: int = 4,
        seed: int = 0,
        inference_seconds: float = INFERENCE_SECONDS,
        window: int = 64,
    ):
        if not 0.0 < screen_ratio <= 1.0:
            raise ValueError(f"screen_ratio must be in (0, 1], got {screen_ratio}")
        self.space = space
        self.screen_ratio = screen_ratio
        self.epsilon = epsilon
        self.min_train = max(2, int(min_train))
        self.refit_every = max(1, int(refit_every))
        self.inference_seconds = inference_seconds
        self.window = max(8, int(window))
        self._recent_scores: List[float] = []
        self.model = GradientBoostedTrees()
        self._rng = np.random.default_rng(seed)
        self._xs: List[np.ndarray] = []
        self._ys: List[float] = []
        self._seen: Dict[Point, int] = {}      # point -> index into _xs/_ys
        self._fitted_at = 0                    # observation count at last fit
        self._feature_cache: Dict[Point, np.ndarray] = {}
        # Counters (surface in TuneResult / the throughput report).
        self.num_observations = 0
        self.num_refits = 0
        self.num_ranked = 0
        self.num_screened = 0
        self.num_forwarded = 0
        self.num_explored = 0                  # ε-slice promotions
        self.quality = _QualityStats()
        self._quality_pairs: List[Tuple[float, float]] = []

    # -- featurization -----------------------------------------------------

    def features(self, point: Point) -> np.ndarray:
        cached = self._feature_cache.get(point)
        if cached is None:
            cached = point_features(self.space, point)
            self._feature_cache[point] = cached
        return cached

    def features_matrix(self, points: Sequence[Point]) -> np.ndarray:
        """Feature rows for a batch, filling the per-point cache.

        Uncached points are featurized in one vectorized pass —
        bit-identical to calling :meth:`features` per point (pinned by
        the parity suite)."""
        missing = list(dict.fromkeys(
            p for p in points if p not in self._feature_cache
        ))
        if missing:
            rows = batch_point_features(self.space, missing)
            for point, row in zip(missing, rows):
                self._feature_cache[point] = row.copy()
        return np.stack([self._feature_cache[p] for p in points])

    # -- training ----------------------------------------------------------

    @property
    def ready(self) -> bool:
        """Whether the model has been fit and may rank candidates."""
        return self.model.is_fitted and len(self._ys) >= self.min_train

    def observe(self, point: Point, performance: float) -> None:
        """Fold one completed measurement into the training set.

        Re-measurements of a known point overwrite its label (the model
        tracks the latest value); the deterministic refit cadence counts
        *new* points only.
        """
        point = Point(point)
        index = self._seen.get(point)
        if index is not None:
            self._ys[index] = float(performance)
            return
        self._seen[point] = len(self._ys)
        self._xs.append(self.features(point))
        self._ys.append(float(performance))
        self.num_observations += 1
        self._maybe_refit()

    def _maybe_refit(self) -> None:
        """Deterministic geometric refit backoff.

        The first fit happens at ``min_train``; past the warm-up
        (``12 * refit_every`` observations) the gap between refits grows
        as ``(fitted_at - warmup) // 4``.  Each fit is O(current n), and
        because the gaps grow geometrically the total over a run is O(n)
        fits-worth of work instead of the O(n²) a fixed cadence costs —
        while inside the warm-up the cadence is exactly the legacy
        ``refit_every``, keeping the early search's model fresh.  Pure
        function of checkpointed fields — kill+resume refits at the same
        counts."""
        count = len(self._ys)
        if count < self.min_train:
            return
        warmup = 12 * self.refit_every
        gap = max(self.refit_every, (self._fitted_at - warmup) // 4)
        if self.model.is_fitted and count - self._fitted_at < gap:
            return
        self.refit()

    def refit(self) -> None:
        """Refit the GBT on the full history (log1p target —
        performance spans orders of magnitude and failures sit at 0)."""
        if not self._ys:
            return
        x = np.stack(self._xs)
        y = np.log1p(np.asarray(self._ys, dtype=np.float64))
        self.model.fit(x, y)
        self._fitted_at = len(self._ys)
        self.num_refits += 1

    # -- screening ---------------------------------------------------------

    def predict(self, points: Sequence[Point]) -> np.ndarray:
        """Model scores (log1p GFLOPS) for a list of points — one
        batched featurization and one vectorized ensemble walk."""
        return self.model.predict(self.features_matrix(points))

    def screen(self, points: Sequence[Point]) -> ScreenDecision:
        """Partition a candidate batch into forward / screened-out.

        Until the model is ready, everything is forwarded at zero cost.
        Once ranking starts, the top ``ceil(screen_ratio * n)`` scorers
        are forwarded (ties broken by submission order), each remaining
        candidate is promoted with probability ``epsilon`` (one RNG draw
        per candidate, in submission order), and the rest are screened
        out with their predicted performance (``expm1`` of the score,
        clipped at 0).

        A batch of one (serial tuners submit candidates one at a time)
        cannot be ranked internally, so it is judged against the rolling
        window of recent scores instead: forwarded iff its score reaches
        the window's top ``screen_ratio`` quantile, with the same ε
        escape hatch.  Every score feeds the window either way.
        """
        n = len(points)
        if not self.ready or n == 0:
            return ScreenDecision(forward=list(range(n)), screened=[], scores={})
        scores = self.predict(points)
        if n == 1:
            decision = self._screen_single(float(scores[0]))
            self._recent_scores.append(float(scores[0]))
            del self._recent_scores[: -self.window]
            return decision
        keep = max(1, math.ceil(self.screen_ratio * n))
        order = sorted(range(n), key=lambda i: (-scores[i], i))
        chosen = set(order[:keep])
        for position in sorted(order[keep:]):
            if self._rng.random() < self.epsilon:
                chosen.add(position)
                self.num_explored += 1
        forward = sorted(chosen)
        screened = [
            (i, max(0.0, float(np.expm1(scores[i])))) for i in range(n) if i not in chosen
        ]
        self.num_ranked += n
        self.num_forwarded += len(forward)
        self.num_screened += len(screened)
        self._recent_scores.extend(float(s) for s in scores)
        del self._recent_scores[: -self.window]
        return ScreenDecision(
            forward=forward,
            screened=screened,
            scores={i: float(scores[i]) for i in range(n)},
            cost_seconds=self.inference_seconds * n,
            ranked=True,
        )

    def _screen_single(self, score: float) -> ScreenDecision:
        """Window-quantile policy for one-candidate batches."""
        if len(self._recent_scores) < 8:
            forwarded = True
        else:
            threshold = float(
                np.quantile(self._recent_scores, 1.0 - self.screen_ratio)
            )
            forwarded = score >= threshold
            if not forwarded and self._rng.random() < self.epsilon:
                forwarded = True
                self.num_explored += 1
        self.num_ranked += 1
        if forwarded:
            self.num_forwarded += 1
            forward = [0]
            screened: List[Tuple[int, float]] = []
        else:
            self.num_screened += 1
            forward = []
            screened = [(0, max(0.0, float(np.expm1(score))))]
        return ScreenDecision(
            forward=forward,
            screened=screened,
            scores={0: score},
            cost_seconds=self.inference_seconds,
            ranked=True,
        )

    def note_quality(
        self, decision: ScreenDecision, measured: Sequence[Tuple[int, float]]
    ) -> None:
        """Score the screen's ranking against the real measurements of
        the forwarded candidates (position, performance).

        Single-candidate decisions (serial tuners) cannot be correlated
        in isolation, so their (score, measurement) pairs pool across
        decisions and are scored once 16 have accumulated."""
        if not decision.ranked or not measured:
            return
        if len(measured) >= 2:
            predicted = [decision.scores[i] for i, _ in measured]
            actual = [perf for _, perf in measured]
            self._fold_quality(predicted, actual)
            return
        position, performance = measured[0]
        self._quality_pairs.append((decision.scores[position], performance))
        if len(self._quality_pairs) >= 16:
            self._fold_quality(
                [score for score, _ in self._quality_pairs],
                [perf for _, perf in self._quality_pairs],
            )
            self._quality_pairs = []

    def _fold_quality(self, predicted: List[float], actual: List[float]) -> None:
        self.quality.batches += 1
        self.quality.correlation_sum += spearman(predicted, actual)
        best_measured = max(range(len(actual)), key=actual.__getitem__)
        top_ranked = max(range(len(predicted)), key=predicted.__getitem__)
        if best_measured == top_ranked:
            self.quality.top_hits += 1

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict:
        """Screening counters for TuneResult and the throughput report."""
        return {
            "observations": self.num_observations,
            "refits": self.num_refits,
            "ranked": self.num_ranked,
            "forwarded": self.num_forwarded,
            "screened": self.num_screened,
            "explored": self.num_explored,
            "screen_ratio": self.screen_ratio,
            "epsilon": self.epsilon,
            "quality_batches": self.quality.batches,
            "rank_correlation": self.quality.mean_rank_correlation,
            "top_hit_rate": (
                self.quality.top_hits / self.quality.batches
                if self.quality.batches
                else 0.0
            ),
        }

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> Dict:
        """JSON-compatible snapshot of everything that evolves during a
        run: the training set, the fitted ensemble, the ε RNG, the refit
        bookkeeping and every counter.  Bit-identical resume: restoring
        this state reproduces the exact screening decisions an
        uninterrupted run would have made."""
        return {
            "screen_ratio": self.screen_ratio,
            "epsilon": self.epsilon,
            "min_train": self.min_train,
            "refit_every": self.refit_every,
            "inference_seconds": self.inference_seconds,
            "window": self.window,
            "recent_scores": list(self._recent_scores),
            "observations": [
                [list(p), self._ys[i]] for p, i in self._seen.items()
            ],
            "fitted_at": self._fitted_at,
            "model": self.model.get_state(),
            "rng": self._rng.bit_generator.state,
            "num_observations": self.num_observations,
            "num_refits": self.num_refits,
            "num_ranked": self.num_ranked,
            "num_screened": self.num_screened,
            "num_forwarded": self.num_forwarded,
            "num_explored": self.num_explored,
            "quality": {
                "batches": self.quality.batches,
                "correlation_sum": self.quality.correlation_sum,
                "top_hits": self.quality.top_hits,
            },
            "quality_pairs": [list(pair) for pair in self._quality_pairs],
        }

    def set_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        self.screen_ratio = state["screen_ratio"]
        self.epsilon = state["epsilon"]
        self.min_train = state["min_train"]
        self.refit_every = state["refit_every"]
        self.inference_seconds = state["inference_seconds"]
        self.window = state["window"]
        self._recent_scores = list(state["recent_scores"])
        self._xs = []
        self._ys = []
        self._seen = {}
        restored = [Point(raw_point) for raw_point, _ in state["observations"]]
        if restored:
            self.features_matrix(restored)  # warm the cache in one pass
        for point, (_raw, label) in zip(restored, state["observations"]):
            self._seen[point] = len(self._ys)
            self._xs.append(self.features(point))
            self._ys.append(label)
        self._fitted_at = state["fitted_at"]
        self.model.set_state(state["model"])
        self._rng.bit_generator.state = state["rng"]
        self.num_observations = state["num_observations"]
        self.num_refits = state["num_refits"]
        self.num_ranked = state["num_ranked"]
        self.num_screened = state["num_screened"]
        self.num_forwarded = state["num_forwarded"]
        self.num_explored = state["num_explored"]
        quality = state["quality"]
        self.quality = _QualityStats(
            batches=quality["batches"],
            correlation_sum=quality["correlation_sum"],
            top_hits=quality["top_hits"],
        )
        self._quality_pairs = [
            (score, perf) for score, perf in state["quality_pairs"]
        ]
