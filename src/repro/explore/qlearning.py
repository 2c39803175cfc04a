"""Q-learning direction selection (§5.1, "Machine Learning Method").

Directions in the rearranged schedule space are the actions of a
reinforcement-learning problem: state = current point, action = direction,
reward = normalized performance improvement ``(E_e - E_p) / E_p``.  A
four-layer ReLU network predicts per-direction Q-values; training happens
periodically (every five trials) on the recorded transition tuples with
DQN-style targets ``reward + α · max_d Y(e)`` and optimized by AdaDelta.
``Y`` is the online network before the training step.  DQN [36] reads
``Y`` from a target copy synced after every step; that copy would equal
the online network at every read, so none is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Container, List, Optional, Sequence, Tuple

import numpy as np

from ..space import Point, ScheduleSpace
from .network import MLP

#: Discount on the bootstrapped term of the DQN target.
ALPHA = 0.8
#: Per-trial decay of the exploration rate, and the rate's floor.
EPSILON_DECAY = 0.96
EPSILON_MIN = 0.05
#: Transitions sampled per training pass.
TRAIN_BATCH = 64


@dataclass
class Transition:
    """One recorded move: (p, direction, e, reward) of §5.1."""

    state: Point
    direction: int
    next_state: Point
    reward: float


class QAgent:
    """Direction-choosing agent over one schedule space."""

    def __init__(
        self,
        space: ScheduleSpace,
        epsilon: float = 0.5,
        train_period: int = 5,
        seed: int = 0,
    ):
        self.space = space
        self.epsilon = epsilon      # exploration rate (decays per trial)
        self.train_period = train_period
        self.network = MLP(space.feature_size, space.num_directions, seed=seed)
        self.transitions: List[Transition] = []
        self.losses: List[float] = []
        # Per-direction running reward statistics: a cheap global prior the
        # network refines.  Optimistic initialization encourages trying
        # each direction at least once.
        self._direction_reward = np.full(space.num_directions, 0.25)
        self._direction_count = np.zeros(space.num_directions)
        self._rng = np.random.default_rng(seed)
        self._trials_since_training = 0

    # -- acting -----------------------------------------------------------

    def choose_direction(
        self, point: Point, visited: Container[Point], rng: Optional[np.random.Generator] = None
    ) -> Optional[Tuple[int, Point]]:
        """Pick the best unvisited direction from ``point`` by Q-value
        (epsilon-greedy); None if every neighbor was already visited."""
        return self._choose(
            point, visited, (),
            lambda: self.network.forward(self.space.features(point)),
            rng or self._rng,
        )

    def choose_directions(
        self,
        points: Sequence[Point],
        visited: Container[Point],
        rng: Optional[np.random.Generator] = None,
    ) -> List[Optional[Tuple[int, Point]]]:
        """Batched direction choice for many walk heads at once.

        One stacked :meth:`MLP.forward_batch` call scores every direction
        of every head (replacing one forward per head), then each head
        applies the same epsilon-greedy rule as :meth:`choose_direction`,
        drawing from ``rng`` in head order.  A ``taken`` set keeps two
        heads from claiming the same neighbor in the same lockstep, so a
        batch never submits duplicate points.
        """
        rng = rng or self._rng
        if not points:
            return []
        all_q = self.network.forward_batch(
            [self.space.features(p) for p in points]
        )
        taken: set = set()
        choices: List[Optional[Tuple[int, Point]]] = []
        for row, point in enumerate(points):
            choice = self._choose(point, visited, taken, lambda: all_q[row], rng)
            if choice is not None:
                taken.add(choice[1])
            choices.append(choice)
        return choices

    def _choose(
        self,
        point: Point,
        visited: Container[Point],
        taken: Collection[Point],
        q_values: Callable[[], np.ndarray],
        rng: np.random.Generator,
    ) -> Optional[Tuple[int, Point]]:
        """Epsilon-greedy over the neighbors of ``point`` in neither
        ``visited`` nor ``taken``.  The neighborhood is built only on the
        epsilon branch; the exploit branch calls ``q_values()`` once and
        takes the best-scoring free neighbor, ties to the lower direction."""
        space = self.space

        def free(nb):
            return nb is not None and nb not in visited and nb not in taken

        for d in range(space.num_directions):
            if free(space.neighbor(point, d)):
                break
        else:
            return None
        if rng.random() < self.epsilon:
            options = [(d, nb) for d, nb in space.neighbors(point) if free(nb)]
            return options[int(rng.integers(len(options)))]
        scores = q_values() + self._direction_reward
        if np.isnan(scores).any():  # argsort would rank NaN unlike max()
            options = [(d, nb) for d, nb in space.neighbors(point) if free(nb)]
            return max(options, key=lambda item: scores[item[0]])
        for d in np.argsort(-scores, kind="stable").tolist():
            nb = space.neighbor(point, d)
            if free(nb):
                return d, nb

    # -- learning -----------------------------------------------------------

    def record(self, state: Point, direction: int, next_state: Point, reward: float) -> None:
        self.transitions.append(Transition(state, direction, next_state, reward))
        count = self._direction_count[direction] + 1.0
        self._direction_count[direction] = count
        mean = self._direction_reward[direction]
        self._direction_reward[direction] = mean + (reward - mean) / count

    def end_trial(self) -> None:
        """Call once per exploration trial; trains every ``train_period``
        and anneals the exploration rate."""
        self.epsilon = max(self.epsilon * EPSILON_DECAY, EPSILON_MIN)
        self._trials_since_training += 1
        if self._trials_since_training >= self.train_period:
            self.train()
            self._trials_since_training = 0

    def train(self) -> Optional[float]:
        """One training pass over a sample of recorded transitions."""
        if not self.transitions:
            return None
        sample_size = min(TRAIN_BATCH, len(self.transitions))
        idx = self._rng.choice(len(self.transitions), size=sample_size, replace=False)
        batch = [self.transitions[i] for i in idx]

        features = np.stack([self.space.features(t.state) for t in batch])
        next_features = np.stack([self.space.features(t.next_state) for t in batch])
        # Both batches go through the pre-step network, one matrix forward each.
        next_q = self.network.forward(next_features)
        current_q = self.network.forward(features)

        # DQN targets, fully vectorized: rows are distinct sampled
        # transitions, so the fancy-indexed assignment is exact — the
        # same float64 ops the per-row loop performed.
        rows = np.arange(len(batch))
        directions = np.array([t.direction for t in batch])
        rewards = np.array([t.reward for t in batch])
        targets = current_q.copy()
        targets[rows, directions] = rewards + ALPHA * next_q.max(axis=1)
        mask = np.zeros_like(targets)
        mask[rows, directions] = 1.0
        loss = self.network.train_batch(features, targets, mask)
        self.losses.append(loss)
        return loss


    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> dict:
        """JSON-compatible snapshot of everything that evolves during a
        run: exploration rate, replay buffer, direction prior, the
        network with its optimizer accumulators, and the private RNG."""
        return {
            "epsilon": self.epsilon,
            "trials_since_training": self._trials_since_training,
            "direction_reward": self._direction_reward.tolist(),
            "direction_count": self._direction_count.tolist(),
            "transitions": [
                {
                    "state": list(t.state),
                    "direction": t.direction,
                    "next_state": list(t.next_state),
                    "reward": t.reward,
                }
                for t in self.transitions
            ],
            "losses": list(self.losses),
            "network": self.network.get_state(),
            "rng": self._rng.bit_generator.state,
        }

    def set_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`get_state`.

        Older snapshots also carry a ``target_network`` entry, a copy of
        ``network``; it is ignored."""
        self.epsilon = state["epsilon"]
        self._trials_since_training = state["trials_since_training"]
        self._direction_reward = np.asarray(state["direction_reward"], dtype=np.float64)
        self._direction_count = np.asarray(state["direction_count"], dtype=np.float64)
        self.transitions = [
            Transition(
                state=tuple(t["state"]),
                direction=t["direction"],
                next_state=tuple(t["next_state"]),
                reward=t["reward"],
            )
            for t in state["transitions"]
        ]
        self.losses = list(state.get("losses", []))
        self.network.set_state(state["network"])
        self._rng.bit_generator.state = state["rng"]


def normalized_reward(perf_from: float, perf_to: float) -> float:
    """The paper's reward ``(E_e - E_p) / E_p``, guarded for E_p = 0."""
    if perf_from <= 0.0:
        return 1.0 if perf_to > 0.0 else 0.0
    return (perf_to - perf_from) / perf_from
