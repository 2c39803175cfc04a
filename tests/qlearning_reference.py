"""Reference Q-method direction choice: the ground truth the lazy exploit
path of ``repro.explore.qlearning`` is property-tested against.

These are the original :meth:`QAgent.choose_direction` and
:meth:`QAgent.choose_directions`, retained verbatim (as functions of the
agent) as an executable specification: both build the full list of
unvisited neighbors of every point before the epsilon draw and take
``max`` over it on the exploit branch.  The agent's lazy path must return
the same choice and leave every random generator in the same state
(``tests/test_qlearning_choice.py``).  It lives with the tests because
only they import it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.space import Point


def reference_choose_direction(
    self, point: Point, visited: set, rng: Optional[np.random.Generator] = None
) -> Optional[Tuple[int, Point]]:
    """Pick the best unvisited direction from ``point`` by Q-value
    (epsilon-greedy); None if every neighbor was already visited."""
    rng = rng or self._rng
    options = [
        (d, nb) for d, nb in self.space.neighbors(point) if nb not in visited
    ]
    if not options:
        return None
    if rng.random() < self.epsilon:
        return options[int(rng.integers(len(options)))]
    q_values = self.network.forward(self.space.features(point))
    scores = q_values + self._direction_reward
    return max(options, key=lambda item: scores[item[0]])


def reference_choose_directions(
    self,
    points: Sequence[Point],
    visited: set,
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
        options = [
            (d, nb)
            for d, nb in self.space.neighbors(point)
            if nb not in visited and nb not in taken
        ]
        if not options:
            choices.append(None)
            continue
        if rng.random() < self.epsilon:
            choice = options[int(rng.integers(len(options)))]
        else:
            scores = all_q[row] + self._direction_reward
            choice = max(options, key=lambda item: scores[item[0]])
        taken.add(choice[1])
        choices.append(choice)
    return choices
