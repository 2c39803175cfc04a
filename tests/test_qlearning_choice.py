"""The Q-method's lazy direction choice against the eager reference.

:meth:`QAgent.choose_direction` and :meth:`QAgent.choose_directions` build
a point's neighborhood only on the epsilon branch; the exploit branch
scores every direction once and walks them best first.  They must return
exactly what the eager originals in ``tests/qlearning_reference.py``
return (same direction, same neighbor, a plain ``int`` direction) and
leave every random generator in the same state, on every target's
space, with free, partly visited and fully visited neighborhoods, at
epsilon 0, 0.3 and 1, and with tied or NaN scores.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.qlearning import QAgent
from repro.ops import conv2d_compute
from repro.space import build_space

from .qlearning_reference import (
    reference_choose_direction,
    reference_choose_directions,
)

TARGETS = ("gpu", "cpu", "fpga")
SPACES = {
    target: build_space(conv2d_compute(1, 8, 8, 8, 16, 3, padding=1), target)
    for target in TARGETS
}
# How each example sets the scores: a trained-looking network with
# random priors; a zeroed last layer with equal priors (every score
# ties); a zeroed last layer with priors on a coarse grid (ties within
# groups); and NaN priors on some directions.
SCORES = ("random", "all_tied", "grouped_ties", "nan")


def make_agent(space, seed, epsilon, scores, rng):
    agent = QAgent(space, seed=seed)
    agent.epsilon = epsilon
    n = space.num_directions
    if scores == "random":
        agent._direction_reward = rng.normal(size=n)
    else:
        agent.network.weights[-1][:] = 0.0
        agent.network.biases[-1][:] = 0.0
        if scores == "all_tied":
            agent._direction_reward = np.full(n, 0.25)
        elif scores == "grouped_ties":
            agent._direction_reward = rng.integers(0, 3, size=n) / 2.0
        else:
            agent._direction_reward = rng.normal(size=n)
            agent._direction_reward[rng.random(n) < 0.3] = np.nan
    return agent


def visited_around(space, points, fraction, rng):
    """Each neighbor of each point with probability ``fraction``, plus
    unrelated points; ``fraction`` 1 visits whole neighborhoods."""
    visited = {space.random_point(rng) for _ in range(3)}
    for point in points:
        visited.update(
            nb for _, nb in space.neighbors(point) if rng.random() < fraction
        )
    return visited


def same_choice(got, want):
    if want is None:
        return got is None
    return (
        got is not None
        and type(got[0]) is int
        and got[0] == want[0]
        and got[1] == want[1]
    )


case = dict(
    target=st.sampled_from(TARGETS),
    seed=st.integers(min_value=0, max_value=10_000),
    epsilon=st.sampled_from((0.0, 0.3, 1.0)),
    fraction=st.sampled_from((0.0, 0.5, 0.9, 1.0)),
    scores=st.sampled_from(SCORES),
    own_rng=st.booleans(),
)


class TestLazyChoiceMatchesReference:
    @given(**case)
    @settings(max_examples=150, deadline=None)
    def test_choose_direction(self, target, seed, epsilon, fraction, scores, own_rng):
        space = SPACES[target]
        rng = np.random.default_rng(seed)
        agent = make_agent(space, seed, epsilon, scores, rng)
        point = space.random_point(rng)
        visited = visited_around(space, [point], fraction, rng)
        reference = copy.deepcopy(agent)
        draw, reference_draw = (
            (None, None) if own_rng
            else (np.random.default_rng(seed + 1), np.random.default_rng(seed + 1))
        )
        for _ in range(3):  # repeated calls keep the generators in step
            got = agent.choose_direction(point, visited, draw)
            want = reference_choose_direction(reference, point, visited, reference_draw)
            assert same_choice(got, want), (got, want)
        assert agent._rng.bit_generator.state == reference._rng.bit_generator.state
        if not own_rng:
            assert draw.bit_generator.state == reference_draw.bit_generator.state

    @given(heads=st.integers(min_value=1, max_value=6), **case)
    @settings(max_examples=150, deadline=None)
    def test_choose_directions(
        self, heads, target, seed, epsilon, fraction, scores, own_rng
    ):
        space = SPACES[target]
        rng = np.random.default_rng(seed)
        agent = make_agent(space, seed, epsilon, scores, rng)
        # Repeated heads and heads one move apart share neighbors, so the
        # lockstep's ``taken`` set decides some of their choices.
        first = space.random_point(rng)
        pool = [first, first] + [nb for _, nb in space.neighbors(first)[:2]]
        points = [
            pool[int(rng.integers(len(pool)))] if rng.random() < 0.7
            else space.random_point(rng)
            for _ in range(heads)
        ]
        visited = visited_around(space, points, fraction, rng)
        reference = copy.deepcopy(agent)
        draw, reference_draw = (
            (None, None) if own_rng
            else (np.random.default_rng(seed + 1), np.random.default_rng(seed + 1))
        )
        got = agent.choose_directions(points, visited, draw)
        want = reference_choose_directions(reference, points, visited, reference_draw)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_choice(g, w), (got, want)
        assert agent._rng.bit_generator.state == reference._rng.bit_generator.state
        if not own_rng:
            assert draw.bit_generator.state == reference_draw.bit_generator.state


class TestExploitBuildsNoNeighborhood:
    """With epsilon 0 and finite scores, choosing never lists a
    neighborhood: the exploit branch steps one direction at a time."""

    @pytest.fixture
    def setup(self):
        space = build_space(conv2d_compute(1, 8, 8, 8, 16, 3, padding=1), "gpu")
        rng = np.random.default_rng(5)
        agent = make_agent(space, 5, 0.0, "random", rng)
        points = [space.random_point(rng) for _ in range(4)]
        points.append(points[0])
        visited = visited_around(space, points, 0.5, rng)
        reference = copy.deepcopy(agent)

        def listing_is_banned(point):
            raise AssertionError("neighbors() called on the exploit branch")

        return space, agent, reference, points, visited, listing_is_banned

    def test_choose_direction(self, setup, monkeypatch):
        space, agent, reference, points, visited, banned = setup
        want = [reference_choose_direction(reference, p, visited) for p in points]
        monkeypatch.setattr(space, "neighbors", banned)
        got = [agent.choose_direction(p, visited) for p in points]
        assert got == want

    def test_choose_directions(self, setup, monkeypatch):
        space, agent, reference, points, visited, banned = setup
        want = reference_choose_directions(reference, points, visited)
        monkeypatch.setattr(space, "neighbors", banned)
        assert agent.choose_directions(points, visited) == want
