"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.explore import selection_probabilities
from repro.ir import IterVar, evaluate
from repro.ir import Var
from repro.schedule import LoopDef, fuse_loops, split_axis
from repro.space import (
    divisors,
    factorizations,
    move_factor,
    num_factorizations,
    prime_factors,
)

extents = st.integers(min_value=1, max_value=512)
small_extents = st.integers(min_value=1, max_value=96)
parts_counts = st.integers(min_value=1, max_value=4)


class TestFactorizationProperties:
    @given(extents)
    def test_prime_factors_multiply_back(self, n):
        product = 1
        for p in prime_factors(n):
            product *= p
        assert product == n

    @given(extents)
    def test_divisors_divide(self, n):
        for d in divisors(n):
            assert n % d == 0

    @given(small_extents, parts_counts)
    def test_factorizations_product_invariant(self, n, parts):
        for factors in factorizations(n, parts):
            product = 1
            for f in factors:
                product *= f
            assert product == n
            assert len(factors) == parts

    @given(small_extents, parts_counts)
    def test_count_formula_matches_enumeration(self, n, parts):
        assert len(factorizations(n, parts)) == num_factorizations(n, parts)

    @given(small_extents)
    def test_move_factor_reversible(self, n):
        for factors in factorizations(n, 3)[:20]:
            moved = move_factor(factors, src=0, dst=1)
            if moved is None:
                assert factors[0] == 1
                continue
            # moving mass back must be able to restore the original
            prime = factors[0] // moved[0]
            restored = list(moved)
            restored[1] //= prime
            restored[0] *= prime
            assert tuple(restored) == factors


class TestSplitFuseBijection:
    @given(small_extents, parts_counts)
    @settings(max_examples=30, deadline=None)
    def test_split_is_a_bijection(self, extent, parts):
        choices = factorizations(extent, parts)
        factors = choices[len(choices) // 2]
        axis = IterVar(extent, "i")
        loops, index = split_axis(axis, factors, "spatial", 0)
        seen = set()
        for values in itertools.product(*(range(l.extent) for l in loops)):
            env = dict(zip((l.var for l in loops), values))
            seen.add(evaluate(index, env))
        assert seen == set(range(extent))

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_fuse_is_a_bijection(self, extents_list):
        loops = [
            LoopDef(Var(f"l{i}"), e, ("spatial", i, 0))
            for i, e in enumerate(extents_list)
        ]
        fused, recovery = fuse_loops(loops, "f")
        seen = set()
        for fused_value in range(fused.extent):
            env = {fused.var: fused_value}
            seen.add(tuple(evaluate(recovery[l.var], env) for l in loops))
        expected = set(itertools.product(*(range(e) for e in extents_list)))
        assert seen == expected


class TestSelectionProbabilityProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=30),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_probabilities_normalized(self, perfs, gamma):
        probs = selection_probabilities(perfs, gamma)
        assert np.all(probs >= 0)
        assert np.isclose(probs.sum(), 1.0)

    @given(st.floats(min_value=0.5, max_value=8.0))
    def test_best_point_most_likely(self, gamma):
        probs = selection_probabilities([10.0, 50.0, 100.0], gamma)
        assert probs[2] >= probs[1] >= probs[0]

    @given(st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=4.0, max_value=12.0))
    def test_higher_gamma_concentrates(self, low, high):
        cold = selection_probabilities([10.0, 100.0], low)
        hot = selection_probabilities([10.0, 100.0], high)
        assert hot[1] >= cold[1]


class TestAffineProbing:
    @given(
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=0, max_value=10),
    )
    def test_affine_recovered_exactly(self, c1, c2, c0):
        from repro.ir import affine_coefficients

        i = IterVar(16, "i")
        j = IterVar(16, "j")
        expr = i * c1 + j * c2 + c0
        assert affine_coefficients(expr, [i, j]) == [c1, c2, c0]


class TestMLPTraining:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=5, deadline=None)
    def test_forward_deterministic_given_seed(self, seed):
        from repro.explore import MLP

        a = MLP(4, 3, seed=seed)
        b = MLP(4, 3, seed=seed)
        x = np.linspace(0, 1, 4)
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_training_reduces_loss_on_fixed_batch(self):
        from repro.explore import MLP

        rng = np.random.default_rng(0)
        net = MLP(6, 4, seed=0)
        x = rng.standard_normal((32, 6))
        targets = rng.standard_normal((32, 4))
        mask = np.ones_like(targets)
        first = net.train_batch(x, targets, mask)
        for _ in range(200):
            last = net.train_batch(x, targets, mask)
        assert last < first
