"""Tests for schedule-space generation, pruning and neighborhoods (§4.2)."""

import numpy as np
import pytest

from repro.ops import conv2d_compute, gemm_compute
from repro.schedule import NodeConfig
from repro.space import (
    ChoiceKnob,
    ScheduleSpace,
    SplitKnob,
    build_space,
    closest_factorization,
    divisors,
    factorizations,
    heuristic_seed_points,
    move_factor,
    num_factorizations,
    prime_factors,
)


class TestFactorization:
    def test_prime_factors(self):
        assert prime_factors(1) == ()
        assert prime_factors(12) == (2, 2, 3)
        assert prime_factors(97) == (97,)

    def test_divisors(self):
        assert divisors(12) == (1, 2, 3, 4, 6, 12)
        assert divisors(1) == (1,)

    def test_factorizations_cover_products(self):
        for factors in factorizations(24, 3):
            assert factors[0] * factors[1] * factors[2] == 24

    def test_factorizations_count_matches_formula(self):
        for n, parts in [(24, 3), (1024, 4), (7, 2), (36, 4)]:
            assert len(factorizations(n, parts)) == num_factorizations(n, parts)

    def test_factorizations_distinct(self):
        fs = factorizations(64, 4)
        assert len(set(fs)) == len(fs)

    def test_1024_into_4_parts_is_286(self):
        # C(10 + 3, 3) = 286 ordered factorizations of 2^10
        assert num_factorizations(1024, 4) == 286

    def test_single_part(self):
        assert factorizations(12, 1) == ((12,),)


class TestMoveFactor:
    def test_moves_smallest_prime(self):
        assert move_factor((4, 3), src=0, dst=1) == (2, 6)
        assert move_factor((4, 3), src=1, dst=0) == (12, 1)

    def test_unit_source_blocked(self):
        assert move_factor((1, 12), src=0, dst=1) is None

    def test_same_position_rejected(self):
        with pytest.raises(ValueError):
            move_factor((2, 2), 1, 1)

    def test_product_preserved(self):
        factors = (8, 9, 5)
        moved = move_factor(factors, src=1, dst=2)
        assert moved is not None
        assert np.prod(moved) == np.prod(factors)


class TestClosestFactorization:
    def test_exact_match_returned(self):
        assert closest_factorization(24, 3, (2, 3, 4)) == (2, 3, 4)

    def test_infeasible_snapped(self):
        result = closest_factorization(28, 2, (4, 8))
        assert result[0] * result[1] == 28

    def test_prefers_near_shape(self):
        result = closest_factorization(32, 2, (8, 4))
        assert result == (8, 4)


class TestSplitKnob:
    def test_neighbor_moves_one_prime(self):
        knob = SplitKnob("s", 24, 3)
        start = knob.index_of((24, 1, 1))
        for d in range(knob.num_directions):
            nxt = knob.neighbor(start, d)
            if nxt is not None:
                a = knob.choices[start]
                b = knob.choices[nxt]
                changed = [i for i in range(3) if a[i] != b[i]]
                assert len(changed) == 2

    def test_neighbor_count(self):
        knob = SplitKnob("s", 24, 3)
        assert knob.num_directions == 3 * 2

    def test_features_normalized(self):
        knob = SplitKnob("s", 1024, 4)
        for idx in range(0, len(knob), 37):
            feats = knob.features(idx)
            assert len(feats) == 4
            assert all(0.0 <= f <= 1.0 for f in feats)

    def test_allowed_subset_respected(self):
        knob = SplitKnob("s", 16, 2, allowed=[(16, 1), (8, 2), (4, 4)])
        assert len(knob) == 3
        # neighbor leaving the allowed set is None
        idx = knob.index_of((4, 4))
        neighbors = {knob.neighbor(idx, d) for d in range(knob.num_directions)}
        assert None in neighbors


class TestChoiceKnob:
    def test_directions_are_increment_decrement(self):
        knob = ChoiceKnob("c", [10, 20, 30])
        assert knob.neighbor(1, 0) == 2
        assert knob.neighbor(1, 1) == 0
        assert knob.neighbor(2, 0) is None
        assert knob.neighbor(0, 1) is None

    def test_single_choice_has_no_directions(self):
        assert ChoiceKnob("c", [1]).num_directions == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChoiceKnob("c", [])


class TestScheduleSpace:
    def setup_method(self):
        self.out = conv2d_compute(1, 8, 8, 8, 8, 3, padding=1, name="c")

    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_decode_produces_lowerable_config(self, target):
        from repro.schedule import lower

        space = build_space(self.out, target)
        rng = np.random.default_rng(0)
        for _ in range(5):
            config = space.decode(space.random_point(rng))
            lower(self.out, config, target)  # must not raise

    def test_encode_decode_roundtrip(self):
        space = build_space(self.out, "gpu")
        rng = np.random.default_rng(1)
        for _ in range(10):
            point = space.random_point(rng)
            assert space.encode(space.decode(point)) == point

    def test_neighbor_changes_one_knob(self):
        space = build_space(self.out, "gpu")
        rng = np.random.default_rng(2)
        point = space.random_point(rng)
        for direction, neighbor in space.neighbors(point):
            diffs = [i for i in range(len(point)) if point[i] != neighbor[i]]
            assert len(diffs) == 1

    def test_space_size_is_product(self):
        space = build_space(self.out, "gpu")
        expected = 1
        for knob in space.knobs:
            expected *= len(knob)
        assert space.size == expected

    def test_gpu_space_is_large(self):
        # the paper reports sizes from 3.9e9 to 2.4e12 for its GPU spaces
        big = build_space(conv2d_compute(1, 256, 28, 28, 512, 3, padding=1), "gpu")
        assert big.size > 1e8

    def test_features_fixed_length(self):
        space = build_space(self.out, "gpu")
        rng = np.random.default_rng(3)
        lengths = {len(space.features(space.random_point(rng))) for _ in range(5)}
        assert lengths == {space.feature_size}

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            build_space(self.out, "asic")


class TestHeuristicSeeds:
    @pytest.mark.parametrize("target", ["gpu", "cpu", "fpga"])
    def test_seeds_are_valid_schedules(self, target):
        from repro.model import DEVICES, model_for, target_of
        from repro.schedule import lower

        spec = {"gpu": DEVICES["V100"], "cpu": DEVICES["XeonE5-2699v4"],
                "fpga": DEVICES["VU9P"]}[target]
        out = conv2d_compute(1, 16, 14, 14, 32, 3, padding=1, name="c")
        space = build_space(out, target)
        rng = np.random.default_rng(0)
        seeds = heuristic_seed_points(space, 3, rng)
        model = model_for(spec)
        performances = [
            model.gflops(lower(out, space.decode(s), target)) for s in seeds
        ]
        assert all(p > 0 for p in performances), performances

    def test_requested_count_respected(self):
        space = build_space(gemm_compute(16, 16, 16), "gpu")
        rng = np.random.default_rng(0)
        assert len(heuristic_seed_points(space, 7, rng)) == 7


class TestKnobChoicesCheckedAtBuild:
    """A space checks every knob choice once, when it is built, so
    ``decode`` can skip ``NodeConfig`` validation per point."""

    @staticmethod
    def rebuilt(target, name, make_knob):
        space = build_space(gemm_compute(8, 8, 8, name="g"), target)
        knobs = [make_knob(k) if k.name == name else k for k in space.knobs]
        return ScheduleSpace(space.op, space.target, knobs)

    @pytest.mark.parametrize("target,name,make_knob,message", [
        ("gpu", "sp0", lambda k: SplitKnob("sp0", 8, 4, list(k.choices) + [(0, 1, 1, 8)]),
         "split factors must be positive"),
        ("cpu", "re0", lambda k: SplitKnob("re0", 8, 2, list(k.choices) + [(-1, -8)]),
         "split factors must be positive"),
        ("gpu", "reorder", lambda k: ChoiceKnob("reorder", list(k.choices) + [7]),
         "unknown reorder choice 7"),
        ("cpu", "unroll", lambda k: ChoiceKnob("unroll", list(k.choices) + [3]),
         "unknown unroll depth 3"),
        ("cpu", "fuse", lambda k: ChoiceKnob("fuse", [0] + list(k.choices)),
         "fuse_levels must be >= 1"),
    ])
    def test_invalid_choice_raises_when_the_space_is_built(
        self, target, name, make_knob, message
    ):
        with pytest.raises(ValueError, match=message):
            self.rebuilt(target, name, make_knob)

    def test_decoded_configs_equal_validated_ones(self):
        space = build_space(conv2d_compute(1, 8, 8, 8, 16, 3, 1, 1), "cpu")
        rng = np.random.default_rng(0)
        for _ in range(20):
            config = space.decode(space.random_point(rng))
            checked = NodeConfig(**{f: getattr(config, f) for f in config.__dataclass_fields__})
            assert config == checked and hash(config) == hash(checked)

    @pytest.mark.parametrize("changes,message", [
        (dict(spatial_factors=((0, 8),)), "split factors must be positive"),
        (dict(reorder=7), "unknown reorder choice 7"),
        (dict(unroll_depth=3), "unknown unroll depth 3"),
        (dict(fuse_levels=0), "fuse_levels must be >= 1"),
    ])
    def test_hand_built_config_still_validates(self, changes, message):
        fields = dict(spatial_factors=((2, 4),), reduce_factors=((8,),))
        fields.update(changes)
        with pytest.raises(ValueError, match=message):
            NodeConfig(**fields)
