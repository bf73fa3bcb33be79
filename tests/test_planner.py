import math

import numpy as np
import pytest

from lazyattn import (
    LazyBlock,
    LazyPlan,
    PlanError,
    SimilarityProfile,
    ValidationError,
    load_plan,
    plan_from_profile,
    plan_random,
    save_plan,
)
from lazyattn.planner import layer_anchors
from lazyattn.profiler import LN2


def profile_from_adjacent(adj):
    """Profile whose only meaningful entries are the adjacent similarities,
    each in [0, ln 2] as the constructor requires."""
    n = len(adj) + 1
    S = np.zeros((n, n))
    for i, v in enumerate(adj):
        S[i, i + 1] = S[i + 1, i] = v
    return SimilarityProfile(n_layers=n, n_samples=1, S=S)


def blocks_of(plan):
    return [(b.anchor, list(b.lazy_layers)) for b in plan.blocks]


def test_plan_nothing_below_threshold():
    plan = plan_from_profile(profile_from_adjacent([0.6, 0.6, 0.6]), 0.5)
    assert plan.blocks == ()
    assert plan.lazy_fraction() == 0.0


def test_plan_single_block_scan():
    plan = plan_from_profile(profile_from_adjacent([0.01, 0.01, 0.6]), 0.05)
    assert blocks_of(plan) == [(0, [1, 2])]


def test_plan_discontinuity_splits_blocks():
    plan = plan_from_profile(profile_from_adjacent([0.01, 0.6, 0.01]), 0.05)
    assert blocks_of(plan) == [(0, [1]), (2, [3])]


def test_plan_full_chain_at_epsilon_one():
    plan = plan_from_profile(profile_from_adjacent([0.0] * 7), 1.0)
    assert blocks_of(plan) == [(0, list(range(1, 8)))]
    assert plan.n_lazy == 7


def test_plan_max_span_tiles_runs():
    plan = plan_from_profile(profile_from_adjacent([0.0] * 7), 1.0, max_block_span=3)
    assert blocks_of(plan) == [(0, [1, 2]), (3, [4, 5]), (6, [7])]


def test_plan_epsilon_range():
    prof = profile_from_adjacent([0.1])
    with pytest.raises(ValidationError):
        plan_from_profile(prof, 0.0)
    with pytest.raises(ValidationError):
        plan_from_profile(prof, 1.5)
    with pytest.raises(ValidationError):
        plan_from_profile(prof, 0.5, max_block_span=1)


def test_threshold_monotonicity_random_profiles():
    rng = np.random.default_rng(12)
    for trial in range(30):
        n = int(rng.integers(3, 20))
        adj = rng.random(n - 1) * LN2
        prof = profile_from_adjacent(adj.tolist())
        span = None if trial % 2 == 0 else int(rng.integers(2, 6))
        eps = sorted((rng.random(4) * 0.999 + 1e-6) * LN2)
        lazies = [plan_from_profile(prof, e, max_block_span=span).n_lazy for e in eps]
        assert lazies == sorted(lazies), (adj, eps, span, lazies)


@pytest.mark.parametrize("seed", range(4))
def test_threshold_blocks_follow_the_block_rule(seed):
    """Each block's adjacent pairs are below epsilon within the span cap; a
    block stops only at a pair of at least epsilon, at the cap or at the
    last layer; and every layer l with S(l, l+1) < epsilon is in a block.
    Some pairs equal epsilon exactly, which does not count as below it."""
    rng = np.random.default_rng(200 + seed)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        eps = float(rng.choice([0.005, 0.01, 0.03, 0.3]))
        adj = np.where(rng.random(n - 1) < 0.2, eps, rng.random(n - 1) * 2 * eps)
        prof = profile_from_adjacent(adj.tolist())
        for cap in [None, *range(2, n + 1)]:
            plan = plan_from_profile(prof, eps, max_block_span=cap)
            covered = set()
            for b in plan.blocks:
                last = b.lazy_layers[-1]
                assert all(adj[l] < eps for l in range(b.anchor, last)), (adj, eps, cap)
                assert cap is None or len(b.layers()) <= cap
                assert last == n - 1 or adj[last] >= eps or len(b.layers()) == cap
                covered.update(b.layers())
            assert {l for l in range(n - 1) if adj[l] < eps} <= covered, (adj, eps, cap)


def test_anchor_precedes_lazy_layers_everywhere():
    rng = np.random.default_rng(13)
    for _ in range(20):
        prof = profile_from_adjacent((rng.random(10) * LN2).tolist())
        plan = plan_from_profile(prof, 0.5 * LN2)
        for b in plan.blocks:
            assert all(b.anchor < l for l in b.lazy_layers)


def test_figure_shaped_profile_excludes_edges():
    # High divergence around the first two layers and the last layer,
    # near-zero elsewhere: the plan must leave those layers alone while
    # making more than half the stack lazy.
    n = 32
    adj = [0.6, 0.6] + [0.01] * (n - 4) + [0.6]
    plan = plan_from_profile(profile_from_adjacent(adj), 0.1)
    covered = set()
    for b in plan.blocks:
        covered.update(b.layers())
    assert 0 not in covered and 1 not in covered and n - 1 not in covered
    assert plan.lazy_fraction() > 0.5


def test_plan_random_forced_placement():
    plan = plan_random(4, [4], seed=123)
    assert blocks_of(plan) == [(0, [1, 2, 3])]


def test_plan_random_determinism_and_variety():
    a = plan_random(12, [3, 2], seed=7)
    b = plan_random(12, [3, 2], seed=7)
    assert blocks_of(a) == blocks_of(b)
    seen = {plan_random(12, [3, 2], seed=s).blocks[0].anchor for s in range(20)}
    assert len(seen) > 1  # placements actually vary with the seed


def test_plan_random_infeasible():
    with pytest.raises(ValidationError):
        plan_random(4, [3, 3], seed=0)
    with pytest.raises(ValidationError):
        plan_random(4, [1], seed=0)


def test_plan_random_valid_over_many_seeds():
    for s in range(25):
        plan = plan_random(10, [2, 3, 2], seed=s)
        assert plan.n_lazy == 4


def feasible_placements(n_layers, spans):
    """Every tuple of block anchors that places the spans in order,
    disjoint, inside the layers."""
    if not spans:
        return {()}
    return {
        (anchor,) + tuple(anchor + spans[0] + a for a in rest)
        for anchor in range(n_layers - sum(spans) + 1)
        for rest in feasible_placements(n_layers - anchor - spans[0], spans[1:])
    }


@pytest.mark.parametrize(
    "n_layers, spans, seed_zero",
    [(8, [3, 3], (1, 4)), (10, [2, 3, 2], (2, 5, 8)), (12, [3, 2], (2, 6))],
)
def test_plan_random_reaches_every_feasible_placement(n_layers, spans, seed_zero):
    drawn = [
        tuple(b.anchor for b in plan_random(n_layers, spans, seed=s).blocks) for s in range(500)
    ]
    want = feasible_placements(n_layers, spans)
    assert set(drawn) == want
    assert len(want) == math.comb(n_layers - sum(spans) + len(spans), len(spans))
    # Pinned, so that a change of draw, which changes every seed's plan, is deliberate.
    assert drawn[0] == seed_zero


def test_lazy_fraction_values():
    empty = LazyPlan(mode="gla", n_layers=8, blocks=[], epsilon=0.5)
    assert empty.lazy_fraction() == 0.0
    half = LazyPlan(
        mode="gla",
        n_layers=32,
        blocks=[LazyBlock(0, tuple(range(1, 17)))],
        epsilon=0.5,
    )
    assert half.lazy_fraction() == 0.5
    maximal = LazyPlan(
        mode="gla", n_layers=8, blocks=[LazyBlock(0, tuple(range(1, 8)))], epsilon=0.5
    )
    assert math.isclose(maximal.lazy_fraction(), 7 / 8)


def test_layer_anchors_map_lazy_layers_to_their_block_anchor():
    plan = LazyPlan(
        mode="vla", n_layers=8, blocks=[LazyBlock(1, (2, 3)), LazyBlock(5, (6, 7))], epsilon=0.5
    )
    assert layer_anchors(plan, 8) == [0, 1, 1, 1, 4, 5, 5, 5]
    assert layer_anchors(None, 3) == [0, 1, 2]
    with pytest.raises(ValidationError, match="8 layers"):
        layer_anchors(plan, 6)


def test_plan_roundtrip(tmp_path):
    plan = plan_random(10, [2, 3], seed=3, mode="vla")
    path = str(tmp_path / "plan.json")
    save_plan(plan, path)
    back = load_plan(path)
    assert back.mode == plan.mode
    assert back.source == plan.source
    assert back.seed == plan.seed
    assert blocks_of(back) == blocks_of(plan)


def test_a_plan_of_numpy_scalars_round_trips_as_python_numbers(tmp_path):
    """A plan and its blocks store the ints (and epsilon the float) their
    checks return, so a plan built from numpy scalars saves as JSON."""
    i = np.int64
    block = LazyBlock(i(1), (i(2), i(3)))
    plan = LazyPlan("gla", i(6), [block], epsilon=np.float32(0.5), seed=i(7))
    fields = [plan.n_layers, plan.seed, plan.epsilon, block.anchor, *block.lazy_layers]
    assert [type(v) for v in fields] == [int, int, float, int, int, int]
    path = str(tmp_path / "plan.json")
    save_plan(plan, path)
    assert load_plan(path) == plan


def test_plan_validation_errors(tmp_path):
    import json

    path = str(tmp_path / "bad.json")

    def write(d):
        with open(path, "w") as fh:
            json.dump(d, fh)

    write({
        "mode": "gla", "n_layers": 8, "source": "threshold", "epsilon": 0.2,
        "blocks": [{"anchor": 1, "lazy": [2, 3]}, {"anchor": 3, "lazy": [4]}],
    })
    with pytest.raises(PlanError, match="overlap"):
        load_plan(path)

    write({
        "mode": "xla", "n_layers": 8, "source": "threshold", "epsilon": 0.2, "blocks": [],
    })
    with pytest.raises(PlanError, match="mode"):
        load_plan(path)

    write({
        "mode": "gla", "n_layers": 4, "source": "threshold", "epsilon": 0.2,
        "blocks": [{"anchor": 2, "lazy": [3, 4]}],
    })
    with pytest.raises(PlanError, match="outside"):
        load_plan(path)

    write({
        "mode": "gla", "n_layers": 8, "source": "threshold", "epsilon": 0.2,
        "blocks": [{"anchor": 1, "lazy": [3]}],
    })
    with pytest.raises(PlanError, match="consecutive"):
        load_plan(path)

    write({"mode": "gla", "n_layers": 0, "source": "threshold", "epsilon": 0.2, "blocks": []})
    with pytest.raises(PlanError, match="n_layers must be >= 1"):
        load_plan(path)

    write({
        "mode": "gla", "n_layers": 8, "source": "threshold", "epsilon": 0.2,
        "blocks": [{"anchor": 1, "lazy": []}],
    })
    with pytest.raises(PlanError, match="has no lazy layers"):
        load_plan(path)
