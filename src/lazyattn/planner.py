"""Lazy-block planning.

A block is a run of consecutive decode layers whose adjacent attention
similarity (JS divergence) stays below a threshold epsilon; the first layer
anchors the block and computes queries/keys normally, the rest inherit them.
Planning is a greedy left-to-right scan, optionally capped by a maximum
block span. A seeded random planner with matched block sizes provides the
sanity-check baseline.

A plan and its blocks are checked once, when they are built, and are frozen
afterwards, so every pass that reads a plan reads a valid one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import PlanError, ValidationError
from .model import atomic_write, is_int, is_number, parse_json, require_int
from .rng import splitmix64

GLA = "gla"
VLA = "vla"

SOURCE_THRESHOLD = "threshold"
SOURCE_RANDOM = "random"


@dataclass(frozen=True)
class LazyBlock:
    anchor: int
    lazy_layers: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.lazy_layers, tuple) or not all(map(is_int, self.layers())):
            raise PlanError(f"block {self.anchor!r}, {self.lazy_layers!r}: need a tuple of ints")
        object.__setattr__(self, "anchor", int(self.anchor))
        object.__setattr__(self, "lazy_layers", tuple(map(int, self.lazy_layers)))

    @property
    def n(self) -> int:
        return len(self.lazy_layers)

    def layers(self) -> tuple[int, ...]:
        return (self.anchor,) + self.lazy_layers


@dataclass(frozen=True)
class LazyPlan:
    mode: str
    n_layers: int
    blocks: tuple[LazyBlock, ...] = ()
    source: str = SOURCE_THRESHOLD
    epsilon: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.blocks, (list, tuple)) or not all(
            isinstance(b, LazyBlock) for b in self.blocks
        ):
            raise PlanError(f"blocks must be a list of LazyBlocks, got {self.blocks!r}")
        object.__setattr__(self, "blocks", tuple(self.blocks))
        self.validate()

    def validate(self) -> None:
        """Check the plan, storing its counts as the ints `require_int`
        returns and epsilon as a float, so that it saves as JSON."""
        if self.mode not in (GLA, VLA):
            raise PlanError(f"mode must be '{GLA}' or '{VLA}', got {self.mode!r}")
        if self.source not in (SOURCE_THRESHOLD, SOURCE_RANDOM):
            raise PlanError(f"unknown plan source {self.source!r}")
        object.__setattr__(self, "n_layers", require_int("n_layers", self.n_layers, 1))
        if self.seed is not None:
            object.__setattr__(self, "seed", require_int("seed", self.seed))
        if self.epsilon is not None:
            if not (is_number(self.epsilon) and 0.0 < self.epsilon <= 1.0):
                raise PlanError(f"epsilon must be in (0, 1], got {self.epsilon!r}")
            object.__setattr__(self, "epsilon", float(self.epsilon))
        prev_end = -1
        for b in self.blocks:
            if b.n < 1:
                raise PlanError(f"block anchored at {b.anchor} has no lazy layers")
            if b.lazy_layers != tuple(range(b.anchor + 1, b.anchor + 1 + b.n)):
                raise PlanError(
                    f"block anchored at {b.anchor}: lazy layers {list(b.lazy_layers)} are not "
                    "consecutive immediately after the anchor"
                )
            if b.anchor < 0 or b.lazy_layers[-1] >= self.n_layers:
                raise PlanError(
                    f"block {list(b.layers())} falls outside layers [0, {self.n_layers})"
                )
            if b.anchor <= prev_end:
                raise PlanError(
                    f"blocks overlap or are not sorted (anchor {b.anchor} after layer {prev_end})"
                )
            prev_end = b.lazy_layers[-1]

    @property
    def n_lazy(self) -> int:
        return sum(b.n for b in self.blocks)

    def lazy_fraction(self) -> float:
        return self.n_lazy / self.n_layers

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "n_layers": self.n_layers,
            "source": self.source,
            "blocks": [{"anchor": b.anchor, "lazy": list(b.lazy_layers)} for b in self.blocks],
        }
        if self.epsilon is not None:
            d["epsilon"] = self.epsilon
        if self.seed is not None:
            d["seed"] = self.seed
        return d

    @staticmethod
    def from_dict(d: dict) -> "LazyPlan":
        try:
            blocks = d["blocks"]
            if isinstance(blocks, list):
                blocks = [LazyBlock(b["anchor"], tuple(b["lazy"])) for b in blocks]
            return LazyPlan(
                mode=d["mode"],
                n_layers=d["n_layers"],
                blocks=blocks,
                source=d.get("source", SOURCE_THRESHOLD),
                epsilon=d.get("epsilon"),
                seed=d.get("seed"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PlanError(f"malformed plan: {exc}") from exc


def layer_anchors(plan: LazyPlan | None, n_layers: int) -> list[int]:
    """Each layer's anchor: its block's anchor if the layer is lazy, the
    layer itself otherwise (every layer when `plan` is None)."""
    anchors = list(range(n_layers))
    if plan is None:
        return anchors
    if plan.n_layers != n_layers:
        raise ValidationError(
            f"plan covers {plan.n_layers} layers but the model has {n_layers}"
        )
    for block in plan.blocks:
        for l in block.lazy_layers:
            anchors[l] = block.anchor
    return anchors


def plan_from_profile(
    profile, epsilon: float, mode: str = GLA, max_block_span: int | None = None
) -> LazyPlan:
    """Greedy scan of the adjacent similarities S(l, l+1).

    A block opens at the first layer whose adjacent similarity is below
    epsilon and extends while the next adjacent similarity is also below
    epsilon (and the span stays under max_block_span, when given). The
    block's first layer is the anchor.
    """
    if not is_number(epsilon) or not 0.0 < epsilon <= 1.0:
        raise ValidationError(f"epsilon must be in (0, 1], got {epsilon!r}")
    if max_block_span is not None:
        require_int("max_block_span", max_block_span, 2)
    adj = profile.adjacent()
    n_layers = profile.n_layers
    blocks: list[LazyBlock] = []
    i = 0
    while i < n_layers - 1:
        if adj[i] >= epsilon:
            i += 1
            continue
        anchor = i
        lazy = [i + 1]
        i += 1
        while (
            i < n_layers - 1
            and adj[i] < epsilon
            and (max_block_span is None or 1 + len(lazy) < max_block_span)
        ):
            lazy.append(i + 1)
            i += 1
        blocks.append(LazyBlock(anchor=anchor, lazy_layers=tuple(lazy)))
        # adj[i] connects the block's last lazy layer to the next layer and
        # cannot be consumed (that layer is taken); resume one past it.
        i += 1
    return LazyPlan(
        mode=mode, n_layers=n_layers, blocks=blocks, source=SOURCE_THRESHOLD, epsilon=epsilon
    )


def plan_random(
    n_layers: int, layers_per_block: list[int], seed: int, mode: str = GLA
) -> LazyPlan:
    """Uniform random disjoint placement of contiguous blocks with given spans.

    Block spans are placed left to right in the given order. In layer order
    the k blocks and the free layers fill free + k places; the places of the
    k smallest keys among splitmix64 outputs [0, free + k) of `seed` go to
    the blocks. That is a uniform k-subset, so every feasible placement of
    the ordered spans is equally likely. Block i at place p_i has p_i - i
    free layers and blocks 0..i-1 before it, which gives its anchor.
    """
    n_layers = require_int("n_layers", n_layers, 1)
    seed = require_int("seed", seed)
    for span in layers_per_block:
        require_int("each block's span", span, 2)
    k = len(layers_per_block)
    free = n_layers - sum(layers_per_block)
    if free < 0:
        raise ValidationError(
            f"blocks with spans {layers_per_block} do not fit in {n_layers} layers"
        )
    places = sorted(np.argsort(splitmix64(seed, 0, free + k), kind="stable")[:k])
    blocks: list[LazyBlock] = []
    before = 0  # layers the earlier blocks span
    for i, (place, span) in enumerate(zip(places, layers_per_block)):
        anchor = int(place) - i + before
        blocks.append(
            LazyBlock(anchor=anchor, lazy_layers=tuple(range(anchor + 1, anchor + span)))
        )
        before += span
    return LazyPlan(
        mode=mode,
        n_layers=n_layers,
        blocks=blocks,
        source=SOURCE_RANDOM,
        seed=seed,
    )


def save_plan(plan: LazyPlan, path: str) -> None:
    atomic_write(path, json.dumps(plan.to_dict(), indent=2) + "\n")


def load_plan(path: str) -> LazyPlan:
    with open(path, "rb") as fh:
        return LazyPlan.from_dict(parse_json(fh.read(), PlanError, path))
