"""Model, prompt and plan builders shared by the test modules."""

import numpy as np

from lazyattn import (
    LazyBlock,
    LazyPlan,
    ModelConfig,
    TokenSequence,
    init_synthetic_model,
)


def make_model(n_layers=6, n_heads=2, d_model=32, d_ff=64, vocab_size=96, seed=0):
    config = ModelConfig(
        n_layers=n_layers,
        n_heads=n_heads,
        d_model=d_model,
        d_head=d_model // n_heads,
        d_ff=d_ff,
        vocab_size=vocab_size,
    )
    return init_synthetic_model(config, seed)


def random_prompt(rng: np.random.Generator, vocab_size: int, length=None, visual_fraction=None):
    if length is None:
        length = int(rng.integers(4, 13))
    if visual_fraction is None:
        visual_fraction = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
    ids = rng.integers(0, vocab_size, size=length).tolist()
    n_visual = min(int(round(visual_fraction * length)), length - 1)
    modality = [1] * n_visual + [0] * (length - n_visual)
    return TokenSequence(ids, modality)


def random_plan(rng: np.random.Generator, n_layers: int, mode: str) -> LazyPlan:
    """Random disjoint contiguous blocks; at least one, sometimes several."""
    blocks = []
    layer = int(rng.integers(0, 2))
    while layer < n_layers - 1 and len(blocks) < 3:
        span = int(rng.integers(2, min(4, n_layers - layer) + 1))
        blocks.append(LazyBlock(anchor=layer, lazy_layers=tuple(range(layer + 1, layer + span))))
        layer += span + int(rng.integers(0, 3))
    if not blocks:
        blocks = [LazyBlock(anchor=0, lazy_layers=(1,))]
    plan = LazyPlan(mode=mode, n_layers=n_layers, blocks=blocks, epsilon=0.5)
    plan.validate()
    return plan
