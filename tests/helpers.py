"""Model, prompt and plan builders shared by the test modules."""

import numpy as np

from lazyattn import (
    LazyBlock,
    LazyPlan,
    ModelConfig,
    TokenSequence,
    init_synthetic_model,
    kernels,
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


def padded(blocks):
    """Row-ordered attention blocks, (..., rows, keys up to the block's last
    row), as one (..., rows, keys) matrix with zeros past each row's keys."""
    rows = sum(b.shape[-2] for b in blocks)
    out = np.zeros((*blocks[-1].shape[:-2], rows, blocks[-1].shape[-1]), blocks[-1].dtype)
    start = 0
    for b in blocks:
        out[..., start : start + b.shape[-2], : b.shape[-1]] = b
        start += b.shape[-2]
    return out


class HeadRecorder:
    """A capture hook that keeps every block of every layer's per-head
    attention, (n_heads, rows, keys), in row order (`blocks[layer]`)."""

    def __init__(self):
        self.blocks = []

    def record(self, layer, block):
        if layer == len(self.blocks):
            self.blocks.append([])
        self.blocks[layer].append(block.copy())

    @property
    def layers(self):
        """Each layer's (n_heads, rows, keys) attention, zeros past each row's keys."""
        return [padded(blocks) for blocks in self.blocks]


def random_prompt(
    rng: np.random.Generator, vocab_size: int, length=None, visual_fraction=None, layout="leading"
):
    """A prompt whose visual rows lead (`leading`), form one run with text on
    both sides (`mid`), or sit at every other position first (`alternating`)."""
    if length is None:
        length = int(rng.integers(4, 13))
    if visual_fraction is None:
        visual_fraction = float(rng.choice([0.0, 0.25, 0.5, 0.75]))
    ids = rng.integers(0, vocab_size, size=length).tolist()
    n_visual = min(int(round(visual_fraction * length)), length - 1)
    if layout == "leading":
        order = list(range(length))
    elif layout == "mid":
        start = (length - n_visual + 1) // 2
        order = list(range(start, length))
    elif layout == "alternating":
        order = list(range(1, length, 2)) + list(range(0, length, 2))
    else:
        raise ValueError(f"unknown layout {layout!r}")
    modality = [0] * length
    for p in order[:n_visual]:
        modality[p] = 1
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
    return LazyPlan(mode=mode, n_layers=n_layers, blocks=blocks, epsilon=0.5)


def weight_block(model, b):
    """Which layer weight a product's right operand `b` is, as (layer, name,
    first column, columns) of the stored tensor it views (`w_qkv`, `wo`,
    `w_gate_up` or `w_down`), or None for anything else."""
    for l, lw in enumerate(model.layers):
        for name in ("w_qkv", "wo", "w_gate_up", "w_down"):
            w = getattr(lw, name)
            start = (b.ctypes.data - w.ctypes.data) // w.itemsize
            if b.strides == w.strides and len(b) == len(w) and 0 <= start < w.shape[1]:
                return l, name, start, b.shape[1]
    return None


def gemm_nudged_at(monkeypatch, bad):
    """Make `_tiles` move the last row of a GEMM of `bad` rows by one ulp, so
    that count's probe fails; returns the list of tile heights run."""
    real, heights = kernels._tiles, []

    def nudged(a, b, tile):
        heights.append(tile)
        out = real(a, b, tile)
        if tile == bad:
            out = out.copy()
            out[..., -1, :] = np.nextafter(out[..., -1, :], np.float32(np.inf))
        return out

    monkeypatch.setattr(kernels, "_tiles", nudged)
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    return heights
