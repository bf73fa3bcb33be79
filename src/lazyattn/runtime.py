"""Prefill and decode for all three modes: standard, GLA, and VLA.

`prefill(weights, tokens, plan)` picks the mode from the plan (None is the
standard runtime) and builds the cache store; `decode(weights, store, token)`
takes the mode from that store. No entry point is per mode, so a plan and a
store cannot disagree about it. `generate(weights, store, last_logits,
steps)` is the one greedy loop: it continues a store that a prefill filled,
and a prune possibly cut, from the prefill's last logits.

Prefill and decode run the same head-batched layer step, `_layer`, over a
chunk of rows and their visual/text split: prefill passes the s prompt rows
with the store's prompt split, decode one new row that is always TEXT.
Positions live in the store (see `caches`); no layer keeps its own. Each
layer's K/V cache is one (n_heads, L, d_head) array, so rotary runs once
per layer and attention for all heads is one scores product, one masked
softmax over (n_heads, rows, L) and one weighted sum. A layer's role under
the active plan decides where its queries and keys come from:

  standard/anchor  project Q and K themselves (keys cached post-rotation);
                   anchors additionally publish Q to the block's Q cache
                   (all rows under GLA, the visual rows under VLA)
  lazy + GLA       skip the Q/K projections and rotation entirely; read the
                   anchor's Q from the Q cache and the anchor's K cache
  lazy + VLA       project Q/K for TEXT rows only (at their original
                   sequence positions); visual rows take the anchor's Q from
                   the Q cache, and K is the layer's text keys merged with
                   the anchor's visual keys in position order

Values, the output projection, and the MLP are always computed per layer.
A decoded token is TEXT: under GLA lazy layers reuse the anchor's fresh
query and key, under VLA every layer projects the new token itself and its
key follows the merged prompt keys (see `LayerCache.merged_keys`).

A FastV-style pruning hook drops the lowest-attention visual positions from
every cache that lives past a chosen layer. A lazy block prunes with its
anchor, so row i of a lazy layer is row i of its anchor; a store is pruned
at most once.
"""

from __future__ import annotations

import math

import numpy as np

from .caches import ROLE_ANCHOR, ROLE_LAZY, CacheStore, PruneRecord, RowSplit
from .errors import ValidationError
from .kernels import (
    CausalMask,
    apply_rope,
    attention_scale,
    head_matmul,
    masked_softmax_rows,
    matmul,
    rms_norm,
    silu,
)
from .model import ModelWeights, TokenSequence
from .planner import GLA, LazyPlan


def _validate_tokens(tokens: TokenSequence, vocab_size: int) -> None:
    if len(tokens) == 0:
        raise ValidationError("token sequence must be non-empty")
    for t in tokens.token_ids:
        if not 0 <= t < vocab_size:
            raise ValidationError(f"token id {t} outside vocabulary of size {vocab_size}")


def _record(meter, label: str, m: int, k: int, n: int) -> None:
    if meter is not None:
        meter.record(label, m, k, n)


# A decoded token is one TEXT row.
_DECODE_ROWS = RowSplit(np.zeros(1, dtype=bool))


def _project(weights: ModelWeights, xn: np.ndarray, w: np.ndarray, positions: np.ndarray):
    """Rotated per-head projection of the rows of xn, as (n_heads, rows, d_head)."""
    config = weights.config
    m = matmul(xn, w).reshape(xn.shape[0], config.n_heads, config.d_head)
    # Rotary's per-position table lookup iterates Python ints fastest.
    return apply_rope(m, positions.tolist(), config.rope_theta).transpose(1, 0, 2)


def _layer(weights, store: CacheStore, l: int, x: np.ndarray, split: RowSplit, capture, meter):
    """One decoder layer over the rows after the store's `seq_len`, whose
    visual/text split is `split`; appends their K/V to the layer's caches
    and returns the layer output."""
    config = weights.config
    n_heads, d_head, d = config.n_heads, config.d_head, config.d_model
    lw = weights.layers[l]
    role = store.roles[l]
    cache = store.layers[l]
    rows = x.shape[0]
    positions = np.arange(store.seq_len, store.seq_len + rows)
    xn = rms_norm(x, lw.attn_gain, config.norm_eps)

    v = matmul(xn, lw.wv)
    _record(meter, "attn_v", rows, d, d)
    cache.append_values(v.reshape(rows, n_heads, d_head).transpose(1, 0, 2))

    if role.kind != ROLE_LAZY:
        q = _project(weights, xn, lw.wq, positions)
        _record(meter, "attn_q", rows, d, d)
        k = _project(weights, xn, lw.wk, positions)
        _record(meter, "attn_k", rows, d, d)
        cache.append_keys(k)
        keys = cache.keys.data
        if role.kind == ROLE_ANCHOR:
            shared = q if store.mode == GLA else q[:, split.visual]
            if shared.shape[1]:
                store.qcache.publish(role.block, shared)
    elif store.mode == GLA:
        q = store.qcache.read(role.block)
        keys = store.anchor_cache(role).keys.data
    else:  # VLA lazy layer
        text = split.text
        xt = xn[text]
        qt = _project(weights, xt, lw.wq, positions[text])
        _record(meter, "attn_q", len(xt), d, d)
        kt = _project(weights, xt, lw.wk, positions[text])
        _record(meter, "attn_k", len(xt), d, d)
        cache.append_keys(kt)
        q = qt
        if split.n_visual:
            q = np.empty((n_heads, rows, d_head), dtype=np.float32)
            q[:, text] = qt
            q[:, split.visual] = store.qcache.read(role.block)
        keys = cache.merged_keys(store.anchor_cache(role))

    n_keys = keys.shape[1]
    scores = head_matmul(q, keys.transpose(0, 2, 1))
    _record(meter, "attn_scores", n_heads * rows, d_head, n_keys)
    # Row i sits at key index n_keys - rows + i; a single row sees every key.
    mask = CausalMask(n_keys - rows) if rows > 1 else None
    attn = masked_softmax_rows(scores, mask, attention_scale(d_head))
    if capture is not None:
        capture.record(l, attn)
    o = head_matmul(attn, cache.values.data)
    _record(meter, "attn_wv", n_heads * rows, n_keys, d_head)
    x = x + matmul(o.transpose(1, 0, 2).reshape(rows, d), lw.wo)
    _record(meter, "attn_out", rows, d, d)

    hn = rms_norm(x, lw.mlp_gain, config.norm_eps)
    gate = matmul(hn, lw.w_gate)
    _record(meter, "mlp_gate", rows, d, config.d_ff)
    up = matmul(hn, lw.w_up)
    _record(meter, "mlp_up", rows, d, config.d_ff)
    down = matmul(silu(gate) * up, lw.w_down)
    _record(meter, "mlp_down", rows, config.d_ff, d)
    return x + down


def _forward(weights: ModelWeights, store: CacheStore, token_ids, split: RowSplit, capture, meter):
    """Run the rows through every layer; returns their logits."""
    config = weights.config
    x = np.ascontiguousarray(weights.embedding[np.asarray(token_ids, dtype=np.intp)])
    for l in range(config.n_layers):
        x = _layer(weights, store, l, x, split, capture, meter)
    xn = rms_norm(x, weights.final_gain, config.norm_eps)
    logits = matmul(xn, weights.lm_head)
    _record(meter, "lm_head", len(token_ids), config.d_model, config.vocab_size)
    return logits


def prefill(
    weights: ModelWeights,
    tokens: TokenSequence,
    plan: LazyPlan | None = None,
    capture=None,
    meter=None,
) -> tuple[np.ndarray, CacheStore]:
    """Run the prompt through the model, returning logits for every position
    and the populated cache store. `plan=None` is the standard runtime."""
    _validate_tokens(tokens, weights.config.vocab_size)
    store = CacheStore(weights.config, plan, tokens)
    logits = _forward(weights, store, tokens.token_ids, store.split, capture, meter)
    # Prefill-era shared queries are never reread by decode; release them so
    # the Q cache occupancy bound stays honest (peak remains recorded).
    store.qcache.release()
    store.seq_len = len(tokens)
    return logits, store


def decode(weights: ModelWeights, store: CacheStore, next_token: int, meter=None) -> np.ndarray:
    """One greedy-decode step: appends the token's K/V per layer role and
    returns the next-token logits vector. Mutates the store in place."""
    if store.seq_len == 0:
        raise ValidationError("decode requires caches populated by a prefill")
    if not 0 <= next_token < weights.config.vocab_size:
        raise ValidationError(f"token id {next_token} outside vocabulary")
    logits = _forward(weights, store, [next_token], _DECODE_ROWS, None, meter)
    store.seq_len += 1
    return logits[0]


def generate(
    weights: ModelWeights, store: CacheStore, last_logits: np.ndarray, steps: int
) -> list[int]:
    """Greedy decode continuing `store`, which a prefill filled (and possibly
    a prune cut), from its last logits: argmax feedback, ties broken by
    lowest index. Returns the `steps` ids; the store is mutated in place.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    ids: list[int] = []
    for _ in range(steps):
        t = int(np.argmax(last_logits))
        ids.append(t)
        last_logits = decode(weights, store, t)
    return ids


def prune_visual_tokens(store: CacheStore, snapshot, layer: int, keep_ratio: float) -> list[int]:
    """Drop the lowest-attention visual positions from caches past `layer`;
    returns the kept visual positions, ascending.

    Ranking uses the head-averaged last-row attention captured at `layer`
    during prefill (ties keep the earlier position). Standard layers and
    anchors prune when their own index exceeds `layer`; a lazy layer prunes
    exactly when its anchor does, which keeps its K source and its V cache
    covering the same positions. keep_ratio=1 leaves the store untouched and
    records nothing. A store is pruned at most once: the prune record, and
    the oracle that replays it, describe one pass.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValidationError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if not 0 <= layer < store.config.n_layers:
        raise ValidationError(f"layer {layer} out of range")
    if store.seq_len == 0:
        raise ValidationError("prune requires a prefilled store")
    if store.prune_record is not None:
        raise ValidationError("store is already pruned")
    visual = np.flatnonzero(store.modality).tolist()
    keep_count = math.ceil(keep_ratio * len(visual))
    if keep_count >= len(visual):
        return visual
    scores = snapshot.last_rows[layer]
    ranked = sorted(visual, key=lambda p: (-float(scores[p]), p))
    removed = sorted(ranked[keep_count:])

    keep = np.delete(np.arange(store.seq_len), removed)
    split = RowSplit(np.delete(store.modality, removed))
    for l, role in enumerate(store.roles):
        ref = l if role.anchor_layer is None else role.anchor_layer
        if ref > layer:
            store.layers[l].prune(keep, split)
    store.prune_record = PruneRecord(layer, tuple(removed), store.seq_len)
    return sorted(ranked[:keep_count])
