"""Prefill, extend and decode for the standard runtime and both lazy modes.

`prefill(weights, tokens, plan)` builds an empty cache store from the plan
(None is the standard runtime) and extends it by the prompt;
`extend(weights, store, tokens)` appends prompt rows to a store, as chunked
prefill and prefix reuse do; `decode(weights, store, token)` appends one
decoded row. No entry point is per mode, so a plan and a store cannot
disagree about it. `generate(weights, store, last_logits, steps)` is the
one greedy loop: it continues a store that a prefill filled, and a prune
possibly cut, from the prefill's last logits.

Both append rows through `_forward`, which grows the store's mask and
split (see `caches`) and runs the rows through one head-batched layer step,
`_layer`, with their shared/own split; they differ only in their checks and
kernels. `_forward` refuses weights of another config than the store's and
ids outside the vocabulary (a `TokenSequence` checked the rest when built),
and `extend` a pruned store, one that holds decoded rows and one whose
`seq_len` is not a multiple of CHUNK, before touching it, so an extension
runs the blocks and shapes one-shot prefill runs. The Q cache is filled
and released per call. Each layer's K/V cache is one (n_heads, L, d_head)
array, so rotary runs once per layer, on Q and K together, and attention
for all heads runs as one scores product, one masked softmax and one
weighted sum per block of rows.

A layer's role alone picks the columns of its products on the fused
weights (see `model.LayerWeights`): a layer that is its own anchor runs one
Q|K|V product; a lazy layer runs V alone and, for the rows it owns, one
Q|K product on the first two thirds of Q|K|V, even when it owns every row;
every layer runs one gate|up product. The oracle runs the same columns, so
no contract asks that a fused product give a block the bits of the
product on its view, and a row's bits never depend on which other rows
share its call. The meter records each label's share of the columns.

Attention is block-causal: the query rows run in blocks of CHUNK, and a
prompt block attends the keys up to its end, CHUNK rows past its first
row, so the masked triangle past a block is never computed. Where the
call's last block is partial, the keys and values past the call's last key
are zeros, which the causal mask hides as it hides the upper triangle of
the block on the diagonal. A prompt row's products and softmax then have
shapes fixed by where its block sits, whatever the prompt's length, so
`prefill(tokens[:L])` equals `prefill(tokens)[:L]` and no kernel needs to
be length-invariant (see `kernels`). The oracle attends the prompt rows in
the same padded blocks. One loop runs every row count: a call of at most
CHUNK rows is one block, on the transposed view of the key cache where it
pads nothing, and more rows share one C-order copy of K^T.

A capture is any object with `record(layer, block)`, handed each block's
(n_heads, rows, keys up to its last row) attention right after its softmax,
in row order; the capture alone decides what to keep (see `profiler`).

`prefill` and `extend` with `logits=False` are for callers that read only
the attention, as a profile pass does (see `profiler`): the last layer
stops right after its attention, with its K/V appended and its capture
recorded, and its output projection, its MLP, the final norm and the LM
head are skipped. Nothing that the store holds depends on them, so the
store is the one a `logits=True` call leaves, bit for bit, and can be
extended or decoded from.

The phase picks its products, never the row count (see `kernels`), and
one flag, `prompt`, picks the rest: a prompt phase (prefill and `extend`)
runs every product on the tile kernel (`matmul`), pads its last block and
recomputes a lazy layer's attention, so its FLOPs stay on the 2n*beta
closed form (see `efficiency`); decode runs every product on the one
stacked GEMV (`matvec`), which is cheaper for its one row, against
exactly the cached keys, and lets lazy layers inherit. Both run the one
softmax. The oracle computes each row as its phase does, and recomputes
every lazy layer's attention from its anchor's Q and K, so prefill and
every decode step match it bit for bit, even where a lazy layer projects a
single own row or inherits its anchor's attention.
`extend` and `decode` look the kernels up when called: prefill's weight
products on this module, so a wrapper set on `runtime.matmul` sees every
prefill weight product and nothing else, and its attention products on
`kernels`. Each product states its operands once and records its own MACs
on the meter it is given (`_metered`), so the meter counts what ran: a
block's scores and weighted sum count its rows against the keys up to its
end, padding included, an inherited block no scores, and a padded tile its
logical rows.

A layer's anchor (`store.anchors`, from the plan) decides where its queries
and keys come from:

  itself   project Q and K for every row (keys cached post-rotation); a
           layer that the next layer names as its anchor then publishes,
           after its attention, to the Q cache under its own index: its
           attention block outside a prompt when every row of the call is
           shared and its first lazy layer owns no keys (every GLA decode
           step), for then that layer has the anchor's Q and K and its
           scores and softmax would give the block to the bit; the shared
           rows' Q otherwise
  earlier  (a lazy layer) project Q and K for its own rows only (at their
           original sequence positions), and none when it owns no row;
           K is the layer's own keys merged with the anchor's shared keys
           in position order (see `LayerCache.merged_keys`). Shared rows
           take what the Q cache holds: the anchor's Q, or, where it holds
           the anchor's attention block, that block, and the layer runs
           only the weighted sum on its own V

The store alone decides which rows are shared (see `caches`), so nothing
here tests the mode. Values, the weighted sum, the output projection, and
the MLP are always computed per layer.

A FastV-style pruning hook drops the lowest-attention visual positions from
every cache that lives past a chosen layer. A lazy block prunes with its
anchor, so row i of a lazy layer is row i of its anchor; a store is pruned
at most once.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .caches import CacheStore, PruneRecord, RowSplit
from .errors import ValidationError
from .kernels import (
    apply_rope,
    attention_scale,
    masked_softmax_rows,
    matmul,
    matvec,
    rms_norm,
    silu,
    zero_padded,
)
from .model import TEXT, VISUAL, ModelWeights, TokenSequence, is_int, is_number, require_int
from .planner import LazyPlan

# Query rows per block of block-causal prefill attention.
CHUNK = 64


def _validate_tokens(token_ids, vocab_size: int) -> None:
    """ValidationError unless the ids, integers already, lie in the vocabulary."""
    for t in (min(token_ids), max(token_ids)):
        if not 0 <= t < vocab_size:
            raise ValidationError(f"token id {t} outside vocabulary of size {vocab_size}")


def _metered(kernel, meter):
    """The phase's `kernel` as a product `(a, b, *labels)`, whose b's columns
    are one equal block per label. Once the kernel returns, `meter` records
    each label's MACs, with m the product of a's leading axes, k a's last
    axis and n the label's share of b's columns."""

    def product(a, b, *labels):
        out = kernel(a, b)
        if meter is not None:
            m, k, n = math.prod(a.shape[:-1]), a.shape[-1], b.shape[-1] // len(labels)
            for label in labels:
                meter.record(label, m, k, n)
        return out

    return product


class _Phase(NamedTuple):
    """What a phase runs: its weight and attention products (see `_metered`),
    and whether it is a prompt phase (prefill and `extend`), which pads its
    last block of attention to CHUNK rows' keys and recomputes a lazy
    layer's attention, or decode, which attends exactly the cached keys and
    lets lazy layers inherit their anchor's (see the module doc)."""

    mm: Callable
    head_mm: Callable
    prompt: bool


def _rotated(config, qk: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The rows of a Q|K product (rows, 2d) rotated in one call, as
    (2 n_heads, rows, d_head): Q's heads, then K's."""
    qk = qk.reshape(qk.shape[0], 2 * config.n_heads, config.d_head)
    return apply_rope(qk, positions, config.rope_theta).transpose(1, 0, 2)


def _attention(phase: _Phase, q, keys, values, capture, layer: int, inherited=None):
    """softmax(q K^T / sqrt(d_head)) V for q's rows, which sit at the last of
    the keys' positions, in blocks of CHUNK rows, each against the keys up to
    its end (see the module doc), so the masked columns past a block are
    never computed. A block is `inherited` where one is given, the one
    block of an anchor whose queries and keys these are (q is then None),
    and scores plus softmax otherwise. Returns the weighted sum and the last
    block, and hands a `capture` each block, masked entries 0 (see the
    module doc)."""
    n_heads, n_keys, d_head = keys.shape
    rows = (q if inherited is None else inherited).shape[1]
    first = n_keys - rows  # the key index of q's first row
    end = n_keys + (-rows % CHUNK if phase.prompt else 0)  # keys the last block attends
    scale = attention_scale(d_head)
    kt = keys.transpose(0, 2, 1)
    if end > n_keys:
        kt, values = zero_padded(kt, d_head, end), zero_padded(values, end, d_head)
    elif rows > CHUNK:
        # One C-order copy of K^T serves every block (see `kernels`).
        kt = np.ascontiguousarray(kt)
    out = np.empty((n_heads, rows, d_head), dtype=np.float32)
    for start in range(0, rows, CHUNK):
        stop = min(start + CHUNK, rows)
        n = min(first + start + CHUNK, end)
        if inherited is None:
            scores = phase.head_mm(q[:, start:stop], kt[..., :n], "attn_scores")
            block = masked_softmax_rows(scores, first + start, scale)
        else:
            block = inherited
        if capture is not None:
            capture.record(layer, block[..., : first + stop])
        out[:, start:stop] = phase.head_mm(block, values[:, :n], "attn_wv")
    return out, block


def _layer(
    weights, store: CacheStore, l: int, x: np.ndarray, split: RowSplit, phase: _Phase, capture,
    output: bool = True,
):
    """One decoder layer over the rows after the store's `seq_len`, whose
    shared/own split is `split`, with the `phase`'s kernels; appends their
    K/V to the layer's caches and returns the layer output. Without
    `output` it stops after attention and returns None."""
    mm = phase.mm
    config = weights.config
    n_heads, d_head, d = config.n_heads, config.d_head, config.d_model
    lw = weights.layers[l]
    anchor = store.anchors[l]
    cache = store.layers[l]
    rows = x.shape[0]
    positions = np.arange(store.seq_len, store.seq_len + rows)
    xn = rms_norm(x, lw.attn_gain, config.norm_eps)

    lazy = anchor != l
    if lazy:
        own, n_own = split.own, split.n_own
        v = mm(xn, lw.wv, "attn_v")
        if n_own:
            qk = mm(xn[own], lw.w_qkv[:, : 2 * d], "attn_q", "attn_k")
    else:
        own, n_own = slice(None), rows
        qkv = mm(xn, lw.w_qkv, "attn_q", "attn_k", "attn_v")
        qk, v = qkv[:, : 2 * d], qkv[:, 2 * d :]
    cache.append_values(v.reshape(rows, n_heads, d_head).transpose(1, 0, 2))
    if n_own:
        qk = _rotated(config, qk, positions[own])
        q = qk[:n_heads]
        cache.append_keys(qk[n_heads:])
    inherited = None
    if not lazy:
        keys = cache.keys.data
    else:
        keys = cache.merged_keys(store.layers[anchor])
        if split.n_shared:
            shared = store.qcache.read(anchor)
            if store.qcache.attention:
                q, inherited = None, shared
            else:
                q = split.merge(shared, q) if n_own else shared

    o, block = _attention(phase, q, keys, cache.values.data, capture, l, inherited)
    if not lazy and l + 1 < config.n_layers and store.anchors[l + 1] == l and split.n_shared:
        # Outside a prompt, a lazy layer whose rows are all shared and which
        # owns no keys has this layer's Q and K, so its scores and softmax
        # would give this block to the bit.
        if not phase.prompt and not split.n_own and not len(store.layers[l + 1].keys):
            store.qcache.publish(l, block, attention=True)
        else:
            store.qcache.publish(l, q[:, split.shared])
    if not output:
        return None
    x = x + mm(o.transpose(1, 0, 2).reshape(rows, d), lw.wo, "attn_out")

    hn = rms_norm(x, lw.mlp_gain, config.norm_eps)
    gate_up = mm(hn, lw.w_gate_up, "mlp_gate", "mlp_up")
    gate, up = gate_up[:, : config.d_ff], gate_up[:, config.d_ff :]
    return x + mm(silu(gate) * up, lw.w_down, "mlp_down")


def _forward(
    weights: ModelWeights, store: CacheStore, tokens: TokenSequence, phase: _Phase, capture,
    logits: bool = True,
):
    """Append the rows of `tokens` to the store and run them through every
    layer on the `phase`'s kernels; returns their logits, or None without
    `logits` (see the module doc). Refuses, before touching the store,
    weights of another config than the one that built it and ids outside
    its vocabulary."""
    config = weights.config
    if store.config != config:
        raise ValidationError("the store needs the weights of the config that built it")
    _validate_tokens(tokens.token_ids, config.vocab_size)
    rows = store.grow(np.asarray(tokens.modality) == VISUAL)
    x = np.ascontiguousarray(weights.embedding[np.asarray(tokens.token_ids, dtype=np.intp)])
    last = config.n_layers - 1
    for l in range(config.n_layers):
        x = _layer(weights, store, l, x, rows, phase, capture, logits or l < last)
    store.seq_len += len(tokens)
    store.qcache.release()
    if not logits:
        return None
    xn = rms_norm(x, weights.final_gain, config.norm_eps)
    return phase.mm(xn, weights.lm_head, "lm_head")


def extend(
    weights: ModelWeights, store: CacheStore, tokens: TokenSequence, capture=None, meter=None,
    logits: bool = True,
) -> np.ndarray | None:
    """Append the prompt rows `tokens` to `store` on prefill's kernels and
    return their logits, or None with `logits=False`; a `capture` is handed
    their attention blocks. See the module doc for what `logits=False` skips
    and for the stores `extend` refuses."""
    if store.prune_record is not None:
        raise ValidationError("extend refuses a pruned store")
    if store.seq_len != store.n_prompt:
        raise ValidationError("extend refuses a store that holds decoded rows")
    if store.seq_len % CHUNK:
        raise ValidationError(f"extend needs a multiple of {CHUNK} rows, not {store.seq_len}")
    # Looked up now, so wrappers take effect.
    phase = _Phase(_metered(matmul, meter), _metered(kernels.matmul, meter), prompt=True)
    out = _forward(weights, store, tokens, phase, capture, logits)
    store.n_prompt = store.seq_len
    return out


def prefill(
    weights: ModelWeights,
    tokens: TokenSequence,
    plan: LazyPlan | None = None,
    capture=None,
    meter=None,
    logits: bool = True,
) -> tuple[np.ndarray | None, CacheStore]:
    """Run the prompt through the model, returning logits for every position
    (None with `logits=False`, see `extend`) and the populated cache store.
    `plan=None` is the standard runtime. A `capture` is handed each layer's
    attention blocks (see the module doc)."""
    store = CacheStore(weights.config, plan)
    return extend(weights, store, tokens, capture, meter, logits), store


def decode(weights: ModelWeights, store: CacheStore, next_token: int, meter=None) -> np.ndarray:
    """One greedy-decode step: appends the token's K/V to every layer and
    returns the next-token logits vector. Mutates the store in place."""
    if store.seq_len == 0:
        raise ValidationError("decode requires caches populated by a prefill")
    tokens = TokenSequence([next_token], [TEXT])
    gemv = _metered(matvec, meter)
    return _forward(weights, store, tokens, _Phase(gemv, gemv, prompt=False), None)[0]


def generate(
    weights: ModelWeights, store: CacheStore, last_logits: np.ndarray, steps: int
) -> list[int]:
    """Greedy decode continuing `store`, which a prefill filled (and possibly
    a prune cut), from its last logits: argmax feedback, ties broken by
    lowest index. Returns the `steps` ids; the store is mutated in place.
    Checks first that `last_logits` is one row of finite logits."""
    require_int("steps", steps, 0)
    vocab = weights.config.vocab_size
    if not (isinstance(last_logits, np.ndarray) and last_logits.shape == (vocab,)
            and last_logits.dtype.kind in "iuf" and np.isfinite(last_logits).all()):
        raise ValidationError(f"last_logits must be a 1-D array of {vocab} finite numbers")
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
    during prefill (ties keep the earlier position). A layer prunes when its
    anchor exceeds `layer`, so a lazy layer prunes exactly when its anchor
    does, which keeps its K source and its V cache covering the same
    positions. The snapshot must be of this store's prompt, on every layer.
    keep_ratio=1, or a `layer` that no layer's anchor exceeds, cuts no layer:
    the store is left untouched, nothing is recorded, and every visual
    position is returned.
    A store is pruned at most once: the prune record, and the oracle that
    replays it, describe one pass.
    """
    if not (is_number(keep_ratio) and 0.0 < keep_ratio <= 1.0):
        raise ValidationError(f"keep_ratio must be a number in (0, 1], got {keep_ratio!r}")
    if not is_int(layer) or not 0 <= layer < store.config.n_layers:
        raise ValidationError(f"layer {layer!r} is not an integer in [0, {store.config.n_layers})")
    if store.seq_len == 0:
        raise ValidationError("prune requires a prefilled store")
    if store.prune_record is not None:
        raise ValidationError("store is already pruned")
    if len(snapshot.blocks) != store.config.n_layers:
        raise ValidationError(f"snapshot has {len(snapshot.blocks)} layers, not {store.config.n_layers}")
    scores = snapshot.last_rows[layer]
    if len(scores) != store.n_prompt:
        raise ValidationError(f"snapshot has {len(scores)} columns, the prompt {store.n_prompt}")
    visual = np.flatnonzero(store.modality).tolist()
    keep_count = math.ceil(keep_ratio * len(visual))
    if keep_count >= len(visual) or max(store.anchors) <= layer:
        return visual
    ranked = sorted(visual, key=lambda p: (-float(scores[p]), p))
    removed = sorted(ranked[keep_count:])

    keep = np.delete(np.arange(store.seq_len), removed)
    split = RowSplit(np.delete(store.modality | store.all_shared, removed))
    for l, anchor in enumerate(store.anchors):
        if anchor > layer:
            store.layers[l].prune(keep, split)
    store.prune_record = PruneRecord(layer, tuple(removed), store.seq_len)
    return sorted(ranked[:keep_count])
