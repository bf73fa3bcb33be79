"""Cache-free reference runtimes used to verify the production engine.

These paths keep no KV cache, no Q cache, and no incremental state: every
forward recomputes all projections from retained per-layer inputs, and lazy
layers substitute anchor-layer queries/keys by recomputing them from the
anchor's retained input. Generation reruns the full sequence each step.

They share only the primitive kernels (products/softmax/norm/rotary) with
production; those are row-independent and deterministic, so production
prefill, every decode step and the greedy ids must match the oracle bit
for bit. Any divergence is a bug, never tolerance noise.

A sequence is the prompt's rows, then the rows of the ids decoded after it
(`decoded`, text), and each row runs on the kernels production gives it in
its phase (see `kernels`): a prompt row's products on the tile kernel
(`matmul`), a decoded row's on the GEMV (`matvec`). Each product runs
on the columns a layer's role gives it in production (see `runtime`): the
whole w_qkv for a layer that is its own anchor, and again to recompute an
anchor's Q and K; `wv` for a lazy layer's V and, under VLA, the Q|K columns
of w_qkv for its own rows; the whole w_gate_up for every MLP. Attention has
one path, `_attention`, per head, with the shapes production runs per head:
the prompt rows in blocks of `runtime.CHUNK`, each against the keys and
values up to the block's end, on `matmul`, as prefill computes them.
Past the prompt's last key those are zeros, never the keys of decoded rows,
as prefill sees none. Then each decoded row runs alone over its visible
columns on `matvec`, as a decode step computes it. So a prompt row's bits
depend on its block's place alone, and no contract asks the kernels for
length invariance (see `kernels`). A record that is no prune of the prompt
is refused (a prune cuts a prefilled store at a whole prompt length, and
removes a sequence of positions); in a layer the prune cut, the rows after
it see the kept columns. Weight products look `matmul` up in this module,
so a wrapper set on `oracle.matmul` sees them and nothing else; attention
products call `kernels.matmul`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import kernels
from .caches import PruneRecord
from .errors import OracleMismatchError, ValidationError
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
from .model import TokenSequence, is_int, require_int
from .planner import GLA, LazyPlan, layer_anchors
from .runtime import CHUNK, _validate_tokens, decode, generate, prefill


def _phased(a: np.ndarray, b: np.ndarray, n_prompt: int) -> np.ndarray:
    """a @ b: the first `n_prompt` rows (the prompt's) on `matmul`, the
    decoded rows after them on `matvec`."""
    if n_prompt == len(a):
        return matmul(a, b)
    return np.concatenate([matmul(a[:n_prompt], b), matvec(a[n_prompt:], b)])


def _split_heads(m: np.ndarray, n_heads: int, d_head: int) -> list[np.ndarray]:
    return [np.ascontiguousarray(m[:, h * d_head : (h + 1) * d_head]) for h in range(n_heads)]


def _rotated_heads(config, qk: np.ndarray):
    """Per-head Q and K, rotated, from the (s, 2d) columns of a Q|K product."""
    positions = range(len(qk))
    heads = [
        apply_rope(h, positions, config.rope_theta)
        for h in _split_heads(qk, 2 * config.n_heads, config.d_head)
    ]
    return heads[: config.n_heads], heads[config.n_heads :]


def _qkv(weights, layer: int, x_layer: np.ndarray, n_prompt: int) -> np.ndarray:
    """A layer's Q|K|V product from its retained input, on its whole w_qkv,
    as a layer that is its own anchor computes it."""
    lw = weights.layers[layer]
    return _phased(rms_norm(x_layer, lw.attn_gain, weights.config.norm_eps), lw.w_qkv, n_prompt)


def _attention(q, k, v, n_prompt: int, prune: PruneRecord | None) -> np.ndarray:
    """One head's causal attention over (s, d_head) q, k and v, whose first
    `n_prompt` rows are the prompt's: the prompt rows in blocks of CHUNK,
    each against the prompt's keys up to the block's end, zero-padded past
    the last, on the attention tiles; then each decoded row alone over its
    visible columns on the GEMV. Under `prune` the rows from its
    `prompt_len` on see only the columns it kept."""
    s, d_head = q.shape
    scale = attention_scale(d_head)
    out = np.empty((s, d_head), dtype=np.float32)
    end = n_prompt + (-n_prompt % CHUNK)
    kt = zero_padded(k[None, :n_prompt].transpose(0, 2, 1), d_head, end)
    vp = zero_padded(v[None, :n_prompt], end, d_head)
    for start in range(0, n_prompt, CHUNK):
        stop = min(start + CHUNK, n_prompt)
        scores = kernels.matmul(q[None, start:stop], kt[..., : start + CHUNK])
        attn = masked_softmax_rows(scores, start, scale)
        out[start:stop] = kernels.matmul(attn, vp[:, : start + CHUNK])[0]
    for i in range(n_prompt, s):
        cols = np.arange(i + 1)
        if prune is not None and i >= prune.prompt_len:
            cols = np.delete(cols, prune.removed)
        scores = matvec(q[None, i : i + 1], k[None, cols].transpose(0, 2, 1))
        attn = masked_softmax_rows(scores, len(cols) - 1, scale)
        out[i] = matvec(attn, v[None, cols])[0, 0]
    return out


def oracle_prefill(
    weights,
    tokens: TokenSequence,
    plan: LazyPlan | None = None,
    prune: PruneRecord | None = None,
    decoded: Sequence[int] = (),
) -> np.ndarray:
    """Logits for every row of the prompt `tokens` and then of the `decoded`
    ids (text rows), computed without any cache structures: the prompt rows
    as prefill computes them, each decoded row as a decode step does."""
    config = weights.config
    _validate_tokens(tokens.token_ids, config.vocab_size)
    n_prompt = len(tokens)
    if prune is not None:
        removed = prune.removed
        visual = set(np.flatnonzero(tokens.modality).tolist())
        if require_int("prune prompt_len", prune.prompt_len) < n_prompt:
            raise ValidationError(f"prune at {prune.prompt_len} tokens cuts a {n_prompt}-token prompt")
        if not is_int(prune.layer) or not 0 <= prune.layer < config.n_layers:
            raise ValidationError(f"prune layer {prune.layer!r} is not a layer of the model")
        if not isinstance(removed, Sequence) or not all(map(is_int, removed)):
            raise ValidationError(f"prune removes {removed!r}, not a sequence of integers")
        if len(set(removed)) < len(removed) or set(removed) - visual:
            raise ValidationError(f"prune removes {removed!r}, not distinct visual prompt positions")
    tokens = TokenSequence(
        list(tokens.token_ids) + list(decoded), list(tokens.modality) + [0] * len(decoded)
    )
    _validate_tokens(tokens.token_ids, config.vocab_size)
    n_heads, d_head, d = config.n_heads, config.d_head, config.d_model
    anchors = layer_anchors(plan, config.n_layers)
    text = (np.asarray(tokens.modality) == 0)[:, None]

    x = np.ascontiguousarray(weights.embedding[np.asarray(tokens.token_ids, dtype=np.intp)])
    layer_inputs: list[np.ndarray] = []

    for l, lw in enumerate(weights.layers):
        layer_inputs.append(x)
        anchor = anchors[l]
        # The layer's role picks its products' columns, as in production.
        if anchor == l:
            qkv = _qkv(weights, l, x, n_prompt)
            q_heads, k_heads = _rotated_heads(config, qkv[:, : 2 * d])
            v = qkv[:, 2 * d :]
        else:
            xn = rms_norm(x, lw.attn_gain, config.norm_eps)
            v = _phased(xn, lw.wv, n_prompt)
            anchor_qkv = _qkv(weights, anchor, layer_inputs[anchor], n_prompt)
            q_heads, k_heads = _rotated_heads(config, anchor_qkv[:, : 2 * d])
            if plan.mode != GLA:  # VLA: own text rows, anchor visual rows
                own_q, own_k = _rotated_heads(config, _phased(xn, lw.w_qkv[:, : 2 * d], n_prompt))
                q_heads = [np.where(text, own, shared) for own, shared in zip(own_q, q_heads)]
                k_heads = [np.where(text, own, shared) for own, shared in zip(own_k, k_heads)]
        v_heads = _split_heads(v, n_heads, d_head)

        cut = prune if prune is not None and anchor > prune.layer else None
        o = np.concatenate(
            [_attention(*qkv, n_prompt, cut) for qkv in zip(q_heads, k_heads, v_heads)], axis=1
        )
        x = x + _phased(o, lw.wo, n_prompt)

        hn = rms_norm(x, lw.mlp_gain, config.norm_eps)
        gate_up = _phased(hn, lw.w_gate_up, n_prompt)
        act = silu(gate_up[:, : config.d_ff]) * gate_up[:, config.d_ff :]
        x = x + _phased(act, lw.w_down, n_prompt)

    xn = rms_norm(x, weights.final_gain, config.norm_eps)
    return _phased(xn, weights.lm_head, n_prompt)


def oracle_full_generate(
    weights,
    tokens: TokenSequence,
    steps: int,
    plan: LazyPlan | None = None,
    prune: PruneRecord | None = None,
) -> list[int]:
    """Greedy ids via repeated full-sequence recomputation (no caches): each
    id is the argmax of the last row with every earlier id decoded."""
    require_int("steps", steps, 1)
    ids: list[int] = []
    for _ in range(steps):
        logits = oracle_prefill(weights, tokens, plan, prune, decoded=ids)
        ids.append(int(np.argmax(logits[-1])))
    return ids


# ---------------------------------------------------------------------------
# Verification harness (used by tests and the CLI verify command). One
# oracle pass with the decoded ids holds every row a generation is checked on.
# ---------------------------------------------------------------------------


def verify_case(
    weights,
    tokens: TokenSequence,
    plan: LazyPlan | None,
    steps: int = 8,
    case_label: str = "",
) -> None:
    """All oracle equivalence checks for one prompt, in one oracle pass;
    raises on mismatch.

    Production prefills the prompt, `generate` decodes `steps` ids on a
    clone of the store, and `decode` replays those ids on the store itself.
    The prefill's rows and every replayed step's logits must equal, bit for
    bit, the rows of one oracle_prefill with the ids decoded, and each id
    must be the argmax of the oracle row before it; by induction the ids
    are then oracle_full_generate's.
    """
    require_int("steps", steps, 1)
    case = dict(tokens=tokens.token_ids, modality=tokens.modality, steps=steps)
    case["plan"] = None if plan is None else plan.to_dict()

    logits, store = prefill(weights, tokens, plan)
    ids = generate(weights, store.clone(), logits[-1], steps)
    rows = np.vstack([logits] + [decode(weights, store, t) for t in ids])
    ref = oracle_prefill(weights, tokens, plan, decoded=ids)
    n = len(tokens)
    bad = np.argwhere(rows != ref)
    if len(bad):
        row, col = bad[0].tolist()
        kind, index, phase = ("row", row, "prefill") if row < n else ("step", row - n, "decode")
        raise OracleMismatchError(
            f"{case_label}: {kind} {index}: {phase} logits differ from oracle "
            f"(column {col}, prod {rows[row, col]!r} vs oracle {ref[row, col]!r})",
            case={**case, kind: index},
        )
    ref_ids = np.argmax(ref[n - 1 : -1], axis=1).tolist()
    if ids != ref_ids:
        step = next(i for i, (a, b) in enumerate(zip(ids, ref_ids)) if a != b)
        raise OracleMismatchError(
            f"{case_label}: step {step}: generated ids {ids} differ from oracle argmax {ref_ids}",
            case={**case, "step": step},
        )
