"""Cache-free reference runtimes used to verify the production engine.

These paths keep no KV cache, no Q cache, and no incremental state: every
forward recomputes all projections from retained per-layer inputs, and lazy
layers substitute anchor-layer queries/keys by recomputing them from the
anchor's retained input. Generation reruns the full sequence each step.

They share only the primitive kernels (matmul/softmax/norm/rotary) with
production; those are row-independent and deterministic, so production
prefill must match the oracle bit for bit and greedy generation must emit
identical token ids. Any divergence is a bug, never tolerance noise.
"""

from __future__ import annotations

import numpy as np

from .caches import ROLE_LAZY, roles_from_plan
from .errors import OracleMismatchError, ValidationError
from .kernels import (
    CausalMask,
    apply_rope,
    attention_scale,
    masked_softmax_rows,
    matmul,
    rms_norm,
    silu,
)
from .model import TokenSequence
from .planner import GLA, LazyPlan
from .runtime import _validate_tokens, generate, prefill, prune_visual_tokens


def _split_heads(m: np.ndarray, n_heads: int, d_head: int) -> list[np.ndarray]:
    return [np.ascontiguousarray(m[:, h * d_head : (h + 1) * d_head]) for h in range(n_heads)]


class PruneSpec:
    """Replicates a production pruning pass: at layers whose block reference
    exceeds `layer`, query rows at positions >= prompt_len attend only to
    non-removed columns."""

    __slots__ = ("layer", "removed", "prompt_len")

    def __init__(self, layer: int, removed: tuple[int, ...], prompt_len: int):
        self.layer = layer
        self.removed = tuple(removed)
        self.prompt_len = prompt_len

    @staticmethod
    def from_record(record) -> "PruneSpec | None":
        if record is None:
            return None
        return PruneSpec(record.layer, record.removed, record.prompt_len)


def _layer_qk(weights, layer: int, x_layer: np.ndarray, positions: list[int]):
    """Recompute a layer's rotated per-head Q and K from its retained input."""
    config = weights.config
    lw = weights.layers[layer]
    xn = rms_norm(x_layer, lw.attn_gain, config.norm_eps)
    q = matmul(xn, lw.wq)
    k = matmul(xn, lw.wk)
    q_heads = [
        apply_rope(qh, positions, config.rope_theta)
        for qh in _split_heads(q, config.n_heads, config.d_head)
    ]
    k_heads = [
        apply_rope(kh, positions, config.rope_theta)
        for kh in _split_heads(k, config.n_heads, config.d_head)
    ]
    return q_heads, k_heads


def oracle_prefill(
    weights,
    tokens: TokenSequence,
    plan: LazyPlan | None = None,
    prune: PruneSpec | None = None,
) -> np.ndarray:
    """Full-sequence logits computed without any cache structures."""
    config = weights.config
    _validate_tokens(tokens, config.vocab_size)
    n_heads, d_head = config.n_heads, config.d_head
    s = len(tokens)
    positions = list(range(s))
    scale = attention_scale(d_head)
    mask = CausalMask(0)
    roles = roles_from_plan(plan, config.n_layers)
    mode = plan.mode if plan is not None else "standard"

    text_pos = [i for i, m in enumerate(tokens.modality) if m == 0]
    visual_pos = [i for i, m in enumerate(tokens.modality) if m == 1]
    text_idx = np.asarray(text_pos, dtype=np.intp)
    visual_idx = np.asarray(visual_pos, dtype=np.intp)

    x = np.ascontiguousarray(weights.embedding[np.asarray(tokens.token_ids, dtype=np.intp)])
    layer_inputs: list[np.ndarray] = []

    for l, lw in enumerate(weights.layers):
        layer_inputs.append(x)
        role = roles[l]
        xn = rms_norm(x, lw.attn_gain, config.norm_eps)
        v_heads = _split_heads(matmul(xn, lw.wv), n_heads, d_head)

        if role.kind != ROLE_LAZY:
            q_heads, k_heads = _layer_qk(weights, l, x, positions)
        elif mode == GLA:
            q_heads, k_heads = _layer_qk(weights, role.anchor_layer, layer_inputs[role.anchor_layer], positions)
        else:  # VLA: own text rows, anchor visual rows
            own_q, own_k = _layer_qk(weights, l, x, positions)
            anchor_q, anchor_k = _layer_qk(
                weights, role.anchor_layer, layer_inputs[role.anchor_layer], positions
            )
            q_heads, k_heads = [], []
            for h in range(n_heads):
                qf = np.empty((s, d_head), dtype=np.float32)
                qf[text_idx] = own_q[h][text_idx]
                qf[visual_idx] = anchor_q[h][visual_idx]
                kf = np.empty((s, d_head), dtype=np.float32)
                kf[text_idx] = own_k[h][text_idx]
                kf[visual_idx] = anchor_k[h][visual_idx]
                q_heads.append(qf)
                k_heads.append(kf)

        restricted = _pruned_at_layer(roles, l, prune)
        out_heads = []
        for h in range(n_heads):
            if not restricted:
                scores = matmul(q_heads[h], k_heads[h].T)
                attn = masked_softmax_rows(scores, mask, scale)
                out_heads.append(matmul(attn, v_heads[h]))
            else:
                out_heads.append(
                    _restricted_attention(
                        q_heads[h], k_heads[h], v_heads[h], scale, prune
                    )
                )
        o = np.concatenate(out_heads, axis=1)
        x = x + matmul(o, lw.wo)

        hn = rms_norm(x, lw.mlp_gain, config.norm_eps)
        act = silu(matmul(hn, lw.w_gate)) * matmul(hn, lw.w_up)
        x = x + matmul(act, lw.w_down)

    xn = rms_norm(x, weights.final_gain, config.norm_eps)
    return matmul(xn, weights.lm_head)


def _pruned_at_layer(roles, layer: int, prune: PruneSpec | None) -> bool:
    if prune is None:
        return False
    role = roles[layer]
    ref = layer if role.anchor_layer is None else role.anchor_layer
    return ref > prune.layer


def _restricted_attention(q_h, k_h, v_h, scale, prune: PruneSpec):
    """Attention where rows >= prompt_len skip removed columns entirely.

    Prompt rows ran before the prune and keep plain causal attention; each
    generated row gathers its visible columns into the same compact layout
    the production decode step sees, so the two stay numerically adjacent.
    """
    s = q_h.shape[0]
    d_head = q_h.shape[1]
    removed = set(prune.removed)
    boundary = min(prune.prompt_len, s)
    out = np.empty((s, d_head), dtype=np.float32)

    if boundary > 0:
        scores = matmul(q_h[:boundary], k_h.T)
        attn = masked_softmax_rows(scores, CausalMask(0), scale)
        out[:boundary] = matmul(attn, v_h)

    kept = [j for j in range(s) if j not in removed]
    kept_arr = np.asarray(kept, dtype=np.intp)
    k_kept = np.ascontiguousarray(k_h[kept_arr])
    v_kept = np.ascontiguousarray(v_h[kept_arr])
    for i in range(boundary, s):
        n_vis = int(np.searchsorted(kept_arr, i, side="right"))
        scores = matmul(
            np.ascontiguousarray(q_h[i : i + 1]),
            np.ascontiguousarray(k_kept[:n_vis]).T,
        )
        attn = masked_softmax_rows(scores, None, scale)
        out[i : i + 1] = matmul(attn, np.ascontiguousarray(v_kept[:n_vis]))
    return out


def oracle_full_generate(
    weights,
    tokens: TokenSequence,
    steps: int,
    plan: LazyPlan | None = None,
    prune: PruneSpec | None = None,
) -> list[int]:
    """Greedy ids via repeated full-sequence recomputation (no caches)."""
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    seq = TokenSequence(list(tokens.token_ids), list(tokens.modality))
    ids: list[int] = []
    for _ in range(steps):
        logits = oracle_prefill(weights, seq, plan, prune)
        t = int(np.argmax(logits[-1]))
        ids.append(t)
        seq = TokenSequence(seq.token_ids + [t], seq.modality + [0])
    return ids


# ---------------------------------------------------------------------------
# Verification harness (used by tests and the CLI verify command)
# ---------------------------------------------------------------------------


def verify_case(
    weights,
    tokens: TokenSequence,
    plan: LazyPlan | None,
    steps: int = 8,
    consistency_tol: float = 1e-5,
    prune_layer: int | None = None,
    prune_keep: float = 1.0,
    case_label: str = "",
) -> None:
    """All oracle equivalence checks for one prompt; raises on mismatch.

    Checks: (1) production prefill logits match oracle_prefill bitwise,
    (2) greedy generation ids match oracle_full_generate exactly,
    (3) prefill(s)+decode matches the oracle's next-step last row within
    consistency_tol. With pruning enabled, (2) and (3) run on the pruned
    store against a prune-aware oracle.
    """
    from .profiler import AttentionCapture
    from .runtime import decode

    if steps < 1:
        raise ValidationError("verify_case needs steps >= 1")

    def prefill_and_prune():
        capture = AttentionCapture() if prune_layer is not None else None
        logits, store = prefill(weights, tokens, plan, capture=capture)
        if prune_layer is not None:
            prune_visual_tokens(store, capture.snapshot, prune_layer, prune_keep)
        return logits, store

    logits, store = prefill_and_prune()
    ref = oracle_prefill(weights, tokens, plan)
    if not np.array_equal(logits, ref):
        bad = int(np.argmax(np.abs(logits - ref)))
        raise OracleMismatchError(
            f"{case_label}: prefill logits differ from oracle (flat index {bad}, "
            f"prod {logits.flat[bad]!r} vs oracle {ref.flat[bad]!r})",
            case={"tokens": tokens.token_ids, "modality": tokens.modality},
        )
    spec = PruneSpec.from_record(store.prune_record)

    ids, _ = generate(weights, tokens, steps, plan, store=store, last_logits=logits[-1])
    ref_ids = oracle_full_generate(weights, tokens, steps, plan, prune=spec)
    if ids != ref_ids:
        step = next(i for i, (a, b) in enumerate(zip(ids, ref_ids)) if a != b)
        raise OracleMismatchError(
            f"{case_label}: generated ids diverge at step {step}: "
            f"prod {ids} vs oracle {ref_ids}",
            case={"tokens": tokens.token_ids, "modality": tokens.modality, "step": step},
        )

    # One-step prefill/decode consistency against the oracle's next row.
    _, store2 = prefill_and_prune()
    step_logits = decode(weights, store2, ids[0])
    ext = TokenSequence(tokens.token_ids + [ids[0]], tokens.modality + [0])
    ref_step = oracle_prefill(weights, ext, plan, prune=spec)[-1]
    err = float(np.max(np.abs(step_logits - ref_step)))
    if err > consistency_tol:
        raise OracleMismatchError(
            f"{case_label}: decode logits deviate from oracle by {err:.3e} "
            f"(tol {consistency_tol})",
            case={"tokens": tokens.token_ids, "modality": tokens.modality},
        )
