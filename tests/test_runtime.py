import numpy as np
import pytest

from lazyattn import (
    GLA,
    VLA,
    AttentionCapture,
    LazyBlock,
    LazyPlan,
    TokenSequence,
    ValidationError,
    decode,
    empty_plan,
    generate,
    oracle_full_generate,
    oracle_prefill,
    prefill,
    prune_visual_tokens,
)

from helpers import make_model, random_plan, random_prompt


def two_block_plan(mode, n_layers=6):
    return LazyPlan(
        mode=mode,
        n_layers=n_layers,
        blocks=[LazyBlock(1, (2, 3)), LazyBlock(4, (5,))],
        epsilon=0.5,
    )


@pytest.fixture(scope="module")
def model():
    return make_model(n_layers=6, seed=21)


FEED = [5, 17, 3, 40, 9, 61]


def assert_decode_matches_oracle(model, tokens, plan, store, spec, feed=FEED):
    """Decode a fixed token list; every step's logits match the prune-aware
    oracle's last row within verify_case's consistency tolerance."""
    ids, modality = list(tokens.token_ids), list(tokens.modality)
    for t in feed:
        ids.append(t)
        modality.append(0)
        ref = oracle_prefill(model, TokenSequence(ids, modality), plan, prune=spec)[-1]
        assert np.max(np.abs(decode(model, store, t) - ref)) <= 1e-5


@pytest.fixture(scope="module")
def prompt():
    return TokenSequence([3, 9, 2, 7, 5, 11, 13, 1], [1, 1, 1, 0, 0, 0, 0, 0])


def test_empty_plan_is_bitwise_standard(model, prompt):
    l_std, _ = prefill(model, prompt)
    l_gla, _ = prefill(model, prompt, empty_plan(GLA, 6))
    l_vla, _ = prefill(model, prompt, empty_plan(VLA, 6))
    assert np.array_equal(l_std, l_gla)
    assert np.array_equal(l_std, l_vla)


def test_empty_plan_decode_is_bitwise_standard(model, prompt):
    _, s_std = prefill(model, prompt)
    _, s_gla = prefill(model, prompt, empty_plan(GLA, 6))
    _, s_vla = prefill(model, prompt, empty_plan(VLA, 6))
    d_std = decode(model, s_std, 4)
    assert np.array_equal(d_std, decode(model, s_gla, 4))
    assert np.array_equal(d_std, decode(model, s_vla, 4))


def test_gla_lazy_attention_equals_anchor_bitwise(model, prompt):
    plan = two_block_plan(GLA)
    capture = AttentionCapture(per_head=True)
    prefill(model, prompt, plan, capture=capture)
    mats = capture.snapshot.head_matrices
    for block in plan.blocks:
        for lazy in block.lazy_layers:
            for h in range(model.config.n_heads):
                assert np.array_equal(mats[block.anchor][h], mats[lazy][h])


def test_prefill_matches_recompute_oracle_bitwise(model, prompt):
    for plan in (two_block_plan(GLA), two_block_plan(VLA)):
        logits, _ = prefill(model, prompt, plan)
        assert np.array_equal(logits, oracle_prefill(model, prompt, plan))


def test_gla_decode_consistency(model, prompt):
    plan = two_block_plan(GLA)
    ext = TokenSequence(prompt.token_ids + [17], prompt.modality + [0])
    lf, _ = prefill(model, ext, plan)
    _, store = prefill(model, prompt, plan)
    dl = decode(model, store, 17)
    assert np.max(np.abs(lf[-1] - dl)) <= 1e-5


def test_vla_decode_consistency(model, prompt):
    plan = two_block_plan(VLA)
    ext = TokenSequence(prompt.token_ids + [17], prompt.modality + [0])
    lf, _ = prefill(model, ext, plan)
    _, store = prefill(model, prompt, plan)
    dl = decode(model, store, 17)
    assert np.max(np.abs(lf[-1] - dl)) <= 1e-5


def test_gla_lazy_layers_store_no_keys(model, prompt):
    plan = two_block_plan(GLA)
    _, store = prefill(model, prompt, plan)
    for _ in range(4):
        decode(model, store, 3)
    for block in plan.blocks:
        for lazy in block.lazy_layers:
            assert store.layers[lazy].key_bytes == 0
        assert store.layers[block.anchor].key_bytes > 0


def test_vla_lazy_layers_store_text_keys_only(model, prompt):
    plan = two_block_plan(VLA)
    _, store = prefill(model, prompt, plan)
    d = model.config.d_model
    for block in plan.blocks:
        for lazy in block.lazy_layers:
            assert store.layers[lazy].key_bytes == prompt.n_text * d * 4
    decode(model, store, 3)
    for block in plan.blocks:
        for lazy in block.lazy_layers:
            assert store.layers[lazy].key_bytes == (prompt.n_text + 1) * d * 4


def test_qcache_lifecycle_and_bound(model, prompt):
    plan = two_block_plan(GLA)
    _, store = prefill(model, prompt, plan)
    d = model.config.d_model
    s = len(prompt)
    # released after prefill, but the peak saw the full anchor Q
    assert store.qcache.nbytes == 0
    assert store.qcache.q_heads is None
    assert store.qcache.peak_bytes == s * d * 4
    std_kv = 2 * s * d * 4 * model.config.n_layers
    assert store.qcache.peak_bytes <= std_kv / (2 * model.config.n_layers)
    # during decode only the single current row is resident
    decode(model, store, 3)
    assert store.qcache.peak_bytes == s * d * 4


def test_vla_qcache_holds_visual_rows_only(model, prompt):
    plan = two_block_plan(VLA)
    _, store = prefill(model, prompt, plan)
    d = model.config.d_model
    assert store.qcache.peak_bytes == prompt.n_visual * d * 4


def test_plan_layer_count_mismatch_rejected(model, prompt):
    with pytest.raises(ValidationError):
        prefill(model, prompt, two_block_plan(GLA, n_layers=8))


def test_vla_zero_visual_equals_standard_bitwise(model):
    text_only = TokenSequence([3, 9, 2, 7, 5], [0] * 5)
    plan = two_block_plan(VLA)
    lv, sv = prefill(model, text_only, plan)
    ls, ss = prefill(model, text_only)
    assert np.array_equal(lv, ls)
    assert np.array_equal(decode(model, sv, 8), decode(model, ss, 8))


def test_vla_zero_text_equals_gla_bitwise(model):
    visual_only = TokenSequence([3, 9, 2, 7, 5], [1] * 5)
    lv, _ = prefill(model, visual_only, two_block_plan(VLA))
    lg, _ = prefill(model, visual_only, two_block_plan(GLA))
    assert np.array_equal(lv, lg)


def test_generate_matches_oracle_over_random_plans(model):
    rng = np.random.default_rng(31)
    for trial in range(6):
        mode = GLA if trial % 2 == 0 else VLA
        plan = random_plan(rng, 6, mode)
        tokens = random_prompt(rng, model.config.vocab_size)
        logits, store = prefill(model, tokens, plan)
        ids = generate(model, store, logits[-1], 8)
        assert ids == oracle_full_generate(model, tokens, 8, plan)


# ---------------------------------------------------------------------------
# Visual-token pruning hook
# ---------------------------------------------------------------------------


def test_prune_keep_one_is_exact_noop(model, prompt):
    capture = AttentionCapture()
    logits, store = prefill(model, prompt, capture=capture)
    before = store.kv_bytes()
    idx = prune_visual_tokens(store, capture.snapshot, 2, 1.0)
    assert store.kv_bytes() == before
    assert store.prune_record is None
    assert len(idx) == prompt.n_visual
    # decode is bitwise what it would have been without the call
    _, untouched = prefill(model, prompt)
    assert np.array_equal(
        decode(model, store, 5), decode(model, untouched, 5)
    )


def test_prune_selects_top_attention_positions(model, prompt):
    capture = AttentionCapture()
    _, store = prefill(model, prompt, capture=capture)
    idx = prune_visual_tokens(store, capture.snapshot, 2, 0.5)
    scores = capture.snapshot.last_rows[2]
    visual = [0, 1, 2]
    expected = sorted(sorted(visual, key=lambda p: (-scores[p], p))[:2])
    assert idx == expected
    assert len(store.prune_record.removed) == 1


def test_prune_bookkeeping_through_decode(model, prompt):
    capture = AttentionCapture()
    logits, store = prefill(model, prompt, capture=capture)
    prune_visual_tokens(store, capture.snapshot, 2, 0.5)
    steps = 3
    generate(model, store, logits[-1], steps)
    kept = prompt.n_text + 2 + steps
    for l, cache in enumerate(store.layers):
        if l > 2:
            assert cache.stored_len == kept
        else:
            assert cache.stored_len == len(prompt) + steps


def test_prune_validation(model, prompt):
    capture = AttentionCapture()
    _, store = prefill(model, prompt, capture=capture)
    with pytest.raises(ValidationError):
        prune_visual_tokens(store, capture.snapshot, 2, 0.0)
    with pytest.raises(ValidationError):
        prune_visual_tokens(store, capture.snapshot, 2, 1.5)
    with pytest.raises(ValidationError):
        prune_visual_tokens(store, capture.snapshot, 99, 0.5)


def test_pruned_store_matches_prune_aware_oracle(model, prompt):

    for plan in (None, two_block_plan(GLA), two_block_plan(VLA)):
        capture = AttentionCapture()
        logits, store = prefill(model, prompt, plan, capture=capture)
        prune_visual_tokens(store, capture.snapshot, 2, 0.5)
        spec = store.prune_record
        twin = store.clone()
        ids = generate(model, store, logits[-1], 6)
        assert ids == oracle_full_generate(model, prompt, 6, plan, prune=spec)
        assert_decode_matches_oracle(model, prompt, plan, twin, spec)


def test_prune_straddling_block_prunes_with_anchor(model, prompt):
    # Block anchored at 2 with lazy layers 3 and 4: pruning at layer 3 must
    # leave the whole block (K source and V) unpruned, layer 5 pruned.
    plan = LazyPlan(mode=GLA, n_layers=6, blocks=[LazyBlock(2, (3, 4))], epsilon=0.5)
    capture = AttentionCapture()
    logits, store = prefill(model, prompt, plan, capture=capture)
    prune_visual_tokens(store, capture.snapshot, 3, 0.5)
    assert store.layers[2].stored_len == len(prompt)
    assert store.layers[3].stored_len == len(prompt)  # V only, unpruned with anchor
    assert store.layers[5].stored_len < len(prompt)

    spec = store.prune_record
    twin = store.clone()
    ids = generate(model, store, logits[-1], 5)
    assert ids == oracle_full_generate(model, prompt, 5, plan, prune=spec)
    assert_decode_matches_oracle(model, prompt, plan, twin, spec)


def test_second_prune_is_rejected(model, prompt):
    # The prune record, and the oracle replaying it, describe one pass.
    capture = AttentionCapture()
    _, store = prefill(model, prompt, two_block_plan(VLA), capture=capture)
    prune_visual_tokens(store, capture.snapshot, 1, 0.5)
    before = store.kv_bytes()
    with pytest.raises(ValidationError, match="already pruned"):
        prune_visual_tokens(store, capture.snapshot, 3, 0.5)
    assert store.kv_bytes() == before


def test_keep_one_does_not_count_as_a_prune(model, prompt):

    plan = two_block_plan(GLA)
    capture = AttentionCapture()
    _, store = prefill(model, prompt, plan, capture=capture)
    assert prune_visual_tokens(store, capture.snapshot, 1, 1.0) == [0, 1, 2]
    assert len(prune_visual_tokens(store, capture.snapshot, 1, 0.5)) == 2
    spec = store.prune_record
    assert_decode_matches_oracle(model, prompt, plan, store, spec)


# ---------------------------------------------------------------------------
# VLA with interleaved modality: visual runs mid-sequence and alternating
# ---------------------------------------------------------------------------

INTERLEAVED = [
    TokenSequence(
        [4, 8, 15, 16, 23, 42, 7, 1, 9, 33, 2, 61, 5, 18, 27, 70],
        [0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0],
    ),
    TokenSequence([11, 3, 47, 5, 29, 8, 60, 14, 2, 39, 6, 21], [i % 2 for i in range(12)]),
]


@pytest.mark.parametrize("tokens", INTERLEAVED)
def test_vla_interleaved_modality_matches_oracle(model, tokens):

    plan = two_block_plan(VLA)
    logits, store = prefill(model, tokens, plan)
    assert np.array_equal(logits, oracle_prefill(model, tokens, plan))
    ids = generate(model, store, logits[-1], 16)
    assert ids == oracle_full_generate(model, tokens, 16, plan)
    # layer 0 prunes both blocks (and resets their merge order); layer 2
    # prunes only the block anchored at 4
    for layer in (0, 2):
        capture = AttentionCapture()
        logits, store = prefill(model, tokens, plan, capture=capture)
        prune_visual_tokens(store, capture.snapshot, layer, 0.5)
        spec = store.prune_record
        ids = generate(model, store, logits[-1], 16)
        assert ids == oracle_full_generate(model, tokens, 16, plan, prune=spec)


LEADING = TokenSequence([30, 2, 14, 8, 51, 6, 19, 44, 3, 27, 12, 9], [1] * 6 + [0] * 6)


@pytest.mark.parametrize("tokens", [LEADING, *INTERLEAVED], ids=["leading", "runs", "alternating"])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_prune_after_decode_steps_matches_oracle(model, tokens, mode):
    # Pruned layers then hold rows decoded before the prune and after it.

    plan = None if mode is None else two_block_plan(mode)
    capture = AttentionCapture()
    _, store = prefill(model, tokens, plan, capture=capture)
    assert_decode_matches_oracle(model, tokens, plan, store, None, feed=FEED[:3])
    prune_visual_tokens(store, capture.snapshot, 1, 0.5)
    assert store.prune_record.prompt_len == len(tokens) + 3
    spec = store.prune_record
    fed = TokenSequence(tokens.token_ids + FEED[:3], tokens.modality + [0] * 3)
    assert_decode_matches_oracle(model, fed, plan, store, spec, feed=FEED[3:] + FEED)


def test_vla_clone_mid_decode_copies_merge_state(model):
    tokens = INTERLEAVED[0]
    plan = two_block_plan(VLA)
    logits, store = prefill(model, tokens, plan)
    generate(model, store, logits[-1], 4)
    twin = store.clone()
    feed = [5, 17, 3, 40, 9]
    ours = [decode(model, store, t) for t in feed]
    theirs = [decode(model, twin, t) for t in feed]
    for a, b in zip(ours, theirs):
        assert np.array_equal(a, b)
    assert twin.kv_bytes() == store.kv_bytes()


def test_runtime_matmul_sees_only_2d_operands(model, prompt, monkeypatch):
    # Span tracers wrap runtime.matmul and read `m, k = a.shape`; head-batched
    # products must go through their own kernel.
    from lazyattn import runtime

    real = runtime.matmul
    shapes = []

    def spy(a, b):
        shapes.append((a.ndim, b.ndim))
        return real(a, b)

    monkeypatch.setattr(runtime, "matmul", spy)
    for plan in (None, two_block_plan(GLA), two_block_plan(VLA)):
        logits, store = prefill(model, prompt, plan)
        decode(model, store, int(np.argmax(logits[-1])))
    assert shapes and all(s == (2, 2) for s in shapes)
