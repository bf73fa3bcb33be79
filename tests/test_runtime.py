import ast
import inspect

import numpy as np
import pytest

from lazyattn import (
    GLA,
    VLA,
    AttentionCapture,
    AttentionSnapshot,
    FlopMeter,
    LazyBlock,
    LazyPlan,
    OracleMismatchError,
    TokenSequence,
    ValidationError,
    decode,
    extend,
    generate,
    oracle,
    oracle_full_generate,
    oracle_prefill,
    prefill,
    prune_visual_tokens,
    runtime,
)
from lazyattn.caches import CacheStore, PruneRecord, QCache
from lazyattn.planner import layer_anchors

from helpers import (
    HeadRecorder,
    gemm_nudged_at,
    make_model,
    random_plan,
    random_prompt,
    weight_block,
)


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


def assert_decode_matches_oracle(model, tokens, plan, store, spec, feed=FEED, decoded=()):
    """Decode a fixed token list after the ids `decoded`; every step's logits
    equal, bit for bit, the last row of the prune-aware oracle with the ids
    fed so far decoded after the prompt `tokens`."""
    decoded = list(decoded)
    for t in feed:
        decoded.append(t)
        ref = oracle_prefill(model, tokens, plan, prune=spec, decoded=decoded)[-1]
        assert np.array_equal(decode(model, store, t), ref)


@pytest.fixture(scope="module")
def prompt():
    return TokenSequence([3, 9, 2, 7, 5, 11, 13, 1], [1, 1, 1, 0, 0, 0, 0, 0])


def test_empty_plan_is_bitwise_standard(model, prompt):
    l_std, _ = prefill(model, prompt)
    l_gla, _ = prefill(model, prompt, LazyPlan(mode=GLA, n_layers=6))
    l_vla, _ = prefill(model, prompt, LazyPlan(mode=VLA, n_layers=6))
    assert np.array_equal(l_std, l_gla)
    assert np.array_equal(l_std, l_vla)


def test_empty_plan_decode_is_bitwise_standard(model, prompt):
    _, s_std = prefill(model, prompt)
    _, s_gla = prefill(model, prompt, LazyPlan(mode=GLA, n_layers=6))
    _, s_vla = prefill(model, prompt, LazyPlan(mode=VLA, n_layers=6))
    d_std = decode(model, s_std, 4)
    assert np.array_equal(d_std, decode(model, s_gla, 4))
    assert np.array_equal(d_std, decode(model, s_vla, 4))


def test_gla_lazy_attention_equals_anchor_bitwise(model, prompt):
    plan = two_block_plan(GLA)
    recorder = HeadRecorder()
    prefill(model, prompt, plan, capture=recorder)
    mats = recorder.layers
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
    ext = TokenSequence([*prompt.token_ids, 17], [*prompt.modality, 0])
    lf, _ = prefill(model, ext, plan)
    _, store = prefill(model, prompt, plan)
    dl = decode(model, store, 17)
    assert np.max(np.abs(lf[-1] - dl)) <= 1e-5


def test_vla_decode_consistency(model, prompt):
    plan = two_block_plan(VLA)
    ext = TokenSequence([*prompt.token_ids, 17], [*prompt.modality, 0])
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
            assert store.layers[lazy].keys.nbytes == 0
        assert store.layers[block.anchor].keys.nbytes > 0


def test_vla_lazy_layers_store_text_keys_only(model, prompt):
    plan = two_block_plan(VLA)
    _, store = prefill(model, prompt, plan)
    d = model.config.d_model
    for block in plan.blocks:
        for lazy in block.lazy_layers:
            assert store.layers[lazy].keys.nbytes == prompt.n_text * d * 4
    decode(model, store, 3)
    for block in plan.blocks:
        for lazy in block.lazy_layers:
            assert store.layers[lazy].keys.nbytes == (prompt.n_text + 1) * d * 4


@pytest.mark.parametrize(
    "what, shape", [("queries", (2, 3, 4)), ("attention", (2, 1, 5))], ids=["queries", "attention"]
)
def test_qcache_hands_its_slot_to_its_anchor_only(what, shape):
    """The one slot holds one anchor's queries or attention block, tagged
    with which, refuses every other anchor, and counts its bytes either way."""
    qcache = QCache()
    qcache.publish(1, np.ones(shape, dtype=np.float32), attention=what == "attention")
    assert qcache.read(1).shape == shape
    assert qcache.attention == (what == "attention")
    assert qcache.nbytes == qcache.peak_bytes == np.prod(shape) * 4
    with pytest.raises(ValidationError, match=f"holds layer 1's {what}"):
        qcache.read(4)


def test_qcache_lifecycle_and_bound(model, prompt):
    plan = two_block_plan(GLA)
    _, store = prefill(model, prompt, plan)
    d = model.config.d_model
    s = len(prompt)
    # released after prefill, but the peak saw the full anchor Q
    assert store.qcache.nbytes == 0
    assert store.qcache.rows is None
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


def test_qcache_peak_counts_decode_blocks_within_the_bound(model):
    """A one-token GLA prompt decoded for 24 steps: the last step's (2, 1,
    25) block, 200 B, lifts the peak past the prefill's 128 B of queries,
    and the peak stays within standard KV / (2N) after every step. VLA
    decode rows are text and publish nothing, so its peak stays at its
    prefill's."""
    tokens = TokenSequence([7], [1])
    _, std = prefill(model, tokens)
    stores = {mode: prefill(model, tokens, two_block_plan(mode))[1] for mode in (GLA, VLA)}
    prefill_peak = model.config.d_model * 4
    assert stores[GLA].qcache.peak_bytes == stores[VLA].qcache.peak_bytes == prefill_peak == 128
    N = model.config.n_layers
    for _ in range(24):
        for store in (std, *stores.values()):
            decode(model, store, 5)
        assert stores[GLA].qcache.peak_bytes <= std.kv_bytes() / (2 * N)
        assert stores[VLA].qcache.peak_bytes == prefill_peak
    assert stores[GLA].qcache.peak_bytes == 2 * 25 * 4 == 200


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_a_gla_decode_step_runs_no_scores_or_softmax_in_lazy_layers(model, prompt, mode, monkeypatch):
    """One decode step runs the scores GEMV and the softmax once per layer
    that computes its attention: under GLA every layer but the lazy ones,
    whose row and keys are their anchor's, and every layer otherwise."""
    plan = None if mode is None else two_block_plan(mode)
    logits, store = prefill(model, prompt, plan)
    d_head, n_keys = model.config.d_head, len(prompt) + 1
    assert n_keys != d_head  # so a scores GEMV's keys differ in shape from the values
    calls = {"scores": 0, "softmax": 0}
    real_matvec, real_softmax = runtime.matvec, runtime.masked_softmax_rows

    def matvec(a, b):
        calls["scores"] += b.shape[-2:] == (d_head, n_keys)
        return real_matvec(a, b)

    def softmax(*args):
        calls["softmax"] += 1
        return real_softmax(*args)

    monkeypatch.setattr(runtime, "matvec", matvec)
    monkeypatch.setattr(runtime, "masked_softmax_rows", softmax)
    decode(model, store, int(np.argmax(logits[-1])))
    L = model.config.n_layers
    computing = L - plan.n_lazy if mode == GLA else L
    assert calls == {"scores": computing, "softmax": computing}


def test_the_kept_attention_block_lives_within_one_decode_step(model, monkeypatch):
    """Under GLA a decode step's anchors publish their attention block for
    their lazy layers instead of their query row; a prefill and an
    extension publish queries and no block; every call releases the Q
    cache."""
    held = []
    real = QCache.publish

    def spy(self, anchor, rows, attention=False):
        held.append(("attention" if attention else "queries", anchor, rows.shape))
        real(self, anchor, rows, attention)

    monkeypatch.setattr(QCache, "publish", spy)
    plan = two_block_plan(GLA)
    tokens = random_prompt(np.random.default_rng(4), model.config.vocab_size, 70, 0.5)
    head = TokenSequence(tokens.token_ids[:64], tokens.modality[:64])
    tail = TokenSequence(tokens.token_ids[64:], tokens.modality[64:])
    n_heads, d_head = model.config.n_heads, model.config.d_head

    def released(store):
        q = store.qcache
        return q.anchor is None and q.rows is None and not q.attention

    _, store = prefill(model, head, plan, logits=False)
    assert released(store)
    assert held == [("queries", 1, (n_heads, 64, d_head)), ("queries", 4, (n_heads, 64, d_head))]
    held.clear()
    extend(model, store, tail)
    assert released(store)
    assert [name for name, *_ in held] == ["queries", "queries"]
    held.clear()
    for step in range(2):
        decode(model, store, 5)
        assert released(store)
        n_keys = len(tokens) + step + 1
        block = (n_heads, 1, n_keys)
        assert held == [("attention", 1, block), ("attention", 4, block)]
        held.clear()


def test_a_clone_taken_mid_generation_holds_no_kept_block(model, prompt):
    plan = two_block_plan(GLA)
    logits, store = prefill(model, prompt, plan)
    ids = generate(model, store, logits[-1], 3)
    clone = store.clone()
    assert clone.qcache.rows is None and not clone.qcache.attention
    for t in FEED:
        assert np.array_equal(decode(model, clone, t), decode(model, store, t))
    assert_decode_matches_oracle(model, prompt, plan, clone, None, decoded=ids + FEED)


@pytest.mark.parametrize(
    "blocks",
    [(LazyBlock(0, (1,)), LazyBlock(2, (3,))), (LazyBlock(1, (2,)), LazyBlock(3, (4, 5)))],
    ids=["adjacent-blocks", "block-ends-at-the-last-layer"],
)
@pytest.mark.parametrize("prune", [False, True], ids=["unpruned", "pruned"])
def test_gla_decode_inherits_exactly_past_the_buffer_reallocation(model, blocks, prune):
    """70 GLA decode steps, past step 65, where every buffer reallocates,
    equal the oracle bit for bit, on adjacent blocks, on a block that ends
    at the last layer, and after a prune."""
    plan = LazyPlan(mode=GLA, n_layers=6, blocks=list(blocks), epsilon=0.5)
    tokens = random_prompt(np.random.default_rng(6), model.config.vocab_size, 12, 0.5)
    capture = AttentionCapture()
    logits, store = prefill(model, tokens, plan, capture=capture)
    if prune:
        prune_visual_tokens(store, capture.snapshot, 1, 0.5)
        assert store.prune_record.removed
    capacity = store.layers[-1].values._buf.shape[1]
    ids, rows, last = [], [], logits[-1]
    for _ in range(70):
        ids.append(int(np.argmax(last)))
        last = decode(model, store, ids[-1])
        rows.append(last)
    assert store.layers[-1].values._buf.shape[1] > capacity
    ref = oracle_prefill(model, tokens, plan, prune=store.prune_record, decoded=ids)
    assert np.array_equal(np.vstack(rows), ref[len(tokens) :])


def test_plan_layer_count_mismatch_rejected(model, prompt):
    with pytest.raises(ValidationError):
        prefill(model, prompt, two_block_plan(GLA, n_layers=8))


@pytest.mark.parametrize(
    "other",
    [dict(n_layers=2, n_heads=2), dict(n_layers=4, n_heads=4)],
    ids=["fewer-layers", "more-heads"],
)
def test_decode_refuses_weights_of_another_config_before_touching_the_store(other):
    """A store prefilled on a 4-layer, 2-head model is refused by weights of
    another config, fewer layers or more heads of the same d_model, before
    any cache grows; generate refuses too."""
    built = make_model(n_layers=4, n_heads=2, seed=3)
    weights = make_model(**other, seed=3)
    prompt = TokenSequence(list(range(20)), [1] * 10 + [0] * 10)
    logits, store = prefill(built, prompt)
    decode(built, store, 7)

    def state():
        lengths = [(len(c.keys), len(c.values)) for c in store.layers]
        return store.seq_len, lengths

    before = state()
    with pytest.raises(ValidationError, match="config"):
        decode(weights, store, 7)
    with pytest.raises(ValidationError, match="config"):
        generate(weights, store, logits[-1], 2)
    assert state() == before == (21, [(21, 21)] * 4)


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
            assert len(cache.values) == kept
        else:
            assert len(cache.values) == len(prompt) + steps


def buffers(store):
    return [buf._buf for cache in store.layers for buf in (cache.keys, cache.values)]


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_first_decode_appends_in_place(model, prompt, mode):
    """The buffers keep headroom after a prefill and after a prune, so the
    next decode step appends to every K/V buffer in place; logical bytes
    count stored rows only."""
    plan = None if mode is None else two_block_plan(mode)
    capture = AttentionCapture()
    logits, store = prefill(model, prompt, plan, capture=capture)
    logits = logits[-1]
    for prune in (False, True):
        if prune:
            prune_visual_tokens(store, capture.snapshot, 0, 0.5)
            assert store.prune_record is not None
        before = buffers(store)
        logits = decode(model, store, int(np.argmax(logits)))
        assert all(a is b for a, b in zip(buffers(store), before, strict=True))
        rows = sum(len(cache.keys) + len(cache.values) for cache in store.layers)
        assert store.kv_bytes() == rows * model.config.d_model * 4


def test_prune_validation(model, prompt):
    capture = AttentionCapture()
    _, store = prefill(model, prompt, capture=capture)
    with pytest.raises(ValidationError):
        prune_visual_tokens(store, capture.snapshot, 2, 0.0)
    with pytest.raises(ValidationError):
        prune_visual_tokens(store, capture.snapshot, 2, 1.5)
    with pytest.raises(ValidationError):
        prune_visual_tokens(store, capture.snapshot, 99, 0.5)
    empty = CacheStore(model.config, None)
    with pytest.raises(ValidationError, match="prefilled store"):
        prune_visual_tokens(empty, capture.snapshot, 2, 0.5)


@pytest.mark.parametrize("layer", [1.5, True, np.float64(1.0), "1"])
def test_prune_refuses_a_non_integer_layer(model, prompt, layer):
    """A prune layer is an integer, as a token id is: 1.5 is not read as a
    float index, and True is not layer 1."""
    capture = AttentionCapture()
    _, store = prefill(model, prompt, two_block_plan(VLA), capture=capture)
    with pytest.raises(ValidationError, match="not an integer"):
        prune_visual_tokens(store, capture.snapshot, layer, 0.5)
    assert store.prune_record is None


@pytest.mark.parametrize("keep_ratio", ["0.5", True, np.True_, None, float("nan"), 0.0])
def test_prune_refuses_a_keep_ratio_that_is_no_number_in_range(model, prompt, keep_ratio):
    """keep_ratio is a number in (0, 1]: a string is refused, not compared,
    and True is not read as 1.0; the store is left as it was."""
    capture = AttentionCapture()
    _, store = prefill(model, prompt, two_block_plan(VLA), capture=capture)
    kv_bytes = store.kv_bytes()
    with pytest.raises(ValidationError, match="keep_ratio must be a number"):
        prune_visual_tokens(store, capture.snapshot, 1, keep_ratio)
    assert store.prune_record is None and store.kv_bytes() == kv_bytes


@pytest.mark.parametrize("steps", [2.5, True, np.float32(2.0), -1])
def test_generate_refuses_steps_that_are_not_a_count(model, prompt, steps):
    logits, store = prefill(model, prompt)
    with pytest.raises(ValidationError, match="steps must be (an integer|>= 0)"):
        generate(model, store, logits[-1], steps)
    assert store.seq_len == len(prompt)


@pytest.mark.parametrize("bad", ["first-row", "short", "matrix", "list", "none", "nan", "inf",
                                 "bool"])
def test_generate_refuses_last_logits_that_are_not_one_logits_row(bad):
    """generate refuses, before touching the store, last logits that are not
    a 1-D array of vocab_size finite numbers."""
    model = make_model(n_layers=2)
    prompt = random_prompt(np.random.default_rng(46), 96, length=10)
    logits, store = prefill(model, prompt)
    row = logits[-1]
    last = {"first-row": logits[:1], "short": row[:-1], "matrix": logits, "list": row.tolist(),
            "none": None, "nan": np.full_like(row, np.nan), "inf": np.where(row > 0, np.inf, row),
            "bool": row > 0}[bad]
    with pytest.raises(ValidationError, match="last_logits"):
        generate(model, store, last, 3)
    assert store.seq_len == len(prompt)


@pytest.mark.parametrize("other", ["empty", "longer-prompt"])
def test_prune_rejects_a_snapshot_of_another_prefill(model, prompt, other):
    """A snapshot must cover every layer of this store's prompt: an empty
    one, or one of a longer prompt, is refused before the store changes."""
    snapshot = AttentionSnapshot()
    if other == "longer-prompt":
        capture = AttentionCapture()
        prefill(model, random_prompt(np.random.default_rng(5), 96, length=40), capture=capture)
        snapshot = capture.snapshot
    _, store = prefill(model, prompt)
    before = store.kv_bytes()
    with pytest.raises(ValidationError, match="snapshot has"):
        prune_visual_tokens(store, snapshot, 1, 0.5)
    assert store.prune_record is None and store.kv_bytes() == before


def test_oracle_refuses_a_prune_inside_the_prompt(model, prompt):
    """A prune cuts a prefilled store, so the oracle refuses a record whose
    prompt_len is shorter than the prompt it is given."""
    capture = AttentionCapture()
    logits, store = prefill(model, prompt, capture=capture)
    prune_visual_tokens(store, capture.snapshot, 1, 0.5)
    spec = store.prune_record
    assert np.array_equal(oracle_prefill(model, prompt, prune=spec), logits)
    short = spec._replace(prompt_len=len(prompt) - 1)
    with pytest.raises(ValidationError, match="cuts a 8-token prompt"):
        oracle_prefill(model, prompt, prune=short)


@pytest.mark.parametrize(
    "edit",
    [
        dict(removed=(99,)),
        dict(removed=(1.5,)),
        dict(removed=(9,)),
        dict(removed=(1, 1)),
        dict(layer=7),
        dict(layer=-1),
        dict(prompt_len=10.5),
        dict(prompt_len="10"),
        dict(removed=None),
    ],
    ids=[
        "past-the-prompt", "float", "text-position", "repeated", "layer-past-model",
        "layer-negative", "fractional-prompt-len", "str-prompt-len", "removed-none",
    ],
)
def test_oracle_refuses_a_record_that_is_no_prune_of_the_prompt(edit):
    """A prune record removes distinct visual positions of the prompt after
    a layer of the model; the oracle refuses any other with ValidationError."""
    two_layers = make_model(n_layers=2, seed=22)
    tokens = TokenSequence(list(range(1, 11)), [1] * 5 + [0] * 5)
    record = PruneRecord(layer=0, removed=(1, 3), prompt_len=10)
    oracle_prefill(two_layers, tokens, prune=record, decoded=[4, 8])
    with pytest.raises(ValidationError, match="prune"):
        oracle_prefill(two_layers, tokens, prune=record._replace(**edit), decoded=[4, 8])


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
    assert len(store.layers[2].values) == len(prompt)
    assert len(store.layers[3].values) == len(prompt)  # V only, unpruned with anchor
    assert len(store.layers[5].values) < len(prompt)

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


@pytest.mark.parametrize("mode, layer", [(None, 5), (GLA, 4)], ids=["last-layer", "last-anchor"])
def test_a_prune_that_cuts_no_layer_records_nothing(model, mode, layer):
    """A prune at a layer that no layer's anchor exceeds, the last layer or
    the last block's anchor, cuts nothing: like keep_ratio=1 it returns
    every visual position and records nothing, so the store counts every
    visual row and can still be extended."""
    plan = None if mode is None else two_block_plan(mode)
    tokens = random_prompt(np.random.default_rng(9), model.config.vocab_size, 64, 0.5)
    capture = AttentionCapture()
    _, store = prefill(model, tokens, plan, capture=capture)
    before = store.kv_bytes()
    kept = prune_visual_tokens(store, capture.snapshot, layer, 0.5)
    assert kept == np.flatnonzero(tokens.modality).tolist()
    assert store.prune_record is None
    assert store.n_visual == tokens.n_visual
    assert store.kv_bytes() == before
    tail = TokenSequence([5, 17], [1, 0])
    _, untouched = prefill(model, tokens, plan)
    assert np.array_equal(extend(model, store, tail), extend(model, untouched, tail))


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
    assert_decode_matches_oracle(
        model, tokens, plan, store, spec, feed=FEED[3:] + FEED, decoded=FEED[:3]
    )


DECODE_PLANS = {
    "standard": None,
    "gla": two_block_plan(GLA),
    "vla": two_block_plan(VLA),
    "vla-anchor-0": LazyPlan(
        mode=VLA, n_layers=6, blocks=[LazyBlock(0, (1, 2)), LazyBlock(3, (4, 5))], epsilon=0.5
    ),
}


@pytest.mark.parametrize("prune_before", [None, 0, 3], ids=["no-prune", "prune-first", "prune-at-3"])
@pytest.mark.parametrize("layout", ["leading", "mid", "alternating"])
@pytest.mark.parametrize("plan_name", list(DECODE_PLANS))
def test_every_decode_step_equals_the_oracle_bit_for_bit(model, plan_name, layout, prune_before):
    """Each decode step's logits equal the last row of the oracle with the
    ids fed so far decoded after the prompt (and the store's prune record),
    bit for bit: before and after a prune before the first step or after
    three. Before the prune, the oracle with those ids as prompt rows, on
    prefill's kernels, differs on some step, so the check is not vacuous;
    after it, the oracle refuses prompt rows past the prune."""
    plan = DECODE_PLANS[plan_name]
    rng = np.random.default_rng(40)
    tokens = random_prompt(rng, 96, length=24, visual_fraction=0.5, layout=layout)
    capture = AttentionCapture()
    _, store = prefill(model, tokens, plan, capture=capture)
    fed, as_prompt = [], []
    for step, t in enumerate(FEED):
        if step == prune_before:
            prune_visual_tokens(store, capture.snapshot, 1, 0.5)
        fed.append(t)
        logits = decode(model, store, t)
        spec = store.prune_record
        ref = oracle_prefill(model, tokens, plan, prune=spec, decoded=fed)
        assert np.array_equal(logits, ref[-1]), step
        prompt_rows = TokenSequence(tokens.token_ids + tuple(fed),
                                    tokens.modality + (0,) * len(fed))
        if spec is None:
            as_prompt.append(np.array_equal(logits, oracle_prefill(model, prompt_rows, plan)[-1]))
        else:
            with pytest.raises(ValidationError, match="cuts a"):
                oracle_prefill(model, prompt_rows, plan, spec)
    assert (store.prune_record is None) == (prune_before is None)
    assert prune_before == 0 or not all(as_prompt)


@pytest.mark.parametrize("prune_at", [None, 0, 3], ids=["no-prune", "prune-first", "prune-at-3"])
@pytest.mark.parametrize("layout", ["leading", "mid", "alternating"])
@pytest.mark.parametrize("plan_name", list(DECODE_PLANS))
def test_one_oracle_pass_holds_every_step_of_a_generation(model, plan_name, layout, prune_at):
    """The rows of one oracle pass with a generation's ids decoded equal the
    last rows of the passes with the ids so far, bit for bit, and their
    argmax ids are oracle_full_generate's: with no prune, a prune at the
    prompt, and one three steps later."""
    plan = DECODE_PLANS[plan_name]
    tokens = random_prompt(
        np.random.default_rng(40), 96, length=24, visual_fraction=0.5, layout=layout
    )
    n, spec = len(tokens), None
    if prune_at is not None:
        capture = AttentionCapture()
        _, store = prefill(model, tokens, plan, capture=capture)
        prune_visual_tokens(store, capture.snapshot, 1, 0.5)
        spec = store.prune_record._replace(prompt_len=n + prune_at)
    ids = oracle_full_generate(model, tokens, 6, plan, prune=spec)
    one = oracle_prefill(model, tokens, plan, prune=spec, decoded=ids)
    assert one.shape[0] == n + len(ids)
    for i in range(len(ids) + 1):
        step = oracle_prefill(model, tokens, plan, prune=spec, decoded=ids[:i])
        assert np.array_equal(one[n - 1 + i], step[-1]), i
    assert np.argmax(one[n - 1 : -1], axis=1).tolist() == ids


def test_verify_case_runs_one_oracle_pass(model, monkeypatch):
    """verify_case checks a whole generation on one oracle_prefill with the
    ids decoded, and never reruns the oracle per step."""
    real, decoded = oracle.oracle_prefill, []

    def counted(*args, **kwargs):
        decoded.append(list(kwargs.get("decoded", ())))
        return real(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("verify_case reran the oracle per step")

    monkeypatch.setattr(oracle, "oracle_prefill", counted)
    monkeypatch.setattr(oracle, "oracle_full_generate", refused)
    tokens = random_prompt(
        np.random.default_rng(41), 96, length=24, visual_fraction=0.5, layout="alternating"
    )
    for plan in DECODE_PLANS.values():
        decoded.clear()
        oracle.verify_case(model, tokens, plan, steps=5)
        logits, store = prefill(model, tokens, plan)
        assert decoded == [generate(model, store, logits[-1], 5)]


def test_verify_case_reports_a_generated_id_the_oracle_did_not_pick(model, monkeypatch):
    """Where `generate` gives another id at step 1, replaying it keeps
    production equal to the oracle row for row, so only the argmax check
    catches it, and it names step 1."""
    real = oracle.generate

    def changed(weights, store, last_logits, steps):
        ids = real(weights, store, last_logits, steps)
        ids[1] = (ids[1] + 1) % weights.config.vocab_size
        return ids

    monkeypatch.setattr(oracle, "generate", changed)
    tokens = random_prompt(np.random.default_rng(43), 96, length=12, visual_fraction=0.5)
    with pytest.raises(OracleMismatchError, match="step 1: generated ids") as info:
        oracle.verify_case(model, tokens, two_block_plan(GLA), steps=3)
    assert info.value.case["step"] == 1


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda m, p: oracle_full_generate(m, p, 0), "steps must be >= 1"),
        (lambda m, p: oracle.verify_case(m, p, None, steps=0), "steps must be >= 1"),
    ],
    ids=["full-generate", "verify-case"],
)
def test_oracle_refuses_fewer_than_one_step(model, prompt, run, message):
    with pytest.raises(ValidationError, match=message):
        run(model, prompt)


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
    # products must go through their own kernel. The tracer's matmul flops
    # are the spy's sum of m*k*n, which must be the meter's 2-D products.
    real = runtime.matmul
    shapes, macs = [], []

    def spy(a, b):
        shapes.append((a.ndim, b.ndim))
        macs.append(a.shape[0] * a.shape[1] * b.shape[1])
        return real(a, b)

    monkeypatch.setattr(runtime, "matmul", spy)
    for plan in (None, two_block_plan(GLA), two_block_plan(VLA)):
        macs.clear()
        meter = FlopMeter()
        logits, store = prefill(model, prompt, plan, meter=meter)
        head_labels = ("attn_scores", "attn_wv")
        assert sum(macs) == sum(v for k, v in meter.macs.items() if k not in head_labels)
        decode(model, store, int(np.argmax(logits[-1])))
    assert shapes and all(s == (2, 2) for s in shapes)


def test_matmul_multiplies_only_by_weights(model, monkeypatch):
    """The matmul that runtime and oracle look up is a weight product, in
    production and in the oracle alike: attention calls kernels.matmul. A
    fused weight counts, and so does the column block a lazy layer runs on
    (wv, the Q|K columns of w_qkv)."""
    names = ("w_qkv", "wo", "w_gate_up", "w_down")
    weights = [model.lm_head] + [getattr(lw, name) for lw in model.layers for name in names]
    seen = []

    def spy(a, b, real=runtime.matmul):
        seen.append(any(b is w or b.base is w for w in weights))
        return real(a, b)

    monkeypatch.setattr(runtime, "matmul", spy)
    monkeypatch.setattr(oracle, "matmul", spy)
    tokens = long_prompt("alternating", 8)
    for plan in (None, two_block_plan(GLA), two_block_plan(VLA)):
        capture = AttentionCapture()
        logits, store = prefill(model, tokens, plan, capture=capture)
        prune_visual_tokens(store, capture.snapshot, 1, 0.5)
        oracle_full_generate(model, tokens, 2, plan, prune=store.prune_record)
    assert seen and all(seen)


def test_oracle_takes_only_the_prune_record_from_caches():
    """The oracle is an independent reference: it reads its layer map from
    the plan, not from the production cache module."""
    tree = ast.parse(inspect.getsource(oracle))
    from_caches, modules = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("caches"):
            from_caches += [alias.name for alias in node.names]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules += [alias.name for alias in node.names]
    assert from_caches == ["PruneRecord"]
    assert not any(name.endswith("caches") for name in modules)


# A prompt that is all visual but its last token, so every VLA lazy layer
# owns exactly one row, and a one-token prompt. The model is wider than the
# module's, since at d_model 32 a lone GEMV and a padded tile can agree.
@pytest.fixture(scope="module")
def wide_model():
    return make_model(n_layers=6, d_model=64, d_ff=128, seed=21)


ONE_OWN_ROW = TokenSequence([(7 * i + 3) % 96 for i in range(24)], [1] * 23 + [0])
ONE_TOKEN = TokenSequence([42], [0])


@pytest.mark.parametrize("tokens", [ONE_OWN_ROW, ONE_TOKEN], ids=["one-own-row", "one-token"])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_prefill_runs_the_tile_kernel_whatever_its_row_count(wide_model, tokens, mode):
    """The phase picks the kernel, not the row count: a product of one row
    in prefill gets the tile bits the oracle computes it with."""
    plan = None if mode is None else two_block_plan(mode)
    logits, _ = prefill(wide_model, tokens, plan)
    assert np.array_equal(logits, oracle_prefill(wide_model, tokens, plan))


@pytest.mark.parametrize("length", [63, 64, 65, 129])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_prefill_meets_the_oracle_across_tile_boundaries(wide_model, length, mode):
    """Prompts that fill, just miss or just pass whole 64-row weight tiles
    (and attention blocks) get the oracle's bits."""
    rng = np.random.default_rng(length)
    tokens = random_prompt(rng, 96, length=length, visual_fraction=0.5, layout="mid")
    plan = None if mode is None else two_block_plan(mode)
    logits, _ = prefill(wide_model, tokens, plan)
    assert np.array_equal(logits, oracle_prefill(wide_model, tokens, plan))


@pytest.mark.parametrize("n_own", [1, 65])
def test_vla_lazy_layers_owning_1_or_65_rows_meet_the_oracle(wide_model, n_own):
    """A VLA lazy layer projects its own (text) rows alone: one row in a
    padded tile, or one full 64-row tile and one row. Prefill equals the
    oracle bit for bit, and after a prune greedy decode emits the
    prune-aware oracle's ids."""
    length = 129
    rng = np.random.default_rng(n_own)
    tokens = random_prompt(
        rng, 96, length=length, visual_fraction=(length - n_own) / length, layout="alternating"
    )
    assert tokens.n_text == n_own
    plan = two_block_plan(VLA)
    capture = AttentionCapture()
    logits, store = prefill(wide_model, tokens, plan, capture=capture)
    assert np.array_equal(logits, oracle_prefill(wide_model, tokens, plan))
    prune_visual_tokens(store, capture.snapshot, 1, 0.5)
    spec = store.prune_record
    assert np.array_equal(logits, oracle_prefill(wide_model, tokens, plan, prune=spec))
    ids = generate(wide_model, store, logits[-1], 3)
    assert ids == oracle_full_generate(wide_model, tokens, 3, plan, prune=spec)


# More than two blocks of runtime.CHUNK query rows.
LONG = 150


def long_prompt(layout: str, seed: int) -> TokenSequence:
    rng = np.random.default_rng(seed)
    return random_prompt(rng, 96, length=LONG, visual_fraction=0.5, layout=layout)


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_failed_tile_probe_falls_back_to_the_gemv(model, prompt, mode, monkeypatch):
    """When the run-time probes find tiles that do not hold their
    invariant, matmul runs the GEMV, and prefill still equals
    the oracle bit for bit."""
    from lazyattn import kernels

    monkeypatch.setattr(kernels, "_probe", lambda tile, k, n: False)
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 32), dtype=np.float32)
    b = rng.standard_normal((48, 32), dtype=np.float32).T
    assert np.array_equal(kernels.matmul(a, b), kernels.matvec(a, np.ascontiguousarray(b)))
    a1, b1 = a[None], b[None]
    assert np.array_equal(kernels.matmul(a1, b1), kernels.matvec(a1, b1.copy()))
    plan = None if mode is None else two_block_plan(mode)
    for tokens in (prompt, ONE_OWN_ROW, long_prompt("mid", 4)):
        logits, _ = prefill(model, tokens, plan)
        assert np.array_equal(logits, oracle_prefill(model, tokens, plan))
    widths = {key[0] for key in kernels._TILES_HOLD}
    assert widths == {kernels.WIDE} and not any(kernels._TILES_HOLD.values())


@pytest.mark.parametrize("layout", ["leading", "alternating"])
@pytest.mark.parametrize("bad, good", [(2, 3), (3, 2)], ids=["own-rows", "prompt"])
def test_a_gemm_probe_failing_at_one_row_count_keeps_vla_prefill_exact(
    model, layout, bad, good, monkeypatch
):
    """A VLA lazy layer projects Q|K on its 75 own rows (128 padded), the
    oracle on all 150 prompt rows (192 padded). When the one-GEMM probe fails
    at one of these counts only, that count runs the 64-row tiles, the other
    keeps one GEMM, and prefill still equals the oracle bit for bit."""
    from lazyattn import kernels

    wide = kernels.WIDE
    gemm_nudged_at(monkeypatch, bad * wide)
    tokens = long_prompt(layout, 5)
    assert tokens.n_text == 75
    plan = two_block_plan(VLA)
    logits, _ = prefill(model, tokens, plan)
    assert np.array_equal(logits, oracle_prefill(model, tokens, plan))
    holds = {rows: hold for (rows, _, _), hold in kernels._TILES_HOLD.items() if rows > wide}
    assert holds == {bad * wide: False, good * wide: True}


# ---------------------------------------------------------------------------
# A layer's role picks its products' columns
# ---------------------------------------------------------------------------


def block_name(config, name, start, width):
    """A weight block's name as the layer step states it."""
    d = config.d_model
    return {
        ("w_qkv", 0, 3 * d): "w_qkv",
        ("w_qkv", 0, 2 * d): "w_qkv[:, :2d]",
        ("w_qkv", 2 * d, d): "wv",
    }.get((name, start, width), name if start == 0 else f"{name}[:, {start}:{start + width}]")


@pytest.mark.parametrize("layout", ["leading", "alternating", "all-text"])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_a_layers_role_picks_the_weights_of_its_projections(model, mode, layout, monkeypatch):
    """In prefill and in decode alike, a layer that is its own anchor
    projects Q, K and V on its whole w_qkv; a GLA lazy layer projects V
    alone, on wv; a VLA lazy layer projects V on wv and its own rows' Q and
    K on w_qkv[:, :2d], even where it owns every row (an all-text prompt,
    every decode step); every MLP runs on the whole w_gate_up."""
    seen = {}
    for kernel in ("matmul", "matvec"):

        def spy(a, b, kernel=kernel, real=getattr(runtime, kernel)):
            block = weight_block(model, b)
            if block is not None:
                l, *columns = block
                seen.setdefault((kernel, l), set()).add(block_name(model.config, *columns))
            return real(a, b)

        monkeypatch.setattr(runtime, kernel, spy)
    rng = np.random.default_rng(14)
    visual_fraction = 0.0 if layout == "all-text" else 0.5
    shape = "alternating" if layout == "all-text" else layout
    tokens = random_prompt(rng, 96, length=40, visual_fraction=visual_fraction, layout=shape)
    plan = None if mode is None else two_block_plan(mode)
    logits, store = prefill(model, tokens, plan)
    generate(model, store, logits[-1], 2)

    rest = {"wo", "w_gate_up", "w_down"}
    lazy = {GLA: {"wv"}, VLA: {"wv", "w_qkv[:, :2d]"}}
    anchors = layer_anchors(plan, model.config.n_layers)
    for (kernel, l), names in seen.items():
        expected = {"w_qkv"} if anchors[l] == l else lazy[mode]
        assert names == expected | rest, (kernel, l)
    assert set(seen) == {(k, l) for k in ("matmul", "matvec") for l in range(len(anchors))}


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_no_contract_rests_on_fused_column_bits(model, mode, monkeypatch):
    """A product on a whole w_qkv or w_gate_up that gives its last column
    block other bits than the product on that block's view breaks nothing:
    with every such product one ulp up in its last block, in production and
    oracle alike, prefill, each decode step and the generated ids still
    equal the oracle bit for bit."""
    tokens = long_prompt("alternating", 9)
    plan = None if mode is None else two_block_plan(mode)
    clean, _ = prefill(model, tokens, plan)
    fused = [
        (getattr(lw, name), getattr(lw, name).shape[1] // parts)
        for lw in model.layers
        for name, parts in (("w_qkv", 3), ("w_gate_up", 2))
    ]
    for module in (runtime, oracle):
        for kernel in ("matmul", "matvec"):

            def nudged(a, b, real=getattr(module, kernel)):
                out = real(a, b)
                for w, width in fused:
                    if b is w:
                        out[:, -width:] = np.nextafter(out[:, -width:], np.float32(np.inf))
                return out

            monkeypatch.setattr(module, kernel, nudged)
    logits, store = prefill(model, tokens, plan)
    assert not np.array_equal(logits, clean)
    assert np.array_equal(logits, oracle_prefill(model, tokens, plan))
    twin = store.clone()
    assert_decode_matches_oracle(model, tokens, plan, store, None, feed=FEED[:3])
    ids = generate(model, twin, logits[-1], 3)
    assert ids == oracle_full_generate(model, tokens, 3, plan)


# ---------------------------------------------------------------------------
# Block-causal prefill: prompts over several attention blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["mid", "alternating"])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_long_prompt_meets_the_oracle_contracts(model, layout, mode):
    """Over several blocks prefill equals the oracle bit for bit, and greedy
    decode emits the oracle's ids."""
    assert LONG > 2 * runtime.CHUNK
    tokens = long_prompt(layout, 5)
    plan = None if mode is None else two_block_plan(mode)
    logits, store = prefill(model, tokens, plan)
    assert np.array_equal(logits, oracle_prefill(model, tokens, plan))
    ids = generate(model, store, logits[-1], 4)
    assert ids == oracle_full_generate(model, tokens, 4, plan)


def test_long_pruned_prompt_meets_the_prune_aware_oracle(model):
    tokens = long_prompt("alternating", 6)
    plan = two_block_plan(VLA)
    capture = AttentionCapture()
    logits, store = prefill(model, tokens, plan, capture=capture)
    assert np.array_equal(logits, oracle_prefill(model, tokens, plan))
    prune_visual_tokens(store, capture.snapshot, 2, 0.5)
    spec = store.prune_record
    ids = generate(model, store, logits[-1], 4)
    assert ids == oracle_full_generate(model, tokens, 4, plan, prune=spec)


@pytest.mark.parametrize("chunk", [32, 64, 128])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_block_causal_capture_matches_one_pass(model, chunk, mode, monkeypatch):
    """Attention in blocks of `chunk` rows, the last one padded, gives the
    logits of one pass over the full square within float32 rounding, and its
    full-matrix capture puts every block's rows and columns where that pass
    puts them, with exact zeros above the diagonal. Each block's rows are
    metered against the keys up to its end."""
    tokens = long_prompt("mid", 7)
    plan = None if mode is None else two_block_plan(mode)
    square = HeadRecorder()
    monkeypatch.setattr(runtime, "CHUNK", LONG)
    one_pass, _ = prefill(model, tokens, plan, capture=square)
    blocks = HeadRecorder()
    monkeypatch.setattr(runtime, "CHUNK", chunk)
    meter = FlopMeter()
    logits, _ = prefill(model, tokens, plan, capture=blocks, meter=meter)
    assert np.allclose(logits, one_pass, rtol=0, atol=1e-5)
    assert len(blocks.layers) == len(square.layers)
    for a, b in zip(blocks.layers, square.layers):
        assert a.shape == b.shape == (model.config.n_heads, LONG, LONG)
        assert np.allclose(a, b, rtol=0, atol=1e-6)
        assert not np.triu(a, 1).any()
        assert np.allclose(a.sum(axis=-1), 1, rtol=0, atol=1e-5)
    pairs = sum((i // chunk + 1) * chunk for i in range(LONG))
    assert meter.macs["attn_scores"] == 6 * model.config.d_model * pairs


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_no_contract_rests_on_length_invariance(mode, monkeypatch):
    """Attention products whose bits move with their key count break
    nothing: with every attention tile product scaled by a factor that
    depends on its key count, in production and oracle alike, prefill and
    the generated ids still equal the oracle's, and `prefill(tokens[:L])` is
    still `prefill(tokens)[:L]` for L = 100 of 200 tokens and 500 of 640
    (past 448 keys), since a block's shapes depend on its place alone."""
    from lazyattn import kernels

    model = make_model()
    rng = np.random.default_rng(8)
    plan = None if mode is None else two_block_plan(mode)
    cases = [
        (random_prompt(rng, 96, length=s, visual_fraction=0.5, layout="mid"), length)
        for s, length in ((640, 500), (200, 100))
    ]
    clean = [prefill(model, tokens, plan)[0] for tokens, _ in cases]
    real = kernels._tiles

    def nudged(a, b, tile):
        out = real(a, b, tile)
        if a.ndim == 3:  # an attention product: d_head and the key count
            out *= np.float32(1 + max(a.shape[-1], b.shape[-1]) * 2.0**-20)
        return out

    monkeypatch.setattr(kernels, "_tiles", nudged)
    for (tokens, length), before in zip(cases, clean):
        logits, store = prefill(model, tokens, plan)
        assert not np.array_equal(logits, before)
        assert np.array_equal(logits, oracle_prefill(model, tokens, plan))
        prefix = TokenSequence(tokens.token_ids[:length], tokens.modality[:length])
        assert np.array_equal(prefill(model, prefix, plan)[0], logits[:length])
    ids = generate(model, store, logits[-1], 3)
    assert ids == oracle_full_generate(model, tokens, 3, plan)


@pytest.mark.parametrize("prune", [False, True], ids=["whole", "pruned"])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
@pytest.mark.parametrize("s", [3200, 4000, 4096])
def test_a_long_prompt_runs_in_blocks_and_meets_the_oracle(s, mode, prune):
    """At 3,200, 4,000 and 4,096 tokens, widths where attention tiles were
    found to lose length invariance on OpenBLAS 0.3.31, prefill still runs
    CHUNK-row blocks, the last one at 4,000 padded, and its rows and two
    decode steps equal one oracle pass bit for bit, with or without a
    prune."""
    chunk = runtime.CHUNK
    model = make_model(n_layers=2, n_heads=1, d_model=64)
    rng = np.random.default_rng(11)
    tokens = random_prompt(rng, 96, length=s, visual_fraction=0.5, layout="mid")
    plan = None if mode is None else LazyPlan(mode=mode, n_layers=2, blocks=[LazyBlock(0, (1,))])
    meter, capture = FlopMeter(), AttentionCapture()
    logits, store = prefill(model, tokens, plan, capture=capture, meter=meter)
    pairs = sum((i // chunk + 1) * chunk for i in range(s))
    assert meter.macs["attn_scores"] == 2 * 64 * pairs
    if prune:
        prune_visual_tokens(store, capture.snapshot, 0, 0.5)
    ids = generate(model, store.clone(), logits[-1], 2)
    rows = np.vstack([logits] + [decode(model, store, t) for t in ids])
    ref = oracle_prefill(model, tokens, plan, prune=store.prune_record, decoded=ids)
    assert np.array_equal(rows, ref)
    assert ids == np.argmax(ref[s - 1 : -1], axis=1).tolist()


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_a_capture_gets_blocks_that_tile_the_calls_rows_in_order(model, mode):
    """A capture gets each layer's blocks in row order, CHUNK rows each but
    the padded last, each over the keys up to its last row: on a 150-token
    prefill, and on an extension of its first 128 rows whose one block
    equals the prefill's last bit for bit. `AttentionCapture()` keeps the
    head mean of the last block's last row."""
    tokens = long_prompt("alternating", 12)
    plan = None if mode is None else two_block_plan(mode)
    chunk, n_heads = runtime.CHUNK, model.config.n_heads
    whole, last = HeadRecorder(), AttentionCapture()
    prefill(model, tokens, plan, capture=whole)
    prefill(model, tokens, plan, capture=last)
    head, tail = (TokenSequence(tokens.token_ids[a:b], tokens.modality[a:b])
                  for a, b in ((0, 128), (128, LONG)))
    part, store = HeadRecorder(), CacheStore(model.config, plan)
    extend(model, store, head)
    extend(model, store, tail, capture=part)
    for recorder, first in ((whole, 0), (part, 128)):
        shapes = [(n_heads, min(chunk, LONG - i), min(i + chunk, LONG))
                  for i in range(first, LONG, chunk)]
        assert [[b.shape for b in blocks] for blocks in recorder.blocks] == [shapes] * 6
    for blocks, (extended_block,), row in zip(whole.blocks, part.blocks, last.snapshot.last_rows,
                                              strict=True):
        assert np.array_equal(blocks[-1], extended_block)
        assert np.array_equal(row, blocks[-1][:, -1].sum(axis=0, dtype=np.float64) / n_heads)


def test_a_last_row_capture_holds_at_most_one_attention_block():
    """At 1,024 tokens a prefill with `AttentionCapture()` peaks at most one
    (n_heads, CHUNK, s) float32 block above a prefill without a capture."""
    import tracemalloc

    model = make_model(n_layers=2, n_heads=2, d_model=32)
    s = 1024
    tokens = random_prompt(np.random.default_rng(13), 96, length=s, visual_fraction=0.5)
    prefill(model, tokens)  # every tile shape probed and the rotary table built

    def peak(capture):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        prefill(model, tokens, capture=capture)
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        bare, captured = peak(None), peak(AttentionCapture())
    finally:
        tracemalloc.stop()
    assert captured - bare <= 2 * runtime.CHUNK * s * 4


def test_a_full_matrix_capture_holds_no_whole_attention_array():
    """At 1,024 tokens a prefill with `AttentionCapture(full_matrix=True)`
    peaks at most one (n_heads, CHUNK, s) float32 block above a prefill
    without a capture and the float64 head means it keeps, CHUNK rows per
    block over the keys up to their last, so no layer's (n_heads, s, s)
    float32 attention is ever held."""
    import tracemalloc

    model = make_model(n_layers=2, n_heads=2, d_model=32)
    s = 1024
    tokens = random_prompt(np.random.default_rng(13), 96, length=s, visual_fraction=0.5)
    prefill(model, tokens)  # every tile shape probed and the rotary table built
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prefill(model, tokens)
        bare = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        prefill(model, tokens, capture=AttentionCapture(full_matrix=True))
        captured = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    chunk, config = runtime.CHUNK, model.config
    kept = config.n_layers * sum(chunk * min(i + chunk, s) * 8 for i in range(0, s, chunk))
    assert captured - bare <= kept + config.n_heads * chunk * s * 4


# ---------------------------------------------------------------------------
# One store that grows: extend continues a prefilled store at a CHUNK boundary
# ---------------------------------------------------------------------------


def extended(model, tokens, plan, cuts, capture=None):
    """The prompt run as one prefill of its first rows and one extension
    per later cut; returns the concatenated logits, the store and the
    meter that saw every extension."""
    meter, store = FlopMeter(), CacheStore(model.config, plan)
    bounds = [0, *cuts, len(tokens)]
    parts = [
        extend(model, store, TokenSequence(tokens.token_ids[a:b], tokens.modality[a:b]),
               capture=capture, meter=meter)
        for a, b in zip(bounds, bounds[1:])
    ]
    return np.vstack(parts), store, meter


EXTENSION_CUTS = {1: [], 2: [128], 3: [64, 192], 4: [64, 128, 192]}


@pytest.mark.parametrize("n_extensions", list(EXTENSION_CUTS))
@pytest.mark.parametrize("layout", ["leading", "mid", "alternating"])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_extensions_give_one_shot_prefill_bit_for_bit(model, mode, layout, n_extensions):
    """A 230-token prompt (half visual, so a cut at 64 splits its visual
    span in every layout) prefilled in one to four CHUNK-aligned extensions:
    the logits, concatenated, equal one-shot prefill's, as do the meter's
    FLOPs and the KV bytes; the Q cache peaks no higher; and four decode
    steps after the last extension equal one oracle pass with their ids
    decoded."""
    plan = None if mode is None else two_block_plan(mode)
    tokens = random_prompt(np.random.default_rng(42), 96, length=230, visual_fraction=0.5,
                           layout=layout)
    assert 0 < sum(tokens.modality[:64]) and 0 < sum(tokens.modality[64:128])
    meter = FlopMeter()
    one_shot, whole = prefill(model, tokens, plan, meter=meter)
    logits, store, parts_meter = extended(model, tokens, plan, EXTENSION_CUTS[n_extensions])
    assert np.array_equal(logits, one_shot)
    assert parts_meter.flops_by_label() == meter.flops_by_label()
    assert store.kv_bytes() == whole.kv_bytes()
    assert store.qcache.peak_bytes <= whole.qcache.peak_bytes
    assert store.seq_len == store.n_prompt == len(tokens)
    ids = generate(model, store.clone(), logits[-1], 4)
    rows = np.vstack([logits] + [decode(model, store, t) for t in ids])
    assert np.array_equal(rows, oracle_prefill(model, tokens, plan, decoded=ids))


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_a_long_prompt_extended_at_3840_equals_one_shot_prefill(mode):
    """At 4,096 tokens, where attention tiles were found to lose length
    invariance, a prefill of 3,840 rows extended by 256 gives one-shot
    prefill's logits, FLOPs and KV bytes, and the decode steps after it."""
    model = make_model(n_layers=2, n_heads=1, d_model=64)
    tokens = random_prompt(np.random.default_rng(11), 96, length=4096, visual_fraction=0.5,
                           layout="mid")
    plan = None if mode is None else LazyPlan(mode=mode, n_layers=2, blocks=[LazyBlock(0, (1,))])
    meter = FlopMeter()
    one_shot, whole = prefill(model, tokens, plan, meter=meter)
    logits, store, parts_meter = extended(model, tokens, plan, [3840])
    assert np.array_equal(logits, one_shot)
    assert parts_meter.flops_by_label() == meter.flops_by_label()
    assert store.kv_bytes() == whole.kv_bytes()
    for t in (5, 17):
        assert np.array_equal(decode(model, store, t), decode(model, whole, t))


def test_extend_refuses_a_store_it_cannot_continue_and_leaves_it_as_it_was(model):
    """extend refuses a store that another config built, a pruned store, a
    store that holds decoded rows (even at a CHUNK multiple) and a store of
    another length than a CHUNK multiple, before touching it."""
    rng = np.random.default_rng(43)
    tokens = random_prompt(rng, 96, length=128, visual_fraction=0.5)
    more = random_prompt(rng, 96, length=10, visual_fraction=0.5)
    capture = AttentionCapture()
    _, pruned = prefill(model, tokens, capture=capture)
    prune_visual_tokens(pruned, capture.snapshot, 1, 0.5)
    _, decoded = prefill(model, TokenSequence(tokens.token_ids[:63], tokens.modality[:63]))
    decode(model, decoded, 7)
    cases = [
        (make_model(n_layers=6, n_heads=4, seed=21), prefill(model, tokens)[1], "config"),
        (model, pruned, "pruned"),
        (model, decoded, "decoded rows"),
        (model, prefill(model, TokenSequence(tokens.token_ids[:100], tokens.modality[:100]))[1],
         "multiple of 64 rows, not 100"),
    ]
    for weights, store, message in cases:
        before = store.seq_len, [(len(c.keys), len(c.values)) for c in store.layers]
        with pytest.raises(ValidationError, match=message):
            extend(weights, store, more)
        assert (store.seq_len, [(len(c.keys), len(c.values)) for c in store.layers]) == before


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_extend_and_decode_refuse_bad_ids_before_touching_the_store(model, mode):
    """One check in `_forward` serves both phases: extend and decode refuse
    an id outside the vocabulary, and decode an id that is no integer,
    before the store's rows, mask, K/V or Q-cache peak change."""
    plan = None if mode is None else two_block_plan(mode)
    tokens = random_prompt(np.random.default_rng(45), 96, length=64, visual_fraction=0.5)
    _, store = prefill(model, tokens, plan)

    def state():
        return (store.seq_len, store.n_prompt, store.modality.tolist(), store.qcache.peak_bytes,
                [(len(c.keys), len(c.values)) for c in store.layers])

    before = state()
    refusals = [
        (lambda: extend(model, store, TokenSequence([3, 96], [1, 0])), "outside vocabulary"),
        (lambda: extend(model, store, TokenSequence([-1, 3], [0, 0])), "outside vocabulary"),
        (lambda: decode(model, store, 96), "outside vocabulary"),
        (lambda: decode(model, store, -1), "outside vocabulary"),
        (lambda: decode(model, store, 2.5), "not an integer"),
        (lambda: decode(model, store, True), "not an integer"),
    ]
    for refused, message in refusals:
        with pytest.raises(ValidationError, match=message):
            refused()
        assert state() == before


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_a_leading_visual_split_stays_slices_as_the_store_grows(model, mode):
    """With one leading visual span, the store's split stays two slices
    after a prefill and three decode steps, and after a prefill in two
    extensions, so merged_keys copies blocks rather than gathering rows."""
    plan = None if mode is None else two_block_plan(mode)
    tokens = random_prompt(np.random.default_rng(44), 96, length=150, visual_fraction=0.5)
    logits, store = prefill(model, tokens, plan)
    generate(model, store, logits[-1], 3)
    _, grown, _ = extended(model, tokens, plan, [64])
    for s in (store, grown):
        assert isinstance(s.split.shared, slice) and isinstance(s.split.own, slice)
        assert all(c.split is s.split for c in s.layers)
    assert store.split.n_shared + store.split.n_own == len(tokens) + 3


def test_a_capture_on_an_extension_records_its_rows_and_drives_a_prune(model):
    """A full-matrix capture on an extension gets that extension's rows
    against every key; a last-row capture on the last extension ranks a
    prune as one on a one-shot prefill does."""
    tokens = random_prompt(np.random.default_rng(45), 96, length=150, visual_fraction=0.5)
    plan = two_block_plan(VLA)
    head, tail = (TokenSequence(tokens.token_ids[a:b], tokens.modality[a:b])
                  for a, b in ((0, 128), (128, 150)))
    full, store = HeadRecorder(), CacheStore(model.config, plan)
    extend(model, store, head)
    extend(model, store, tail, capture=full)
    assert [m.shape for m in full.layers] == [(model.config.n_heads, 22, 150)] * 6
    one_shot, last = AttentionCapture(), AttentionCapture()
    logits, whole = prefill(model, tokens, plan, capture=one_shot)
    store = CacheStore(model.config, plan)
    extend(model, store, head)
    extend(model, store, tail, capture=last)
    kept = prune_visual_tokens(store, last.snapshot, 1, 0.5)
    assert kept == prune_visual_tokens(whole, one_shot.snapshot, 1, 0.5)
    ids = generate(model, store, logits[-1], 4)
    assert ids == generate(model, whole, logits[-1], 4)


def split_rows(split):
    """A RowSplit's shared and own rows as lists."""
    rows = np.arange(split.n_shared + split.n_own)
    return rows[split.shared].tolist(), rows[split.own].tolist()


@pytest.mark.parametrize("layout", ["leading", "mid"])
@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_calls_without_logits_leave_the_store_a_full_call_leaves(model, mode, layout):
    """A prefill and an extension with logits=False return no logits and
    leave K, V, the splits, seq_len, n_prompt and kv_bytes as logits=True
    does, bit for bit; three decode steps, or one more CHUNK-aligned
    extension, then give the logits=True store's logits."""
    plan = None if mode is None else two_block_plan(mode)
    rng = np.random.default_rng(47)
    tokens = random_prompt(rng, 96, length=192, visual_fraction=0.5, layout=layout)
    more = random_prompt(rng, 96, length=40, visual_fraction=0.5, layout=layout)
    head, tail = (TokenSequence(tokens.token_ids[a:b], tokens.modality[a:b])
                  for a, b in ((0, 128), (128, 192)))
    _, full = prefill(model, head, plan)
    extend(model, full, tail)
    nothing, bare = prefill(model, head, plan, logits=False)
    assert nothing is None and extend(model, bare, tail, logits=False) is None
    assert (bare.seq_len, bare.n_prompt, bare.kv_bytes()) == (full.seq_len, full.n_prompt,
                                                             full.kv_bytes())
    assert np.array_equal(bare.modality, full.modality)
    assert split_rows(bare.split) == split_rows(full.split)
    for got, want in zip(bare.layers, full.layers):
        assert np.array_equal(got.keys.data, want.keys.data)
        assert np.array_equal(got.values.data, want.values.data)
        assert split_rows(got.split) == split_rows(want.split)
    assert np.array_equal(extend(model, bare.clone(), more), extend(model, full.clone(), more))
    for t in FEED[:3]:
        assert np.array_equal(decode(model, bare, t), decode(model, full, t))
