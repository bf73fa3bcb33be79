import dataclasses
import hashlib
import json
import os
import re
import stat
import tracemalloc

import numpy as np
import pytest

from lazyattn import (
    GLA,
    VLA,
    AttentionCapture,
    DimensionMismatchError,
    LazyBlock,
    LazyPlan,
    ManifestError,
    ModelConfig,
    OracleMismatchError,
    SimilarityProfile,
    TokenSequence,
    TruncatedWeightsError,
    ValidationError,
    bench_decode,
    decode,
    init_synthetic_model,
    load_checkpoint,
    oracle,
    prefill,
    read_sequences_jsonl,
    save_checkpoint,
    synthetic_prompt,
    write_sequences_jsonl,
)
from lazyattn.kernels import matmul, rms_norm, silu
from lazyattn.oracle import oracle_full_generate, oracle_prefill
from lazyattn.planner import plan_random
from lazyattn.model import atomic_write
from lazyattn.rng import splitmix64

from helpers import HeadRecorder, make_model, random_prompt


def _checkpoint_bytes(path):
    with open(os.path.join(path, "model.json"), "rb") as fh:
        manifest = fh.read()
    with open(os.path.join(path, "model.bin"), "rb") as fh:
        blob = fh.read()
    return manifest, blob


def test_splitmix64_known_vector():
    # Canonical first outputs of splitmix64 seeded with 0.
    out = splitmix64(0, 0, 2)
    assert int(out[0]) == 0xE220A8397B1DCDAF
    assert int(out[1]) == 0x6E789E6AA1B965F4


def test_synthetic_model_determinism(tmp_path):
    w1 = make_model(seed=11)
    w2 = make_model(seed=11)
    save_checkpoint(w1, str(tmp_path / "a"))
    save_checkpoint(w2, str(tmp_path / "b"))
    assert _checkpoint_bytes(str(tmp_path / "a")) == _checkpoint_bytes(str(tmp_path / "b"))


def test_synthetic_model_seed_sensitivity():
    w1 = make_model(seed=1)
    w2 = make_model(seed=2)
    assert not np.array_equal(w1.embedding, w2.embedding)


def test_invalid_config_rejected():
    with pytest.raises(ValidationError):
        ModelConfig(
            n_layers=2, n_heads=3, d_model=100, d_head=33, d_ff=32, vocab_size=10
        )
    with pytest.raises(ValidationError):
        init_synthetic_model(
            ModelConfig(n_layers=0, n_heads=2, d_model=16, d_head=8, d_ff=32, vocab_size=10),
            seed=0,
        )
    with pytest.raises(ValidationError, match="d_head must be even"):
        ModelConfig(n_layers=1, n_heads=2, d_model=6, d_head=3, d_ff=8, vocab_size=10)


def test_weights_validate_refuses_a_misshapen_tensor():
    w = make_model(n_layers=2, seed=4)
    w.validate()
    w.final_gain = np.ones(w.config.d_model + 1, dtype=np.float32)
    with pytest.raises(ValidationError, match="tensor final_gain has shape"):
        w.validate()


CONFIG = dict(n_layers=2, n_heads=2, d_model=16, d_head=8, d_ff=32, vocab_size=96)
PROMPT = TokenSequence([5, 9, 1, 40], [1, 1, 0, 0])

# Non-integer counts, seeds and integer fields: each is refused with
# ValidationError, neither accepted nor left to raise a raw TypeError.
NOT_COUNTS = {
    "full-generate-steps-float": lambda w: oracle_full_generate(w, PROMPT, 2.5),
    "full-generate-steps-bool": lambda w: oracle_full_generate(w, PROMPT, True),
    "bench-repeats-float": lambda w: bench_decode(w, None, 8, 2, repeats=1.5),
    "bench-context-float": lambda w: bench_decode(w, None, context_len=10.5, steps=2, repeats=1),
    "prompt-length-float": lambda w: synthetic_prompt(96, 2.5, 1),
    "config-n_layers-float": lambda w: ModelConfig(**{**CONFIG, "n_layers": 2.5}),
    "config-vocab-bool": lambda w: ModelConfig(**{**CONFIG, "vocab_size": True}),
    "plan-block-floats": lambda w: LazyPlan(GLA, 2, blocks=[LazyBlock(0.0, (1.0,))]),
    "plan-n_layers-float": lambda w: LazyPlan(GLA, n_layers=2.0),
    "random-n_layers-float": lambda w: plan_random(8.0, [2], 1),
    "random-span-float": lambda w: plan_random(8, [2.0], 1),
    "random-seed-float": lambda w: plan_random(8, [2], 1.5),
    "profile-n_samples-float": lambda w: SimilarityProfile(3, 1.5, np.zeros((3, 3))),
}


@pytest.mark.parametrize("build", NOT_COUNTS.values(), ids=NOT_COUNTS.keys())
def test_non_integer_counts_and_fields_are_refused(small_model, build):
    """Every count, seed and integer field goes through one integer rule,
    which raises ValidationError (PlanError for a plan's own rules)."""
    with pytest.raises(ValidationError):
        build(small_model)


def test_configs_plans_and_profiles_cannot_change_after_they_are_built():
    """Each is checked once, when built: its fields are frozen, a plan holds
    its blocks as a tuple, and a profile holds a read-only copy of S."""
    S = np.zeros((2, 2))
    profile = SimilarityProfile(2, 1, S)
    plan = LazyPlan(GLA, 4, blocks=[LazyBlock(0, (1,))])
    assert plan.blocks == (LazyBlock(0, (1,)),)
    edits = [
        (ModelConfig(**CONFIG), "n_layers", 3),
        (plan, "n_layers", 8),
        (plan.blocks[0], "anchor", 2),
        (profile, "n_samples", 0),
        (profile, "S", S),
    ]
    for built, name, value in edits:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, value)
    with pytest.raises(ValueError, match="read-only"):
        profile.S[0, 1] = 0.5
    S[0, 1] = S[1, 0] = 0.5
    assert not profile.S.any()


@pytest.mark.parametrize(
    "draw, message",
    [(lambda: splitmix64(0, 0, -1), "count must be non-negative")],
    ids=["negative-count"],
)
def test_rng_refuses_impossible_draws(draw, message):
    with pytest.raises(ValueError, match=message):
        draw()


@pytest.mark.parametrize(
    "length, visual_fraction, message",
    [(0, 0.5, "length must be >= 1"), (4, 1.5, "visual_fraction must be in")],
    ids=["empty", "fraction-above-one"],
)
def test_synthetic_prompt_refuses_bad_arguments(length, visual_fraction, message):
    with pytest.raises(ValidationError, match=message):
        synthetic_prompt(10, length, seed=0, visual_fraction=visual_fraction)


def test_checkpoint_roundtrip_bytes(tmp_path):
    w = make_model(n_layers=3, seed=4)
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    save_checkpoint(w, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert _checkpoint_bytes(first) == _checkpoint_bytes(second)


def test_a_config_of_numpy_scalars_round_trips_as_python_numbers(tmp_path):
    """A config stores the ints `require_int` returns and its floats as
    floats, so a model built from numpy scalars saves and loads."""
    i = np.int64
    config = ModelConfig(
        n_layers=i(1), n_heads=i(2), d_model=i(16), d_head=i(8), d_ff=i(32),
        vocab_size=i(20), rope_theta=np.float32(500.0), norm_eps=np.float32(1e-5),
    )
    assert all(type(v) in (int, float) for v in dataclasses.asdict(config).values())
    path = str(tmp_path / "ckpt")
    save_checkpoint(init_synthetic_model(config, 0), path)
    assert load_checkpoint(path).config == config


def test_benchmark_checkpoint_bytes_are_unchanged(tmp_path):
    """Fused storage changes no checkpoint byte: the benchmark's model (8
    layers, 4 heads, d_model 256, d_ff 512, vocab 512, seed 0) saves to the
    same files as when every tensor was its own array."""
    config = ModelConfig(
        n_layers=8, n_heads=4, d_model=256, d_head=64, d_ff=512, vocab_size=512
    )
    path = str(tmp_path / "ckpt")
    save_checkpoint(init_synthetic_model(config, 0), path)
    manifest, blob = _checkpoint_bytes(path)
    assert hashlib.sha256(blob).hexdigest() == (
        "b6a7dd7441d582d3bca59a62c8219190054cc0f4fbb5592655ecec5c45a9aef4"
    )
    assert hashlib.sha256(manifest).hexdigest() == (
        "f678ab69d8ae642024a8bab27f35544143387d14da040c2c69d187a5c6bb47ef"
    )


def test_fused_weights_hold_the_named_tensors_as_column_views():
    """wq/wk/wv are w_qkv's column thirds and w_gate/w_up w_gate_up's
    halves; assigning one copies into its columns, keeps the fused array,
    and prefill (still equal to the oracle) computes with the new values."""
    w = make_model(n_layers=2, seed=8)
    c = w.config
    lw = w.layers[1]
    fused = lw.w_qkv
    for name, i in (("wq", 0), ("wk", 1), ("wv", 2)):
        assert np.shares_memory(getattr(lw, name), fused)
        assert np.array_equal(getattr(lw, name), fused[:, i * c.d_model : (i + 1) * c.d_model])
    assert np.array_equal(lw.w_up, lw.w_gate_up[:, c.d_ff :])
    tokens = TokenSequence([5, 9, 1, 40, 2, 7], [1, 1, 1, 0, 0, 0])
    plan = LazyPlan(mode=VLA, n_layers=2, blocks=[LazyBlock(0, (1,))])
    before, _ = prefill(w, tokens, plan)
    rng = np.random.default_rng(8)
    wq = rng.standard_normal((c.d_model, c.d_model), dtype=np.float32) * np.float32(0.2)
    w_up = rng.standard_normal((c.d_model, c.d_ff), dtype=np.float32) * np.float32(0.2)
    lw.wq, lw.w_up = wq, w_up
    assert lw.w_qkv is fused and np.array_equal(fused[:, : c.d_model], wq)
    assert np.array_equal(lw.w_gate_up[:, c.d_ff :], w_up)
    after, _ = prefill(w, tokens, plan)
    assert not np.array_equal(after, before)
    assert np.array_equal(after, oracle_prefill(w, tokens, plan))
    with pytest.raises(ValidationError):
        lw.wk = wq[:, :-2]


def test_load_checkpoint_holds_about_one_model(tmp_path):
    """The loader reads each tensor straight into its place, so its peak
    traced memory is one model plus a tensor, not the file and the model."""
    w = make_model(n_layers=4, d_model=128, d_ff=256, vocab_size=256, seed=6)
    path = str(tmp_path / "ckpt")
    save_checkpoint(w, path)
    model_bytes = sum(a.nbytes for _, a in w.named_tensors())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * model_bytes
    for (_, a), (_, b) in zip(w.named_tensors(), loaded.named_tensors(), strict=True):
        assert np.array_equal(a, b)


def test_save_checkpoint_holds_one_tensor_at_a_time(tmp_path):
    """The writer writes each tensor from its own buffer, so its peak traced
    memory is a small share of the model, not a model-sized blob."""
    w = make_model(n_layers=4, d_model=128, d_ff=256, vocab_size=256, seed=6)
    model_bytes = sum(a.nbytes for _, a in w.named_tensors())
    tracemalloc.start()
    try:
        save_checkpoint(w, str(tmp_path / "ckpt"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * model_bytes
    loaded = load_checkpoint(str(tmp_path / "ckpt"))
    for (_, a), (_, b) in zip(w.named_tensors(), loaded.named_tensors(), strict=True):
        assert np.array_equal(a, b)


def test_checkpoint_truncated_blob(tmp_path):
    w = make_model(n_layers=2, seed=4)
    path = str(tmp_path / "ckpt")
    save_checkpoint(w, path)
    blob_path = os.path.join(path, "model.bin")
    with open(blob_path, "rb") as fh:
        data = fh.read()
    with open(blob_path, "wb") as fh:
        fh.write(data[:-16])
    with pytest.raises(TruncatedWeightsError):
        load_checkpoint(path)


def test_atomic_write_keeps_old_file_and_never_shares_a_temp(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    atomic_write(str(target), b"old")

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        atomic_write(str(target), b"new")
    monkeypatch.undo()
    assert target.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]

    temps = []
    real_replace = os.replace

    def recording_replace(src, dst):
        temps.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    atomic_write(str(target), "first")
    atomic_write(str(target), "second")
    monkeypatch.undo()
    assert len(set(temps)) == 2
    assert all(os.path.dirname(t) == str(tmp_path) for t in temps)
    assert target.read_text(encoding="utf-8") == "second"

    # A temp file made by tempfile.mkstemp would be 0600 whatever the umask.
    old_umask = os.umask(0o022)
    try:
        atomic_write(str(target), b"x")
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(os.stat(target).st_mode) == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)


def test_checkpoint_dimension_mismatch(tmp_path):
    w = make_model(n_layers=2, seed=4)
    path = str(tmp_path / "ckpt")
    save_checkpoint(w, path)
    manifest_path = os.path.join(path, "model.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["config"]["d_model"] = 64  # no longer matches the stored shapes
    manifest["config"]["d_head"] = 32
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(DimensionMismatchError):
        load_checkpoint(path)


def test_checkpoint_huge_layer_count_fails_before_allocating(tmp_path):
    # The tensor count is compared before any per-layer list is built, so a
    # tiny manifest cannot make the loader allocate in proportion to n_layers.
    w = make_model(n_layers=1, seed=4)
    path = str(tmp_path / "ckpt")
    save_checkpoint(w, path)
    manifest_path = os.path.join(path, "model.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["config"]["n_layers"] = 200_000
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_checkpoint_malformed_manifest(tmp_path):
    w = make_model(n_layers=2, seed=4)
    path = str(tmp_path / "ckpt")
    save_checkpoint(w, path)
    with open(os.path.join(path, "model.json"), "w") as fh:
        fh.write("{not json")
    with pytest.raises(ManifestError):
        load_checkpoint(path)


def test_token_sequence_validation():
    with pytest.raises(ValidationError):
        TokenSequence([1, 2, 3], [0, 1])
    with pytest.raises(ValidationError):
        TokenSequence([1], [2])
    with pytest.raises(ValidationError, match="modality"):
        TokenSequence([1, 2], None)
    with pytest.raises(ValidationError, match="token_ids"):
        TokenSequence(None, [0])


@pytest.mark.parametrize(
    "flag", [1.0, True, np.float64(1.0), "1"], ids=["float", "bool", "numpy-float", "str"]
)
def test_non_integer_modality_flags_are_refused(flag):
    """A flag is a Python or numpy integer 0 or 1, as a token id is an
    integer: a float, bool or string equal to 1 is refused, not kept as given."""
    with pytest.raises(ValidationError, match="modality flags must be 0 or 1"):
        TokenSequence([1, 2], [0, flag])


def test_numpy_integer_modality_flags_are_accepted():
    tokens = TokenSequence([1, 2], [np.int64(1), np.int32(0)])
    assert tokens.n_visual == 1 and tokens.n_text == 1


def test_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "seqs.jsonl")
    seqs = [TokenSequence([1, 2, 3], [1, 0, 0]), TokenSequence([5], [0])]
    write_sequences_jsonl(path, seqs)
    back = read_sequences_jsonl(path)
    assert [s.token_ids for s in back] == [(1, 2, 3), (5,)]
    assert [s.modality for s in back] == [(1, 0, 0), (0,)]


def test_jsonl_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "seqs.jsonl"
    path.write_text('\n{"tokens": [1, 2]}\n  \n\n{"tokens": [5]}\n\n', encoding="utf-8")
    assert [s.token_ids for s in read_sequences_jsonl(str(path))] == [(1, 2), (5,)]


def test_jsonl_bad_line_reports_position(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"tokens": [1, 2], "modality": [0, 1]}\n')
        fh.write('{"tokens": [1, 2], "modality": [0]}\n')
    with pytest.raises(ValidationError, match=":2:"):
        read_sequences_jsonl(path)


def test_jsonl_empty_record_is_refused_with_its_position(tmp_path):
    """A record of no ids is refused as the file is read, naming its line,
    not later by prefill without the file's name."""
    path = str(tmp_path / "empty.jsonl")
    with open(path, "w") as fh:
        fh.write('{"tokens": [1, 2]}\n{"tokens": []}\n')
    message = re.escape(f"{path}:2: token sequence must be non-empty")
    with pytest.raises(ValidationError, match=message):
        read_sequences_jsonl(path)


def test_a_built_sequence_cannot_change(small_model):
    """A sequence is checked once, when built, so nothing can later set a
    flag of 2 or make its two fields of unequal length under prefill."""
    tokens = TokenSequence([5, 9, 1, 40], [1, 1, 0, 0])
    edits = [
        lambda: tokens.modality.__setitem__(0, 2),
        lambda: tokens.token_ids.__setitem__(0, 7),
        lambda: tokens.modality.append(0),
        lambda: tokens.token_ids.pop(),
        lambda: setattr(tokens, "modality", [2, 1, 0, 0]),
        lambda: setattr(tokens, "token_ids", [5, 9, 1]),
    ]
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()
    assert tokens == TokenSequence([5, 9, 1, 40], [1, 1, 0, 0])
    _, store = prefill(small_model, tokens)
    assert store.modality.tolist() == [True, True, False, False] and store.seq_len == 4


def test_a_sequence_of_numpy_ids_holds_python_ints(small_model, tmp_path, monkeypatch):
    """Ids and flags given as numpy integers are stored as Python ints, so
    the sequence writes as JSON Lines and reads back equal, and a mismatch
    report's case (the CLI's repro line) dumps as JSON."""
    built = [
        TokenSequence(np.arange(3, 9), np.array([1, 1, 0, 0, 0, 0])),
        TokenSequence([np.int64(4), np.int32(7)], [np.int64(1), np.int8(0)]),
    ]
    for tokens in built:
        assert isinstance(tokens.token_ids, tuple) and isinstance(tokens.modality, tuple)
        assert {type(v) for v in (*tokens.token_ids, *tokens.modality)} == {int}
    path = str(tmp_path / "numpy.jsonl")
    write_sequences_jsonl(path, built)
    assert read_sequences_jsonl(path) == built

    real = oracle.oracle_prefill

    def perturbed(*args, **kwargs):
        logits = real(*args, **kwargs).copy()
        logits[0, 0] += np.float32(1.0)
        return logits

    monkeypatch.setattr(oracle, "oracle_prefill", perturbed)
    with pytest.raises(OracleMismatchError) as info:
        oracle.verify_case(small_model, built[0], None, steps=2)
    case = json.loads(json.dumps(info.value.case))
    assert case["tokens"] == list(range(3, 9)) and case["modality"] == [1, 1, 0, 0, 0, 0]


def test_equal_sequences_compare_and_hash_equal():
    """A sequence is a value: built from lists, tuples or numpy arrays of
    the same ids and flags, it is equal and hashes equal, so it can key a
    cache; another id or flag makes it differ."""
    same = [
        TokenSequence([3, 1, 4], [1, 0, 0]),
        TokenSequence((3, 1, 4), (1, 0, 0)),
        TokenSequence(np.array([3, 1, 4]), [np.int64(1), 0, 0]),
    ]
    assert all(t == same[0] and hash(t) == hash(same[0]) for t in same)
    assert len(set(same)) == 1
    assert TokenSequence([3, 1, 4], [0, 0, 0]) != same[0]
    assert TokenSequence([3, 1, 5], [1, 0, 0]) != same[0]


def test_prefill_rejects_out_of_vocab(small_model):
    bad = TokenSequence([small_model.config.vocab_size], [0])
    with pytest.raises(ValidationError):
        prefill(small_model, bad)
    with pytest.raises(ValidationError):
        prefill(small_model, TokenSequence([], []))


NOT_IDS = [
    pytest.param(2.7, id="float"),
    pytest.param(np.float32(3.0), id="numpy-float"),
    pytest.param(True, id="bool"),
    pytest.param(np.bool_(True), id="numpy-bool"),
    pytest.param("3", id="str"),
    pytest.param(None, id="none"),
]


@pytest.mark.parametrize("bad", NOT_IDS)
def test_non_integer_token_ids_are_refused(small_model, bad):
    """prefill, decode and the oracle refuse an id that is not an integer,
    rather than truncating it or reading a bool as 0 or 1."""
    prompt = TokenSequence([2, 5], [0, 0])
    for run in (prefill, oracle_prefill):
        with pytest.raises(ValidationError, match="not an integer"):
            run(small_model, TokenSequence([bad, 5], [0, 0]))
    with pytest.raises(ValidationError, match="not an integer"):
        oracle_prefill(small_model, prompt, decoded=[bad])
    _, store = prefill(small_model, prompt)
    with pytest.raises(ValidationError, match="not an integer"):
        decode(small_model, store, bad)
    assert store.seq_len == 2


def test_numpy_integer_token_ids_are_accepted(small_model):
    ids = [2, 5, 7]
    as_numpy = [np.int64(t) for t in ids]
    logits, store = prefill(small_model, TokenSequence(ids, [0, 0, 0]))
    np_logits, np_store = prefill(small_model, TokenSequence(as_numpy, [0, 0, 0]))
    assert np.array_equal(logits, np_logits)
    assert np.array_equal(decode(small_model, store, 4), decode(small_model, np_store, np.int64(4)))
    ref = oracle_prefill(small_model, TokenSequence(ids, [0, 0, 0]), decoded=[4])
    np_ref = oracle_prefill(small_model, TokenSequence(as_numpy, [0, 0, 0]), decoded=[np.int64(4)])
    assert np.array_equal(ref, np_ref)


def test_single_token_forward_matches_hand_computation():
    # With one position, attention is a no-op mix: the head output IS the
    # value row. Re-derive the whole forward with the raw kernels, on the
    # products a standard layer runs: Q|K|V and gate|up whole.
    w = make_model(n_layers=1, seed=6)
    c = w.config
    tokens = TokenSequence([7], [0])
    logits, _ = prefill(w, tokens)

    lw = w.layers[0]
    x = w.embedding[np.asarray([7])]
    xn = rms_norm(x, lw.attn_gain, c.norm_eps)
    v = matmul(xn, lw.w_qkv)[:, 2 * c.d_model :]  # attention output == V row at s=1
    x1 = x + matmul(v, lw.wo)
    hn = rms_norm(x1, lw.mlp_gain, c.norm_eps)
    gate_up = matmul(hn, lw.w_gate_up)
    x2 = x1 + matmul(silu(gate_up[:, : c.d_ff]) * gate_up[:, c.d_ff :], lw.w_down)
    expected = matmul(rms_norm(x2, w.final_gain, c.norm_eps), w.lm_head)
    assert np.array_equal(logits, expected)


def test_attention_rows_are_distributions(small_model):
    recorder = HeadRecorder()
    tokens = TokenSequence([3, 1, 4, 1, 5, 9], [1, 1, 0, 0, 0, 0])
    prefill(small_model, tokens, capture=recorder)
    for head_mats in recorder.layers:
        for a in head_mats:
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(a >= 0.0)
    capture = AttentionCapture()
    prefill(small_model, tokens, capture=capture)
    for row in capture.snapshot.last_rows:
        assert abs(float(np.sum(row)) - 1.0) <= 1e-6


def test_causality_suffix_change_is_bitwise(small_model):
    a = TokenSequence([3, 1, 4, 1, 5, 9, 2, 6], [1, 1, 0, 0, 0, 0, 0, 0])
    b = TokenSequence([3, 1, 4, 1, 77, 88, 90, 12], [1, 1, 0, 0, 0, 0, 0, 0])
    la, _ = prefill(small_model, a)
    lb, _ = prefill(small_model, b)
    assert np.array_equal(la[:4], lb[:4])


def test_causality_prefix_oracle(small_model):
    full = TokenSequence([3, 1, 4, 1, 5, 9, 2, 6], [1, 1, 0, 0, 0, 0, 0, 0])
    lf, _ = prefill(small_model, full)
    for t in (1, 3, 5):
        prefix = TokenSequence(full.token_ids[:t], full.modality[:t])
        lp, _ = prefill(small_model, prefix)
        assert np.array_equal(lf[:t], lp)


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_prefill_is_prefix_invariant(small_model, mode):
    """prefill(tokens[:L]) is prefill(tokens)[:L] bit for bit, for prefixes
    inside, at and across the attention blocks: a prompt row's attention
    shapes are fixed by its block's place, the last block padded, whatever
    the prompt's length."""
    s = 200
    rng = np.random.default_rng(4)
    tokens = random_prompt(rng, small_model.config.vocab_size, s, 0.5, layout="mid")
    plan = None if mode is None else LazyPlan(
        mode=mode, n_layers=6, blocks=[LazyBlock(1, (2, 3)), LazyBlock(4, (5,))]
    )
    full, _ = prefill(small_model, tokens, plan)
    for L in sorted({*range(1, s, 6), 63, 64, 65, 127, 128, 129}):
        prefix = TokenSequence(tokens.token_ids[:L], tokens.modality[:L])
        logits, _ = prefill(small_model, prefix, plan)
        assert np.array_equal(logits, full[:L]), L


def test_prefill_decode_consistency(small_model):
    base = TokenSequence([3, 1, 4, 1, 5], [1, 1, 0, 0, 0])
    ext = TokenSequence([*base.token_ids, 9], [*base.modality, 0])
    lf, _ = prefill(small_model, ext)
    _, store = prefill(small_model, base)
    dl = decode(small_model, store, 9)
    assert np.max(np.abs(lf[-1] - dl)) <= 1e-5


def test_decode_bookkeeping_and_determinism(small_model):
    tokens = TokenSequence([3, 1, 4], [1, 0, 0])
    _, store = prefill(small_model, tokens)
    assert all(len(c.values) == 3 for c in store.layers)
    clone = store.clone()
    l1 = decode(small_model, store, 5)
    l2 = decode(small_model, clone, 5)
    assert np.array_equal(l1, l2)
    assert all(len(c.values) == 4 for c in store.layers)
    decode(small_model, store, 6)
    assert all(len(c.values) == 5 for c in store.layers)


def test_decode_requires_prefill(small_model):
    from lazyattn.caches import CacheStore

    empty = CacheStore(small_model.config, None)
    with pytest.raises(ValidationError):
        decode(small_model, empty, 3)


def test_standard_layer_kv_byte_accounting(small_model):
    tokens = TokenSequence([3, 1, 4, 1, 5], [1, 1, 0, 0, 0])
    _, store = prefill(small_model, tokens)
    d = small_model.config.d_model
    for layer in store.layers:
        assert layer.keys.nbytes + layer.values.nbytes == 2 * 5 * d * 4
