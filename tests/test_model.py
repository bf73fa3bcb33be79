import json
import os
import stat
import tracemalloc

import numpy as np
import pytest

from lazyattn import (
    AttentionCapture,
    DimensionMismatchError,
    ManifestError,
    ModelConfig,
    TokenSequence,
    TruncatedWeightsError,
    ValidationError,
    decode,
    init_synthetic_model,
    load_checkpoint,
    prefill,
    read_sequences_jsonl,
    save_checkpoint,
    write_sequences_jsonl,
)
from lazyattn.kernels import matmul, rms_norm, silu
from lazyattn.model import atomic_write
from lazyattn.rng import splitmix64

from helpers import make_model


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
        ).validate()
    with pytest.raises(ValidationError):
        init_synthetic_model(
            ModelConfig(n_layers=0, n_heads=2, d_model=16, d_head=8, d_ff=32, vocab_size=10),
            seed=0,
        )


def test_checkpoint_roundtrip_bytes(tmp_path):
    w = make_model(n_layers=3, seed=4)
    first = str(tmp_path / "first")
    second = str(tmp_path / "second")
    save_checkpoint(w, first)
    loaded = load_checkpoint(first)
    save_checkpoint(loaded, second)
    assert _checkpoint_bytes(first) == _checkpoint_bytes(second)


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


def test_jsonl_roundtrip(tmp_path):
    path = str(tmp_path / "seqs.jsonl")
    seqs = [TokenSequence([1, 2, 3], [1, 0, 0]), TokenSequence([5], [0])]
    write_sequences_jsonl(path, seqs)
    back = read_sequences_jsonl(path)
    assert [s.token_ids for s in back] == [[1, 2, 3], [5]]
    assert [s.modality for s in back] == [[1, 0, 0], [0]]


def test_jsonl_bad_line_reports_position(tmp_path):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write('{"tokens": [1, 2], "modality": [0, 1]}\n')
        fh.write('{"tokens": [1, 2], "modality": [0]}\n')
    with pytest.raises(ValidationError, match=":2:"):
        read_sequences_jsonl(path)


def test_prefill_rejects_out_of_vocab(small_model):
    bad = TokenSequence([small_model.config.vocab_size], [0])
    with pytest.raises(ValidationError):
        prefill(small_model, bad)
    with pytest.raises(ValidationError):
        prefill(small_model, TokenSequence([], []))


def test_single_token_forward_matches_hand_computation():
    # With one position, attention is a no-op mix: the head output IS the
    # value row. Re-derive the whole forward with the raw kernels.
    w = make_model(n_layers=1, seed=6)
    c = w.config
    tokens = TokenSequence([7], [0])
    logits, _ = prefill(w, tokens)

    lw = w.layers[0]
    x = w.embedding[np.asarray([7])]
    xn = rms_norm(x, lw.attn_gain, c.norm_eps)
    v = matmul(xn, lw.wv)  # attention output == V row at s=1
    x1 = x + matmul(v, lw.wo)
    hn = rms_norm(x1, lw.mlp_gain, c.norm_eps)
    x2 = x1 + matmul(silu(matmul(hn, lw.w_gate)) * matmul(hn, lw.w_up), lw.w_down)
    expected = matmul(rms_norm(x2, w.final_gain, c.norm_eps), w.lm_head)
    assert np.array_equal(logits, expected)


def test_attention_rows_are_distributions(small_model):
    capture = AttentionCapture(per_head=True)
    tokens = TokenSequence([3, 1, 4, 1, 5, 9], [1, 1, 0, 0, 0, 0])
    prefill(small_model, tokens, capture=capture)
    for head_mats in capture.snapshot.head_matrices:
        for a in head_mats:
            assert np.allclose(a.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(a >= 0.0)
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
        assert np.max(np.abs(lf[t - 1] - lp[-1])) <= 1e-5


def test_prefill_decode_consistency(small_model):
    base = TokenSequence([3, 1, 4, 1, 5], [1, 1, 0, 0, 0])
    ext = TokenSequence(base.token_ids + [9], base.modality + [0])
    lf, _ = prefill(small_model, ext)
    _, store = prefill(small_model, base)
    dl = decode(small_model, store, 9)
    assert np.max(np.abs(lf[-1] - dl)) <= 1e-5


def test_decode_bookkeeping_and_determinism(small_model):
    tokens = TokenSequence([3, 1, 4], [1, 0, 0])
    _, store = prefill(small_model, tokens)
    assert all(c.stored_len == 3 for c in store.layers)
    clone = store.clone()
    l1 = decode(small_model, store, 5)
    l2 = decode(small_model, clone, 5)
    assert np.array_equal(l1, l2)
    assert all(c.stored_len == 4 for c in store.layers)
    decode(small_model, store, 6)
    assert all(c.stored_len == 5 for c in store.layers)


def test_decode_requires_prefill(small_model):
    from lazyattn.caches import CacheStore

    empty = CacheStore(small_model.config, None, TokenSequence([1], [0]))
    with pytest.raises(ValidationError):
        decode(small_model, empty, 3)


def test_standard_layer_kv_byte_accounting(small_model):
    tokens = TokenSequence([3, 1, 4, 1, 5], [1, 1, 0, 0, 0])
    _, store = prefill(small_model, tokens)
    d = small_model.config.d_model
    for key_bytes, value_bytes in store.layer_kv_bytes():
        assert key_bytes + value_bytes == 2 * 5 * d * 4
