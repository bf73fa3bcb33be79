import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lazyattn import (
    AttentionCapture,
    AttentionSnapshot,
    SimilarityProfile,
    TokenSequence,
    ValidationError,
    js_divergence,
    load_profile,
    prefill,
    profile_model,
    profiler,
    runtime,
    save_profile,
)
from lazyattn.profiler import LN2, adjacent_profile_csv
from lazyattn.viz import render_heatmap_svg

from helpers import make_model, padded, random_prompt

LN = math.log


def random_distribution(rng, n):
    p = rng.random(n) + 1e-12
    return p / p.sum()


def brute_force_js(p, q):
    # Straight from the definition, no vector ops.
    m = [(pi + qi) / 2.0 for pi, qi in zip(p, q)]

    def kl(a, b):
        total = 0.0
        for ai, bi in zip(a, b):
            if ai > 0:
                total += ai * LN(ai / bi)
        return total

    return 0.5 * (kl(p, m) + kl(q, m))


def test_js_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        js_divergence([0.5, 0.5], [0.5, 0.25, 0.25])
    with pytest.raises(ValidationError):
        js_divergence([0.9, 0.3], [0.5, 0.5])
    with pytest.raises(ValidationError):
        js_divergence([1.5, -0.5], [0.5, 0.5])
    with pytest.raises(ValidationError):
        js_divergence([math.nan, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        js_divergence(1.0, 1.0)


def test_js_unit_values():
    assert js_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0
    assert abs(js_divergence([1.0, 0.0], [0.0, 1.0]) - LN2) < 1e-12


def test_js_symmetry_bounds_and_brute_force_agreement():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = random_distribution(rng, n)
        q = random_distribution(rng, n)
        js = js_divergence(p, q)
        assert abs(js - js_divergence(q, p)) < 1e-12
        assert -1e-9 <= js <= LN2 + 1e-9
        assert abs(js - brute_force_js(p.tolist(), q.tolist())) < 1e-9


def test_profile_single_layer_model():
    w = make_model(n_layers=1, seed=3)
    profile = profile_model(w, [TokenSequence([1, 2, 3], [0, 0, 0])])
    assert profile.S.shape == (1, 1)
    assert profile.S[0, 0] == 0.0


def test_profile_identical_layers_have_zero_divergence():
    # Zero layer 0's residual contributions (W_O and the MLP down-projection)
    # so layer 1 sees the same input, and copy layer 0's Q/K path into
    # layer 1: the two layers then produce identical attention rows.
    w = make_model(n_layers=2, seed=5)
    l0, l1 = w.layers
    l0.wo = np.zeros_like(l0.wo)
    l0.w_down = np.zeros_like(l0.w_down)
    l1.wq = l0.wq.copy()
    l1.wk = l0.wk.copy()
    l1.attn_gain = l0.attn_gain.copy()
    corpus = [
        TokenSequence([4, 8, 15, 16], [1, 1, 0, 0]),
        TokenSequence([23, 42, 7], [0, 0, 0]),
    ]
    profile = profile_model(w, corpus)
    assert profile.S[0, 1] <= 1e-6


def test_profile_mean_update_bound():
    w = make_model(n_layers=3, seed=6)
    corpus = [
        TokenSequence([1, 2, 3, 4], [1, 0, 0, 0]),
        TokenSequence([5, 6, 7], [0, 0, 0]),
        TokenSequence([8, 9, 10, 11, 12], [1, 1, 0, 0, 0]),
    ]
    prev = profile_model(w, corpus[:2])
    grown = profile_model(w, corpus)
    bound = LN2 / 3 + 1e-12
    assert np.max(np.abs(grown.S - prev.S)) <= bound


def test_profile_determinism_and_validation():
    w = make_model(n_layers=2, seed=8)
    corpus = [TokenSequence([1, 2, 3], [1, 0, 0])]
    p1 = profile_model(w, corpus)
    p2 = profile_model(w, corpus)
    assert np.array_equal(p1.S, p2.S)
    with pytest.raises(ValidationError):
        profile_model(w, [])
    with pytest.raises(ValidationError):
        profile_model(w, [TokenSequence([1], [0])])


def test_full_matrix_profile_runs():
    w = make_model(n_layers=2, seed=9)
    corpus = [TokenSequence([1, 2, 3, 4], [1, 0, 0, 0])]
    last_only = profile_model(w, corpus)
    full = profile_model(w, corpus, full_matrix=True)
    assert full.S.shape == last_only.S.shape
    assert 0.0 <= full.S[0, 1] <= LN2 + 1e-9


def per_row_reference_profile(weights, corpus, full_matrix):
    """One js_divergence call per causal row (the row's visible prefix),
    averaged over the rows, then over the corpus."""
    n = weights.config.n_layers
    S = np.zeros((n, n))
    for seq in corpus:
        capture = AttentionCapture(full_matrix=True)
        prefill(weights, seq, capture=capture)
        mats = [padded(blocks) for blocks in capture.snapshot.blocks]
        s = len(seq)
        rows = range(s) if full_matrix else [s - 1]
        for a in range(n):
            for b in range(a + 1, n):
                js = [js_divergence(mats[a][r, : r + 1], mats[b][r, : r + 1]) for r in rows]
                S[a, b] += sum(js) / len(js)
    S /= len(corpus)
    return S + S.T


def seeded_corpus(seed, layout, lengths=(2, 9, 33, 70)):
    rng = np.random.default_rng(seed)
    corpus = []
    for n in lengths:
        ids = rng.integers(0, 96, size=n).tolist()
        if layout == "leading":
            modality = [1] * (n // 2) + [0] * (n - n // 2)
        else:
            modality = [i % 2 for i in range(n)]
        corpus.append(TokenSequence(ids, modality))
    return corpus


@pytest.mark.parametrize("full_matrix", [False, True])
@pytest.mark.parametrize("layout", ["leading", "alternating"])
def test_profile_matches_per_row_reference(full_matrix, layout):
    w = make_model(n_layers=4, seed=11)
    corpus = seeded_corpus(12, layout)
    got = profile_model(w, corpus, full_matrix=full_matrix).S
    ref = per_row_reference_profile(w, corpus, full_matrix)
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("full_matrix", [False, True])
def test_a_generator_corpus_profiles_like_its_list(full_matrix):
    w = make_model(n_layers=4, seed=11)
    corpus = seeded_corpus(12, "alternating")
    want = profile_model(w, corpus, full_matrix=full_matrix)
    got = profile_model(w, (seq for seq in corpus), full_matrix=full_matrix)
    assert got.n_samples == want.n_samples
    assert np.array_equal(got.S, want.S)


def causal_rows(rng, n_rows, n_keys, zero_share):
    """A call's head-mean rows as `padded` lays them out: row i sits at key
    index n_keys - n_rows + i and is a distribution over the keys up to it,
    with about `zero_share` exact zeros among them (as softmax underflow
    gives) and exact zeros past it (masked)."""
    rows = np.zeros((n_rows, n_keys))
    for i in range(n_rows):
        visible = n_keys - n_rows + i + 1
        p = rng.random(visible)
        p[rng.random(visible) < zero_share] = 0.0
        p[rng.integers(visible)] = 1.0
        rows[i, :visible] = p / p.sum()
    return rows


def call_blocks(rows):
    """A call's head-mean rows as its capture holds them: blocks of CHUNK
    rows over the keys up to each block's last row."""
    n_rows, n_keys = rows.shape
    first, chunk = n_keys - n_rows, runtime.CHUNK
    return [rows[i : i + chunk, : first + min(i + chunk, n_rows)] for i in range(0, n_rows, chunk)]


@pytest.mark.parametrize("n_rows, n_keys", [(150, 150), (22, 150), (1, 70)])
def test_visible_column_divergence_matches_js_on_each_rows_prefix(n_rows, n_keys):
    """A call's per-row divergences, taken in CHUNK-row blocks with one log
    of each pair's mixture, equal js_divergence on each row's visible
    prefix within 1e-12, where zeros fall in one layer, in both, or past
    the row."""
    rng = np.random.default_rng(n_rows + n_keys)
    layers = [causal_rows(rng, n_rows, n_keys, share) for share in (0.0, 0.3, 0.6)]
    pairs = [(0, 1), (0, 2), (1, 2)]
    got = profiler._visible_js([call_blocks(rows) for rows in layers], pairs)
    assert got.shape == (len(pairs), n_rows)
    for k, (a, b) in enumerate(pairs):
        for r in range(n_rows):
            visible = n_keys - n_rows + r + 1
            ref = js_divergence(layers[a][r, :visible], layers[b][r, :visible])
            assert abs(got[k, r] - ref) <= 1e-12


def test_a_full_matrix_profile_does_not_depend_on_how_samples_are_split(monkeypatch):
    """With 64-row, 512-row and whole-sample calls a full-matrix profile
    gives one S bit for bit, within 1e-12 of the per-row reference, and
    each sample meets `runtime.prefill` once, for its first rows."""
    w = make_model(n_layers=4, seed=14)
    corpus = seeded_corpus(15, "leading", lengths=(600, 130))
    real, prefilled = runtime.prefill, []

    def counted(weights, tokens, *args, **kwargs):
        prefilled.append(len(tokens))
        return real(weights, tokens, *args, **kwargs)

    monkeypatch.setattr(runtime, "prefill", counted)
    profiles = []
    for rows in (64, 512, 600):
        monkeypatch.setattr(profiler, "EXTENSION_ROWS", rows)
        prefilled.clear()
        profiles.append(profile_model(w, corpus, full_matrix=True).S)
        assert prefilled == [min(rows, len(seq)) for seq in corpus]
    assert all(np.array_equal(S, profiles[0]) for S in profiles[1:])
    monkeypatch.setattr(runtime, "prefill", real)
    ref = per_row_reference_profile(w, corpus, full_matrix=True)
    assert np.max(np.abs(profiles[0] - ref)) <= 1e-12


def test_a_full_matrix_profile_holds_one_calls_attention_rows():
    """A 1,100-token full-matrix profile peaks under twice n_layers x 512 x s
    float64, the head means of one 512-row call. Every layer's (s, s) head
    mean, held until the sample ends, would be 2.15 times that alone."""
    n_layers = 4
    w = make_model(n_layers=n_layers, seed=16)
    seq = random_prompt(np.random.default_rng(17), 96, length=1100, visual_fraction=0.5)
    profile_model(w, [seq], full_matrix=True)  # the rotary table and tile probes
    tracemalloc.start()
    try:
        profile_model(w, [seq], full_matrix=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_layers * 512 * len(seq) * 8


def test_snapshot_validate_checks_every_full_matrix_row():
    w = make_model(n_layers=2, seed=13)
    capture = AttentionCapture(full_matrix=True)
    prefill(w, TokenSequence([1, 2, 3, 4, 5], [1, 1, 0, 0, 0]), capture=capture)
    snap = capture.snapshot
    snap.validate()
    snap.blocks[1][0][2] *= 1.5  # a middle row; the last rows stay intact
    with pytest.raises(ValidationError, match="layer 1"):
        snap.validate()


def test_snapshot_validate_refuses_empty_and_ragged_snapshots():
    with pytest.raises(ValidationError, match="snapshot is empty"):
        AttentionSnapshot().validate()
    ragged = AttentionSnapshot([[np.full((1, 2), 0.5)], [np.full((1, 3), 1 / 3)]])
    with pytest.raises(ValidationError, match="layer 1 attention has shape"):
        ragged.validate()


@pytest.mark.parametrize(
    "S, message",
    [
        ([[0.0, 0.1], [0.2, 0.0]], "symmetric"),
        ([[0.0, 0.8], [0.8, 0.0]], r"\[0, ln 2\]"),
        ([[0.0, -0.1], [-0.1, 0.0]], r"\[0, ln 2\]"),
    ],
    ids=["asymmetric", "above-ln2", "negative"],
)
def test_similarity_profile_validate_refuses_bad_matrices(S, message):
    with pytest.raises(ValidationError, match=message):
        SimilarityProfile(n_layers=2, n_samples=1, S=np.array(S)).validate()


@pytest.mark.parametrize("shape", [(4, 128, 128), (4, 1, 513), (2, 7, 7), (8, 300, 300)])
def test_head_mean_equals_sequential_float64_sum(shape):
    rng = np.random.default_rng(shape[2])
    head_attn = rng.random(shape, dtype=np.float32)
    head_attn /= head_attn.sum(axis=-1, keepdims=True)
    expected = head_attn[0].astype(np.float64)
    for a in head_attn[1:]:
        expected = expected + a
    expected = expected / shape[0]
    capture = AttentionCapture(full_matrix=True)
    capture.record(0, head_attn)
    assert np.array_equal(capture.snapshot.blocks[0][0], expected)
    assert np.array_equal(capture.snapshot.last_rows[0], expected[-1])
    last_row_only = AttentionCapture()
    last_row_only.record(0, head_attn)
    assert np.array_equal(last_row_only.snapshot.last_rows[0], expected[-1])


def test_adjacent_and_similarity_view():
    S = np.zeros((3, 3))
    S[0, 1] = S[1, 0] = 0.2
    S[1, 2] = S[2, 1] = 0.4
    S[0, 2] = S[2, 0] = 0.6
    profile = SimilarityProfile(n_layers=3, n_samples=1, S=S)
    adj = profile.adjacent()
    assert np.allclose(adj, [0.2, 0.4])
    assert np.all(adj >= 0) and np.all(adj <= LN2 + 1e-9)
    view = profile.similarity_view()
    assert np.allclose(np.diag(view), LN2)
    assert np.allclose(view + S, LN2)
    # a 2-layer profile yields a single adjacent entry
    two = SimilarityProfile(n_layers=2, n_samples=1, S=np.array([[0.0, 0.3], [0.3, 0.0]]))
    assert two.adjacent().shape == (1,)


def test_a_profile_of_numpy_counts_round_trips(tmp_path):
    profile = SimilarityProfile(np.int64(2), np.int64(3), np.zeros((2, 2)))
    assert type(profile.n_layers) is type(profile.n_samples) is int
    path = str(tmp_path / "profile.json")
    save_profile(profile, path)
    assert load_profile(path).to_dict() == profile.to_dict()


def test_profile_json_roundtrip(tmp_path):
    w = make_model(n_layers=3, seed=10)
    profile = profile_model(w, [TokenSequence([1, 2, 3, 4], [1, 0, 0, 0])])
    path = str(tmp_path / "profile.json")
    save_profile(profile, path)
    back = load_profile(path)
    assert back.n_layers == profile.n_layers
    assert back.n_samples == profile.n_samples
    assert np.array_equal(back.S, profile.S)
    csv = adjacent_profile_csv(profile)
    assert csv.splitlines()[0] == "layer_pair,js_divergence"
    assert len(csv.strip().splitlines()) == 3  # header + 2 adjacent pairs


@pytest.mark.parametrize("n", [1, 6])
def test_heatmap_svg_parses_with_one_cell_per_entry(n):
    matrix = np.arange(n * n, dtype=np.float64).reshape(n, n)
    root = ET.fromstring(render_heatmap_svg(matrix, title="ln2 - S"))
    rects = root.iter("{http://www.w3.org/2000/svg}rect")
    assert sum(1 for r in rects if r.get("class") == "cell") == n * n
    root = ET.fromstring(render_heatmap_svg(matrix, title="a & b <c>"))
    assert root.find("{http://www.w3.org/2000/svg}text").text == "a & b <c>"
