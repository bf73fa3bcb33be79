import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from lazyattn import (
    AttentionCapture,
    SimilarityProfile,
    TokenSequence,
    ValidationError,
    js_divergence,
    kl_divergence,
    load_profile,
    prefill,
    profile_model,
    save_profile,
)
from lazyattn.profiler import LN2, adjacent_profile_csv
from lazyattn.viz import render_heatmap_svg

from helpers import make_model

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


def test_kl_unit_values():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert abs(kl_divergence([1.0, 0.0], [0.5, 0.5]) - LN(2)) < 1e-12
    expected = 0.5 * LN(2) + 0.5 * LN(2.0 / 3.0)
    assert abs(kl_divergence([0.5, 0.5], [0.25, 0.75]) - expected) < 1e-12


def test_kl_unmatched_support_is_infinite():
    assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == math.inf


def test_kl_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        kl_divergence([0.5, 0.5], [0.5, 0.25, 0.25])
    with pytest.raises(ValidationError):
        kl_divergence([0.9, 0.3], [0.5, 0.5])
    with pytest.raises(ValidationError):
        kl_divergence([1.5, -0.5], [0.5, 0.5])
    with pytest.raises(ValidationError):
        kl_divergence([math.nan, 1.0], [0.5, 0.5])
    with pytest.raises(ValidationError):
        kl_divergence(1.0, 1.0)


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
        mats = capture.snapshot.matrices
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


def test_snapshot_validate_checks_every_full_matrix_row():
    w = make_model(n_layers=2, seed=13)
    capture = AttentionCapture(full_matrix=True)
    prefill(w, TokenSequence([1, 2, 3, 4, 5], [1, 1, 0, 0, 0]), capture=capture)
    snap = capture.snapshot
    snap.validate()
    snap.matrices[1][2] *= 1.5  # a middle row; the last rows stay intact
    with pytest.raises(ValidationError, match="layer 1"):
        snap.validate()


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
    assert np.array_equal(capture.snapshot.matrices[0], expected)
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
