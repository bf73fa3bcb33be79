import math

import numpy as np
import pytest

from lazyattn import (
    GrowableHeads,
    TokenSequence,
    ValidationError,
    masked_softmax_rows,
    matmul,
    oracle_prefill,
    prefill,
    rms_norm,
)
from lazyattn import kernels
from lazyattn.kernels import apply_rope, matvec, silu

from helpers import gemm_nudged_at, make_model, random_prompt


def f32(x):
    return np.asarray(x, dtype=np.float32)


def test_matmul_identity():
    m = f32(np.arange(12).reshape(3, 4))
    assert np.array_equal(matmul(f32(np.eye(3)), m), m)


def test_matmul_hand_values():
    out = matmul(f32([[1, 2], [3, 4]]), f32([[5], [6]]))
    assert np.array_equal(out, f32([[17], [39]]))
    assert np.array_equal(matmul(f32([[2]]), f32([[3]])), f32([[6]]))


def test_matmul_dim_mismatch():
    for product in (matmul, matvec):
        with pytest.raises(ValidationError):
            product(f32(np.ones((2, 3))), f32(np.ones((2, 3))))
        with pytest.raises(ValidationError):
            product(f32(np.ones((1, 2, 3))), f32(np.ones((3, 3))))
        with pytest.raises(ValidationError):
            product(f32(np.ones(3)), f32(np.ones((3, 3))))


def per_row(a, b):
    """The lone GEMV a[i] @ b of every row."""
    return np.stack([a[i] @ b for i in range(a.shape[0])])


def alone_in_tile(a, b, slot, tile=kernels.WIDE):
    """Every row of a run alone in a zero-padded `tile`-row tile, at `slot`,
    against the canonical (C-contiguous) layout of b."""
    m, k = a.shape
    b = np.ascontiguousarray(b)
    out = np.empty((m, b.shape[1]), dtype=np.float32)
    for start in range(0, m, 16):  # 16 rows at a time bounds the memory
        rows = a[start : start + 16]
        tiles = np.zeros((len(rows), tile, k), dtype=np.float32)
        tiles[:, slot] = rows
        out[start : start + 16] = np.matmul(tiles, b)[:, slot]
    return out


def growable_keys(rng):
    """(2, 300, 64) keys as attention reads them: a growable-buffer prefix
    with spare capacity behind it."""
    buf = GrowableHeads(2, 64)
    buf.append(f32(rng.standard_normal((2, 200, 64))))
    buf.append(f32(rng.standard_normal((2, 100, 64))))
    keys = buf.data
    assert keys.shape == (2, 300, 64) and not keys.flags.c_contiguous
    return keys


def test_matmul_deterministic_and_row_independent():
    rng = np.random.default_rng(0)
    a = f32(rng.standard_normal((9, 17)))
    b = f32(rng.standard_normal((17, 5)))
    first = matmul(a, b)
    assert np.array_equal(first, matmul(a, b))
    # row i of a batched product is bitwise the product of row i alone
    for i in (0, 4, 8):
        assert np.array_equal(first[i], matmul(a[i : i + 1].copy(), b)[0])

    # The decode kernels give row i bitwise the lone GEMV a[i] @ b, at any
    # batch size, on b as given. K^T comes from a growable-buffer prefix
    # (spare capacity behind it), as in attention.
    keys = growable_keys(rng)
    cases = [
        (f32(rng.standard_normal((1, 256))), f32(rng.standard_normal((256, 512)))),
        (f32(rng.standard_normal((512, 256))), f32(rng.standard_normal((256, 512)))),
        (f32(rng.standard_normal((37, 64))), keys[1].T),
    ]
    for a, b in cases:
        assert np.array_equal(matvec(a, b), per_row(a, b))
    for rows in (1, 37):
        q = f32(rng.standard_normal((2, rows, 64)))
        out = matvec(q, keys.transpose(0, 2, 1))
        attn = f32(rng.random((2, rows, 300)))
        weighted = matvec(attn, keys)
        for h in range(2):
            assert np.array_equal(out[h], per_row(q[h], keys[h].T))
            assert np.array_equal(weighted[h], per_row(attn[h], keys[h]))
    a = f32(rng.standard_normal((2, 512, 256)))
    b = f32(rng.standard_normal((2, 256, 512)))
    out = matvec(a, b)
    for h in range(2):
        assert np.array_equal(out[h], per_row(a[h], b[h]))

    # matmul gives row i bitwise the product of row i alone in a
    # zero-padded 64-row tile, in any slot, at any batch size.
    wide = kernels.WIDE
    slots = (0, wide // 2 - 1, wide - 1)
    cases = [(f32(rng.standard_normal((m, k))), f32(rng.standard_normal((k, 512))))
             for m in (1, 63, 64, 65, 200) for k in (256, 512)]
    cases.append((f32(rng.standard_normal((37, 64))), keys[1].T))
    for a, b in cases:
        out = matmul(a, b)
        for slot in slots:
            assert np.array_equal(out, alone_in_tile(a, b, slot))
    for rows in (1, 3, 4, 5, 37, 65, 130):
        q = f32(rng.standard_normal((2, rows, 64)))
        out = matmul(q, keys.transpose(0, 2, 1))
        attn = f32(rng.random((2, rows, 300)))
        weighted = matmul(attn, keys)
        for h in range(2):
            for slot in slots:
                assert np.array_equal(out[h], alone_in_tile(q[h], keys[h].T, slot))
                assert np.array_equal(weighted[h], alone_in_tile(attn[h], keys[h], slot))
    a = f32(rng.standard_normal((2, 512, 256)))
    b = f32(rng.standard_normal((2, 256, 512)))
    out = matmul(a, b)
    for h in range(2):
        for slot in slots:
            assert np.array_equal(out[h], alone_in_tile(a[h], b[h], slot))


def test_tile_kernels_see_one_layout_of_b():
    """A transposed view of b and a contiguous copy of it give the same bits."""
    rng = np.random.default_rng(8)
    keys = growable_keys(rng)
    a = f32(rng.standard_normal((512, 256)))
    b = f32(rng.standard_normal((256, 256)))
    view = np.ascontiguousarray(b.T).T
    assert not view.flags.c_contiguous
    assert np.array_equal(matmul(a, view), matmul(a, b))
    q = f32(rng.standard_normal((2, 37, 64)))
    kt = keys.transpose(0, 2, 1)
    assert np.array_equal(matmul(q, kt), matmul(q, np.ascontiguousarray(kt)))


def test_tile_probe_catches_a_row_that_moves(monkeypatch):
    """At every tile height the probe fails when a row's bits move in any
    slot it checks against the row alone in a WIDE-row tile: slot 0, the
    last slot of the second tile, alone in the padded tail tile. The
    products then run the GEMV."""
    real = kernels._tiles
    for tile in (kernels.WIDE, 3 * kernels.WIDE):
        monkeypatch.setattr(kernels, "_tiles", real)
        assert kernels._probe(tile, 64, 96)
        # The probe's checked rows among the 2 * tile + 1 (see `_probe`).
        for moved in (0, -2, -1):

            def nudged(a, b, height, moved=moved):
                out = real(a, b, height)
                if len(a) > 1:  # the multi-row call, not the row alone
                    out = out.copy()
                    out[moved] = np.nextafter(out[moved], np.float32(np.inf))
                return out

            monkeypatch.setattr(kernels, "_tiles", nudged)
            assert not kernels._probe(tile, 64, 96)
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    rng = np.random.default_rng(9)
    a = f32(rng.standard_normal((9, 64)))
    b = f32(rng.standard_normal((64, 96)))
    assert np.array_equal(matmul(a, b), matvec(a, b))
    assert np.array_equal(matmul(a[None], b[None]), matvec(a[None], b[None]))
    assert kernels._TILES_HOLD == {(kernels.WIDE, 64, 96): False}


def test_tile_probes_are_kept_per_padded_shape(monkeypatch):
    """Products of one (k, n) share one probe, and a weight's products one
    entry per row count padded to a multiple of WIDE. A prefill of s tokens
    adds attention entries only for the key counts its blocks attend, 64,
    128, ... up to s rounded up to 64, and the oracle's prompt rows add
    none."""
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    rng = np.random.default_rng(10)
    wide = kernels.WIDE
    for _ in range(3):
        q = f32(rng.standard_normal((1, 3, 64)))
        keys = f32(rng.standard_normal((1, 112, 64)))
        matmul(matmul(q, keys.transpose(0, 2, 1)), keys)
    assert kernels._TILES_HOLD == {(wide, 64, 112): True, (wide, 112, 64): True}
    w = f32(rng.standard_normal((256, 512)))
    for m in (1, 64, 65, 300, 320):
        matmul(f32(rng.standard_normal((m, 256))), w)
    for rows in (wide, 2 * wide, 5 * wide):
        assert kernels._TILES_HOLD.pop((rows, 256, 512))
    assert set(kernels._TILES_HOLD) == {(wide, 64, 112), (wide, 112, 64)}

    model = make_model()
    d_head = model.config.d_head
    tokens = random_prompt(rng, model.config.vocab_size, length=200, visual_fraction=0.5)
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    prefill(model, tokens)
    heads = {key for key in kernels._TILES_HOLD if d_head in key[1:]}
    assert heads == {
        (wide, *shape) for w in (64, 128, 192, 256) for shape in ((d_head, w), (w, d_head))
    }
    oracle_prefill(model, tokens)
    assert {key for key in kernels._TILES_HOLD if d_head in key[1:]} == heads


def test_attention_probes_are_kept_per_block(monkeypatch):
    """A 120-token prefill and then a 100-token one both attend 64, then 128
    keys, so the second adds no probe."""
    model = make_model()
    rng = np.random.default_rng(20)
    tokens = random_prompt(rng, model.config.vocab_size, length=120, visual_fraction=0.5)
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    prefill(model, tokens)
    probed = dict(kernels._TILES_HOLD)
    prefill(model, TokenSequence(tokens.token_ids[:100], tokens.modality[:100]))
    assert kernels._TILES_HOLD == probed


# The benchmark model's weight products: Q|K|V, Q|K and the LM head, V and
# O, gate|up, down.
WEIGHT_SHAPES = [(256, 768), (256, 512), (256, 256), (256, 1024), (512, 256)]


@pytest.mark.parametrize("k, n", WEIGHT_SHAPES)
def test_one_gemm_gives_every_row_its_wide_tile_bits(k, n):
    """matmul runs one GEMM over all its padded rows, and a row still gets
    the bits it gets alone in a 64-row tile, in any slot, at any m. The rows
    are one pool, so a row's reference is the same at every m."""
    rng = np.random.default_rng([k, n])
    pool = f32(rng.standard_normal((1000, k)))
    b = f32(rng.standard_normal((k, n)))
    sizes = (1, 63, 64, 65, 200, 320, 511, 512, 513, 1000)
    picked = sorted({i for m in sizes for i in (0, 31, 63, 64, m // 2, m - 1) if i < m})
    wide = kernels.WIDE
    refs = [alone_in_tile(pool[picked], b, slot, wide) for slot in (0, wide // 2 - 1, wide - 1)]
    for m in sizes:
        out = matmul(pool[:m], b)
        live = sum(i < m for i in picked)  # picked is sorted
        for ref in refs:
            assert np.array_equal(out[picked[:live]], ref[:live])


def test_a_weight_product_packs_its_weight_once(monkeypatch):
    """Where the probes hold, a weight product of 512 rows is one BLAS call
    of 512 rows, and 513 rows one call of 576."""
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    for rows in (kernels.WIDE, 512, 576):
        kernels._TILES_HOLD[(rows, 256, 768)] = True
    shapes = []
    real = np.matmul

    def spy(a, b):
        shapes.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(np, "matmul", spy)
    w = f32(np.ones((256, 768)))
    matmul(f32(np.ones((512, 256))), w)
    matmul(f32(np.ones((513, 256))), w)
    assert shapes == [(1, 512, 256), (1, 576, 256)]


def test_a_stacked_product_runs_one_gemm_per_head(monkeypatch):
    """Where the probes hold, a product of 130 rows per head is one BLAS
    call: one GEMM of 192 padded rows per head."""
    monkeypatch.setattr(kernels, "_TILES_HOLD", {})
    for rows in (kernels.WIDE, 192):
        kernels._TILES_HOLD[(rows, 64, 96)] = True
    shapes = []
    real = np.matmul

    def spy(a, b):
        shapes.append(a.shape)
        return real(a, b)

    monkeypatch.setattr(np, "matmul", spy)
    matmul(f32(np.ones((2, 130, 64))), f32(np.ones((2, 64, 96))))
    assert shapes == [(2, 1, 192, 64)]


def test_a_failed_gemm_probe_keeps_its_row_count_on_wide_tiles(monkeypatch):
    """A GEMM whose last row moves at one padded row count fails that count's
    probe alone: products of that many rows run the 64-row tiles, the other
    counts keep one GEMM, and every row keeps its tile bits."""
    wide = kernels.WIDE
    heights = gemm_nudged_at(monkeypatch, 3 * wide)
    rng = np.random.default_rng(13)
    b = f32(rng.standard_normal((256, 256)))
    sizes = (150, 200, 300)
    a = [f32(rng.standard_normal((m, 256))) for m in sizes]
    first = [matmul(x, b) for x in a]
    assert kernels._TILES_HOLD == {
        (wide, 256, 256): True, (3 * wide, 256, 256): False,
        (4 * wide, 256, 256): True, (5 * wide, 256, 256): True,
    }
    heights.clear()
    for x, out in zip(a, first):
        assert np.array_equal(matmul(x, b), out)
        assert np.array_equal(out[[0, -1]], alone_in_tile(x[[0, -1]], b, 0, wide))
    assert heights == [wide, 4 * wide, 5 * wide]


def rope_reference(x, positions, theta):
    """Rotary one row at a time, each row's cos and sin computed alone with
    the table's call shape."""
    half = x.shape[-1] // 2
    freqs = theta ** (-(np.arange(half, dtype=np.float64) * (2.0 / (2 * half))))
    out = np.empty_like(x)
    for i, p in enumerate(positions):
        cos = np.cos(p * freqs).astype(np.float32)
        sin = np.sin(p * freqs).astype(np.float32)
        x1, x2 = x[i, ..., 0::2], x[i, ..., 1::2]
        out[i, ..., 0::2] = x1 * cos - x2 * sin
        out[i, ..., 1::2] = x1 * sin + x2 * cos
    return out


def test_rope_table_rows_equal_per_position_rows(monkeypatch):
    """Table rows give the per-position bits for any order, for repeats, for
    negative positions and for positions past the table's end, whether the
    table grew to hold them or they lay out of its reach and were computed
    alone."""
    monkeypatch.setattr(kernels, "_ROPE_TABLES", {})
    rng = np.random.default_rng(17)
    for positions in (
        [3, 1, 2, 0],
        [7, 7, 0, 7, 5],
        [-3, 4, -1, 0],
        [40, 2, 39],  # past the end of the table so far
        [-20],
        [900, -21, 901],
        list(range(64)),
    ):
        x = f32(rng.standard_normal((len(positions), 3, 16)))
        assert np.array_equal(apply_rope(x, positions, 10000.0), rope_reference(x, positions, 10000.0))
        assert np.array_equal(
            apply_rope(x, np.asarray(positions), 10000.0), rope_reference(x, positions, 10000.0)
        )
    table = kernels._ROPE_TABLES[(10000.0, 8)]
    # The table holds positions from 0 up: the requests with a negative
    # position, and [40, 2, 39] lying out of reach of the table then, were
    # computed alone, so only the other requests grew it.
    assert len(table.cos) == 64


def test_rope_table_size_is_bounded_by_the_rows_requested(monkeypatch):
    """Two rows at positions 0 and 2**18 get their own bits without the
    table filling every position between them; decode's next position
    still doubles the table."""
    monkeypatch.setattr(kernels, "_ROPE_TABLES", {})
    x = f32(np.random.default_rng(19).standard_normal((2, 2, 16)))
    positions = [0, 2**18]
    assert np.array_equal(apply_rope(x, positions, 10000.0), rope_reference(x, positions, 10000.0))
    table = kernels._ROPE_TABLES[(10000.0, 8)]
    assert len(table.cos) <= 4096
    apply_rope(f32(np.ones((512, 2, 16))), range(512), 10000.0)  # a prefill
    apply_rope(x[:1], [512], 10000.0)  # its first decode step
    assert len(table.cos) == 1024


def test_joint_rope_equals_two_calls():
    """Q and K rotated together as (rows, 2H, d) equal Q and K rotated apart."""
    rng = np.random.default_rng(18)
    qk = f32(rng.standard_normal((37, 8, 64)))
    positions = np.arange(100, 137)
    both = apply_rope(qk, positions, 10000.0)
    assert np.array_equal(both[:, :4], apply_rope(qk[:, :4], positions, 10000.0))
    assert np.array_equal(both[:, 4:], apply_rope(qk[:, 4:].copy(), positions, 10000.0))


def test_in_place_kernels_keep_the_written_out_bits():
    """rms_norm, the softmax and silu, computed in their own buffers, give
    the bits of their formulas written out and leave their inputs alone."""
    rng = np.random.default_rng(19)
    x = f32(rng.standard_normal((9, 256)) * 3)
    gain = f32(rng.random(256))
    keep = x.copy()
    ref = x * (np.float32(1.0) / np.sqrt(np.mean(x * x, axis=1, keepdims=True) + np.float32(1e-5))) * gain
    assert np.array_equal(rms_norm(x, gain, 1e-5), ref)
    assert np.array_equal(silu(x), x * (np.float32(1.0) / (np.float32(1.0) + np.exp(-x))))
    scores = f32(rng.standard_normal((4, 1, 300)))
    scaled = scores * np.float32(0.125)
    e = np.exp(scaled - np.max(scaled, axis=-1, keepdims=True))
    out = masked_softmax_rows(scores, 299, 0.125)
    assert np.array_equal(out, e / np.sum(e, axis=-1, keepdims=True))
    assert np.array_equal(x, keep)


def test_products_reject_bad_shapes():
    """Both product kernels refuse operands of unequal rank, unequal leading
    axes or k, and a 1-D a."""
    bad = [
        ((2, 1, 3), (3, 2)),  # unequal ranks
        ((1, 3), (2, 3, 2)),
        ((2, 1, 3), (3, 3, 2)),  # unequal leading axes
        ((2, 1, 3), (2, 4, 2)),  # unequal k
        ((3,), (3,)),  # a 1-D a
    ]
    for product in (matmul, matvec):
        for a, b in bad:
            with pytest.raises(ValidationError):
                product(f32(np.ones(a)), f32(np.ones(b)))


def test_stacked_softmax_and_rope_match_per_head_bitwise():
    rng = np.random.default_rng(6)
    scores = f32(rng.standard_normal((3, 9, 9)) * 4)
    stacked = masked_softmax_rows(scores, 0, 0.125)
    qk = f32(rng.standard_normal((9, 3, 16)))
    pos = [0, 2, 3, 5, 8, 13, 21, 34, 55]
    rotated = apply_rope(qk, pos, 10000.0)
    for h in range(3):
        assert np.array_equal(stacked[h], masked_softmax_rows(scores[h], 0, 0.125))
        assert np.array_equal(rotated[:, h], apply_rope(qk[:, h].copy(), pos, 10000.0))


def test_softmax_symmetric_row():
    out = masked_softmax_rows(f32([[0.0, 0.0]]), 1, 1.0)
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-7)


def test_softmax_masked_tail_is_zero():
    out = masked_softmax_rows(f32([[3.0, 42.0]]), 0, 1.0)
    assert out[0, 0] == 1.0
    assert out[0, 1] == 0.0


def test_softmax_closed_form():
    out = masked_softmax_rows(f32([[math.log(2.0), 0.0]]), 1, 1.0)
    assert np.allclose(out, [[2 / 3, 1 / 3]], atol=1e-6)


def test_softmax_rows_sum_to_one_and_shift_invariance():
    rng = np.random.default_rng(1)
    logits = f32(rng.standard_normal((8, 8)) * 3)
    out = masked_softmax_rows(logits, 0, 0.25)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    tri = np.tril(np.ones((8, 8), dtype=bool))
    assert np.all(out[~tri] == 0.0)
    shifted = masked_softmax_rows(logits + f32(7.5), 0, 0.25)
    assert np.allclose(out, shifted, atol=1e-6)


def test_softmax_rejects_bad_scale():
    with pytest.raises(ValidationError):
        masked_softmax_rows(f32([[1.0, 2.0]]), 1, 0.0)
    with pytest.raises(ValidationError):
        masked_softmax_rows(f32([[1.0, 2.0]]), 1, -1.0)


def test_rms_norm_zero_row_and_zero_gain():
    x = f32([[0.0, 0.0, 0.0]])
    assert np.array_equal(rms_norm(x, np.ones(3, np.float32), 1e-6), x)
    y = f32([[1.0, -2.0, 3.0]])
    assert np.array_equal(rms_norm(y, np.zeros(3, np.float32), 1e-6), np.zeros((1, 3), np.float32))


def test_rms_norm_direct_formula():
    out = rms_norm(f32([[3.0, 4.0]]), np.ones(2, np.float32), 1e-12)
    assert np.allclose(out, np.array([[3.0, 4.0]]) / math.sqrt(12.5), atol=1e-6)


def test_rms_norm_gain_length_mismatch():
    with pytest.raises(ValidationError):
        rms_norm(f32([[1.0, 2.0]]), np.ones(3, np.float32), 1e-6)


def test_rope_position_zero_is_identity():
    rng = np.random.default_rng(2)
    x = f32(rng.standard_normal((3, 8)))
    out = apply_rope(x, [0, 0, 0], 10000.0)
    assert np.array_equal(out, x)


def test_rope_preserves_row_norms():
    rng = np.random.default_rng(3)
    x = f32(rng.standard_normal((6, 10)))
    out = apply_rope(x, [0, 1, 5, 17, 100, 3], 10000.0)
    assert np.allclose(
        np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), atol=1e-5
    )


def test_rope_inverse_rotation_recovers_input():
    rng = np.random.default_rng(4)
    x = f32(rng.standard_normal((5, 12)))
    pos = [1, 3, 9, 27, 81]
    back = apply_rope(apply_rope(x, pos, 10000.0), [-p for p in pos], 10000.0)
    assert np.allclose(back, x, atol=1e-6)


def test_rope_rejects_odd_columns_and_bad_positions():
    with pytest.raises(ValidationError):
        apply_rope(f32(np.ones((2, 3))), [0, 1], 10000.0)
    with pytest.raises(ValidationError):
        apply_rope(f32(np.ones((2, 4))), [0], 10000.0)


@pytest.mark.parametrize(
    "positions",
    [[0.5, 1.7], [0, 2**70], np.array([True, False]), np.array([0, 2**63], dtype=np.uint64)],
    ids=["float", "past-int64", "bool", "uint64"],
)
def test_rope_refuses_non_integer_positions(positions):
    """Rotary positions are integers: a float is not rounded into one, and
    a position past the platform integer is refused, not overflowed."""
    with pytest.raises(ValidationError, match="rotary positions must be integers"):
        apply_rope(f32(np.ones((2, 4))), positions, 10000.0)


NAN, INF, ONES = float("nan"), float("inf"), np.ones((2, 4), np.float32)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: masked_softmax_rows(f32([1.0, 2.0]), 0, 1.0), "at least 2-D"),
        (lambda: masked_softmax_rows(f32([[1.0, 2.0]]), -1, 1.0), "row_offset"),
        (lambda: rms_norm(f32([[1.0, 2.0]]), np.ones(2, np.float32), 0.0), "eps must be positive"),
        (lambda: apply_rope(f32(np.ones((2, 4))), [0, 1], 0.0), "theta_base"),
        (lambda: rms_norm(ONES, np.ones(4, np.float32), NAN), "eps must be positive"),
        (lambda: rms_norm(ONES, np.ones(4, np.float32), INF), "eps must be positive"),
        (lambda: rms_norm(ONES, np.ones(4, np.float32), "1e-5"), "eps must be positive"),
        (lambda: masked_softmax_rows(ONES, 3, NAN), "scale must be positive"),
        (lambda: masked_softmax_rows(ONES, 3, INF), "scale must be positive"),
        (lambda: masked_softmax_rows(ONES, 3, True), "scale must be positive"),
        (lambda: masked_softmax_rows(ONES, 1.5, 1.0), "row_offset must be an integer"),
        (lambda: masked_softmax_rows(ONES, np.float64(1.0), 1.0), "row_offset must be an integer"),
        (lambda: apply_rope(ONES, [0, 1], NAN), "theta_base"),
        (lambda: apply_rope(ONES, [0, 1], INF), "theta_base"),
        (lambda: rms_norm(np.ones(4, np.float32), np.ones(4, np.float32), 1e-5), "2-D"),
    ],
    ids=[
        "softmax-1d", "softmax-offset", "rms-eps", "rope-theta", "rms-nan", "rms-inf", "rms-str",
        "softmax-nan", "softmax-inf", "softmax-bool", "offset-float", "offset-np-float",
        "rope-nan", "rope-inf", "rms-1d",
    ],
)
def test_kernels_refuse_bad_arguments(monkeypatch, call, message):
    """eps, scale and theta are finite numbers above 0, a row offset is an
    integer, and logits and rms_norm's rows have the axes they need: NaN,
    which passes a `<= 0` check, is refused rather than turned into NaN rows
    or columns, a 1-D rms_norm input raises no IndexError, and nothing
    leaves a rotary table behind."""
    monkeypatch.setattr(kernels, "_ROPE_TABLES", {})
    for _ in range(3):
        with pytest.raises(ValidationError, match=message):
            call()
    assert kernels._ROPE_TABLES == {}


def test_kernels_keep_values_finite():
    rng = np.random.default_rng(5)
    x = f32(rng.standard_normal((7, 16)) * 10)
    w = f32(rng.standard_normal((16, 16)))
    for out in (
        matmul(x, w),
        masked_softmax_rows(matmul(x, x.T), 0, 0.25),
        rms_norm(x, np.ones(16, np.float32), 1e-5),
        apply_rope(x, list(range(7)), 10000.0),
    ):
        assert np.all(np.isfinite(out))
        assert out.dtype == np.float32
