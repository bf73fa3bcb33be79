"""Dense float32 kernels the engine is built on.

Every kernel is deterministic and, crucially, row-independent: the result
bits of output row i depend only on input row i (and the full right-hand
operand), never on how many other rows were batched into the same call.
Caching a projection and recomputing it later from the same inputs
therefore gives bit-identical values; the equivalence oracles rely on this
and compare bitwise.

Products come in two families, with different bits:

- `matmul`/`head_matmul` run GEMM tiles of WIDE = 64 rows: the rows are
  padded with zeros to a multiple of WIDE (only the tail tile holds
  padding), and `np.matmul` runs fixed-shape GEMMs. A row's bits are the
  same in any slot of any tile, whatever its neighbours, so they depend on
  (k, n) alone, never on m. A plain 2-D `np.matmul` would not do: its
  blocking depends on m (at k=512 a row's bits at m=8 differ from its tile
  bits).
- `matvec` runs the stacked GEMV on 2-D weights and stacked heads alike:
  (..., m, 1, k) row vectors, one GEMV per row, all in C; row i has the
  bits of `a[..., i, :] @ b` alone. A 1-row product (every decode product)
  is that GEMV as a direct `np.matmul`.

`matmul` is the weight product (Q/K/V/O, the MLP, the LM head). It runs one
GEMM over all its rows, so BLAS packs the weight once per product rather
than once per tile. `head_matmul` is the attention product (scores and
weighted sum) and runs one GEMM per head and block of at most WIDE rows,
so a head's rows carry the bits they get alone and the oracle's one-head
products match.

No kernel needs to be length-invariant, because attention's shapes are
fixed by where a block sits (see `runtime`): prefill attends each block of
CHUNK query rows against the keys up to the block's end, zero-padded past
the call's last key, and the oracle does the same. So a prompt row's
scores, softmax and weighted sum run on the same shapes in every prompt
that holds the row, and `prefill(tokens[:L])` equals `prefill(tokens)[:L]`
whatever the BLAS does as k grows. The BLAS alone would not give that: on
OpenBLAS 0.3.31 with its SkylakeX kernels (as
`scipy_openblas_get_corename64_()` names them on the 2-thread host
measured), 64-row tiles change a weighted-sum row's bits when k grows by
zero terms at every width from 448 up.

A phase picks its products, never the row count: prefill runs the tiles,
decode the GEMV, since a padded 1-row tile costs about twice a GEMV on
weights that are cold in cache. Both phases share one softmax, whose row
sum is one `np.add.reduce`. The oracle follows the same rule row by row: a
prompt row's weight products run on `matmul` and its attention products on
`head_matmul` (one head at a time); a decoded row's run on `matvec`. So in
production and oracle alike a 2-D `matmul` is a weight product, and both
phases match the oracle bit for bit.

The tiles see one canonical layout: a right-hand operand whose last axis
is not unit-stride (K^T as a transposed view of the key cache) is copied to
C order first. BLAS runs a transposed operand through another code path, so
a view and a copy of the same values give different bits; on the scores
product the copy is also several times faster than the view.

Batch invariance is a property of the BLAS, and every contract rests on
it, so it is checked where the engine runs, by one probe (`_probe`) per
(k, n): a random row's bits must agree in slot 0, in the last slot of the
next tile between random neighbours, and alone in a padded tail tile.
Where the probe fails, that shape runs the GEMV on the canonical layout, in
production and oracle alike. `matmul`'s GEMM of r > WIDE padded rows has
its own probe per (r, k, n): a random row must get the bits it gets alone
in a WIDE-row tile in the GEMM's first and last slot. Where that fails, r
rows run one BLAS call per WIDE-row tile, so a row's bits do not depend on
m even where the GEMM holds at one row count and not at another.

A layer's Q, K and V weights (and its gate and up weights) are column
blocks of one fused weight (see `model.LayerWeights`). The layer's role,
not its rows, picks which columns a product runs on, in production and
oracle alike (see `runtime`), so no contract asks that a product on the
fused columns give a block the bits of the product on its view.

Transcendentals (cos/sin for the rotary tables) are computed per position,
so the same position always yields the same bits regardless of batch shape;
+,-,*,/ and sqrt are correctly rounded by IEEE-754 and need no such care.
The table of one (theta, half) holds the positions [0, n) contiguously,
each row computed alone with one call shape, so a lookup is one gather
rather than a Python loop; it grows upwards, at least doubling. Its cost is
bounded by the rows asked for, never by a position: a request with a
negative position, or reaching past the end by more rows than the table or
the request holds, is computed alone and leaves the table as it is. The
elementwise kernels (`rms_norm`, the softmax, `silu`) compute in place in
their own buffers, in the operation order of their formulas, so they keep
those formulas' bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .model import require_int, require_positive

# A Matrix is a 2-D float32 ndarray, the operand of `matmul`; `head_matmul`
# takes stacked (H, m, k) arrays, and `matvec` either.
Matrix = np.ndarray

F32 = np.float32

# Rows per tile of every GEMM product (see module doc).
WIDE = 64


def _check(name: str, a: np.ndarray, b: np.ndarray, ndim: int) -> None:
    """(..., m, k) by (..., k, n) operands of `ndim` axes with equal leading
    axes; anything else raises."""
    if (
        a.ndim != ndim
        or b.ndim != ndim
        or a.shape[:-2] != b.shape[:-2]
        or a.shape[-1] != b.shape[-2]
    ):
        raise ValidationError(
            f"{name} expects {ndim}-D (..., m, k) x (..., k, n), got {a.shape} x {b.shape}"
        )


def _up(x: int, step: int) -> int:
    return x + (-x % step)


def zero_padded(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """`x` zero-padded on its last two axes to (rows, cols), in C order."""
    out = np.zeros((*x.shape[:-2], rows, cols), dtype=x.dtype)
    out[..., : x.shape[-2], : x.shape[-1]] = x
    return out


def _tiles(a: np.ndarray, b: np.ndarray, tile: int) -> np.ndarray:
    """out[..., i, :] = a[..., i, :] @ b over `tile`-row tiles, with m
    zero-padded to a multiple of `tile`."""
    *lead, m, k = a.shape
    m_pad = _up(m, tile)
    if m_pad != m:
        a = zero_padded(a, m_pad, k)
    if b.strides[-1] != b.itemsize:  # the one canonical layout (see module doc)
        b = np.ascontiguousarray(b)
    out = np.matmul(a.reshape(*lead, m_pad // tile, tile, k), b[..., None, :, :])
    return out.reshape(*lead, m_pad, b.shape[-1])[..., :m, :]


# (rows per BLAS call, k, n) -> whether tiles of that shape are batch
# invariant here; one entry per tile height and shape used.
_TILES_HOLD: dict[tuple[int, int, int], bool] = {}


def _probe(tile: int, k: int, n: int) -> bool:
    """Whether `tile`-row tiles of (k, n) products are batch invariant here
    (see module doc): a random row's bits agree in slot 0, in the last slot
    of the second tile and alone in the padded tail tile. Past WIDE, one
    GEMM of `tile` rows gives a random row in its first and last slot the
    bits of the row alone in a padded WIDE-row tile."""
    rng = np.random.default_rng([k, n])
    gemm = tile > WIDE
    a = rng.random((tile if gemm else 2 * tile + 1, k), dtype=np.float32) - F32(0.5)
    b = rng.random((k, n), dtype=np.float32) - F32(0.5)
    twins = [-1] if gemm else [2 * tile - 1, 2 * tile]
    a[twins] = a[0]
    out = _tiles(a, b, tile)
    ref = _tiles(a[:1], b, WIDE)[0] if gemm else out[0]
    return all(np.array_equal(out[i], ref) for i in [0, *twins])


def _tiles_hold(tile: int, k: int, n: int) -> bool:
    """Whether `tile`-row tiles of (k, n) products are batch invariant on
    this host; probed once per tile height and shape."""
    key = (tile, k, n)
    hold = _TILES_HOLD.get(key)
    if hold is None:
        hold = _TILES_HOLD[key] = _probe(*key)
    return hold


def _product(a: np.ndarray, b: np.ndarray, tile: int) -> np.ndarray:
    if _tiles_hold(tile, *b.shape[-2:]):
        return _tiles(a, b, tile)
    if b.strides[-1] != b.itemsize:  # one canonical layout (see module doc)
        b = np.ascontiguousarray(b)
    return matvec(a, b)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Fixed-order 2-D product for weight products: out[i] = a[i] @ b with
    the bits of row i alone in a WIDE-row tile, for any m (see module doc).
    One GEMM runs over the rows padded to a multiple of WIDE where the probe
    of that row count holds, else one per WIDE-row tile.

    Do not "optimize" this into a 2-D np.matmul, or drop the copy of a
    strided `b`: either would break the bitwise contracts between
    production and the oracle.
    """
    _check("matmul", a, b, 2)
    rows = _up(a.shape[0], WIDE)
    one_gemm = rows > WIDE and _tiles_hold(WIDE, *b.shape) and _tiles_hold(rows, *b.shape)
    return _product(a, b, rows if one_gemm else WIDE)


def head_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-head attention product of (H, m, k) by (H, k, n) over WIDE-row
    tiles: out[h, i] = a[h, i] @ b[h].

    Each head runs the tiles it would run alone, so a head's rows carry the
    same bits for any H, and the oracle's one-head products match.
    """
    _check("head_matmul", a, b, 3)
    return _product(a, b, WIDE)


def matvec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Decode's product of (..., m, k) by (..., k, n), 2-D weights or stacked
    heads: out[..., i, :] = a[..., i, :] @ b, one GEMV per row, on `b` as
    given (a strided view is not copied). A 1-row product is that GEMV
    already, so it runs as a direct np.matmul."""
    _check("matvec", a, b, max(a.ndim, 2))
    if a.shape[-2] == 1:
        return np.matmul(a, b)
    return np.matmul(a[..., None, :], b[..., None, :, :])[..., 0, :]


def masked_softmax_rows(logits: np.ndarray, row_offset: int, scale: float) -> np.ndarray:
    """Softmax of scale*logits along the last axis with causal masking: row
    i sees columns j <= i + row_offset, so 0 is the square prefill mask.

    An offset of at least cols - 1 lets row 0 see every column (as a single
    decode row sees every cached position), so no mask is built. `logits` is
    (rows, cols) or stacked (..., rows, cols), e.g. one (H, rows, cols)
    block for all heads; every row gets the bits it would get alone. Rows
    are stabilized by subtracting the row max over visible positions before
    exponentiation; column 0 is always visible, so that max is finite and
    masked positions come out exactly 0.
    """
    scale = require_positive("softmax scale", scale)
    if logits.ndim < 2:
        raise ValidationError(f"logits must be at least 2-D, got shape {logits.shape}")
    row_offset = require_int("row_offset", row_offset, 0)
    rows, cols = logits.shape[-2:]
    # One buffer, computed in place, with the operations in the order of
    # exp(scale*logits - max) / sum.
    e = logits * F32(scale)
    if row_offset < cols - 1:
        # Columns up to row_offset are visible to every row.
        start = row_offset + 1
        hidden = np.arange(start, cols) > np.arange(rows)[:, None] + row_offset
        np.copyto(e[..., start:], F32(-np.inf), where=hidden)
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def rms_norm(x: Matrix, gain: np.ndarray, eps: float) -> Matrix:
    """Divide each row by sqrt(mean of squares + eps), then scale by gain.

    Computed in two buffers, in the order of x * (1 / sqrt(sum(x*x) / d +
    eps)) * gain; the mean is the row sum divided by d, as `np.mean` takes
    it."""
    eps = require_positive("rms_norm eps", eps)
    if x.ndim != 2:
        raise ValidationError(f"rms_norm expects 2-D (rows, d) input, got shape {x.shape}")
    gain = np.asarray(gain, dtype=np.float32)
    if gain.ndim != 1 or gain.shape[0] != x.shape[1]:
        raise ValidationError(
            f"gain length {gain.shape} does not match row width {x.shape[1]}"
        )
    out = x * x
    inv = np.add.reduce(out, axis=1, keepdims=True)
    inv /= F32(x.shape[1])
    inv += F32(eps)
    np.sqrt(inv, out=inv)
    np.divide(F32(1.0), inv, out=inv)
    np.multiply(x, inv, out=out)
    out *= gain
    return out


class _RopeTable:
    """cos and sin rows of one (theta_base, half) for the positions 0, 1, ...,
    as contiguous (positions, half) arrays. Every row is computed alone with
    one call shape (`_alone`), so a position's bits never depend on which
    other positions were requested; a lookup is one gather."""

    def __init__(self, theta_base: float, half: int):
        exponents = np.arange(half, dtype=np.float64) * (2.0 / (2 * half))
        self.freqs = theta_base ** (-exponents)
        self.cos = self.sin = np.empty((0, half), dtype=np.float32)

    def _alone(self, positions) -> tuple[np.ndarray, np.ndarray]:
        """The cos and sin rows of `positions`, each computed alone."""
        shape = (len(positions), len(self.freqs))
        cos = np.array([np.cos(p * self.freqs) for p in positions], np.float32).reshape(shape)
        sin = np.array([np.sin(p * self.freqs) for p in positions], np.float32).reshape(shape)
        return cos, sin

    def rows(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (len(positions), half) cos and sin rows: gathered from the table
        grown upwards to hold them, at least doubling so that decode's next
        position refills nothing, or computed alone out of its reach."""
        n = len(self.cos)
        first = int(np.minimum.reduce(positions, initial=0))
        last = int(np.maximum.reduce(positions, initial=-1))
        if first < 0 or last >= n + max(n, len(positions)):
            return self._alone(positions.tolist())
        if last >= n:
            above = self._alone(range(n, max(last + 1, 2 * n)))
            self.cos = np.concatenate([self.cos, above[0]])
            self.sin = np.concatenate([self.sin, above[1]])
        return self.cos.take(positions, axis=0), self.sin.take(positions, axis=0)


# Memoized rotary tables, one per (theta_base, half_dim).
_ROPE_TABLES: dict[tuple[float, int], _RopeTable] = {}


def apply_rope(qk: np.ndarray, positions, theta_base: float) -> np.ndarray:
    """Rotary rotation of adjacent column pairs by position-dependent angles.

    `qk` is (rows, d) or (rows, ..., d), e.g. (rows, H, d_head) for all
    heads at once, or (rows, 2H, d_head) for Q and K together; positions
    index the first axis and must be integers (negative ones rotate
    backwards). Position 0 is the identity; every rotation preserves the
    row norm. The output is a fresh contiguous array.
    """
    theta_base = require_positive("theta_base", theta_base)
    positions = np.asarray(positions)
    integral = positions.dtype.kind in "iu" and np.can_cast(positions.dtype, np.intp)
    if positions.size and not integral:
        raise ValidationError(f"rotary positions must be integers, got dtype {positions.dtype}")
    if qk.ndim < 2 or qk.shape[-1] % 2 != 0:
        raise ValidationError(f"apply_rope needs an even column count, got shape {qk.shape}")
    if len(positions) != qk.shape[0]:
        raise ValidationError(
            f"positions length {len(positions)} != row count {qk.shape[0]}"
        )
    half = qk.shape[-1] // 2
    key = (theta_base, half)
    table = _ROPE_TABLES.get(key)
    if table is None:
        table = _ROPE_TABLES[key] = _RopeTable(theta_base, half)
    cos, sin = table.rows(positions.astype(np.intp, copy=False))
    table_shape = (qk.shape[0],) + (1,) * (qk.ndim - 2) + (half,)
    cos, sin = cos.reshape(table_shape), sin.reshape(table_shape)
    x1 = qk[..., 0::2]
    x2 = qk[..., 1::2]
    out = np.empty(qk.shape, dtype=qk.dtype)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def silu(x: Matrix) -> Matrix:
    """x * (1 / (1 + exp(-x))), in one buffer."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += F32(1.0)
    np.divide(F32(1.0), out, out=out)
    out *= x
    return out


def attention_scale(d_head: int) -> float:
    return 1.0 / math.sqrt(d_head)
