"""Inter-layer attention similarity profiling.

For every input sample the engine captures each layer's head-averaged
attention distribution for the final token (every row behind a flag).
Similarity between two layers is the Jensen-Shannon divergence of those
distributions over each row's visible columns (row i's columns 0..i),
averaged over the rows and then over the corpus, giving the symmetric
matrix S with values in [0, ln 2] (natural log throughout).

A profile pass computes only what S reads. Its prefills and extensions run
with `logits=False` (see `runtime`), so the last layer stops after its
attention, and hand `AttentionCapture` each CHUNK-row block of attention
over the keys up to its last row. A full-matrix profile runs a sample as
one prefill of its first EXTENSION_ROWS rows and one `extend` per further
EXTENSION_ROWS, and folds each call's blocks into per-row divergences
before the next call runs, so at most EXTENSION_ROWS attention rows per
layer are held at once, not the (s, s) square. The divergence is taken
block by block, as

    JS(p, q) = 1/2 (sum p ln p + sum q ln q) - sum m ln m,  m = (p + q) / 2,

with each layer's sum p ln p taken once per block and one log of the
mixture per layer pair; an entry equal to 0 adds exactly 0. Calls start
at multiples of CHUNK, so the blocks have the same rows and columns
however a sample is split into calls, and S does not depend on the split.

A profile is checked once, when it is built, and cannot change afterwards:
its fields are frozen and it holds S as a read-only float64 copy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import runtime
from .errors import ValidationError
from .model import TokenSequence, atomic_write, is_number, parse_json, require_int
from .runtime import CHUNK

LN2 = math.log(2.0)

# Rows of a sample that one call of a full-matrix profile runs: samples of
# up to this many tokens run as one prefill. CHUNK-row calls would hold
# less, but made a pass over 128-token samples 11-13% slower on a 2-vCPU
# host.
EXTENSION_ROWS = 8 * CHUNK

# The least positive float64: x ln max(x, _TINY) is exactly 0 where x = 0
# and x ln x elsewhere, without a log of 0.
_TINY = float(np.nextafter(0.0, 1.0))

_SUM_TOL = 1e-6


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    """`p` as float64, each row along the last axis a distribution."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ValidationError(f"{name} has negative entries")
    totals = np.sum(p, axis=-1)
    off = totals[~(np.abs(totals - 1.0) <= _SUM_TOL)]  # a NaN total is off too
    if off.size:
        raise ValidationError(f"{name} sums to {off[0]}, not 1 within {_SUM_TOL}")
    return p


def _check_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or p.shape != q.shape:
        raise ValidationError(f"need two 1-D distributions of one length, got {p.shape}, {q.shape}")
    return _check_distribution(p, "p"), _check_distribution(q, "q")


def js_divergence(p, q) -> float:
    """0.5*[KL(p||m) + KL(q||m)] with m = (p+q)/2; symmetric, in [0, ln 2].

    A profile pass takes its divergences block by block (`_visible_js`) and
    never calls this one-pair form. It stays public as the independent
    reference that `_visible_js` is tested against, and because
    `bench/tracer.py` wraps `profiler.js_divergence` by name for its
    per-layer rows.
    """
    p, q = _check_pair(p, q)
    m = (p + q) / 2.0
    # m_i = 0 implies p_i = q_i = 0, so both KL terms are finite.
    return float(0.5 * (_kl_against(p, m) + _kl_against(q, m)))


def _kl_against(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-wise KL(p||m) where m > 0 wherever p > 0. Entries with p = 0 take
    ratio 1, so they add exactly 0 and no log(0) is evaluated."""
    ratio = np.divide(p, m, out=np.ones_like(p), where=p > 0)
    np.log(ratio, out=ratio)
    ratio *= p
    return np.sum(ratio, axis=-1)


@dataclass
class AttentionSnapshot:
    """Per-layer head-averaged attention captured during a prefill or an
    extension: layer l's (rows, keys) float64 `blocks[l]` in row order, every
    block with full_matrix and the latest block's last row alone otherwise."""

    blocks: list[list[np.ndarray]] = field(default_factory=list)

    @property
    def last_rows(self) -> list[np.ndarray]:
        return [b[-1][-1] for b in self.blocks]

    def validate(self) -> None:
        """Check every row the profile reads."""
        if not self.blocks:
            raise ValidationError("snapshot is empty")
        shapes = [b.shape for b in self.blocks[0]]
        for l, blocks in enumerate(self.blocks):
            if [b.shape for b in blocks] != shapes:
                raise ValidationError(f"layer {l} attention has shapes other than layer 0's")
            for b in blocks:
                _check_distribution(b, f"layer {l} attention")


class AttentionCapture:
    """Capture hook handed to prefill or extend; collects each layer's head
    means into its snapshot."""

    def __init__(self, full_matrix: bool = False):
        self.full_matrix = full_matrix
        self.snapshot = AttentionSnapshot()

    def record(self, layer: int, block: np.ndarray) -> None:
        """Record a block of attention, (n_heads, rows, keys), that follows
        the layer's last. The head mean adds heads in order in float64 (an
        outer-axis sum), which fixes its bits; without full_matrix it
        averages the last row alone and replaces the layer's earlier one."""
        rows = block if self.full_matrix else block[:, -1:]
        mean = rows.sum(axis=0, dtype=np.float64)
        mean /= len(block)
        blocks = self.snapshot.blocks
        if layer == len(blocks):
            blocks.append([])
        blocks[layer] = [*blocks[layer], mean] if self.full_matrix else [mean]


@dataclass(frozen=True)
class SimilarityProfile:
    n_layers: int
    n_samples: int
    S: np.ndarray  # (n_layers, n_layers) float64, symmetric, zero diagonal

    def __post_init__(self):
        # Cell by cell: in nested lists (as JSON holds S) no bool or string is a number.
        cells = np.asarray(self.S, dtype=object)
        if cells.ndim != 2 or not all(map(is_number, cells.flat)):
            raise ValidationError("S must be a matrix of numbers")
        S = cells.astype(np.float64)
        S.flags.writeable = False
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "n_layers", require_int("n_layers", self.n_layers, 1))
        object.__setattr__(self, "n_samples", require_int("n_samples", self.n_samples, 1))
        if self.S.shape != (self.n_layers, self.n_layers):
            raise ValidationError(f"S has shape {self.S.shape}, expected square n_layers")
        if not np.allclose(self.S, self.S.T, atol=1e-12):
            raise ValidationError("S must be symmetric")
        if np.any(np.abs(np.diag(self.S)) > 1e-12):
            raise ValidationError("S diagonal must be zero")
        if np.any(self.S < -1e-9) or np.any(self.S > LN2 + 1e-9):
            raise ValidationError("S entries must lie in [0, ln 2]")

    def adjacent(self) -> np.ndarray:
        """Vector of S(l, l+1) for l = 0 .. n_layers-2."""
        return np.array([self.S[i, i + 1] for i in range(self.n_layers - 1)])

    def similarity_view(self) -> np.ndarray:
        """Elementwise ln 2 - S; diagonal becomes ln 2 (maximal similarity)."""
        return LN2 - self.S

    def to_dict(self) -> dict:
        return {"n_layers": self.n_layers, "n_samples": self.n_samples, "S": self.S.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "SimilarityProfile":
        try:
            return SimilarityProfile(n_layers=d["n_layers"], n_samples=d["n_samples"], S=d["S"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed profile: {exc}") from exc


def profile_model(weights, corpus, full_matrix: bool = False) -> SimilarityProfile:
    """Mean pairwise JS divergence of per-layer attention over the corpus.

    Samples run one after another in corpus order, each call's attention
    validated before its rows are folded in, so the result is deterministic
    for a given (weights, corpus). With full_matrix the divergence is
    averaged over every query row instead of only the last.
    """
    corpus = list(corpus)  # read once, so an iterator is profiled too
    if not corpus:
        raise ValidationError("corpus must be non-empty")
    for i, seq in enumerate(corpus):
        if len(seq) < 2:
            raise ValidationError(f"corpus sample {i} has length {len(seq)}, need >= 2")

    n_layers = weights.config.n_layers
    S = np.zeros((n_layers, n_layers), dtype=np.float64)
    pairs = [(a, b) for a in range(n_layers) for b in range(a + 1, n_layers)]
    for seq in corpus:
        per_row = _sample_js(weights, seq, full_matrix, pairs)
        for (a, b), js in zip(pairs, per_row):
            S[a, b] += float(np.mean(js))
    S /= len(corpus)
    S = S + S.T
    return SimilarityProfile(n_layers=n_layers, n_samples=len(corpus), S=S)


def _sample_js(weights, seq: TokenSequence, full_matrix: bool, pairs) -> np.ndarray:
    """Per-row JS divergence of each layer pair on one sample, (pairs, rows):
    every row with full_matrix, the last alone otherwise. The first call is
    `runtime.prefill`, looked up now, so a wrapper set on it sees every
    profiled sample; later calls extend its store (see the module doc)."""
    step = EXTENSION_ROWS if full_matrix else len(seq)
    per_row = []
    for start in range(0, len(seq), step):
        part = TokenSequence(seq.token_ids[start : start + step], seq.modality[start : start + step])
        capture = AttentionCapture(full_matrix=full_matrix)
        if start == 0:
            store = runtime.prefill(weights, part, capture=capture, logits=False)[1]
        else:
            runtime.extend(weights, store, part, capture=capture, logits=False)
        capture.snapshot.validate()
        per_row.append(_visible_js(capture.snapshot.blocks, pairs))
    return np.concatenate(per_row, axis=1)


def _visible_js(blocks: list[list[np.ndarray]], pairs) -> np.ndarray:
    """JS divergence of each layer pair, (pairs, rows), for one call's
    head-mean blocks (see `AttentionSnapshot`), taken block by block; the
    entries past a row are masked, 0 in both layers, and add exactly 0."""
    out = []
    for block in zip(*blocks):
        self_terms = [_sum_xlogx(p) for p in block]
        js = np.empty((len(pairs), len(block[0])))
        for k, (a, b) in enumerate(pairs):
            mixture = block[a] + block[b]
            mixture *= 0.5
            js[k] = 0.5 * (self_terms[a] + self_terms[b]) - _sum_xlogx(mixture)
        out.append(js)
    return np.concatenate(out, axis=1)


def _sum_xlogx(x: np.ndarray) -> np.ndarray:
    """Row sums of x ln x along the last axis, entries equal to 0 adding 0."""
    t = np.maximum(x, _TINY)
    np.log(t, out=t)
    t *= x
    return t.sum(axis=-1)


def save_profile(profile: SimilarityProfile, path: str) -> None:
    atomic_write(path, json.dumps(profile.to_dict(), indent=2) + "\n")


def load_profile(path: str) -> SimilarityProfile:
    with open(path, "rb") as fh:
        return SimilarityProfile.from_dict(parse_json(fh.read(), ValidationError, path))


def adjacent_profile_csv(profile: SimilarityProfile) -> str:
    lines = ["layer_pair,js_divergence"]
    adj = profile.adjacent()
    for i, v in enumerate(adj):
        lines.append(f"{i}-{i + 1},{float(v)!r}")
    return "\n".join(lines) + "\n"
