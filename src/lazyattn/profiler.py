"""Inter-layer attention similarity profiling.

For every input sample the engine captures each layer's head-averaged
attention distribution for the final token (the full matrix behind a flag
for small sequences). Similarity between two layers is the Jensen-Shannon
divergence of those distributions, averaged over the corpus, giving the
symmetric matrix S with values in [0, ln 2] (natural log throughout).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import atomic_write, strict_int

LN2 = math.log(2.0)

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


def kl_divergence(p, q) -> float:
    """Sum of p_i * ln(p_i / q_i) with the 0*ln(0/x) := 0 convention.

    Returns +inf when some p_i > 0 has q_i = 0.
    """
    p, q = _check_pair(p, q)
    if np.any(q[p > 0] == 0):
        return math.inf
    return float(_kl_against(p, q))


def js_divergence(p, q) -> float:
    """0.5*[KL(p||m) + KL(q||m)] with m = (p+q)/2; symmetric, in [0, ln 2]."""
    return float(_js_rows(*_check_pair(p, q)))


def _js_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """JS divergence of each row pair along the last axis, unvalidated."""
    m = (p + q) / 2.0
    # m_i = 0 implies p_i = q_i = 0, so both KL terms are finite.
    return 0.5 * (_kl_against(p, m) + _kl_against(q, m))


def _kl_against(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Row-wise KL(p||m) where m > 0 wherever p > 0. Entries with p = 0 take
    ratio 1, so they add exactly 0 and no log(0) is evaluated."""
    ratio = np.divide(p, m, out=np.ones_like(p), where=p > 0)
    np.log(ratio, out=ratio)
    ratio *= p
    return np.sum(ratio, axis=-1)


@dataclass
class AttentionSnapshot:
    """Per-layer head-averaged attention rows captured during one prefill."""

    last_rows: list[np.ndarray] = field(default_factory=list)
    matrices: list[np.ndarray] | None = None
    head_matrices: list[list[np.ndarray]] | None = None

    def validate(self) -> None:
        """Check every row the profile reads, the full matrices' if captured."""
        rows = self.last_rows if self.matrices is None else self.matrices
        if not rows:
            raise ValidationError("snapshot is empty")
        shape = rows[0].shape
        for l, r in enumerate(rows):
            if r.shape != shape:
                raise ValidationError(f"layer {l} attention has shape {r.shape} != {shape}")
            _check_distribution(r, f"layer {l} attention")


class AttentionCapture:
    """Capture hook handed to prefill; collects what the caller asked for."""

    def __init__(self, full_matrix: bool = False, per_head: bool = False):
        self.full_matrix = full_matrix
        self.per_head = per_head
        self.snapshot = AttentionSnapshot(
            last_rows=[],
            matrices=[] if full_matrix else None,
            head_matrices=[] if per_head else None,
        )

    def record(self, layer: int, head_attn: np.ndarray) -> None:
        """Record one layer's attention, (n_heads, rows, cols). The head mean
        adds heads in order in float64 (an outer-axis sum), which fixes its
        bits; without full_matrix it averages the last row alone."""
        rows = head_attn if self.full_matrix else head_attn[:, -1:]
        mean = rows.sum(axis=0, dtype=np.float64) / len(head_attn)
        self.snapshot.last_rows.append(mean[-1])
        if self.full_matrix:
            self.snapshot.matrices.append(mean)
        if self.per_head:
            self.snapshot.head_matrices.append([a.copy() for a in head_attn])


@dataclass
class SimilarityProfile:
    n_layers: int
    n_samples: int
    S: np.ndarray  # (n_layers, n_layers) float64, symmetric, zero diagonal

    def validate(self) -> None:
        if self.S.shape != (self.n_layers, self.n_layers):
            raise ValidationError(f"S has shape {self.S.shape}, expected square n_layers")
        if self.n_samples < 1:
            raise ValidationError("n_samples must be >= 1")
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
            profile = SimilarityProfile(
                n_layers=strict_int(d["n_layers"]),
                n_samples=strict_int(d["n_samples"]),
                S=np.asarray(d["S"], dtype=np.float64),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed profile: {exc}") from exc
        profile.validate()
        return profile


def profile_model(weights, corpus, full_matrix: bool = False) -> SimilarityProfile:
    """Mean pairwise JS divergence of per-layer attention over the corpus.

    Each sample is prefilled once with a capture hook, validated and added
    to the sums before the next one runs, in corpus order, so the result is
    deterministic for a given (weights, corpus). With full_matrix the
    divergence is averaged over every query row instead of only the last.
    """
    # Looked up at call time, so a wrapper installed on runtime.prefill sees
    # the profiling prefills too.
    from .runtime import prefill

    if not corpus:
        raise ValidationError("corpus must be non-empty")
    for i, seq in enumerate(corpus):
        if len(seq) < 2:
            raise ValidationError(f"corpus sample {i} has length {len(seq)}, need >= 2")

    n_layers = weights.config.n_layers
    S = np.zeros((n_layers, n_layers), dtype=np.float64)
    for seq in corpus:
        capture = AttentionCapture(full_matrix=full_matrix)
        prefill(weights, seq, capture=capture)
        snap = capture.snapshot
        snap.validate()
        # Causally masked entries are exactly 0 in both rows, so they add
        # nothing; the last-row profile is the one-row case.
        rows = snap.matrices if full_matrix else snap.last_rows
        for a in range(n_layers):
            for b in range(a + 1, n_layers):
                S[a, b] += float(np.mean(_js_rows(rows[a], rows[b])))
    S /= len(corpus)
    S = S + S.T
    profile = SimilarityProfile(n_layers=n_layers, n_samples=len(corpus), S=S)
    profile.validate()
    return profile


def save_profile(profile: SimilarityProfile, path: str) -> None:
    profile.validate()
    atomic_write(path, json.dumps(profile.to_dict(), indent=2) + "\n")


def load_profile(path: str) -> SimilarityProfile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"unparseable profile {path}: {exc}") from exc
    return SimilarityProfile.from_dict(d)


def adjacent_profile_csv(profile: SimilarityProfile) -> str:
    lines = ["layer_pair,js_divergence"]
    adj = profile.adjacent()
    for i, v in enumerate(adj):
        lines.append(f"{i}-{i + 1},{float(v)!r}")
    return "\n".join(lines) + "\n"
