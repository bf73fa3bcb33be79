"""Cache structures for the standard runtime and both lazy modes.

Each layer's anchor comes from the plan (`planner.layer_anchors`): a layer
whose anchor is itself owns a full post-rotation K cache; a lazy layer, whose
anchor is an earlier layer, owns K rows only for its own positions and reads
the shared ones from its anchor. Which prompt rows are shared is decided
once, by the store: every row under GLA, the visual rows under VLA. Every
layer owns its full V cache.
Each cache is one (n_heads, L, d_head) array (`GrowableHeads`), so a layer
step appends, reads and prunes all heads at once.

Positions live in the store alone: the prompt's modality, its shared/own
split, the sequence length and at most one prune record (a store is pruned
at most once). A layer's rows are all positions, or all but the removed
ones, ascending; a lazy layer prunes with its anchor, so its row i is its
anchor's row i.

The Q cache is block-scoped: it holds at most one anchor's queries at
any moment (the shared prompt rows during prefill, a single row during GLA
decode) and is released once prefill ends. Byte accounting everywhere is
logical: stored elements times 4, independent of buffer capacity.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .model import VISUAL, ModelConfig, TokenSequence
from .planner import GLA, LazyPlan, layer_anchors


# Spare rows a buffer gets past what it must hold whenever it reallocates,
# so the decode steps after a prefill or a prune append in place.
HEADROOM = 64


class GrowableHeads:
    """(n_heads, length, d_head) float32 array that grows along the length axis.

    When full it reallocates to HEADROOM rows past what it must hold, or to
    twice its capacity if that is more; a prune compacts it with the same
    headroom. `data` is a view of the filled prefix; each head's (length,
    d_head) slab in it is C-contiguous, so `data` and its transposes can go
    straight to the kernels. Logical bytes ignore spare capacity.
    """

    def __init__(self, n_heads: int, d_head: int):
        # Empty until the first append, which then sizes it with headroom.
        self._buf = np.empty((n_heads, 0, d_head), dtype=np.float32)
        self._len = 0

    def _reallocate(self, rows: np.ndarray, capacity: int) -> None:
        """A new buffer of `capacity` rows whose filled prefix is `rows`."""
        n_heads, _, d_head = self._buf.shape
        self._len = rows.shape[1]
        self._buf = np.empty((n_heads, capacity, d_head), dtype=np.float32)
        self._buf[:, : self._len] = rows

    def append(self, rows: np.ndarray) -> None:
        """Append (n_heads, n, d_head) rows after the filled prefix."""
        need = self._len + rows.shape[1]
        cap = self._buf.shape[1]
        if need > cap:
            self._reallocate(self.data, max(need + HEADROOM, 2 * cap))
        self._buf[:, self._len : need] = rows
        self._len = need

    @property
    def data(self) -> np.ndarray:
        return self._buf[:, : self._len]

    def __len__(self) -> int:
        return self._len

    @property
    def nbytes(self) -> int:
        return self._buf.shape[0] * self._len * self._buf.shape[2] * 4

    def keep_rows(self, keep: np.ndarray) -> None:
        """Compact to the given row indices (ascending)."""
        self._reallocate(self._buf[:, keep], len(keep) + HEADROOM)


def _block(idx: np.ndarray) -> np.ndarray | slice:
    """`idx` as a slice when it is one ascending run, so numpy copies a block
    instead of gathering row by row."""
    start = int(idx[0]) if len(idx) else 0
    if np.array_equal(idx, np.arange(start, start + len(idx))):
        return slice(start, start + len(idx))
    return idx


class RowSplit:
    """Which rows of a layout a lazy layer shares with its anchor and which
    it owns; each index is a slice when it is one ascending run (as for a
    leading visual span)."""

    __slots__ = ("shared", "own", "n_shared", "n_own")

    def __init__(self, is_shared: np.ndarray):
        self.shared = _block(np.flatnonzero(is_shared))
        self.own = _block(np.flatnonzero(~is_shared))
        self.n_shared = int(np.count_nonzero(is_shared))
        self.n_own = len(is_shared) - self.n_shared

    def merge(self, shared: np.ndarray, own: np.ndarray) -> np.ndarray:
        """(n_heads, rows, d_head) rows in position order: `shared` at the
        shared rows, own's first n_own rows at the own rows, and own's later
        rows (decoded ones) after all the rows the split covers."""
        n_heads, n_own, d_head = own.shape
        head = self.n_shared + self.n_own
        out = np.empty((n_heads, head + n_own - self.n_own, d_head), dtype=np.float32)
        out[:, self.shared] = shared
        out[:, self.own] = own[:, : self.n_own]
        out[:, head:] = own[:, self.n_own :]
        return out


class LayerCache:
    """One layer's K/V store: one (n_heads, L, d_head) array each for keys
    and values, plus the shared/own split of its prompt rows (the store's,
    replaced by the pruned split when the layer prunes). A lazy layer's
    keys are its own rows only."""

    def __init__(self, n_heads: int, d_head: int, split: RowSplit):
        self.keys = GrowableHeads(n_heads, d_head)
        self.values = GrowableHeads(n_heads, d_head)
        self.split = split

    def append_keys(self, k: np.ndarray) -> None:
        self.keys.append(k)

    def append_values(self, v: np.ndarray) -> None:
        self.values.append(v)

    def merged_keys(self, anchor: "LayerCache") -> np.ndarray:
        """Own keys merged with the anchor's shared keys, (n_heads, L,
        d_head) in position order: the anchor's keys themselves when the
        layer owns none. The split places the prompt rows (row i of the
        anchor is row i here); decoded rows follow as one block."""
        if not len(self.keys):
            return anchor.keys.data
        return self.split.merge(anchor.keys.data[:, self.split.shared], self.keys.data)

    @property
    def key_bytes(self) -> int:
        return self.keys.nbytes

    @property
    def value_bytes(self) -> int:
        return self.values.nbytes

    @property
    def nbytes(self) -> int:
        return self.key_bytes + self.value_bytes

    def prune(self, keep: np.ndarray, split: RowSplit) -> None:
        """Keep the given rows (ascending). A prune removes a shared row, so
        own-row keys are shorter than the values and keep all theirs."""
        if len(self.keys) == len(self.values):
            self.keys.keep_rows(keep)
        self.values.keep_rows(keep)
        self.split = split


class QCache:
    """The block-shared query cache.

    Holds at most one anchor layer's queries at a time, as one
    (n_heads, n, d_head) array, tagged by that anchor's index; publish() by
    the next anchor overwrites them. Peak logical bytes are tracked so the
    1/(2N) overhead bound can be checked against real occupancy.
    """

    def __init__(self):
        self.anchor: int | None = None
        self.q_heads: np.ndarray | None = None
        self.peak_bytes = 0

    def publish(self, anchor: int, q_heads: np.ndarray) -> None:
        self.anchor = anchor
        self.q_heads = q_heads
        self.peak_bytes = max(self.peak_bytes, self.nbytes)

    def read(self, anchor: int) -> np.ndarray:
        if self.q_heads is None or self.anchor != anchor:
            raise ValidationError(
                f"Q cache holds layer {self.anchor}'s queries, layer asked for layer {anchor}'s"
            )
        return self.q_heads

    def release(self) -> None:
        self.anchor = None
        self.q_heads = None

    @property
    def nbytes(self) -> int:
        return 0 if self.q_heads is None else self.q_heads.size * 4


class PruneRecord(NamedTuple):
    """What the one visual-token pruning pass removed. The oracle replays it:
    at layers whose anchor exceeds `layer`, query rows at positions
    >= prompt_len attend only to columns not in `removed`."""

    layer: int
    removed: tuple[int, ...]
    prompt_len: int


class CacheStore:
    """All request state for one in-flight sequence. `modality` is True at
    the prompt's VISUAL positions; decoded tokens are TEXT. `shared` is
    True at the prompt rows a lazy layer takes from its anchor; `split`
    divides the prompt by it and `decode_split` a decoded row. `anchors[l]`
    is layer l's anchor (see `planner.layer_anchors`)."""

    def __init__(self, config: ModelConfig, plan: LazyPlan | None, tokens: TokenSequence):
        self.config = config
        self.anchors = layer_anchors(plan, config.n_layers)
        self.modality = np.asarray(tokens.modality) == VISUAL
        gla = plan is not None and plan.mode == GLA
        self.shared = np.ones_like(self.modality) if gla else self.modality
        self.split = RowSplit(self.shared)
        self.decode_split = RowSplit(np.full(1, gla))
        self.layers = [LayerCache(config.n_heads, config.d_head, self.split) for _ in self.anchors]
        self.qcache = QCache()
        self.seq_len = 0
        self.prune_record: PruneRecord | None = None

    @property
    def n_visual(self) -> int:
        """Visual positions the pruned layers keep (all of them unpruned)."""
        removed = 0 if self.prune_record is None else len(self.prune_record.removed)
        return int(np.count_nonzero(self.modality)) - removed

    @property
    def n_text(self) -> int:
        """Text positions after prefill: the prompt's plus every decoded one."""
        return self.seq_len - int(np.count_nonzero(self.modality))

    def kv_bytes(self) -> int:
        return sum(layer.nbytes for layer in self.layers)

    def clone(self) -> "CacheStore":
        return copy.deepcopy(self)
