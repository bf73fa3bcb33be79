"""Cache structures for the standard runtime and both lazy modes.

Each layer's anchor comes from the plan (`planner.layer_anchors`): a layer
whose anchor is itself owns a full post-rotation K cache; a lazy layer, whose
anchor is an earlier layer, owns K rows only for its own positions and reads
the shared ones from its anchor. Which rows are shared is decided by the
store as they arrive: every row under GLA, the visual rows under VLA. Every
layer owns its full V cache.
Each cache is one (n_heads, L, d_head) array (`GrowableHeads`), so a layer
step appends, reads and prunes all heads at once.

Positions live in the store alone: one modality mask and one shared/own
split over all its rows, which each extension and decode step grows (a
slice, as for a leading visual span, grows in place), the sequence length,
how many rows are prompt rows, and at most one prune record (a store is
pruned at most once). A layer's rows are all positions, or all but the
removed ones, ascending; a layer the prune cut keeps its own split, which
grows the same way. A lazy layer prunes with its anchor, so its row i is
its anchor's row i.

The Q cache is block-scoped: one slot holds at most one anchor's rows at
any moment, the queries of the shared rows of one call or, in a GLA
decode step, that anchor's attention block, tagged with which, and is
released when that call ends. Byte accounting everywhere is logical:
stored elements times 4, independent of buffer capacity.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .model import ModelConfig
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


def _joined(head: np.ndarray | slice, tail: np.ndarray, start: int) -> np.ndarray | slice:
    """The positions `head`, then the ascending positions `tail` shifted by
    `start`: a slice while they form one run, so numpy copies a block
    instead of gathering row by row."""
    if not len(tail):
        return head
    first, stop = start + int(tail[0]), start + int(tail[-1]) + 1
    if stop - first == len(tail) and isinstance(head, slice) and head.stop in (head.start, first):
        return slice(first if head.start == head.stop else head.start, stop)
    return np.r_[head, tail + start]


class RowSplit:
    """Which rows of a layout a lazy layer shares with its anchor and which
    it owns; each index is a slice when it is one ascending run (as for a
    leading visual span)."""

    __slots__ = ("shared", "own", "n_shared", "n_own")

    def __init__(self, is_shared: np.ndarray):
        self.shared = self.own = slice(0, 0)
        self.n_shared = self.n_own = 0
        self.grow(is_shared)

    def grow(self, is_shared: np.ndarray) -> None:
        """Append rows after those the split covers, shared where
        `is_shared` is True; a slice that they continue stays a slice."""
        start = self.n_shared + self.n_own
        shared, own = np.flatnonzero(is_shared), np.flatnonzero(~is_shared)
        self.shared = _joined(self.shared, shared, start)
        self.own = _joined(self.own, own, start)
        self.n_shared += len(shared)
        self.n_own += len(own)

    def merge(self, shared: np.ndarray, own: np.ndarray) -> np.ndarray:
        """(n_heads, rows, d_head) rows in position order: `shared` at the
        shared rows and `own` at the own rows."""
        n_heads, _, d_head = own.shape
        out = np.empty((n_heads, self.n_shared + self.n_own, d_head), dtype=np.float32)
        out[:, self.shared] = shared
        out[:, self.own] = own
        return out


class LayerCache:
    """One layer's K/V store: one (n_heads, L, d_head) array each for keys
    and values, plus the shared/own split of its rows (the store's,
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
        layer owns none. The split places every row (row i of the anchor is
        row i here)."""
        if not len(self.keys):
            return anchor.keys.data
        return self.split.merge(anchor.keys.data[:, self.split.shared], self.keys.data)

    @property
    def nbytes(self) -> int:
        return self.keys.nbytes + self.values.nbytes

    def prune(self, keep: np.ndarray, split: RowSplit) -> None:
        """Keep the given rows (ascending). A prune removes a shared row, so
        own-row keys are shorter than the values and keep all theirs."""
        if len(self.keys) == len(self.values):
            self.keys.keep_rows(keep)
        self.values.keep_rows(keep)
        self.split = split


class QCache:
    """The block-shared query cache: one slot for one anchor layer's rows
    at a time, tagged by that anchor's index and by what they are. An
    anchor publishes its shared rows' queries, one (n_heads, n, d_head)
    array, or, where its lazy layers inherit its attention (a GLA decode
    step, see `runtime`), its (n_heads, 1, L) attention block with
    `attention=True`; its lazy layers read the slot, and the next anchor's
    publish() overwrites it. Peak logical bytes count whatever the slot
    held. A block's n_heads * L entries are at most d_model * L, the
    queries of L rows, so the 1/(2N) overhead bound is checked against
    real occupancy.
    """

    def __init__(self):
        self.anchor: int | None = None
        self.rows: np.ndarray | None = None
        self.attention = False
        self.peak_bytes = 0

    def publish(self, anchor: int, rows: np.ndarray, attention: bool = False) -> None:
        self.anchor, self.rows, self.attention = anchor, rows, attention
        self.peak_bytes = max(self.peak_bytes, self.nbytes)

    def read(self, anchor: int) -> np.ndarray:
        if self.rows is None or self.anchor != anchor:
            held = "attention" if self.attention else "queries"
            raise ValidationError(
                f"Q cache holds layer {self.anchor}'s {held}, layer asked for layer {anchor}'s"
            )
        return self.rows

    def release(self) -> None:
        self.anchor, self.rows, self.attention = None, None, False

    @property
    def nbytes(self) -> int:
        return 0 if self.rows is None else self.rows.size * 4


class PruneRecord(NamedTuple):
    """What the one visual-token pruning pass removed. The oracle replays it:
    at layers whose anchor exceeds `layer`, query rows at positions
    >= prompt_len attend only to columns not in `removed`."""

    layer: int
    removed: tuple[int, ...]
    prompt_len: int


class CacheStore:
    """All request state for one in-flight sequence, empty when built.
    `modality` is True at the VISUAL rows among all its rows; the first
    `n_prompt` are prompt rows, the rest decoded (TEXT). `split` divides the
    rows into those a lazy layer takes from its anchor and those it owns.
    `anchors[l]` is layer l's anchor (see `planner.layer_anchors`)."""

    def __init__(self, config: ModelConfig, plan: LazyPlan | None):
        self.config = config
        self.anchors = layer_anchors(plan, config.n_layers)
        self.all_shared = plan is not None and plan.mode == GLA
        self.modality = np.zeros(0, dtype=bool)
        self.split = RowSplit(self.modality)
        self.layers = [LayerCache(config.n_heads, config.d_head, self.split) for _ in self.anchors]
        self.qcache = QCache()
        self.seq_len = 0
        self.n_prompt = 0
        self.prune_record: PruneRecord | None = None

    def grow(self, visual: np.ndarray) -> RowSplit:
        """Add rows of the modality `visual` to the mask and every layer's
        split; returns theirs. The caller appends K/V, then moves `seq_len`."""
        self.modality = np.concatenate([self.modality, visual])
        shared = np.ones_like(visual) if self.all_shared else visual
        for split in {layer.split for layer in self.layers}:
            split.grow(shared)
        return RowSplit(shared)

    @property
    def n_visual(self) -> int:
        """Visual positions the pruned layers keep (all of them unpruned)."""
        removed = 0 if self.prune_record is None else len(self.prune_record.removed)
        return int(np.count_nonzero(self.modality)) - removed

    @property
    def n_text(self) -> int:
        """Text positions: the prompt's plus every decoded one."""
        return self.seq_len - int(np.count_nonzero(self.modality))

    def kv_bytes(self) -> int:
        return sum(layer.nbytes for layer in self.layers)

    def clone(self) -> "CacheStore":
        return copy.deepcopy(self)
