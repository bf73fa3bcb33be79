"""Cache structures for the three runtimes.

Layer roles come from the plan: standard layers and block anchors own a full
post-rotation K cache plus a V cache; GLA lazy layers own no K at all (reads
resolve to their anchor); VLA lazy layers own K rows only for TEXT positions
and read visual K from their anchor. Every layer owns its full V cache.
Each cache is one (n_heads, L, d_head) array (`GrowableHeads`), so a layer
step appends, reads and prunes all heads at once.

Positions live in the store alone: the prompt's modality, the sequence
length and at most one prune record (a store is pruned at most once). A
layer's rows are all positions, or all but the removed ones, ascending; a
lazy layer prunes with its anchor, so its row i is its anchor's row i.

The Q cache is block-scoped: it holds at most one block's anchor queries at
any moment (the full sequence during prefill, a single row during GLA
decode) and is released once prefill ends. Byte accounting everywhere is
logical: stored elements times 4, independent of buffer capacity.
"""

from __future__ import annotations

import copy

import numpy as np

from .errors import ValidationError
from .model import VISUAL, ModelConfig, TokenSequence
from .planner import GLA, LazyPlan

ROLE_STANDARD = "standard"
ROLE_ANCHOR = "anchor"
ROLE_LAZY = "lazy"


class LayerRole:
    __slots__ = ("kind", "block", "anchor_layer")

    def __init__(self, kind: str, block: int | None = None, anchor_layer: int | None = None):
        self.kind = kind
        self.block = block
        self.anchor_layer = anchor_layer


def roles_from_plan(plan: LazyPlan | None, n_layers: int) -> list[LayerRole]:
    roles = [LayerRole(ROLE_STANDARD) for _ in range(n_layers)]
    if plan is None:
        return roles
    plan.validate()
    if plan.n_layers != n_layers:
        raise ValidationError(
            f"plan covers {plan.n_layers} layers but the model has {n_layers}"
        )
    for b, block in enumerate(plan.blocks):
        roles[block.anchor] = LayerRole(ROLE_ANCHOR, block=b, anchor_layer=block.anchor)
        for l in block.lazy_layers:
            roles[l] = LayerRole(ROLE_LAZY, block=b, anchor_layer=block.anchor)
    return roles


class GrowableHeads:
    """(n_heads, length, d_head) float32 array that grows along the length axis.

    Capacity doubles when full. `data` is a view of the filled prefix; each
    head's (length, d_head) slab in it is C-contiguous, so `data` and its
    transposes can go straight to the kernels. Logical bytes ignore spare
    capacity.
    """

    def __init__(self, n_heads: int, d_head: int, capacity: int = 8):
        self._buf = np.empty((n_heads, max(capacity, 1), d_head), dtype=np.float32)
        self._len = 0

    def append(self, rows: np.ndarray) -> None:
        """Append (n_heads, n, d_head) rows after the filled prefix."""
        need = self._len + rows.shape[1]
        if need > self._buf.shape[1]:
            n_heads, cap, d_head = self._buf.shape
            buf = np.empty((n_heads, max(need, cap * 2), d_head), dtype=np.float32)
            buf[:, : self._len] = self._buf[:, : self._len]
            self._buf = buf
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
        self._buf = self._buf[:, keep]
        self._len = len(keep)


def _block(idx: np.ndarray) -> np.ndarray | slice:
    """`idx` as a slice when it is one ascending run, so numpy copies a block
    instead of gathering row by row."""
    start = int(idx[0]) if len(idx) else 0
    if np.array_equal(idx, np.arange(start, start + len(idx))):
        return slice(start, start + len(idx))
    return idx


class RowSplit:
    """Which rows of a layout are visual and which are text; each index is
    a slice when it is one ascending run (as for a leading visual span)."""

    __slots__ = ("visual", "text", "n_visual", "n_text")

    def __init__(self, is_visual: np.ndarray):
        self.visual = _block(np.flatnonzero(is_visual))
        self.text = _block(np.flatnonzero(~is_visual))
        self.n_visual = int(np.count_nonzero(is_visual))
        self.n_text = len(is_visual) - self.n_visual


class LayerCache:
    """One layer's K/V store: one (n_heads, L, d_head) array each for keys
    and values, plus the visual/text split of its prompt rows (the store's,
    replaced by the shared pruned split when the layer prunes). A VLA lazy
    layer's keys are its text rows only."""

    def __init__(self, n_heads: int, d_head: int, own_keys: bool, split: RowSplit):
        self.keys = GrowableHeads(n_heads, d_head) if own_keys else None
        self.values = GrowableHeads(n_heads, d_head)
        self.split = split

    @property
    def stored_len(self) -> int:
        return len(self.values)

    def append_keys(self, k: np.ndarray) -> None:
        if self.keys is None:
            raise ValidationError("layer owns no key cache")
        self.keys.append(k)

    def append_values(self, v: np.ndarray) -> None:
        self.values.append(v)

    def merged_keys(self, anchor: "LayerCache") -> np.ndarray:
        """Own text keys merged with the anchor's visual keys, (n_heads, L,
        d_head) in position order. The split places the prompt rows (row i
        of the anchor is row i here); decoded rows follow as one block."""
        split = self.split
        own = self.keys.data
        n_heads, n_own, d_head = own.shape
        head = split.n_visual + split.n_text  # rows the split covers
        out = np.empty((n_heads, head + n_own - split.n_text, d_head), dtype=np.float32)
        out[:, split.visual] = anchor.keys.data[:, split.visual]
        out[:, split.text] = own[:, : split.n_text]
        out[:, head:] = own[:, split.n_text :]
        return out

    @property
    def key_bytes(self) -> int:
        return self.keys.nbytes if self.keys is not None else 0

    @property
    def value_bytes(self) -> int:
        return self.values.nbytes

    @property
    def nbytes(self) -> int:
        return self.key_bytes + self.value_bytes

    def prune(self, keep: np.ndarray, split: RowSplit) -> None:
        """Keep the given rows (ascending). A prune removes a visual row, so
        text-only keys are shorter than the values and keep all theirs."""
        if self.keys is not None and len(self.keys) == len(self.values):
            self.keys.keep_rows(keep)
        self.values.keep_rows(keep)
        self.split = split


class QCache:
    """The block-shared query cache.

    Holds at most one block's anchor queries at a time, as one
    (n_heads, n, d_head) array; publish() on a new block overwrites the
    previous one. Peak logical bytes are tracked so the 1/(2N) overhead
    bound can be checked against real occupancy.
    """

    def __init__(self):
        self.block: int | None = None
        self.q_heads: np.ndarray | None = None
        self.peak_bytes = 0

    def publish(self, block: int, q_heads: np.ndarray) -> None:
        self.block = block
        self.q_heads = q_heads
        self.peak_bytes = max(self.peak_bytes, self.nbytes)

    def read(self, block: int) -> np.ndarray:
        if self.q_heads is None or self.block != block:
            raise ValidationError(
                f"Q cache holds block {self.block}, layer asked for block {block}"
            )
        return self.q_heads

    def release(self) -> None:
        self.block = None
        self.q_heads = None

    @property
    def nbytes(self) -> int:
        return 0 if self.q_heads is None else self.q_heads.size * 4


class PruneRecord:
    """What the one visual-token pruning pass removed. The oracle replays it:
    at layers whose block reference exceeds `layer`, query rows at positions
    >= prompt_len attend only to columns not in `removed`."""

    __slots__ = ("layer", "removed", "prompt_len")

    def __init__(self, layer: int, removed: tuple[int, ...], prompt_len: int):
        self.layer = layer
        self.removed = removed
        self.prompt_len = prompt_len


class CacheStore:
    """All request state for one in-flight sequence. `modality` is True at
    the prompt's VISUAL positions; decoded tokens are TEXT."""

    def __init__(self, config: ModelConfig, plan: LazyPlan | None, tokens: TokenSequence):
        self.config = config
        self.mode = plan.mode if plan is not None else "standard"
        self.roles = roles_from_plan(plan, config.n_layers)
        self.modality = np.asarray(tokens.modality) == VISUAL
        self.split = RowSplit(self.modality)
        own_keys = [not (r.kind == ROLE_LAZY and self.mode == GLA) for r in self.roles]
        self.layers = [LayerCache(config.n_heads, config.d_head, k, self.split) for k in own_keys]
        self.qcache = QCache()
        self.seq_len = 0
        self.prune_record: PruneRecord | None = None

    @property
    def n_visual(self) -> int:
        """Visual positions the pruned layers keep (all of them unpruned)."""
        removed = 0 if self.prune_record is None else len(self.prune_record.removed)
        return self.split.n_visual - removed

    @property
    def n_text(self) -> int:
        """Text positions after prefill: the prompt's plus every decoded one."""
        return self.seq_len - self.split.n_visual

    def kv_bytes(self) -> int:
        return sum(layer.nbytes for layer in self.layers)

    def layer_kv_bytes(self) -> list[tuple[int, int]]:
        return [(layer.key_bytes, layer.value_bytes) for layer in self.layers]

    def anchor_cache(self, role: LayerRole) -> LayerCache:
        return self.layers[role.anchor_layer]

    def clone(self) -> "CacheStore":
        return copy.deepcopy(self)
