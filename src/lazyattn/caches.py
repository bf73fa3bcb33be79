"""Cache structures for the three runtimes.

Layer roles come from the plan: standard layers and block anchors own a full
post-rotation K cache plus a V cache; GLA lazy layers own no K at all (reads
resolve to their anchor); VLA lazy layers own K rows only for TEXT positions
and read visual K from their anchor. Every layer owns its full V cache.
Each cache is one (n_heads, L, d_head) array (`GrowableHeads`), so a layer
step appends, reads and prunes all heads at once.

The Q cache is block-scoped: it holds at most one block's anchor queries at
any moment (the full sequence during prefill, a single row during GLA
decode) and is released once prefill ends. Byte accounting everywhere is
logical: stored elements times 4, independent of buffer capacity.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import TEXT, VISUAL, ModelConfig, TokenSequence
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

    def clone(self) -> "GrowableHeads":
        out = GrowableHeads(self._buf.shape[0], self._buf.shape[2], capacity=self._len)
        out.append(self.data)
        return out


def _block(idx: np.ndarray) -> np.ndarray | slice:
    """`idx` as a slice when it is one ascending run, so numpy copies a block
    instead of gathering row by row."""
    start = int(idx[0]) if len(idx) else 0
    if np.array_equal(idx, np.arange(start, start + len(idx))):
        return slice(start, start + len(idx))
    return idx


class LayerCache:
    """One layer's K/V store: one (n_heads, L, d_head) array each for keys
    and values, with per-row position labels.

    Keys and values may cover different position sets (VLA lazy layers keep
    text-only keys but full values); positions are always stored ascending.

    A VLA lazy layer attends over its own text keys merged with its
    anchor's visual keys in position order. `merged_keys` builds that order
    once, as index arrays: the anchor's visual rows, the merged slots they
    fill, and the merged slots of the layer's own rows. Own rows appended
    later are decoded text tokens, the latest positions, so they follow the
    indexed part as one block. The index is reset when the layer prunes. An
    index that is one ascending run is kept as a slice (a leading visual
    span costs a few block copies; interleaved modality costs one gather).
    The anchor's visual keys are copied per call, never stored twice.
    """

    def __init__(self, n_heads: int, d_head: int, own_keys: bool):
        self.keys = GrowableHeads(n_heads, d_head) if own_keys else None
        self.values = GrowableHeads(n_heads, d_head)
        self.key_positions: list[int] = []
        self.value_positions: list[int] = []
        # (anchor rows, their merged slots, own slots, own rows indexed)
        self._merge: tuple | None = None

    @property
    def stored_len(self) -> int:
        return len(self.value_positions)

    def append_keys(self, k: np.ndarray, positions: list[int]) -> None:
        if self.keys is None:
            raise ValidationError("layer owns no key cache")
        self.keys.append(k)
        self.key_positions.extend(positions)

    def append_values(self, v: np.ndarray, positions: list[int]) -> None:
        self.values.append(v)
        self.value_positions.extend(positions)

    def merged_keys(self, anchor: "LayerCache", visual_set: frozenset[int]) -> np.ndarray:
        """Own keys merged with the anchor's visual keys, (n_heads, L, d_head)
        in ascending position order."""
        if self._merge is None:
            rows = [i for i, p in enumerate(anchor.key_positions) if p in visual_set]
            positions = [anchor.key_positions[i] for i in rows] + self.key_positions
            slots = np.empty(len(positions), dtype=np.intp)
            slots[np.argsort(positions)] = np.arange(len(positions))
            self._merge = (
                _block(np.array(rows, dtype=np.intp)),
                _block(slots[: len(rows)]),
                _block(slots[len(rows) :]),
                len(self.key_positions),
            )
        anchor_rows, anchor_slots, own_slots, n_indexed = self._merge
        own = self.keys.data
        visual = anchor.keys.data[:, anchor_rows]
        n_heads, n_own, d_head = own.shape
        head = visual.shape[1] + n_indexed  # merged slots the index covers
        out = np.empty((n_heads, head + n_own - n_indexed, d_head), dtype=np.float32)
        out[:, anchor_slots] = visual
        out[:, own_slots] = own[:, :n_indexed]
        out[:, head:] = own[:, n_indexed:]
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

    def prune_positions(self, removed: set[int]) -> None:
        self._merge = None
        if self.keys is not None and any(p in removed for p in self.key_positions):
            keep = np.array(
                [i for i, p in enumerate(self.key_positions) if p not in removed], dtype=np.intp
            )
            self.keys.keep_rows(keep)
            self.key_positions = [p for p in self.key_positions if p not in removed]
        if any(p in removed for p in self.value_positions):
            keep = np.array(
                [i for i, p in enumerate(self.value_positions) if p not in removed], dtype=np.intp
            )
            self.values.keep_rows(keep)
            self.value_positions = [p for p in self.value_positions if p not in removed]

    def clone(self) -> "LayerCache":
        out = object.__new__(LayerCache)
        out.keys = None if self.keys is None else self.keys.clone()
        out.values = self.values.clone()
        out.key_positions = list(self.key_positions)
        out.value_positions = list(self.value_positions)
        out._merge = self._merge  # replaced on reset, never edited in place
        return out


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

    def clone(self) -> "QCache":
        out = QCache()
        out.block = self.block
        out.q_heads = None if self.q_heads is None else self.q_heads.copy()
        out.peak_bytes = self.peak_bytes
        return out


class ModalityIndex:
    """Partition of sequence positions into text and visual, kept sorted."""

    def __init__(self, text_positions: list[int], visual_positions: list[int]):
        self.text_positions = sorted(text_positions)
        self.visual_positions = sorted(visual_positions)

    @staticmethod
    def from_sequence(tokens: TokenSequence) -> "ModalityIndex":
        text = [i for i, m in enumerate(tokens.modality) if m == TEXT]
        visual = [i for i, m in enumerate(tokens.modality) if m == VISUAL]
        return ModalityIndex(text, visual)

    def append_text(self, position: int) -> None:
        self.text_positions.append(position)

    def drop_visual(self, removed: set[int]) -> None:
        self.visual_positions = [p for p in self.visual_positions if p not in removed]

    @property
    def n_text(self) -> int:
        return len(self.text_positions)

    @property
    def n_visual(self) -> int:
        return len(self.visual_positions)

    def clone(self) -> "ModalityIndex":
        return ModalityIndex(list(self.text_positions), list(self.visual_positions))


class PruneRecord:
    """What a visual-token pruning pass removed; consumed by the oracle."""

    __slots__ = ("layer", "removed", "prompt_len")

    def __init__(self, layer: int, removed: tuple[int, ...], prompt_len: int):
        self.layer = layer
        self.removed = removed
        self.prompt_len = prompt_len


class CacheStore:
    """All request state for one in-flight sequence."""

    def __init__(self, config: ModelConfig, plan: LazyPlan | None, tokens: TokenSequence):
        self.config = config
        self.plan = plan
        self.mode = plan.mode if plan is not None else "standard"
        self.roles = roles_from_plan(plan, config.n_layers)
        self.layers: list[LayerCache] = []
        for role in self.roles:
            if role.kind == ROLE_LAZY and plan is not None and plan.mode == GLA:
                own_keys = False
            else:
                own_keys = True
            self.layers.append(LayerCache(config.n_heads, config.d_head, own_keys=own_keys))
        self.qcache = QCache()
        self.modality = ModalityIndex.from_sequence(tokens)
        # Prompt-time visual membership; decode appends are always TEXT and
        # pruning never adds positions, so this is immutable.
        self.visual_set = frozenset(self.modality.visual_positions)
        self.seq_len = 0
        self.prune_record: PruneRecord | None = None

    def kv_bytes(self) -> int:
        return sum(layer.nbytes for layer in self.layers)

    def layer_kv_bytes(self) -> list[tuple[int, int]]:
        return [(layer.key_bytes, layer.value_bytes) for layer in self.layers]

    def anchor_cache(self, role: LayerRole) -> LayerCache:
        return self.layers[role.anchor_layer]

    def clone(self) -> "CacheStore":
        out = object.__new__(CacheStore)
        out.config = self.config
        out.plan = self.plan
        out.mode = self.mode
        out.roles = self.roles
        out.layers = [layer.clone() for layer in self.layers]
        out.qcache = self.qcache.clone()
        out.modality = self.modality.clone()
        out.visual_set = self.visual_set
        out.seq_len = self.seq_len
        out.prune_record = self.prune_record
        return out
