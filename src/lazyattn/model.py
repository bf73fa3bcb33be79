"""Toy multimodal decoder model: config, weights, token sequences, checkpoints.

The architecture is fixed: pre-norm RMSNorm -> rotary multi-head attention ->
residual -> RMSNorm -> gated (silu) MLP -> residual, with a final RMSNorm
before the vocabulary head. Keys are always cached post-rotation so layers
can share them without re-rotating.

A layer stores its Q, K and V weights as the column blocks of one (d, 3d)
array and its gate and up weights as those of one (d, 2 d_ff) array, so the
runtime can run a group as one product; the layer's role picks the columns
(see `runtime`). `wq`, `wk`, `wv`, `w_gate` and `w_up` are views of them,
and assigning one copies into its columns.

Checkpoint format: a directory holding `model.json` (config plus an ordered
tensor table with name/shape/byte offset, dtype f32le) and `model.bin`
(little-endian raw float32 in table order). The format names each tensor
alone, as before fused storage: the writer writes each tensor from its
own buffer and the loader reads each tensor's bytes straight into its
columns, so neither holds a second copy of the model. Token input is JSON
Lines, one record per sequence: {"tokens": [...], "modality": [0|1, ...]}
with 1 = VISUAL.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import rng
from .errors import (
    CheckpointError,
    DimensionMismatchError,
    ManifestError,
    TruncatedWeightsError,
    ValidationError,
)

TEXT = 0
VISUAL = 1

_DTYPE_TAG = "f32le"


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    d_head: int
    d_ff: int
    vocab_size: int
    rope_theta: float = 10000.0
    norm_eps: float = 1e-5

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Check the config, storing each count as the int `require_int`
        returns and each float as a float, so that it saves as JSON."""
        for name in ("n_layers", "n_heads", "d_model", "d_head", "d_ff", "vocab_size"):
            object.__setattr__(self, name, require_int(name, getattr(self, name), 1))
        if self.d_model != self.n_heads * self.d_head:
            raise ValidationError(
                f"d_model ({self.d_model}) != n_heads*d_head ({self.n_heads}*{self.d_head})"
            )
        if self.d_head % 2 != 0:
            raise ValidationError("d_head must be even (rotary pairs)")
        for name in ("rope_theta", "norm_eps"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        try:
            return ModelConfig(**{f.name: d[f.name] for f in fields(ModelConfig)})
        except KeyError as exc:
            raise ManifestError(f"manifest config missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest config: {exc}") from exc


class _Columns:
    """A weight stored as column block `index` of a layer's fused weight
    `fused`, which holds `parts` equal blocks: reading gives the view, and
    assigning copies into its columns."""

    def __init__(self, fused: str, index: int, parts: int):
        self.fused, self.index, self.parts = fused, index, parts

    def __get__(self, lw, owner=None):
        if lw is None:
            return self
        buf = getattr(lw, self.fused)
        width = buf.shape[1] // self.parts
        return buf[:, self.index * width : (self.index + 1) * width]

    def __set__(self, lw, value) -> None:
        view = self.__get__(lw)
        if np.shape(value) != view.shape:
            raise ValidationError(f"weight of shape {np.shape(value)} for columns {view.shape}")
        view[...] = value


@dataclass
class LayerWeights:
    """One layer's tensors. Q, K and V are the column blocks of one (d, 3d)
    `w_qkv`, gate and up those of one (d, 2 d_ff) `w_gate_up`; `wq`, `wk`,
    `wv`, `w_gate` and `w_up` are views of them."""

    attn_gain: np.ndarray
    w_qkv: np.ndarray
    wo: np.ndarray
    mlp_gain: np.ndarray
    w_gate_up: np.ndarray
    w_down: np.ndarray

    wq = _Columns("w_qkv", 0, 3)
    wk = _Columns("w_qkv", 1, 3)
    wv = _Columns("w_qkv", 2, 3)
    w_gate = _Columns("w_gate_up", 0, 2)
    w_up = _Columns("w_gate_up", 1, 2)


@dataclass
class ModelWeights:
    config: ModelConfig
    embedding: np.ndarray
    layers: list[LayerWeights] = field(default_factory=list)
    final_gain: np.ndarray | None = None
    lm_head: np.ndarray | None = None

    def validate(self) -> None:
        expected = dict(_tensor_specs(self.config))
        for name, arr in self.named_tensors():
            if tuple(arr.shape) != expected[name]:
                raise ValidationError(
                    f"tensor {name} has shape {tuple(arr.shape)}, expected {expected[name]}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"tensor {name} contains non-finite values")

    def named_tensors(self):
        """(name, array) pairs in the canonical manifest order; the fused
        weights' blocks come as their column views."""
        names = _layer_shapes(self.config)
        yield "embedding", self.embedding
        for l, lw in enumerate(self.layers):
            for name in names:
                yield f"layer{l}.{name}", getattr(lw, name)
        yield "final_gain", self.final_gain
        yield "lm_head", self.lm_head

    @staticmethod
    def filled(config: ModelConfig, fill) -> "ModelWeights":
        """Validated weights whose tensors `fill(shape)` returns, called in
        manifest order, each copied into its place in the fused storage."""
        d, ff, vocab = config.d_model, config.d_ff, config.vocab_size

        def alloc(*shape):
            return np.empty(shape, dtype=np.float32)

        layers = [
            LayerWeights(alloc(d), alloc(d, 3 * d), alloc(d, d), alloc(d), alloc(d, 2 * ff), alloc(ff, d))
            for _ in range(config.n_layers)
        ]
        weights = ModelWeights(config, alloc(vocab, d), layers, alloc(d), alloc(d, vocab))
        for _, dest in weights.named_tensors():
            dest[...] = fill(dest.shape)
        weights.validate()
        return weights


def _layer_shapes(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """One layer's tensors in manifest order; every name and shape of a
    layer in the checkpoint comes from here."""
    d, ff = c.d_model, c.d_ff
    return {
        "attn_gain": (d,),
        "wq": (d, d),
        "wk": (d, d),
        "wv": (d, d),
        "wo": (d, d),
        "mlp_gain": (d,),
        "w_gate": (d, ff),
        "w_up": (d, ff),
        "w_down": (ff, d),
    }


def _tensor_specs(c: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    layer = _layer_shapes(c).items()
    specs = [("embedding", (c.vocab_size, c.d_model))]
    for l in range(c.n_layers):
        specs += [(f"layer{l}.{name}", shape) for name, shape in layer]
    specs += [("final_gain", (c.d_model,)), ("lm_head", (c.d_model, c.vocab_size))]
    return specs


def _tensor_count(c: ModelConfig) -> int:
    """len(_tensor_specs(c)), without building a list the manifest sizes."""
    return len(_layer_shapes(c)) * c.n_layers + 3


def init_synthetic_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Norm gains (the 1-D tensors) start at one; every other tensor is drawn
    from one global splitmix64 stream, consumed in manifest order with uniform
    values in [-1/sqrt(d_model), +1/sqrt(d_model)]. Identical (config, seed)
    therefore reproduces bit-identical checkpoints."""
    seed = require_int("seed", seed)
    bound = 1.0 / float(np.sqrt(config.d_model))
    cursor = 0
    scratch = np.empty(max(math.prod(shape) for _, shape in _tensor_specs(config)), np.float32)

    def draw(shape: tuple[int, ...]) -> np.ndarray:
        # In runs of 16,000 positions, so each run's 8-byte temporaries stay
        # under glibc's default 128 KiB mmap threshold and come from the
        # heap: the draw's speed then does not hang on the threshold that
        # earlier frees in the process have raised.
        nonlocal cursor
        out = scratch[: math.prod(shape)]
        for lo in range(0, out.size, 16_000):
            run = out[lo : lo + 16_000]
            run[...] = rng.uniform(seed, cursor + lo, run.size, -bound, bound)
        cursor += out.size
        return out.reshape(shape)

    return ModelWeights.filled(
        config, lambda shape: draw(shape) if len(shape) == 2 else np.ones(shape, dtype=np.float32)
    )


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

MANIFEST_NAME = "model.json"
BLOB_NAME = "model.bin"


def save_checkpoint(weights: ModelWeights, path: str) -> None:
    """Write model.json + model.bin into directory `path` (created if needed)."""
    weights.validate()
    os.makedirs(path, exist_ok=True)
    table = []
    tensors = list(weights.named_tensors())
    offset = 0
    for name, arr in tensors:
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 4
    manifest = {
        "dtype": _DTYPE_TAG,
        "config": asdict(weights.config),
        "tensors": table,
        "total_bytes": offset,
    }
    atomic_write(os.path.join(path, MANIFEST_NAME), json.dumps(manifest, indent=2) + "\n")
    # One tensor at a time (a copy only for a column view): a freed
    # model-sized blob raises glibc's mmap threshold to its size, which
    # leaves later tensors on the heap and peak RSS up to its layout.
    blocks = (np.ascontiguousarray(arr, dtype="<f4") for _, arr in tensors)
    atomic_write(os.path.join(path, BLOB_NAME), blocks)


def load_checkpoint(path: str) -> ModelWeights:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    blob_path = os.path.join(path, BLOB_NAME)
    with open(manifest_path, "rb") as fh:
        manifest = parse_json(fh.read(), ManifestError, manifest_path)
    if not isinstance(manifest, dict):
        raise ManifestError(f"manifest {manifest_path} is not a JSON object")

    if manifest.get("dtype") != _DTYPE_TAG:
        raise ManifestError(f"unsupported dtype {manifest.get('dtype')!r}")
    config = ModelConfig.from_dict(manifest.get("config", {}))

    table = manifest.get("tensors")
    if not isinstance(table, list):
        raise ManifestError(f"manifest tensor table is {table!r}, not a list")
    if len(table) != _tensor_count(config):
        raise DimensionMismatchError(
            f"manifest lists {len(table)} tensors, config implies {_tensor_count(config)}"
        )
    specs = _tensor_specs(config)
    offset = 0
    for entry, (name, shape) in zip(table, specs):
        if not isinstance(entry, dict):
            raise ManifestError(f"tensor entry for {name!r} is not a JSON object: {entry!r}")
        if entry.get("name") != name:
            raise ManifestError(f"unexpected tensor {entry.get('name')!r}, wanted {name!r}")
        if not _exact_ints(entry.get("shape"), list(shape)):
            raise DimensionMismatchError(
                f"tensor {name}: manifest shape {entry.get('shape')} does not match "
                f"config-derived shape {list(shape)}"
            )
        if not _exact_ints(entry.get("offset"), offset):
            raise ManifestError(f"tensor {name}: non-contiguous offset {entry.get('offset')}")
        offset += int(np.prod(shape)) * 4
    if not _exact_ints(manifest.get("total_bytes"), offset):
        raise DimensionMismatchError(
            f"manifest total_bytes {manifest.get('total_bytes')} != expected {offset}"
        )

    with open(blob_path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < offset:
            raise TruncatedWeightsError(
                f"truncated weights: blob has {size} bytes, manifest needs {offset}"
            )
        if size > offset:
            raise ManifestError(f"blob has {size - offset} trailing bytes beyond manifest")

        # Each tensor is read alone into one scratch buffer, so the file is
        # never held whole next to the weights.
        scratch = np.empty(max(math.prod(shape) for _, shape in specs), dtype="<f4")

        def read(shape):
            tensor = scratch[: math.prod(shape)]
            if fh.readinto(tensor) != tensor.nbytes:
                raise TruncatedWeightsError("truncated weights: blob ended inside a tensor")
            return tensor.reshape(shape)

        try:
            return ModelWeights.filled(config, read)
        except ValidationError as exc:
            raise CheckpointError(str(exc)) from exc


def _exact_ints(value, expected) -> bool:
    """`value == expected` (an int or a list of ints), with every number in
    `value` a JSON integer as read: 16.0 and true are not 16."""
    items = value if isinstance(value, list) else [value]
    return value == expected and all(is_int(n) for n in items)


def parse_json(data: bytes, error: type[Exception], where: str):
    """`data` parsed as UTF-8 JSON. Bytes that do not decode, malformed JSON
    and nesting too deep for the parser all raise the caller's `error`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise error(f"{where}: bad JSON: {exc}") from exc


def is_int(value) -> bool:
    """Whether `value` is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_int(name: str, value, low: int | None = None) -> int:
    """`value` as an int if it is an integer (see `is_int`) of at least `low`
    when given, else ValidationError: the check of every count and seed."""
    if not is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return int(value)


def require_positive(name: str, value) -> float:
    """`value` as a float if it is a number (see `is_number`) that is finite
    and above 0, else ValidationError; NaN fails the comparison too."""
    if not (is_number(value) and 0 < value < math.inf):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def is_number(value) -> bool:
    """Whether `value` is a float, or an integer (see `is_int`) in float range."""
    if isinstance(value, (float, np.floating)):
        return True
    return is_int(value) and abs(value) <= sys.float_info.max


def atomic_write(path: str, data: bytes | memoryview | str | Iterable) -> None:
    """Replace `path` by `data`: bytes, a str (written as UTF-8) or an
    iterable of bytes-like blocks written in order. Readers see the old file
    or the new one, never a partial write.

    The temp file is new, uniquely named and in the same directory, so
    concurrent writers never share one and the rename stays on one file
    system. A plain open() creates it, so the file gets the same mode as any
    other new file. It is deleted if the write or the rename fails.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, (bytes, memoryview)):
        data = (data,)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Token sequences
# ---------------------------------------------------------------------------


@dataclass
class TokenSequence:
    """Token ids plus a per-token modality flag (TEXT=0, VISUAL=1)."""

    token_ids: list[int]
    modality: list[int]

    def __post_init__(self):
        for name in ("token_ids", "modality"):
            value = getattr(self, name)
            try:
                len(value)
            except TypeError:
                raise ValidationError(f"{name} must be a sequence, got {value!r}") from None
        if len(self.token_ids) != len(self.modality):
            raise ValidationError(
                f"token_ids ({len(self.token_ids)}) and modality ({len(self.modality)}) "
                "must have equal length"
            )
        for m in self.modality:
            if not is_int(m) or m not in (TEXT, VISUAL):
                raise ValidationError(f"modality flags must be 0 or 1, got {m!r}")

    def __len__(self) -> int:
        return len(self.token_ids)

    @property
    def n_text(self) -> int:
        return sum(1 for m in self.modality if m == TEXT)

    @property
    def n_visual(self) -> int:
        return sum(1 for m in self.modality if m == VISUAL)


def read_sequences_jsonl(path: str) -> list[TokenSequence]:
    """Parse the JSON Lines token input format (missing modality = all TEXT)."""
    out: list[TokenSequence] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = parse_json(line, ValidationError, f"{path}:{lineno}")
            if not isinstance(rec, dict) or "tokens" not in rec:
                raise ValidationError(f"{path}:{lineno}: missing 'tokens' field")
            tokens = rec["tokens"]
            if not isinstance(tokens, list) or not all(map(is_int, tokens)):
                raise ValidationError(f"{path}:{lineno}: token ids must be a list of integers")
            try:
                out.append(TokenSequence(tokens, rec.get("modality", [TEXT] * len(tokens))))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return out


def write_sequences_jsonl(path: str, sequences: list[TokenSequence]) -> None:
    lines = [
        json.dumps({"tokens": seq.token_ids, "modality": seq.modality})
        for seq in sequences
    ]
    atomic_write(path, "\n".join(lines) + "\n")


def synthetic_prompt(
    vocab_size: int, length: int, seed: int, visual_fraction: float = 0.0
) -> TokenSequence:
    """Deterministic prompt: a leading visual span followed by text tokens."""
    vocab_size = require_int("vocab_size", vocab_size, 1)
    length = require_int("length", length, 1)
    seed = require_int("seed", seed)
    if not is_number(visual_fraction) or not 0.0 <= visual_fraction <= 1.0:
        raise ValidationError("visual_fraction must be in [0, 1]")
    ids = [int(v % vocab_size) for v in rng.splitmix64(seed, 0, length)]
    n_visual = int(round(visual_fraction * length))
    n_visual = min(n_visual, length - 1) if length > 1 else 0
    modality = [VISUAL] * n_visual + [TEXT] * (length - n_visual)
    return TokenSequence(ids, modality)
