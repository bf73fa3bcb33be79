"""Toy multimodal decoder model: config, weights, token sequences, checkpoints.

The architecture is fixed: pre-norm RMSNorm -> rotary multi-head attention ->
residual -> RMSNorm -> gated (silu) MLP -> residual, with a final RMSNorm
before the vocabulary head. Keys are always cached post-rotation so layers
can share them without re-rotating.

Checkpoint format: a directory holding `model.json` (config plus an ordered
tensor table with name/shape/byte offset, dtype f32le) and `model.bin`
(little-endian raw float32 in table order). Token input is JSON Lines, one
record per sequence: {"tokens": [...], "modality": [0|1, ...]} with 1 = VISUAL.
"""

from __future__ import annotations

import contextlib
import json
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (
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

    def validate(self) -> None:
        if self.n_layers < 1:
            raise ValidationError("n_layers must be >= 1")
        if min(self.n_heads, self.d_model, self.d_head, self.d_ff, self.vocab_size) < 1:
            raise ValidationError("all dimensions must be >= 1")
        if self.d_model != self.n_heads * self.d_head:
            raise ValidationError(
                f"d_model ({self.d_model}) != n_heads*d_head ({self.n_heads}*{self.d_head})"
            )
        if self.d_head % 2 != 0:
            raise ValidationError("d_head must be even (rotary pairs)")
        # NaN fails every comparison, so this rejects it along with infinity.
        if not (0 < self.rope_theta < np.inf and 0 < self.norm_eps < np.inf):
            raise ValidationError("rope_theta and norm_eps must be finite and positive")

    def to_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_model": self.d_model,
            "d_head": self.d_head,
            "d_ff": self.d_ff,
            "vocab_size": self.vocab_size,
            "rope_theta": self.rope_theta,
            "norm_eps": self.norm_eps,
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        try:
            return ModelConfig(
                n_layers=strict_int(d["n_layers"]),
                n_heads=strict_int(d["n_heads"]),
                d_model=strict_int(d["d_model"]),
                d_head=strict_int(d["d_head"]),
                d_ff=strict_int(d["d_ff"]),
                vocab_size=strict_int(d["vocab_size"]),
                rope_theta=float(d["rope_theta"]),
                norm_eps=float(d["norm_eps"]),
            )
        except KeyError as exc:
            raise ManifestError(f"manifest config missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest config: {exc}") from exc


@dataclass
class LayerWeights:
    attn_gain: np.ndarray
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    mlp_gain: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray


@dataclass
class ModelWeights:
    config: ModelConfig
    embedding: np.ndarray
    layers: list[LayerWeights] = field(default_factory=list)
    final_gain: np.ndarray | None = None
    lm_head: np.ndarray | None = None

    def validate(self) -> None:
        c = self.config
        c.validate()
        expected = dict(_tensor_specs(c))
        for name, arr in self.named_tensors():
            if tuple(arr.shape) != expected[name]:
                raise ValidationError(
                    f"tensor {name} has shape {tuple(arr.shape)}, expected {expected[name]}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"tensor {name} contains non-finite values")

    def named_tensors(self):
        """(name, array) pairs in the canonical manifest order."""
        names = _layer_shapes(self.config)
        yield "embedding", self.embedding
        for l, lw in enumerate(self.layers):
            for name in names:
                yield f"layer{l}.{name}", getattr(lw, name)
        yield "final_gain", self.final_gain
        yield "lm_head", self.lm_head


def _layer_shapes(c: ModelConfig) -> dict[str, tuple[int, ...]]:
    """One layer's tensors in manifest order, which is LayerWeights' field
    order; every name and shape of a layer in the checkpoint comes from here."""
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


def _assemble(config: ModelConfig, tensors: dict[str, np.ndarray]) -> ModelWeights:
    """Validated weights from a table keyed by the manifest tensor names."""
    names = _layer_shapes(config)
    layers = [
        LayerWeights(**{name: tensors[f"layer{l}.{name}"] for name in names})
        for l in range(config.n_layers)
    ]
    weights = ModelWeights(
        config=config,
        embedding=tensors["embedding"],
        layers=layers,
        final_gain=tensors["final_gain"],
        lm_head=tensors["lm_head"],
    )
    weights.validate()
    return weights


def init_synthetic_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Norm gains (the 1-D tensors) start at one; every other tensor is drawn
    from one global splitmix64 stream, consumed in manifest order with uniform
    values in [-1/sqrt(d_model), +1/sqrt(d_model)]. Identical (config, seed)
    therefore reproduces bit-identical checkpoints."""
    config.validate()
    bound = 1.0 / float(np.sqrt(config.d_model))
    cursor = 0

    def draw(shape: tuple[int, ...]) -> np.ndarray:
        nonlocal cursor
        n = int(np.prod(shape))
        vals = rng.uniform(seed, cursor, n, -bound, bound).astype(np.float32)
        cursor += n
        return np.ascontiguousarray(vals.reshape(shape))

    tensors: dict[str, np.ndarray] = {}
    for name, shape in _tensor_specs(config):
        tensors[name] = draw(shape) if len(shape) == 2 else np.ones(shape, dtype=np.float32)

    return _assemble(config, tensors)


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
    offset = 0
    blobs = []
    for name, arr in weights.named_tensors():
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += len(raw)
        blobs.append(raw)
    manifest = {
        "dtype": _DTYPE_TAG,
        "config": weights.config.to_dict(),
        "tensors": table,
        "total_bytes": offset,
    }
    atomic_write(os.path.join(path, MANIFEST_NAME), json.dumps(manifest, indent=2) + "\n")
    atomic_write(os.path.join(path, BLOB_NAME), b"".join(blobs))


def load_checkpoint(path: str) -> ModelWeights:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    blob_path = os.path.join(path, BLOB_NAME)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ManifestError(f"unparseable manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ManifestError(f"manifest {manifest_path} is not a JSON object")

    if manifest.get("dtype") != _DTYPE_TAG:
        raise ManifestError(f"unsupported dtype {manifest.get('dtype')!r}")
    config = ModelConfig.from_dict(manifest.get("config", {}))
    try:
        config.validate()
    except ValidationError as exc:
        raise ManifestError(f"invalid config in manifest: {exc}") from exc

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
        if entry.get("shape") != list(shape):
            raise DimensionMismatchError(
                f"tensor {name}: manifest shape {entry.get('shape')} does not match "
                f"config-derived shape {list(shape)}"
            )
        if entry.get("offset") != offset:
            raise ManifestError(f"tensor {name}: non-contiguous offset {entry.get('offset')}")
        offset += int(np.prod(shape)) * 4
    if manifest.get("total_bytes") != offset:
        raise DimensionMismatchError(
            f"manifest total_bytes {manifest.get('total_bytes')} != expected {offset}"
        )

    with open(blob_path, "rb") as fh:
        blob = fh.read()
    if len(blob) < offset:
        raise TruncatedWeightsError(
            f"truncated weights: blob has {len(blob)} bytes, manifest needs {offset}"
        )
    if len(blob) > offset:
        raise ManifestError(f"blob has {len(blob) - offset} trailing bytes beyond manifest")

    tensors: dict[str, np.ndarray] = {}
    pos = 0
    for name, shape in specs:
        n = int(np.prod(shape)) * 4
        arr = np.frombuffer(blob, dtype="<f4", count=n // 4, offset=pos).astype(np.float32)
        tensors[name] = np.ascontiguousarray(arr.reshape(shape))
        pos += n

    try:
        return _assemble(config, tensors)
    except ValidationError as exc:
        raise DimensionMismatchError(str(exc)) from exc


def strict_int(value) -> int:
    """A JSON integer as read; a float, bool or string raises TypeError,
    which each reader maps onto its own error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def atomic_write(path: str, data: bytes | str) -> None:
    """Replace `path` by `data` (a str is written as UTF-8): readers see the
    old file or the new one, never a partial write.

    The temp file is new, uniquely named and in the same directory, so
    concurrent writers never share one and the rename stays on one file
    system. A plain open() creates it, so the file gets the same mode as any
    other new file. It is deleted if the write or the rename fails.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
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
        if len(self.token_ids) != len(self.modality):
            raise ValidationError(
                f"token_ids ({len(self.token_ids)}) and modality ({len(self.modality)}) "
                "must have equal length"
            )
        for m in self.modality:
            if m not in (TEXT, VISUAL):
                raise ValidationError(f"modality flags must be 0 or 1, got {m}")

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
            try:
                rec = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
                raise ValidationError(f"{path}:{lineno}: bad JSON: {exc}") from exc
            if not isinstance(rec, dict) or "tokens" not in rec:
                raise ValidationError(f"{path}:{lineno}: missing 'tokens' field")
            try:
                tokens = [strict_int(t) for t in rec["tokens"]]
                modality = [strict_int(m) for m in rec.get("modality", [TEXT] * len(tokens))]
                out.append(TokenSequence(tokens, modality))
            except (TypeError, ValueError) as exc:
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
    if length < 1:
        raise ValidationError("prompt length must be >= 1")
    if not 0.0 <= visual_fraction <= 1.0:
        raise ValidationError("visual_fraction must be in [0, 1]")
    ids = [int(v % vocab_size) for v in rng.splitmix64(seed, 0, length)]
    n_visual = int(round(visual_fraction * length))
    n_visual = min(n_visual, length - 1) if length > 1 else 0
    modality = [VISUAL] * n_visual + [TEXT] * (length - n_visual)
    return TokenSequence(ids, modality)
