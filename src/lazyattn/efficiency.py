"""Exact cost accounting and decode throughput benchmarking.

The FLOPs meter is fed by the engine at every matmul call site and counts
one multiply-accumulate as 2 FLOPs; elementwise work (rotation, softmax,
norms, activations) and the embedding lookup are excluded, which is what
makes the lazy-mode savings land exactly on the closed forms: a GLA run
skips the query and key projections of every lazy layer, so its prefill
FLOPs drop by 2n*beta of the standard total, where beta is one attention
projector's share. KV and Q-cache bytes are read off the cache structures
after the run (4 bytes per stored element), never predicted from formulas.

`bench_decode` times greedy decode; `lazyattn bench` writes its
`BenchResult` as JSON: every repeat's tokens/s, then median, p10 and p90.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .caches import CacheStore
from .errors import ValidationError
from .model import ModelConfig, ModelWeights, TokenSequence, synthetic_prompt
from .planner import GLA, LazyPlan
from .runtime import generate, prefill

STANDARD = "standard"


class FlopMeter:
    """Accumulates matmul multiply-accumulates, labelled by call site."""

    def __init__(self):
        self.macs: dict[str, int] = {}

    def record(self, label: str, m: int, k: int, n: int) -> None:
        self.macs[label] = self.macs.get(label, 0) + m * k * n

    @property
    def total_macs(self) -> int:
        return sum(self.macs.values())

    @property
    def total_flops(self) -> int:
        return 2 * self.total_macs

    def flops_by_label(self) -> dict[str, int]:
        return {k: 2 * v for k, v in sorted(self.macs.items())}


@dataclass
class CostReport:
    mode: str
    seq_len: int
    n_text: int
    n_visual: int
    n_layers: int
    n_lazy: int
    params: int
    prefill_flops: int
    kv_bytes: int
    qcache_peak_bytes: int
    beta: float
    flops_by_op: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def count_used_params(weights: ModelWeights, plan: LazyPlan | None) -> int:
    """Weight elements the mode actually touches: GLA lazy layers never load
    their own W_Q/W_K, every other tensor is used in all modes."""
    total = sum(arr.size for _, arr in weights.named_tensors())
    if plan is None or plan.mode != GLA:
        return total
    for b in plan.blocks:
        for l in b.lazy_layers:
            total -= weights.layers[l].wq.size + weights.layers[l].wk.size
    return total


def meter_run(
    weights: ModelWeights,
    tokens: TokenSequence,
    plan: LazyPlan | None = None,
    decode_steps: int = 0,
) -> tuple[CostReport, CacheStore]:
    """Instrumented prefill (plus optional greedy decode steps).

    prefill_flops and beta cover the prefill phase; kv_bytes and the
    modality counts describe the store after any decode steps.
    """
    meter = FlopMeter()
    logits, store = prefill(weights, tokens, plan, meter=meter)
    generate(weights, store, logits[-1], decode_steps)
    return cost_report(weights, tokens, plan, meter, store), store


def cost_report(
    weights: ModelWeights,
    tokens: TokenSequence,
    plan: LazyPlan | None,
    meter: FlopMeter,
    store: CacheStore,
) -> CostReport:
    """The report of a run: FLOPs from the meter that saw its prefill, bytes
    and modality counts from the store as it is now."""
    # beta: one full-width attention projector over total prefill FLOPs.
    # Layer 0 is standard or an anchor, so it always runs that projector.
    d = weights.config.d_model
    projector_flops = 2 * len(tokens) * d * d
    total = meter.total_flops
    beta = projector_flops / total if total else 0.0

    return CostReport(
        mode=store.mode,
        seq_len=store.seq_len,
        n_text=store.n_text,
        n_visual=store.n_visual,
        n_layers=weights.config.n_layers,
        n_lazy=plan.n_lazy if plan is not None else 0,
        params=count_used_params(weights, plan),
        prefill_flops=total,
        kv_bytes=store.kv_bytes(),
        qcache_peak_bytes=store.qcache.peak_bytes,
        beta=beta,
        flops_by_op=meter.flops_by_label(),
    )


def kv_savings(report_std: CostReport, report_lazy: CostReport) -> float:
    _check_comparable(report_std, report_lazy)
    return 1.0 - report_lazy.kv_bytes / report_std.kv_bytes


def verify_flops_savings(report_std: CostReport, report_lazy: CostReport) -> float:
    """Measured relative prefill-FLOPs savings of the lazy run."""
    _check_comparable(report_std, report_lazy)
    return 1.0 - report_lazy.prefill_flops / report_std.prefill_flops


def _check_comparable(a: CostReport, b: CostReport) -> None:
    if a.n_layers != b.n_layers or a.seq_len != b.seq_len:
        raise ValidationError(
            f"reports are not comparable: layers {a.n_layers}/{b.n_layers}, "
            f"seq {a.seq_len}/{b.seq_len}"
        )


def standard_prefill_flops(config: ModelConfig, s: int) -> int:
    """Closed-form matmul FLOPs of a standard prefill (embedding excluded)."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size
    per_layer = 4 * s * d * d + 2 * s * s * d + 3 * s * d * ff
    return 2 * (config.n_layers * per_layer + s * d * v)


@dataclass
class BenchResult:
    mode: str
    context_len: int
    steps: int
    tokens_per_sec: list[float]
    median: float
    p10: float
    p90: float


def bench_decode(
    weights: ModelWeights,
    plan: LazyPlan | None,
    context_len: int,
    steps: int,
    repeats: int,
    seed: int = 0,
    visual_fraction: float = 0.5,
) -> BenchResult:
    """Wall-clock decode throughput on a fixed synthetic prompt.

    The prompt is prefilled once; each repeat clones the store, untimed,
    and times `generate` over `steps` greedy steps. One untimed warm-up
    repeat runs first.
    """
    if context_len < 1:
        raise ValidationError("context_len must be >= 1")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    tokens = synthetic_prompt(weights.config.vocab_size, context_len, seed, visual_fraction)
    logits, base = prefill(weights, tokens, plan)

    def run_once() -> float:
        store = base.clone()
        t0 = time.perf_counter()
        generate(weights, store, logits[-1], steps)
        return time.perf_counter() - t0

    run_once()  # warm-up, excluded
    times = [run_once() for _ in range(repeats)]
    tps = [steps / dt for dt in times]
    return BenchResult(
        mode=plan.mode if plan is not None else STANDARD,
        context_len=context_len,
        steps=steps,
        tokens_per_sec=tps,
        median=float(statistics.median(tps)),
        p10=float(np.percentile(tps, 10)),
        p90=float(np.percentile(tps, 90)),
    )
