"""Exact cost accounting and decode throughput benchmarking.

The FLOPs meter is fed by the engine at every matmul call site and counts
one multiply-accumulate as 2 FLOPs; elementwise work (rotation, softmax,
norms, activations) and the embedding lookup are excluded, which is what
makes the lazy-mode savings land exactly on the closed forms: a GLA run
skips the query and key projections of every lazy layer, so its prefill
FLOPs drop by 2n*beta of the standard total, where beta is one attention
projector's share. KV and Q-cache bytes are read off the cache structures
after the run (4 bytes per stored element), never predicted from formulas.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .caches import CacheStore
from .errors import ValidationError
from .model import ModelConfig, ModelWeights, TokenSequence, synthetic_prompt
from .planner import GLA, LazyPlan
from .runtime import decode, generate, prefill

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
        return {
            "mode": self.mode,
            "seq_len": self.seq_len,
            "n_text": self.n_text,
            "n_visual": self.n_visual,
            "n_layers": self.n_layers,
            "n_lazy": self.n_lazy,
            "params": self.params,
            "prefill_flops": self.prefill_flops,
            "kv_bytes": self.kv_bytes,
            "qcache_peak_bytes": self.qcache_peak_bytes,
            "beta": self.beta,
            "flops_by_op": self.flops_by_op,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def count_used_params(weights: ModelWeights, plan: LazyPlan | None) -> int:
    """Weight elements the mode actually touches: GLA lazy layers never load
    their own W_Q/W_K, every other tensor is used in all modes."""
    lazy_gla = set()
    if plan is not None and plan.mode == GLA:
        for b in plan.blocks:
            lazy_gla.update(b.lazy_layers)
    total = 0
    for name, arr in weights.named_tensors():
        if name.endswith((".wq", ".wk")):
            layer = int(name.split(".")[0][len("layer"):])
            if layer in lazy_gla:
                continue
        total += arr.size
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
    if decode_steps:
        generate(weights, tokens, decode_steps, plan, store=store, last_logits=logits[-1])
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

    def to_csv(self) -> str:
        lines = ["mode,context,steps,repeat,tokens_per_sec,median,p10,p90"]
        for i, tps in enumerate(self.tokens_per_sec):
            lines.append(f"{self.mode},{self.context_len},{self.steps},{i},{tps:.3f},,,")
        lines.append(
            f"{self.mode},{self.context_len},{self.steps},summary,,"
            f"{self.median:.3f},{self.p10:.3f},{self.p90:.3f}"
        )
        return "\n".join(lines) + "\n"


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

    The prompt is prefilled once; each repeat clones the caches and times
    `steps` greedy decode iterations. One untimed warm-up repeat runs first.
    """
    if context_len < 1:
        raise ValidationError("context_len must be >= 1")
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    tokens = synthetic_prompt(weights.config.vocab_size, context_len, seed, visual_fraction)
    logits, base = prefill(weights, tokens, plan)
    first = int(np.argmax(logits[-1]))

    def run_once() -> float:
        store = base.clone()
        t = first
        t0 = time.perf_counter()
        for _ in range(steps):
            step_logits = decode(weights, store, t)
            t = int(np.argmax(step_logits))
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
