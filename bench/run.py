"""Benchmark of the lazyattn engine, driven through its public API.

    python3 bench/run.py --workload decode_long --seed 1 --seconds 30 --trace 0

One process, one thread, one closed-loop client: the next request is sent
only after the last one finished. Requests cycle standard -> GLA -> VLA on
the same prompt, and calibration passes (profile + plan) are interleaved so
that they take CALIBRATE_SHARE of the measured time. With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 a traced run
of the same loop gives the per-layer metrics instead. The line before it is
a JSON provenance record. Outputs are checked against the cache-free oracle
and the closed-form cost model before anything is reported.
See bench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

try:
    # The engine under test is the checkout's own source, never an
    # installed copy.
    if not os.path.isfile(os.path.join(SRC, "lazyattn", "__init__.py")):
        raise ImportError("no lazyattn package in the checkout")
    from lazyattn import (  # noqa: E402
        GLA,
        TEXT,
        VISUAL,
        VLA,
        LazyBlock,
        LazyPlan,
        ModelConfig,
        TokenSequence,
        init_synthetic_model,
        kv_savings,
        load_checkpoint,
        load_plan,
        meter_run,
        oracle_full_generate,
        oracle_prefill,
        plan_from_profile,
        profile_model,
        save_checkpoint,
        save_plan,
        standard_prefill_flops,
        verify_flops_savings,
    )
    from lazyattn.runtime import decode, prefill  # noqa: E402
except ImportError as exc:
    sys.stderr.write(f"bench: cannot import lazyattn from {SRC}: {exc}\n")
    sys.exit(2)

import tracer as tracing  # noqa: E402

STANDARD = "standard"
MODES = (STANDARD, GLA, VLA)
N_LAYERS = 8
PLAN_BLOCKS = ((1, (2, 3)), (5, (6, 7)))
MODEL_SEED = 0
CALIBRATE_SHARE = 0.25
# Inside the range of the baseline model's adjacent divergences (about
# 0.003-0.007), so the calibrated plan has some blocks but not all; the
# plan is checked, never served.
EPSILON = 0.005
VISUAL_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
# Odd, so that the median request of a round is one grid length and not
# the gap between two.
MIX_PROMPTS = 9
# Greedy ids checked against oracle_full_generate, which reruns the whole
# sequence per id; two keep the gate cheap.
GATE_STEPS = 2
FLOP_LABELS = (
    "attn_q", "attn_k", "attn_v", "attn_scores", "attn_wv", "attn_out",
    "mlp_gate", "mlp_up", "mlp_down", "lm_head",
)

# Random streams drawn from --seed; the engine only sees the generated inputs.
STREAM_REQUESTS, STREAM_CORPUS, STREAM_WARMUP, STREAM_CLOSED_FORM = range(4)


@dataclass(frozen=True)
class Scale:
    """Shapes of the system under test and its inputs. The defaults are the
    benchmark; tests shrink them."""

    n_heads: int = 4
    d_model: int = 256
    d_ff: int = 512
    vocab: int = 512
    long_len: int = 512
    long_steps: int = 256
    mix_lens: tuple[int, int] = (64, 512)
    corpus: tuple[int, int] = (8, 128)
    setup_repeats: int = 5
    closed_form_len: int = 256

    def config(self) -> ModelConfig:
        return ModelConfig(
            n_layers=N_LAYERS,
            n_heads=self.n_heads,
            d_model=self.d_model,
            d_head=self.d_model // self.n_heads,
            d_ff=self.d_ff,
            vocab_size=self.vocab,
        )


def make_prompt(rng: np.random.Generator, vocab: int, length: int, visual_fraction: float) -> TokenSequence:
    """Random ids with a leading visual span of the given share."""
    ids = rng.integers(0, vocab, size=length).tolist()
    n_visual = min(int(round(visual_fraction * length)), length - 1)
    return TokenSequence(ids, [VISUAL] * n_visual + [TEXT] * (length - n_visual))


def decode_long_round(rng, scale: Scale) -> list[tuple[TokenSequence, int]]:
    return [(make_prompt(rng, scale.vocab, scale.long_len, 0.5), scale.long_steps)]


def prefill_mix_round(rng, scale: Scale) -> list[tuple[TokenSequence, int]]:
    """Nine prompts whose lengths sit on an even grid over the range, each
    moved by a seeded jitter, in seeded order. Visual fractions cycle along
    the grid, with the middle length half visual. A fixed grid of (length,
    fraction) pairs keeps the mix, and so the medians, the same from seed to
    seed."""
    lo, hi = scale.mix_lens
    grid = np.linspace(lo, hi, MIX_PROMPTS).astype(int)
    jitter = max(1, (hi - lo) // (4 * MIX_PROMPTS))
    lengths = np.clip(grid + rng.integers(-jitter, jitter + 1, size=MIX_PROMPTS), lo, hi)
    middle = MIX_PROMPTS // 2
    fractions = [VISUAL_FRACTIONS[(i - middle + 2) % len(VISUAL_FRACTIONS)] for i in range(MIX_PROMPTS)]
    return [
        (make_prompt(rng, scale.vocab, int(lengths[i]), fractions[i]), 1)
        for i in rng.permutation(MIX_PROMPTS)
    ]


@dataclass(frozen=True)
class Workload:
    make_round: object
    full_matrix: bool  # calibration profiles every attention row, or the last only


WORKLOADS = {
    "decode_long": Workload(decode_long_round, full_matrix=False),
    "prefill_mix": Workload(prefill_mix_round, full_matrix=True),
}


def rounds(workload: Workload, scale: Scale, seed: int):
    """Endless requests: each round's prompts, each served in every mode."""
    rng = np.random.default_rng([seed, STREAM_REQUESTS])
    while True:
        for prompt, steps in workload.make_round(rng, scale):
            for mode in MODES:
                yield prompt, steps, mode


def first_round(workload: Workload, scale: Scale, seed: int) -> list:
    """The requests of round 0, as the measured loop will send them."""
    prompts = workload.make_round(np.random.default_rng([seed, STREAM_REQUESTS]), scale)
    return [(prompt, steps, mode) for prompt, steps in prompts for mode in MODES]


def make_corpus(scale: Scale, seed: int) -> list[TokenSequence]:
    rng = np.random.default_rng([seed, STREAM_CORPUS])
    n, length = scale.corpus
    return [make_prompt(rng, scale.vocab, length, 0.5) for _ in range(n)]


# ---------------------------------------------------------------------------
# Setup
# ---------------------------------------------------------------------------


def fixed_plan(mode: str) -> LazyPlan:
    blocks = [LazyBlock(anchor=a, lazy_layers=lazy) for a, lazy in PLAN_BLOCKS]
    return LazyPlan(mode=mode, n_layers=N_LAYERS, blocks=blocks)


def set_up(scale: Scale, workdir: str, warm_prompt: TokenSequence):
    """Build the model, round-trip it through a checkpoint, load both plans
    from disk and warm up with one request per mode (which fills the
    process-wide rotary tables). Returns (weights, plans, ms per step)."""
    ms = {}
    t = time.perf_counter()

    def lap(name):
        nonlocal t
        now = time.perf_counter()
        ms[name] = (now - t) * 1e3
        t = now

    weights = init_synthetic_model(scale.config(), MODEL_SEED)
    lap("init_synthetic_model")
    ckpt = os.path.join(workdir, "model")
    save_checkpoint(weights, ckpt)
    lap("save_checkpoint")
    weights = load_checkpoint(ckpt)
    lap("load_checkpoint")
    plans = {STANDARD: None}
    for mode in (GLA, VLA):
        path = os.path.join(workdir, f"plan-{mode}.json")
        save_plan(fixed_plan(mode), path)
        plans[mode] = load_plan(path)
    lap("load_plan")
    for mode in MODES:
        serve(weights, warm_prompt, plans[mode], 1)
    lap("warmup")
    return weights, plans, ms


# ---------------------------------------------------------------------------
# Requests and calibration passes
# ---------------------------------------------------------------------------


@dataclass
class Request:
    mode: str
    prompt: TokenSequence
    logits: np.ndarray  # prefill logits; every row only for gated requests
    ids: list[int]  # greedy ids: one from prefill, one per decode step
    ttft_ns: int
    gaps_ns: list[int]
    wall_ns: int
    kv_bytes: int
    qcache_peak_bytes: int
    seq_len: int


def serve(weights, prompt, plan, steps, tracer=None) -> Request:
    """One request: prefill, then `steps` greedy decode steps."""
    mode = plan.mode if plan is not None else STANDARD
    span = tracer.begin("prefill") if tracer else 0
    t0 = time.perf_counter_ns()
    logits, store = prefill(weights, prompt, plan)
    t1 = time.perf_counter_ns()
    if tracer:
        tracer.end(span, "runtime", mode)
    ids = [int(np.argmax(logits[-1]))]
    gaps = []
    prev = time.perf_counter_ns()
    for _ in range(steps):
        span = tracer.begin("decode") if tracer else 0
        last = decode(weights, store, ids[-1])
        if tracer:
            tracer.end(span, "runtime", mode)
        ids.append(int(np.argmax(last)))
        now = time.perf_counter_ns()
        gaps.append(now - prev)
        prev = now
    return Request(
        mode, prompt, logits, ids, t1 - t0, gaps, prev - t0,
        store.kv_bytes(), store.qcache.peak_bytes, store.seq_len,
    )


def expected_kv_bytes(config: ModelConfig, mode: str, seq_len: int, n_visual: int, n_lazy: int) -> int:
    """Closed-form KV bytes: GLA lazy layers store no K, VLA lazy layers
    store K for text positions only."""
    rows = 2 * config.n_layers * seq_len
    if mode == GLA:
        rows -= n_lazy * seq_len
    elif mode == VLA:
        rows -= n_lazy * n_visual
    return rows * config.d_model * 4


def check_request(req: Request, config: ModelConfig, plans) -> str | None:
    """Cheap check run on every request; returns a reason when it fails."""
    s = len(req.prompt)
    if req.logits.shape != (s, config.vocab_size) or not np.all(np.isfinite(req.logits)):
        return f"{req.mode}: prefill logits have shape {req.logits.shape} or non-finite values"
    if not all(0 <= t < config.vocab_size for t in req.ids):
        return f"{req.mode}: generated id outside the vocabulary"
    n_lazy = plans[req.mode].n_lazy if plans[req.mode] is not None else 0
    want = expected_kv_bytes(config, req.mode, req.seq_len, req.prompt.n_visual, n_lazy)
    if req.kv_bytes != want:
        return f"{req.mode}: kv bytes {req.kv_bytes} != closed form {want}"
    return None


def oracle_gate(weights, prompt, plan, logits, ids) -> str | None:
    """Prefill logits must equal oracle_prefill bit for bit and the greedy
    ids must equal oracle_full_generate; returns a reason when they do not."""
    if not np.array_equal(logits, oracle_prefill(weights, prompt, plan)):
        return "prefill logits differ from oracle_prefill"
    ref = oracle_full_generate(weights, prompt, len(ids), plan)
    if list(ids) != ref:
        return f"greedy ids {list(ids)} differ from oracle_full_generate {ref}"
    return None


@dataclass
class Pass:
    seconds: float
    S: np.ndarray
    plan: dict
    loaded_plan: dict


def calibrate(weights, corpus, full_matrix: bool, workdir: str, tracer=None) -> Pass:
    """Profile the corpus, plan from the profile, round-trip the plan."""
    span = tracer.begin("profile") if tracer else 0
    t0 = time.perf_counter()
    profile = profile_model(weights, corpus, full_matrix=full_matrix)
    plan = plan_from_profile(profile, EPSILON, mode=GLA)
    path = os.path.join(workdir, "calibrated.json")
    save_plan(plan, path)
    loaded = load_plan(path)
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.end(span, "profiler", "pass")
    return Pass(seconds, profile.S, plan.to_dict(), loaded.to_dict())


def check_pass(p: Pass, first: Pass) -> str | None:
    """A pass must survive its plan round trip and repeat the first pass on
    the same corpus bit for bit; returns a reason when it does not."""
    if p.loaded_plan != p.plan:
        return "calibrated plan changed in its save/load round trip"
    if not np.array_equal(p.S, first.S) or p.plan != first.plan:
        return "calibration pass differs from the first pass on the same corpus"
    return None


# ---------------------------------------------------------------------------
# Gates that run once per invocation
# ---------------------------------------------------------------------------


def closed_form_gate(weights, plans, scale: Scale, seed: int) -> tuple[list[str], dict]:
    """The paper's headline numbers, measured with meter_run: the standard
    total equals standard_prefill_flops, GLA saves exactly 2*n*beta of the
    prefill FLOPs, and KV savings are n/(2L) for GLA and n*visual/(2L*s) for
    VLA (25% and 12.5% on the fixed plan at 50% visual)."""
    config = weights.config
    s = scale.closed_form_len
    prompt = make_prompt(np.random.default_rng([seed, STREAM_CLOSED_FORM]), scale.vocab, s, 0.5)
    std, _ = meter_run(weights, prompt, None)
    gla, _ = meter_run(weights, prompt, plans[GLA])
    vla, _ = meter_run(weights, prompt, plans[VLA])
    n = plans[GLA].n_lazy
    projector = 2 * s * config.d_model * config.d_model
    errors = []
    if std.prefill_flops != standard_prefill_flops(config, s):
        errors.append(f"standard prefill FLOPs {std.prefill_flops} != closed form "
                      f"{standard_prefill_flops(config, s)}")
    if std.prefill_flops - gla.prefill_flops != 2 * n * projector:
        errors.append(f"GLA saved {std.prefill_flops - gla.prefill_flops} FLOPs, 2*n*beta "
                      f"predicts {2 * n * projector}")
    flops_saving = verify_flops_savings(std, gla)
    if abs(flops_saving - 2 * n * std.beta) > 1e-12:
        errors.append(f"GLA FLOPs savings {flops_saving!r} != 2*n*beta {2 * n * std.beta!r}")
    rates = {
        GLA: (Fraction(std.kv_bytes - gla.kv_bytes, std.kv_bytes), Fraction(n, 2 * N_LAYERS), 0.25),
        VLA: (Fraction(std.kv_bytes - vla.kv_bytes, std.kv_bytes),
              Fraction(n * prompt.n_visual, 2 * N_LAYERS * s), 0.125),
    }
    for mode, (measured, closed, headline) in rates.items():
        report = gla if mode == GLA else vla
        if measured != closed or kv_savings(std, report) != headline:
            errors.append(f"{mode} KV savings {float(measured)} != closed form {float(closed)} "
                          f"(headline {headline})")
    summary = {
        "seq_len": s,
        "flops_saving_gla": flops_saving,
        "two_n_beta": 2 * n * std.beta,
        "kv_saving_gla": kv_savings(std, gla),
        "kv_saving_vla": kv_savings(std, vla),
    }
    return errors, summary


def flops_by_label(weights, prompt, plans) -> dict[str, int]:
    out = {}
    for mode in MODES:
        report, _ = meter_run(weights, prompt, plans[mode])
        for label in FLOP_LABELS:
            out[f"efficiency.flops.{mode}.{label}"] = report.flops_by_op.get(label, 0)
    return out


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_info() -> dict:
    """The BLAS numpy was built against and its thread count, as found; the
    benchmark never changes it."""
    info = {"env": {k: os.environ[k] for k in _THREAD_ENV if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = "unknown"
    return info


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               first_round: list[Request], extra: dict) -> dict:
    """Where a result came from. The digest covers the greedy ids of the
    first round, a fixed input set per seed, so it changes exactly when a
    change alters outputs."""
    digest = hashlib.sha256()
    for req in first_round:
        digest.update(f"{req.mode}:{','.join(map(str, req.ids))};".encode())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "first_round_ids_sha256": digest.hexdigest(),
        **extra,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Run:
    requests: list[Request] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    first_round: list[Request] = field(default_factory=list)
    gated: dict[str, Request] = field(default_factory=dict)  # first request of each mode


def measure(workload, scale, seed, seconds, weights, plans, corpus, workdir, tracer=None) -> Run:
    """The closed loop. A calibration pass runs whenever calibration has had
    less than CALIBRATE_SHARE of the elapsed time; otherwise the next
    request. Runs until `seconds` have passed, a calibration pass has run
    and the current round is complete: whole rounds keep the mix of
    lengths and modes, and so the medians, the same from run to run."""
    run = Run()
    round_len = len(first_round(workload, scale, seed))
    source = rounds(workload, scale, seed)
    sent = 0
    start = time.perf_counter()
    calibrating = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and run.passes and sent % round_len == 0:
            break
        run.attempted += 1
        if sent and calibrating < CALIBRATE_SHARE * elapsed:
            t = time.perf_counter()
            try:
                p = calibrate(weights, corpus, workload.full_matrix, workdir, tracer)
            except Exception:  # a failed pass is counted, not fatal
                run.failures.append(f"calibration pass raised:\n{traceback.format_exc()}")
                continue
            finally:
                calibrating += time.perf_counter() - t
            reason = check_pass(p, run.passes[0] if run.passes else p)
            if reason:
                run.failures.append(reason)
                continue
            run.passes.append(p)
            continue
        prompt, steps, mode = next(source)
        sent += 1
        try:
            req = serve(weights, prompt, plans[mode], steps, tracer)
        except Exception:  # a failed request is counted, not fatal
            run.failures.append(f"{mode} request raised:\n{traceback.format_exc()}")
            continue
        reason = check_request(req, weights.config, plans)
        if reason:
            run.failures.append(reason)
            continue
        if req.mode in run.gated:
            # Only gated requests keep every row; a copy, so that the full
            # array is freed and memory does not grow with run length.
            req.logits = req.logits[-1:].copy()
        else:
            run.gated[req.mode] = req
        if len(run.first_round) < round_len:
            run.first_round.append(req)
        run.requests.append(req)
    return run


def gate_first_requests(run: Run, weights, plans) -> None:
    """Oracle gate on the first request of each mode."""
    for mode in MODES:
        req = run.gated.get(mode)
        if req is None:
            run.failures.append(f"no {mode} request reached the oracle gate")
            continue
        reason = oracle_gate(weights, req.prompt, plans[mode], req.logits, req.ids[:GATE_STEPS])
        if reason:
            run.failures.append(f"{mode} oracle gate: {reason}")


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def end_to_end(run: Run, setup_s: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and the sample counts and tail percentiles
    that go into the provenance record."""
    ttft = [r.ttft_ns / 1e6 for r in run.requests]
    gaps = [g / 1e6 for r in run.requests for g in r.gaps_ns]
    m = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ttft_ms_p50": (percentile(ttft, 50), "ms"),
        "tpot_ms_p50": (percentile(gaps, 50), "ms"),
    }
    # Rates are medians (of per-request prefill rates, of decode step
    # times), so a burst of contention on a shared machine moves them less
    # than it would move a ratio of sums.
    for mode in MODES:
        reqs = [r for r in run.requests if r.mode == mode]
        rates = [len(r.prompt) / (r.ttft_ns / 1e9) for r in reqs]
        step_s = percentile([g / 1e9 for r in reqs for g in r.gaps_ns], 50)
        m[f"prefill_tok_s.{mode}"] = (percentile(rates, 50), "tok/s")
        m[f"decode_tok_s.{mode}"] = (1.0 / step_s if step_s else 0.0, "tok/s")
    m["calibrate_s"] = (statistics.median(p.seconds for p in run.passes) if run.passes else 0.0, "s")
    m["peak_rss_mb"] = (peak_rss_mb, "MB")
    samples = {
        "ttft": len(ttft),
        "tpot": len(gaps),
        "calibrate": len(run.passes),
        "setup": len(setup_s),
        "requests": {mode: sum(r.mode == mode for r in run.requests) for mode in MODES},
        # Reported, not gated: host contention on a shared machine moves
        # these tails by more than any bound the result format allows.
        "ttft_ms_p90": percentile(ttft, 90),
        "tpot_ms_p90": percentile(gaps, 90),
    }
    return m, samples


END_TO_END_UNITS = {
    "setup_s": "s", "ttft_ms_p50": "ms", "tpot_ms_p50": "ms",
    **{f"prefill_tok_s.{mode}": "tok/s" for mode in MODES},
    **{f"decode_tok_s.{mode}": "tok/s" for mode in MODES},
    "calibrate_s": "s", "peak_rss_mb": "MB",
}

# Phase -> (what one unit of the phase is, in metric units).
PHASE_UNIT = {"prefill": "req", "decode": "step", "profile": "pass"}
KERNEL_STATS = {
    "matmul": ("self_ms", "calls", "rows", "flops", "bytes"),
    "masked_softmax_rows": ("self_ms", "calls"),
    "apply_rope": ("self_ms", "calls"),
    "rms_norm": ("self_ms", "calls"),
}
STAT_UNIT = {"self_ms": "ms", "calls": "calls", "rows": "rows", "flops": "flop", "bytes": "B"}
SETUP_STEPS = ("init_synthetic_model", "save_checkpoint", "load_checkpoint", "load_plan", "warmup")
SETUP_LAYER = {"warmup": "runtime", "load_plan": "planner"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit. Phase metrics are per unit
    of the phase: per decode step, per prefill request, per calibration pass."""
    units = {}
    for phase, per in PHASE_UNIT.items():
        for fn, stats in KERNEL_STATS.items():
            for stat in stats:
                units[f"{phase}.kernels.{fn}.{stat}"] = f"{STAT_UNIT[stat]}/{per}"
        units[f"{phase}.span_ms"] = f"ms/{per}"
    for phase in ("prefill", "decode"):
        for mode in MODES:
            units[f"{phase}.runtime.self_ms.{mode}"] = f"ms/{PHASE_UNIT[phase]}"
        units[f"{phase}.caches.append.self_ms"] = f"ms/{PHASE_UNIT[phase]}"
        units[f"{phase}.caches.append.calls"] = f"calls/{PHASE_UNIT[phase]}"
    units["profile.runtime.self_ms.standard"] = "ms/pass"
    units["profile.profiler.self_ms"] = "ms/pass"
    units["profile.profiler.js_divergence.self_ms"] = "ms/pass"
    units["profile.profiler.js_divergence.calls"] = "calls/pass"
    units["profile.profiler.capture.self_ms"] = "ms/pass"
    units["profile.profiler.validate.self_ms"] = "ms/pass"
    for mode in MODES:
        units[f"caches.kv_bytes.{mode}"] = "B"
        units[f"caches.qcache_peak_bytes.{mode}"] = "B"
    for step in SETUP_STEPS:
        units[f"setup.{SETUP_LAYER.get(step, 'model')}.{step}.ms"] = "ms"
    for mode in MODES:
        for label in FLOP_LABELS:
            units[f"efficiency.flops.{mode}.{label}"] = "flop/req"
    units["trace.overhead_ratio"] = "ratio"
    return units


def per_layer(tr: tracing.Tracer, run: Run, setup_ms: list[dict], flops: dict, overhead: float) -> dict:
    units = per_layer_units()
    values = {}
    spans = {
        "prefill": sum(tr.get("prefill", "runtime", mode).calls for mode in MODES),
        "decode": sum(tr.get("decode", "runtime", mode).calls for mode in MODES),
        "profile": tr.get("profile", "profiler", "pass").calls,
    }

    def per(phase, x):
        return x / spans[phase] if spans[phase] else 0.0

    for phase in PHASE_UNIT:
        for fn, stats in KERNEL_STATS.items():
            stat = tr.get(phase, "kernels", fn)
            for name in stats:
                raw = stat.self_ns / 1e6 if name == "self_ms" else getattr(stat, name)
                values[f"{phase}.kernels.{fn}.{name}"] = per(phase, raw)
        total = sum(s.self_ns for (p, _, _), s in tr.stats.items() if p == phase)
        values[f"{phase}.span_ms"] = per(phase, total / 1e6)
    for phase in ("prefill", "decode"):
        for mode in MODES:
            stat = tr.get(phase, "runtime", mode)
            values[f"{phase}.runtime.self_ms.{mode}"] = stat.self_ns / 1e6 / stat.calls if stat.calls else 0.0
        append = tr.get(phase, "caches", "append")
        values[f"{phase}.caches.append.self_ms"] = per(phase, append.self_ns / 1e6)
        values[f"{phase}.caches.append.calls"] = per(phase, append.calls)
    values["profile.runtime.self_ms.standard"] = per("profile", tr.get("profile", "runtime", STANDARD).self_ns / 1e6)
    values["profile.profiler.self_ms"] = per("profile", tr.get("profile", "profiler", "pass").self_ns / 1e6)
    for fn in ("js_divergence", "capture", "validate"):
        values[f"profile.profiler.{fn}.self_ms"] = per("profile", tr.get("profile", "profiler", fn).self_ns / 1e6)
    values["profile.profiler.js_divergence.calls"] = per("profile", tr.get("profile", "profiler", "js_divergence").calls)
    for mode in MODES:
        reqs = [r for r in run.requests if r.mode == mode]
        values[f"caches.kv_bytes.{mode}"] = max((r.kv_bytes for r in reqs), default=0)
        values[f"caches.qcache_peak_bytes.{mode}"] = max((r.qcache_peak_bytes for r in reqs), default=0)
    for step in SETUP_STEPS:
        values[f"setup.{SETUP_LAYER.get(step, 'model')}.{step}.ms"] = statistics.median(m[step] for m in setup_ms)
    values.update(flops)
    values["trace.overhead_ratio"] = overhead
    return {name: (values[name], unit) for name, unit in units.items()}


def execute(workload_name: str, seed: int, seconds: float, trace: bool, scale: Scale = Scale()) -> tuple[dict, dict]:
    """One benchmark run; returns (result, provenance). Raises SystemExit(3)
    when the closed-form accounting drifts."""
    workload = WORKLOADS[workload_name]
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=build)
    try:
        warm_rng = np.random.default_rng([seed, STREAM_WARMUP])
        warm_prompt = make_prompt(warm_rng, scale.vocab, scale.corpus[1], 0.5)
        setup_s, setup_ms = [], []
        for _ in range(scale.setup_repeats):
            t = time.perf_counter()
            weights, plans, ms = set_up(scale, workdir, warm_prompt)
            setup_s.append(time.perf_counter() - t)
            setup_ms.append(ms)

        errors, closed_form = closed_form_gate(weights, plans, scale, seed)
        if errors:
            for e in errors:
                sys.stderr.write(f"bench: closed-form gate: {e}\n")
            raise SystemExit(3)

        corpus = make_corpus(scale, seed)
        tr = None
        if trace:
            # Untraced reference for the tracing overhead: the first round,
            # which the traced loop then serves again.
            t = time.perf_counter_ns()
            for prompt, steps, mode in first_round(workload, scale, seed):
                serve(weights, prompt, plans[mode], steps)
            untraced_ns = time.perf_counter_ns() - t
            tr = tracing.Tracer()
            tracing.install(tr)
        try:
            run = measure(workload, scale, seed, seconds, weights, plans, corpus, workdir, tr)
        finally:
            if tr is not None:
                tr.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        gate_first_requests(run, weights, plans)
        for failure in run.failures:
            sys.stderr.write(f"bench: failed: {failure}\n")

        metrics, samples = end_to_end(run, setup_s, peak_rss_mb)
        if trace:
            overhead = sum(r.wall_ns for r in run.first_round) / untraced_ns
            flops = flops_by_label(weights, run.first_round[0].prompt, plans)
            metrics = per_layer(tr, run, setup_ms, flops, overhead)
        failed = len(run.failures)
        result = {
            "correct": failed == 0,
            "attempted": run.attempted,
            "failed": failed,
            "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        }
        prov = provenance(workload_name, seed, seconds, trace, run.first_round,
                          {"samples": samples, "closed_form": closed_form,
                           "error_rate": failed / run.attempted})
        return result, prov
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, prov = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
