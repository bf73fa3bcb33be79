"""Desk-scale decoder-only inference engine with cross-layer lazy attention.

Pipeline: profile inter-layer attention similarity (JS divergence of
last-token attention), aggregate similar adjacent layers into lazy blocks,
then run GLA (all positions share the anchor's Q/K) or VLA (only visual
positions share) with a block-scoped Q cache, cutting KV-cache bytes and
projection FLOPs by exactly the closed-form rates the cost meter verifies.
"""

from .caches import CacheStore, GrowableHeads, LayerCache, PruneRecord, QCache
from .efficiency import (
    BenchResult,
    CostReport,
    FlopMeter,
    bench_decode,
    kv_savings,
    meter_run,
    standard_prefill_flops,
    verify_flops_savings,
)
from .errors import (
    CheckpointError,
    DimensionMismatchError,
    ManifestError,
    OracleMismatchError,
    PlanError,
    TruncatedWeightsError,
    ValidationError,
)
from .kernels import (
    Matrix,
    apply_rope,
    head_matmul,
    masked_softmax_rows,
    matmul,
    rms_norm,
)
from .model import (
    TEXT,
    VISUAL,
    ModelConfig,
    ModelWeights,
    TokenSequence,
    init_synthetic_model,
    load_checkpoint,
    read_sequences_jsonl,
    save_checkpoint,
    synthetic_prompt,
    write_sequences_jsonl,
)
from .oracle import oracle_full_generate, oracle_prefill, verify_case
from .planner import (
    GLA,
    VLA,
    LazyBlock,
    LazyPlan,
    empty_plan,
    load_plan,
    plan_from_profile,
    plan_random,
    save_plan,
)
from .profiler import (
    AttentionCapture,
    AttentionSnapshot,
    SimilarityProfile,
    js_divergence,
    kl_divergence,
    load_profile,
    profile_model,
    save_profile,
)
from .runtime import (
    decode,
    extend,
    generate,
    prefill,
    prune_visual_tokens,
)

__version__ = "0.1.0"
