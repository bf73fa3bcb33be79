"""meter_run against the paper's closed forms, on random plans and prompts."""

import hashlib
import json
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

from lazyattn import (
    GLA,
    VLA,
    FlopMeter,
    LazyBlock,
    LazyPlan,
    TokenSequence,
    ValidationError,
    decode,
    extend,
    generate,
    kv_savings,
    meter_run,
    prefill,
    runtime,
    standard_prefill_flops,
    verify_flops_savings,
)
from lazyattn.efficiency import cost_report, count_used_params
from lazyattn.runtime import CHUNK

from helpers import make_model, random_plan, random_prompt, weight_block

N_LAYERS = 6


@pytest.fixture(scope="module")
def model():
    return make_model(n_layers=N_LAYERS, seed=5)


# Leading visual spans keep their ids; the interleaved layouts put own rows
# on both sides of (mid) or between (alternating) the shared ones. Short
# prompts are one attention block; 200 tokens are four blocks of CHUNK rows;
# 1, 63 and 65 tokens sit at a block's edges.
LAYOUTS = (
    [pytest.param(t, "leading", None, id=str(t)) for t in range(6)]
    + [
        pytest.param(t, layout, None, id=f"{t}-{layout}")
        for layout in ("mid", "alternating")
        for t in range(6)
    ]
    + [
        pytest.param(0, layout, 200, id=f"long-{layout}")
        for layout in ("leading", "mid", "alternating")
    ]
    + [pytest.param(0, "mid", s, id=f"edge-{s}") for s in (1, 63, 65)]
)


def attended_pairs(s):
    """Query-key pairs of block-causal attention, row by row: each row runs
    against the keys up to the end of its block, padding included."""
    return sum((i // CHUNK + 1) * CHUNK for i in range(s))


@pytest.mark.parametrize("trial,layout,length", LAYOUTS)
def test_meter_run_lands_on_the_closed_forms(model, trial, layout, length):
    rng = np.random.default_rng(100 + trial)
    config = model.config
    if length is None:
        length = int(rng.integers(6, 20))
    tokens = random_prompt(rng, config.vocab_size, length=length, layout=layout)
    s, d = len(tokens), config.d_model
    std, _ = meter_run(model, tokens, None)
    assert std.prefill_flops == standard_prefill_flops(config, s)
    L, ff, v = N_LAYERS, config.d_ff, config.vocab_size
    projection = 2 * L * s * d * d
    assert std.flops_by_op == {
        "attn_q": projection,
        "attn_k": projection,
        "attn_v": projection,
        "attn_out": projection,
        "attn_scores": 2 * L * attended_pairs(s) * d,
        "attn_wv": 2 * L * attended_pairs(s) * d,
        "mlp_gate": 2 * L * s * d * ff,
        "mlp_up": 2 * L * s * d * ff,
        "mlp_down": 2 * L * s * d * ff,
        "lm_head": 2 * s * d * v,
    }
    projector = 2 * s * d * d  # one full-width attention projection
    assert std.beta == projector / std.prefill_flops

    gla_plan = random_plan(rng, N_LAYERS, GLA)
    vla_plan = random_plan(rng, N_LAYERS, VLA)
    gla, _ = meter_run(model, tokens, gla_plan)
    vla, _ = meter_run(model, tokens, vla_plan)
    n_gla, n_vla = gla_plan.n_lazy, vla_plan.n_lazy

    # GLA lazy layers skip Q and K: exactly 2*n*beta of the standard FLOPs
    assert std.prefill_flops - gla.prefill_flops == 2 * n_gla * projector
    assert verify_flops_savings(std, gla) == pytest.approx(2 * n_gla * std.beta, rel=1e-12)
    # VLA lazy layers skip Q and K for the visual rows only
    visual_projector = 2 * tokens.n_visual * d * d
    assert std.prefill_flops - vla.prefill_flops == 2 * n_vla * visual_projector
    # Q and K projections: a lazy layer runs them for its own rows only, and
    # every other label is the standard run's
    own_rows = {
        GLA: (N_LAYERS - n_gla) * s,
        VLA: (N_LAYERS - n_vla) * s + n_vla * tokens.n_text,
    }
    for report in (gla, vla):
        projected = 2 * d * d * own_rows[report.mode]
        assert report.flops_by_op == {**std.flops_by_op, "attn_q": projected, "attn_k": projected}

    # KV: GLA drops n of 2L per-layer K/V halves, VLA their visual rows
    assert Fraction(std.kv_bytes - gla.kv_bytes, std.kv_bytes) == Fraction(n_gla, 2 * N_LAYERS)
    assert Fraction(std.kv_bytes - vla.kv_bytes, std.kv_bytes) == Fraction(
        n_vla * tokens.n_visual, 2 * N_LAYERS * s
    )
    assert kv_savings(std, gla) == pytest.approx(n_gla / (2 * N_LAYERS), rel=1e-12)


def test_block_causal_counts_on_a_200_token_prompt(model):
    """Pinned figures for four blocks of CHUNK = 64 rows, the last padded:
    64*64 + 64*128 + 64*192 + 8*256 = 26624 query-key pairs against
    200*200 = 40000 for the full square."""
    assert CHUNK == 64
    config = model.config
    rng = np.random.default_rng(9)
    tokens = random_prompt(rng, config.vocab_size, length=200, visual_fraction=0.5)
    plan = LazyPlan(mode=GLA, n_layers=N_LAYERS, blocks=[LazyBlock(1, (2, 3)), LazyBlock(4, (5,))])
    std, _ = meter_run(model, tokens, None)
    gla, _ = meter_run(model, tokens, plan)
    # 6 layers, d 32, d_ff 64, vocab 96: 2 * 6 * 26624 * 32
    assert std.flops_by_op["attn_scores"] == std.flops_by_op["attn_wv"] == 10_223_616
    assert std.prefill_flops == standard_prefill_flops(config, 200) == 46_252_032
    # 2n * beta: three lazy layers skip Q and K, 2 * 3 * (2 * 200 * 32 * 32)
    assert std.prefill_flops - gla.prefill_flops == 2_457_600
    assert gla.flops_by_op["attn_scores"] == std.flops_by_op["attn_scores"]


def test_a_prefill_extended_at_a_block_edge_lands_on_the_closed_form(model):
    """A 200-token prefill run as 128 rows and an extension of 72 meters the
    closed form, and GLA saves exactly 2n * projector of it."""
    config = model.config
    tokens = random_prompt(np.random.default_rng(10), config.vocab_size, length=200)
    plan = LazyPlan(mode=GLA, n_layers=N_LAYERS, blocks=[LazyBlock(1, (2, 3)), LazyBlock(4, (5,))])
    totals = []
    for p in (None, plan):
        meter = FlopMeter()
        _, store = prefill(model, TokenSequence(tokens.token_ids[:128], tokens.modality[:128]),
                           p, meter=meter)
        extend(model, store, TokenSequence(tokens.token_ids[128:], tokens.modality[128:]),
               meter=meter)
        totals.append(meter.total_flops)
    assert totals[0] == standard_prefill_flops(config, 200)
    assert totals[0] - totals[1] == 2 * plan.n_lazy * (2 * 200 * config.d_model**2)


# sha256 of `json.dumps(asdict(report), indent=2) + "\n"`, the bytes `lazyattn
# run` writes, for a 200-token mid-visual prompt and two decode steps: every
# field is a count or a ratio of counts, so any drift of order or format moves it.
REPORT_SHA256 = {
    None: "cea10f86215851b97bc9ba9d1d70bca64b896650cecafc811aac4c4126f7daf1",
    GLA: "b1abfdebf358ce47b618131d7ef96dbfb00d2f97435cf2e4d35ce9bb31c28010",
    VLA: "0afac173299c282d3a59ff0f5fce2125c416790a827605d4591b35115bf4574c",
}
BLOCKS = [LazyBlock(1, (2, 3)), LazyBlock(4, (5,))]


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_cost_report_json_is_pinned(model, mode):
    rng = np.random.default_rng(14)
    tokens = random_prompt(rng, model.config.vocab_size, length=200, visual_fraction=0.5,
                           layout="mid")
    plan = None if mode is None else LazyPlan(mode=mode, n_layers=N_LAYERS, blocks=BLOCKS)
    report, _ = meter_run(model, tokens, plan, decode_steps=2)
    text = json.dumps(asdict(report), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[mode]


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_an_extended_prompt_reports_as_one_prefill(model, mode):
    """128 prompt rows, an extension of 72 and two decode steps under one
    meter report what one 200-token `meter_run` does. Only the Q-cache peak,
    which is per call, may differ."""
    tokens = random_prompt(np.random.default_rng(15), model.config.vocab_size, length=200,
                           visual_fraction=0.5)
    plan = None if mode is None else LazyPlan(mode=mode, n_layers=N_LAYERS, blocks=BLOCKS)
    meter = FlopMeter()
    _, store = prefill(model, TokenSequence(tokens.token_ids[:128], tokens.modality[:128]),
                       plan, meter=meter)
    logits = extend(model, store, TokenSequence(tokens.token_ids[128:], tokens.modality[128:]),
                    meter=meter)
    generate(model, store, logits[-1], 2)
    chunked = cost_report(model, plan, meter, store)
    whole, _ = meter_run(model, tokens, plan, decode_steps=2)
    assert replace(chunked, qcache_peak_bytes=whole.qcache_peak_bytes) == whole


def test_kv_savings_hold_after_decode_steps(model):
    rng = np.random.default_rng(7)
    tokens = random_prompt(rng, model.config.vocab_size, length=10, visual_fraction=0.5)
    plan = random_plan(rng, N_LAYERS, VLA)
    std, _ = meter_run(model, tokens, None, decode_steps=3)
    vla, _ = meter_run(model, tokens, plan, decode_steps=3)
    assert std.seq_len == vla.seq_len == len(tokens) + 3
    assert Fraction(std.kv_bytes - vla.kv_bytes, std.kv_bytes) == Fraction(
        plan.n_lazy * tokens.n_visual, 2 * N_LAYERS * std.seq_len
    )


@pytest.mark.parametrize("savings", [kv_savings, verify_flops_savings])
def test_savings_refuse_reports_of_different_lengths(model, savings):
    rng = np.random.default_rng(8)
    tokens = random_prompt(rng, model.config.vocab_size, length=10, visual_fraction=0.5)
    std, _ = meter_run(model, tokens, None)
    gla, _ = meter_run(model, tokens, random_plan(rng, N_LAYERS, GLA), decode_steps=2)
    with pytest.raises(ValidationError, match="seq 10/12"):
        savings(std, gla)


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_decode_step_meters_one_row_per_product(model, mode):
    """One decode step after an s-token prefill: each product runs one row,
    scores and weighted sum over s + 1 keys. A GLA lazy layer projects no
    Q or K and inherits its anchor's attention, so it runs no scores; the
    decoded row is text, so a VLA lazy layer projects both and runs them."""
    rng = np.random.default_rng(11)
    config = model.config
    tokens = random_prompt(rng, config.vocab_size, length=9, visual_fraction=0.5)
    plan = None if mode is None else random_plan(rng, N_LAYERS, mode)
    logits, store = prefill(model, tokens, plan)
    meter = FlopMeter()
    decode(model, store, int(np.argmax(logits[-1])), meter=meter)
    s, d, L = len(tokens), config.d_model, N_LAYERS
    projecting = L - plan.n_lazy if mode == GLA else L
    assert meter.macs == {
        "attn_q": projecting * d * d,
        "attn_k": projecting * d * d,
        "attn_v": L * d * d,
        "attn_out": L * d * d,
        "attn_scores": projecting * d * (s + 1),
        "attn_wv": L * d * (s + 1),
        "mlp_gate": L * d * config.d_ff,
        "mlp_up": L * d * config.d_ff,
        "mlp_down": L * d * config.d_ff,
        "lm_head": d * config.vocab_size,
    }


@pytest.mark.parametrize("mode", [None, GLA, VLA])
def test_cost_report_params_count_the_weights_a_mode_touches(model, mode, monkeypatch):
    """Standard and VLA runs touch every tensor; a GLA run touches all but
    the Q and K columns of its lazy layers, 2 d^2 each, and no product of
    prefill or decode is handed those columns."""
    touched = {}
    for kernel in ("matmul", "matvec"):

        def spy(a, b, real=getattr(runtime, kernel)):
            block = weight_block(model, b)
            if block is not None and block[1] == "w_qkv":
                l, _, start, width = block
                touched.setdefault(l, set()).update(range(start, start + width))
            return real(a, b)

        monkeypatch.setattr(runtime, kernel, spy)
    c = model.config
    d, ff, vocab = c.d_model, c.d_ff, c.vocab_size
    every = 2 * vocab * d + d + N_LAYERS * (4 * d * d + 3 * d * ff + 2 * d)
    rng = np.random.default_rng(13)
    tokens = random_prompt(rng, vocab, length=20, visual_fraction=0.5, layout="mid")
    plan = None if mode is None else random_plan(rng, N_LAYERS, mode)
    report, _ = meter_run(model, tokens, plan, decode_steps=2)

    lazy = [] if plan is None else [l for b in plan.blocks for l in b.lazy_layers]
    saved = 2 * d * d * len(lazy) if mode == GLA else 0
    assert report.params == count_used_params(model, plan) == every - saved
    for l in range(N_LAYERS):
        qk_used = l not in lazy or mode != GLA
        assert touched[l] == set(range(0 if qk_used else 2 * d, 3 * d)), l
