"""meter_run against the paper's closed forms, on random plans and prompts."""

from fractions import Fraction

import numpy as np
import pytest

from lazyattn import GLA, VLA, kv_savings, meter_run, standard_prefill_flops, verify_flops_savings

from helpers import make_model, random_plan, random_prompt

N_LAYERS = 6


@pytest.fixture(scope="module")
def model():
    return make_model(n_layers=N_LAYERS, seed=5)


@pytest.mark.parametrize("trial", range(6))
def test_meter_run_lands_on_the_closed_forms(model, trial):
    rng = np.random.default_rng(100 + trial)
    config = model.config
    tokens = random_prompt(rng, config.vocab_size, length=int(rng.integers(6, 20)))
    s, d = len(tokens), config.d_model
    std, _ = meter_run(model, tokens, None)
    assert std.prefill_flops == standard_prefill_flops(config, s)
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

    # KV: GLA drops n of 2L per-layer K/V halves, VLA their visual rows
    assert Fraction(std.kv_bytes - gla.kv_bytes, std.kv_bytes) == Fraction(n_gla, 2 * N_LAYERS)
    assert Fraction(std.kv_bytes - vla.kv_bytes, std.kv_bytes) == Fraction(
        n_vla * tokens.n_visual, 2 * N_LAYERS * s
    )
    assert kv_savings(std, gla) == pytest.approx(n_gla / (2 * N_LAYERS), rel=1e-12)


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
