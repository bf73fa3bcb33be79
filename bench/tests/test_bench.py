"""Tests of the benchmark itself: run them with

    python3 -m pytest -q bench/tests
"""

import json
import os

import numpy as np
import pytest

import run as bench
import tracer as tracing
from lazyattn import caches, profiler, runtime

TINY = bench.Scale(
    n_heads=2, d_model=32, d_ff=64, vocab=64, long_len=24, long_steps=4,
    mix_lens=(8, 24), corpus=(2, 12), setup_repeats=2, closed_form_len=16,
)


def spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result, prov = bench.execute(workload, seed=3, seconds=0.0, trace=trace, scale=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    want = bench.per_layer_units() if trace else bench.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert prov["seed"] == 3 and prov["workload"] == workload
    assert len(prov["first_round_ids_sha256"]) == 64


def test_traced_self_times_add_up_to_the_decode_span():
    result, _ = bench.execute("decode_long", seed=4, seconds=0.0, trace=True, scale=TINY)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    steps_per_mode = 1 / 3  # requests cycle the modes, so each has a third of the steps
    parts = sum(m[f"decode.kernels.{fn}.self_ms"] for fn in bench.KERNEL_STATS)
    parts += m["decode.caches.append.self_ms"]
    parts += sum(m[f"decode.runtime.self_ms.{mode}"] * steps_per_mode for mode in bench.MODES)
    assert parts == pytest.approx(m["decode.span_ms"], rel=1e-9)


def test_benchmark_json_names_what_the_run_reports():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in s["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in s["per_layer"]} == bench.per_layer_units()


@pytest.fixture(scope="module")
def served():
    weights = bench.init_synthetic_model(TINY.config(), bench.MODEL_SEED)
    rng = np.random.default_rng(0)
    prompt = bench.make_prompt(rng, TINY.vocab, 20, 0.5)
    plan = bench.fixed_plan(bench.VLA)
    req = bench.serve(weights, prompt, plan, 3)
    return weights, prompt, plan, req


def test_oracle_gate_passes_real_outputs(served):
    weights, prompt, plan, req = served
    assert bench.oracle_gate(weights, prompt, plan, req.logits, req.ids[:3]) is None


def test_oracle_gate_trips_on_a_corrupted_logit(served):
    weights, prompt, plan, req = served
    logits = req.logits.copy()
    logits[5, 7] = np.nextafter(logits[5, 7], np.float32(np.inf))
    assert "oracle_prefill" in bench.oracle_gate(weights, prompt, plan, logits, req.ids[:3])


def test_oracle_gate_trips_on_a_corrupted_id(served):
    weights, prompt, plan, req = served
    ids = list(req.ids[:3])
    ids[2] = (ids[2] + 1) % TINY.vocab
    assert "oracle_full_generate" in bench.oracle_gate(weights, prompt, plan, req.logits, ids)


def test_request_check_trips_on_bad_outputs(served):
    weights, _, plan, req = served
    plans = {bench.VLA: plan}
    assert bench.check_request(req, weights.config, plans) is None
    bad = bench.Request(**{**req.__dict__, "ids": req.ids[:-1] + [TINY.vocab]})
    assert "vocabulary" in bench.check_request(bad, weights.config, plans)
    bad = bench.Request(**{**req.__dict__, "kv_bytes": req.kv_bytes + 4})
    assert "closed form" in bench.check_request(bad, weights.config, plans)
    nan = req.logits.copy()
    nan[0, 0] = np.nan
    bad = bench.Request(**{**req.__dict__, "logits": nan})
    assert "non-finite" in bench.check_request(bad, weights.config, plans)


def test_pass_check_trips_on_a_changed_profile_or_plan():
    S = np.zeros((8, 8))
    plan = {"mode": "gla", "blocks": []}
    first = bench.Pass(1.0, S, plan, plan)
    assert bench.check_pass(bench.Pass(1.0, S.copy(), dict(plan), dict(plan)), first) is None
    S2 = S.copy()
    S2[0, 1] = 1e-300
    assert "differs" in bench.check_pass(bench.Pass(1.0, S2, plan, plan), first)
    assert "round trip" in bench.check_pass(bench.Pass(1.0, S, plan, {**plan, "mode": "vla"}), first)


def originals():
    return {
        "matmul": runtime.matmul,
        "masked_softmax_rows": runtime.masked_softmax_rows,
        "apply_rope": runtime.apply_rope,
        "rms_norm": runtime.rms_norm,
        "prefill": runtime.prefill,
        "append_keys": caches.LayerCache.__dict__["append_keys"],
        "append_values": caches.LayerCache.__dict__["append_values"],
        "js_divergence": profiler.js_divergence,
        "record": profiler.AttentionCapture.__dict__["record"],
        "validate": profiler.AttentionSnapshot.__dict__["validate"],
    }


def test_span_wrappers_restore_the_original_functions():
    before = originals()
    tr = tracing.Tracer()
    tracing.install(tr)
    assert runtime.matmul is not before["matmul"]
    tr.restore()
    assert originals() == before
    bench.execute("prefill_mix", seed=5, seconds=0.0, trace=True, scale=TINY)
    after = originals()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_restored_when_the_traced_loop_raises(monkeypatch):
    before = originals()

    def boom(*args, **kwargs):
        raise RuntimeError("loop failed")

    monkeypatch.setattr(bench, "measure", boom)
    with pytest.raises(RuntimeError):
        bench.execute("decode_long", seed=6, seconds=0.0, trace=True, scale=TINY)
    assert all(originals()[k] is before[k] for k in before)


def test_closed_form_drift_exits_with_code_3(monkeypatch, capsys):
    real = bench.standard_prefill_flops
    monkeypatch.setattr(bench, "standard_prefill_flops", lambda config, s: real(config, s) + 2)
    with pytest.raises(SystemExit) as exit_info:
        bench.execute("prefill_mix", seed=7, seconds=0.0, trace=False, scale=TINY)
    assert exit_info.value.code == 3
    assert "closed-form gate" in capsys.readouterr().err
