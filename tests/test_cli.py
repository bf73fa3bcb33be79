import json
import os
import shutil

import numpy as np
import pytest

from lazyattn import (
    GLA,
    DimensionMismatchError,
    ManifestError,
    PlanError,
    ValidationError,
    load_checkpoint,
    load_plan,
    load_profile,
    meter_run,
    oracle,
    read_sequences_jsonl,
    synthetic_prompt,
    write_sequences_jsonl,
)
from lazyattn.cli import EXIT_IO, EXIT_OK, EXIT_ORACLE, EXIT_VALIDATION, main

VOCAB = 64


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """genmodel -> profile -> plan on a tiny model; returns the file paths."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "model": str(root / "model"),
        "inputs": str(root / "inputs.jsonl"),
        "prof": str(root / "prof"),
        "plan": str(root / "plan.json"),
    }
    prompts = [synthetic_prompt(VOCAB, 10, seed, visual_fraction=0.5) for seed in range(3)]
    write_sequences_jsonl(paths["inputs"], prompts)
    assert main(["genmodel", "--layers", "4", "--heads", "2", "--dmodel", "16", "--dff", "32",
                 "--vocab", str(VOCAB), "--seed", "1", "--out", paths["model"]]) == EXIT_OK
    assert main(["profile", "--model", paths["model"], "--inputs", paths["inputs"],
                 "--out", paths["prof"], "--svg"]) == EXIT_OK
    assert main(["plan", "--mode", GLA, "--sim", os.path.join(paths["prof"], "profile.json"),
                 "--epsilon", "1.0", "--max-span", "2", "--out", paths["plan"]]) == EXIT_OK
    return paths


def test_pipeline_exits_zero(pipeline, tmp_path):
    assert sorted(os.listdir(pipeline["prof"])) == ["adjacent.csv", "profile.json", "similarity.svg"]
    assert load_plan(pipeline["plan"]).n_lazy == 2
    out = str(tmp_path / "run")
    assert main(["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
                 "--mode", GLA, "--plan", pipeline["plan"], "--steps", "3", "--out", out]) == EXIT_OK
    assert main(["verify", "--model", pipeline["model"], "--mode", GLA, "--plan", pipeline["plan"],
                 "--cases", "2", "--steps", "2"]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["run"]
    assert os.listdir(out) == ["cost_report.json"]


@pytest.mark.parametrize("mode", ["standard", GLA])
def test_run_report_equals_meter_run(pipeline, tmp_path, mode):
    plan_args = [] if mode == "standard" else ["--plan", pipeline["plan"]]
    assert main(["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
                 "--mode", mode, *plan_args, "--steps", "3", "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "cost_report.json", encoding="utf-8") as fh:
        written = json.load(fh)
    plan = load_plan(pipeline["plan"]) if plan_args else None
    prompt = read_sequences_jsonl(pipeline["inputs"])[0]
    report, _ = meter_run(load_checkpoint(pipeline["model"]), prompt, plan, decode_steps=3)
    assert written == report.to_dict()


def test_plan_of_another_mode_is_rejected(pipeline, tmp_path, capsys):
    code = main(["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
                 "--mode", "vla", "--plan", pipeline["plan"], "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "plan file is mode 'gla'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_threads_flag_is_a_usage_error(pipeline, tmp_path):
    assert main(["profile", "--model", pipeline["model"], "--inputs", pipeline["inputs"],
                 "--out", str(tmp_path), "--threads", "2"]) == EXIT_VALIDATION


def test_genmodel_rejects_nan_norm_eps(tmp_path):
    out = str(tmp_path / "model")
    assert main(["genmodel", "--norm-eps", "nan", "--out", out]) == EXIT_VALIDATION
    assert not os.path.exists(out)


def test_bench_writes_json(pipeline, tmp_path):
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--model", pipeline["model"], "--mode", GLA, "--plan", pipeline["plan"],
                 "--context", "8", "--steps", "2", "--repeats", "3", "--out", out]) == EXIT_OK
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    assert result["mode"] == GLA
    assert len(result["tokens_per_sec"]) == 3
    assert result["p10"] <= result["median"] <= result["p90"]
    assert os.listdir(tmp_path) == ["bench.json"]


def test_bench_rejects_empty_context(pipeline, tmp_path):
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--model", pipeline["model"], "--mode", "standard",
                 "--context", "0", "--out", out]) == EXIT_VALIDATION
    assert not os.path.exists(out)


def test_verify_reports_oracle_mismatch(pipeline, monkeypatch, capsys):
    real = oracle.oracle_prefill

    def perturbed(*args, **kwargs):
        logits = real(*args, **kwargs).copy()
        logits[0, 0] += np.float32(1.0)
        return logits

    monkeypatch.setattr(oracle, "oracle_prefill", perturbed)
    code = main(["verify", "--model", pipeline["model"], "--mode", "standard", "--cases", "1"])
    assert code == EXIT_ORACLE
    assert "repro:" in capsys.readouterr().err


def test_missing_or_truncated_checkpoint(pipeline, tmp_path):
    run = ["run", "--input", pipeline["inputs"], "--mode", "standard", "--out", str(tmp_path / "o")]
    assert main([*run, "--model", str(tmp_path / "absent")]) == EXIT_IO
    cut = str(tmp_path / "cut")
    shutil.copytree(pipeline["model"], cut)
    with open(os.path.join(cut, "model.bin"), "r+b") as fh:
        fh.truncate(os.path.getsize(os.path.join(cut, "model.bin")) - 8)
    assert main([*run, "--model", cut]) == EXIT_IO
    assert not os.path.exists(tmp_path / "o")


def _write(path, edit):
    """Overwrite the file with raw bytes, or apply `edit` to its parsed JSON."""
    if isinstance(edit, bytes):
        with open(path, "wb") as fh:
            fh.write(edit)
        return
    with open(path, encoding="utf-8") as fh:
        d = json.load(fh)
    edit(d)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(d, fh)


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


def _set_config(key, value):
    return lambda d: d["config"].__setitem__(key, value)


def _set_tensor(i, value):
    return lambda d: d["tensors"].__setitem__(i, value)


def _set_anchor(value):
    return lambda d: d["blocks"][0].__setitem__("anchor", value)


def _set_cell(value):
    return lambda d: d["S"][0].__setitem__(1, value)


def _line(record):
    return (json.dumps(record) + "\n").encode("utf-8")


UNDECODABLE = b"\xff\xfe{\n"

HOSTILE = [
    pytest.param("manifest", _set_config("n_layers", "x"), ManifestError, id="manifest-n_layers-str"),
    pytest.param("manifest", _set_tensor(1, 5), ManifestError, id="manifest-entry-int"),
    pytest.param("manifest", _set("tensors", 5), ManifestError, id="manifest-table-int"),
    pytest.param("manifest", _set_tensor(1, {"name": "layer0.attn_gain", "shape": 5}),
                 DimensionMismatchError, id="manifest-shape-int"),
    pytest.param("manifest", UNDECODABLE, ManifestError, id="manifest-undecodable"),
    pytest.param("manifest", _set_config("n_layers", 4.0), ManifestError, id="manifest-n_layers-float"),
    pytest.param("manifest", _set_config("vocab_size", 64.7), ManifestError, id="manifest-vocab-float"),
    pytest.param("manifest", _set_config("d_ff", True), ManifestError, id="manifest-d_ff-bool"),
    pytest.param("manifest", _set_config("norm_eps", float("nan")), ManifestError,
                 id="manifest-norm_eps-nan"),
    pytest.param("manifest", _set_config("rope_theta", float("inf")), ManifestError,
                 id="manifest-rope_theta-inf"),
    pytest.param("jsonl", _line({"tokens": ["a"]}), ValidationError, id="jsonl-token-str"),
    pytest.param("jsonl", _line({"tokens": 5}), ValidationError, id="jsonl-tokens-int"),
    pytest.param("jsonl", _line(5), ValidationError, id="jsonl-record-int"),
    pytest.param("jsonl", UNDECODABLE, ValidationError, id="jsonl-undecodable"),
    pytest.param("jsonl", _line({"tokens": [2.7, 1]}), ValidationError, id="jsonl-token-float"),
    pytest.param("jsonl", _line({"tokens": [True, 1]}), ValidationError, id="jsonl-token-bool"),
    pytest.param("jsonl", _line({"tokens": [1, 2], "modality": [0, False]}), ValidationError,
                 id="jsonl-modality-bool"),
    pytest.param("plan", _set("n_layers", "x"), PlanError, id="plan-n_layers-str"),
    pytest.param("plan", UNDECODABLE, PlanError, id="plan-undecodable"),
    pytest.param("plan", _set("n_layers", 4.9), PlanError, id="plan-n_layers-float"),
    pytest.param("plan", _set_anchor(False), PlanError, id="plan-anchor-bool"),
    pytest.param("profile", _set("S", "zz"), ValidationError, id="profile-S-str"),
    pytest.param("profile", _set_cell("a"), ValidationError, id="profile-cell-str"),
    pytest.param("profile", UNDECODABLE, ValidationError, id="profile-undecodable"),
    pytest.param("profile", _set("n_layers", 4.0), ValidationError, id="profile-n_layers-float"),
    pytest.param("profile", _set("n_samples", True), ValidationError, id="profile-n_samples-bool"),
]


@pytest.mark.parametrize("kind,edit,error", HOSTILE)
def test_hostile_input_maps_to_error_taxonomy(pipeline, tmp_path, kind, edit, error):
    """Each malformed file raises its documented error and exits with its
    documented code, never a raw traceback."""
    model, inputs, plan = pipeline["model"], pipeline["inputs"], pipeline["plan"]
    out = str(tmp_path / "out")
    if kind == "manifest":
        model = bad = str(tmp_path / "model")
        shutil.copytree(pipeline["model"], model)
        _write(os.path.join(model, "model.json"), edit)
        load, code = load_checkpoint, EXIT_IO
    elif kind == "jsonl":
        inputs = bad = str(tmp_path / "inputs.jsonl")
        _write(inputs, edit)
        load, code = read_sequences_jsonl, EXIT_VALIDATION
    elif kind == "plan":
        plan = bad = str(tmp_path / "plan.json")
        shutil.copy(pipeline["plan"], plan)
        _write(plan, edit)
        load, code = load_plan, EXIT_VALIDATION
    else:
        bad = str(tmp_path / "profile.json")
        shutil.copy(os.path.join(pipeline["prof"], "profile.json"), bad)
        _write(bad, edit)
        load, code = load_profile, EXIT_VALIDATION
    if kind == "profile":
        argv = ["plan", "--mode", GLA, "--sim", bad, "--epsilon", "0.5", "--out", out]
    else:
        argv = ["run", "--model", model, "--input", inputs, "--mode", GLA, "--plan", plan,
                "--out", out]
    with pytest.raises(error):
        load(bad)
    assert main(argv) == code
    assert not os.path.exists(out)
