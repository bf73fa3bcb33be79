import json
import os
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from lazyattn import (
    GLA,
    VLA,
    AttentionCapture,
    CheckpointError,
    DimensionMismatchError,
    ManifestError,
    PlanError,
    ValidationError,
    generate,
    load_checkpoint,
    load_plan,
    load_profile,
    meter_run,
    oracle,
    prefill,
    prune_visual_tokens,
    read_sequences_jsonl,
    synthetic_prompt,
    write_sequences_jsonl,
)
from lazyattn import cli, rng
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
                 "--plan", pipeline["plan"], "--steps", "3", "--out", out]) == EXIT_OK
    assert main(["verify", "--model", pipeline["model"], "--plan", pipeline["plan"],
                 "--cases", "2", "--steps", "2"]) == EXIT_OK
    assert sorted(os.listdir(tmp_path)) == ["run"]
    assert os.listdir(out) == ["cost_report.json"]


@pytest.mark.parametrize("mode", ["standard", GLA])
def test_run_report_equals_meter_run(pipeline, tmp_path, mode):
    plan_args = [] if mode == "standard" else ["--plan", pipeline["plan"]]
    assert main(["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
                 *plan_args, "--steps", "3", "--out", str(tmp_path)]) == EXIT_OK
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
    assert "unrecognized arguments: --mode vla" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_run_takes_its_mode_from_the_plan(pipeline, tmp_path):
    plan = str(tmp_path / "vla.json")
    assert main(["plan", "--mode", VLA, "--random", "--layers", "4", "--spans", "2",
                 "--out", plan]) == EXIT_OK
    out = str(tmp_path / "run")
    assert main(["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
                 "--plan", plan, "--steps", "2", "--out", out]) == EXIT_OK
    with open(os.path.join(out, "cost_report.json"), encoding="utf-8") as fh:
        assert json.load(fh)["mode"] == VLA


def test_bench_with_a_missing_plan_is_an_io_error(pipeline, tmp_path):
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--model", pipeline["model"], "--plan", str(tmp_path / "absent.json"),
                 "--context", "8", "--out", out]) == EXIT_IO
    assert not os.path.exists(out)


def test_abbreviated_flag_is_a_usage_error(pipeline, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
                 "--pl", pipeline["plan"], "--out", out]) == EXIT_VALIDATION
    assert "unrecognized arguments: --pl" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_threads_flag_is_a_usage_error(pipeline, tmp_path):
    assert main(["profile", "--model", pipeline["model"], "--inputs", pipeline["inputs"],
                 "--out", str(tmp_path), "--threads", "2"]) == EXIT_VALIDATION


def test_genmodel_rejects_nan_norm_eps(tmp_path):
    out = str(tmp_path / "model")
    assert main(["genmodel", "--norm-eps", "nan", "--out", out]) == EXIT_VALIDATION
    assert not os.path.exists(out)


def test_bench_writes_json(pipeline, tmp_path):
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--model", pipeline["model"], "--plan", pipeline["plan"],
                 "--context", "8", "--steps", "2", "--repeats", "3", "--out", out]) == EXIT_OK
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    assert result["mode"] == GLA
    assert len(result["tokens_per_sec"]) == 3
    assert result["p10"] <= result["median"] <= result["p90"]
    assert os.listdir(tmp_path) == ["bench.json"]


def test_bench_rejects_empty_context(pipeline, tmp_path):
    out = str(tmp_path / "bench.json")
    assert main(["bench", "--model", pipeline["model"],
                 "--context", "0", "--out", out]) == EXIT_VALIDATION
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag", [["--prune-layer", "1"], ["--prune-keep", "0.5"]],
                         ids=["layer-only", "keep-only"])
def test_prune_flag_alone_is_rejected(pipeline, tmp_path, flag):
    """A prune needs both its layer and its keep ratio; either alone would
    run unpruned."""
    out = str(tmp_path / "out")
    assert main(["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
                 *flag, "--out", out]) == EXIT_VALIDATION
    assert not os.path.exists(out)


def test_run_with_a_prune_matches_the_prune_aware_oracle(pipeline, tmp_path, capsys):
    """`run` with both prune flags prints the ids of an in-process prefill,
    prune and generate, which the prune-aware oracle also emits, and its
    report counts the pruned caches."""
    run = ["run", "--model", pipeline["model"], "--input", pipeline["inputs"],
           "--plan", pipeline["plan"], "--steps", "4"]
    assert main([*run, "--out", str(tmp_path / "full")]) == EXIT_OK
    capsys.readouterr()
    assert main([*run, "--prune-layer", "1", "--prune-keep", "0.5",
                 "--out", str(tmp_path / "pruned")]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()[0].split()[1:]

    weights = load_checkpoint(pipeline["model"])
    plan = load_plan(pipeline["plan"])
    prompt = read_sequences_jsonl(pipeline["inputs"])[0]
    capture = AttentionCapture()
    logits, store = prefill(weights, prompt, plan, capture=capture)
    kept = prune_visual_tokens(store, capture.snapshot, 1, 0.5)
    ids = generate(weights, store, logits[-1], 4)
    assert [int(t) for t in printed] == ids
    assert ids == oracle.oracle_full_generate(weights, prompt, 4, plan, prune=store.prune_record)

    reports = {}
    for name in ("full", "pruned"):
        with open(tmp_path / name / "cost_report.json", encoding="utf-8") as fh:
            reports[name] = json.load(fh)
    assert reports["pruned"]["kv_bytes"] < reports["full"]["kv_bytes"]
    assert reports["pruned"]["n_visual"] == len(kept) < prompt.n_visual


REFUSED = [
    pytest.param(["genmodel", "--heads", "3", "--dmodel", "16", "--out", "{out}"],
                 "--dmodel 16 is not divisible by --heads 3", id="genmodel-heads"),
    pytest.param(["profile", "--model", "{model}", "--inputs", "{blank}", "--out", "{out}"],
                 "holds no sequences", id="profile-no-sequences"),
    pytest.param(["plan", "--mode", GLA, "--random", "--out", "{out}"],
                 "--random needs --layers and --spans", id="plan-random-bare"),
    pytest.param(["plan", "--mode", GLA, "--out", "{out}"],
                 "threshold planning needs --sim and --epsilon", id="plan-threshold-bare"),
    pytest.param(["run", "--model", "{model}", "--input", "{blank}", "--out", "{out}"],
                 "holds no sequences", id="run-no-sequences"),
    pytest.param(["run", "--model", "{model}", "--input", "{inputs}", "--steps", "-1",
                  "--out", "{out}"], "--steps must be >= 0", id="run-negative-steps"),
    pytest.param(["verify", "--model", "{model}", "--cases", "0"],
                 "--cases must be >= 1", id="verify-no-cases"),
    pytest.param(["bench", "--model", "{model}", "--context", "8", "--steps", "0",
                  "--out", "{out}"], "steps must be >= 1", id="bench-no-steps"),
    pytest.param(["bench", "--model", "{model}", "--context", "8", "--repeats", "0",
                  "--out", "{out}"], "repeats must be >= 1", id="bench-no-repeats"),
]


@pytest.mark.parametrize("argv,message", REFUSED)
def test_refused_arguments_exit_1_and_write_nothing(pipeline, tmp_path, capsys, argv, message):
    """Each command refuses its bad arguments with a ValidationError: exit
    1, its message on stderr, and no file written. A JSONL file of blank
    lines holds no sequences."""
    blank = tmp_path / "blank.jsonl"
    blank.write_text("\n\n", encoding="utf-8")
    paths = {"model": pipeline["model"], "inputs": pipeline["inputs"], "blank": str(blank),
             "out": str(tmp_path / "out")}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["blank.jsonl"]


def test_verify_draws_each_prompt_as_its_case_runs(pipeline, monkeypatch):
    """verify asks the stream for one case's three values at a time, and a
    seed draws the prompts that one draw of 3 * cases values gave."""
    counts, prompts = [], []

    def draw(seed, start, count):
        counts.append(count)
        return rng.splitmix64(seed, start, count)

    monkeypatch.setattr(cli, "rng", SimpleNamespace(splitmix64=draw))
    monkeypatch.setattr(oracle, "verify_case", lambda w, prompt, *a, **k: prompts.append(prompt))
    assert main(["verify", "--model", pipeline["model"], "--cases", "6", "--seed", "7"]) == EXIT_OK
    assert counts == [3] * 6
    draws = rng.splitmix64(7, 0, 18)
    assert prompts == [
        synthetic_prompt(
            VOCAB,
            4 + int(draws[3 * case]) % 197,
            seed=int(draws[3 * case + 2]) % (2**31),
            visual_fraction=(int(draws[3 * case + 1]) % 3) / 4.0,
        )
        for case in range(6)
    ]


def test_random_plan_rejects_non_integer_spans(tmp_path):
    out = str(tmp_path / "plan.json")
    assert main(["plan", "--mode", GLA, "--random", "--layers", "8", "--spans", "a",
                 "--out", out]) == EXIT_VALIDATION
    assert main(["plan", "--mode", GLA, "--random", "--layers", "8", "--spans", "3",
                 "--blocks", "1", "--out", out]) == EXIT_VALIDATION
    assert not os.path.exists(out)
    assert main(["plan", "--mode", GLA, "--random", "--layers", "8", "--spans", "3,2",
                 "--out", out]) == EXIT_OK
    assert len(load_plan(out).blocks) == 2


def test_verify_reports_oracle_mismatch(pipeline, monkeypatch, capsys):
    real = oracle.oracle_prefill

    def perturbed(*args, **kwargs):
        logits = real(*args, **kwargs).copy()
        logits[0, 0] += np.float32(1.0)
        return logits

    monkeypatch.setattr(oracle, "oracle_prefill", perturbed)
    code = main(["verify", "--model", pipeline["model"], "--plan", pipeline["plan"],
                 "--cases", "1", "--steps", "3"])
    assert code == EXIT_ORACLE
    repro = capsys.readouterr().err.split("repro: ", 1)[1]
    case = json.loads(repro)
    assert case["plan"] == load_plan(pipeline["plan"]).to_dict()
    assert case["steps"] == 3
    assert case["row"] == 0
    assert len(case["tokens"]) == len(case["modality"]) >= 4


@pytest.mark.parametrize("first_step", [0, 1], ids=["every-step", "from-the-second-step"])
def test_verify_reports_a_decode_step_one_ulp_off(pipeline, monkeypatch, capsys, first_step):
    """verify holds every decode step to the oracle bit for bit: one logit
    moved by one ulp, on every step or only from the second on, is a
    mismatch, and the report names the first step that moved."""
    real = oracle.decode
    calls = []

    def nudged(*args, **kwargs):
        logits = real(*args, **kwargs).copy()
        if len(calls) >= first_step:
            logits[0] = np.nextafter(logits[0], np.float32(np.inf))
        calls.append(None)
        return logits

    monkeypatch.setattr(oracle, "decode", nudged)
    code = main(["verify", "--model", pipeline["model"], "--plan", pipeline["plan"],
                 "--cases", "1", "--steps", "3"])
    assert code == EXIT_ORACLE
    err = capsys.readouterr().err
    assert f"step {first_step}: decode logits differ" in err
    assert json.loads(err.split("repro: ", 1)[1])["step"] == first_step


def test_missing_or_truncated_checkpoint(pipeline, tmp_path):
    run = ["run", "--input", pipeline["inputs"], "--out", str(tmp_path / "o")]
    assert main([*run, "--model", str(tmp_path / "absent")]) == EXIT_IO
    cut = str(tmp_path / "cut")
    shutil.copytree(pipeline["model"], cut)
    with open(os.path.join(cut, "model.bin"), "r+b") as fh:
        fh.truncate(os.path.getsize(os.path.join(cut, "model.bin")) - 8)
    assert main([*run, "--model", cut]) == EXIT_IO
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("fault", ["nan", "inf", "trailing"])
def test_checkpoint_blob_faults_exit_3(pipeline, tmp_path, fault):
    """A non-finite weight is a plain CheckpointError, since the shapes
    agree, and bytes past the last tensor a ManifestError; both exit 3."""
    model = str(tmp_path / "model")
    shutil.copytree(pipeline["model"], model)
    with open(os.path.join(model, "model.bin"), "r+b") as fh:
        if fault == "trailing":
            fh.seek(0, os.SEEK_END)
            fh.write(bytes(4))
        else:
            fh.seek(8)
            fh.write(np.float32(fault).tobytes())
    error = ManifestError if fault == "trailing" else CheckpointError
    with pytest.raises(error) as info:
        load_checkpoint(model)
    assert type(info.value) is error
    out = str(tmp_path / "out")
    assert main(["run", "--model", model, "--input", pipeline["inputs"], "--out", out]) == EXIT_IO
    assert not os.path.exists(out)


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


def _set_tensor_field(i, key, value):
    return lambda d: d["tensors"][i].__setitem__(key, value)


def _float_total_bytes(d):
    d["total_bytes"] = float(d["total_bytes"])


def _set_anchor(value):
    return lambda d: d["blocks"][0].__setitem__("anchor", value)


def _set_cell(value):
    return lambda d: d["S"][0].__setitem__(1, value)


def _set_cells(value):
    """Every cell of S replaced by value(cell)."""
    return lambda d: d.__setitem__("S", [[value(v) for v in row] for row in d["S"]])


def _line(record):
    return (json.dumps(record) + "\n").encode("utf-8")


UNDECODABLE = b"\xff\xfe{\n"
DEEP = b"[" * 200000

HOSTILE = [
    pytest.param("manifest", _set_config("n_layers", "x"), ManifestError, id="manifest-n_layers-str"),
    pytest.param("manifest", _set_tensor(1, 5), ManifestError, id="manifest-entry-int"),
    pytest.param("manifest", _set("tensors", 5), ManifestError, id="manifest-table-int"),
    pytest.param("manifest", _set_tensor(1, {"name": "layer0.attn_gain", "shape": 5}),
                 DimensionMismatchError, id="manifest-shape-int"),
    pytest.param("manifest", UNDECODABLE, ManifestError, id="manifest-undecodable"),
    pytest.param("manifest", _set_tensor_field(1, "name", "layer0.gain"), ManifestError,
                 id="manifest-tensor-renamed"),
    pytest.param("manifest", _set_config("n_layers", 4.0), ManifestError, id="manifest-n_layers-float"),
    pytest.param("manifest", _set_config("vocab_size", 64.7), ManifestError, id="manifest-vocab-float"),
    pytest.param("manifest", _set_config("d_ff", True), ManifestError, id="manifest-d_ff-bool"),
    pytest.param("manifest", _set_config("norm_eps", float("nan")), ManifestError,
                 id="manifest-norm_eps-nan"),
    pytest.param("manifest", _set_config("rope_theta", float("inf")), ManifestError,
                 id="manifest-rope_theta-inf"),
    pytest.param("manifest", _set_config("rope_theta", "1e4"), ManifestError,
                 id="manifest-rope_theta-str"),
    pytest.param("manifest", _set_config("norm_eps", True), ManifestError,
                 id="manifest-norm_eps-bool"),
    pytest.param("manifest", _set_config("rope_theta", 10**400), ManifestError,
                 id="manifest-rope_theta-huge-int"),
    pytest.param("manifest", DEEP, ManifestError, id="manifest-deep"),
    pytest.param("manifest", _set_tensor_field(1, "shape", [16.0]), DimensionMismatchError,
                 id="manifest-shape-float"),
    pytest.param("manifest", _set_tensor_field(1, "offset", 4096.0), ManifestError,
                 id="manifest-offset-float"),
    pytest.param("manifest", _float_total_bytes, DimensionMismatchError,
                 id="manifest-total_bytes-float"),
    pytest.param("jsonl", _line({"tokens": ["a"]}), ValidationError, id="jsonl-token-str"),
    pytest.param("jsonl", _line({"tokens": 5}), ValidationError, id="jsonl-tokens-int"),
    pytest.param("jsonl", _line(5), ValidationError, id="jsonl-record-int"),
    pytest.param("jsonl", UNDECODABLE, ValidationError, id="jsonl-undecodable"),
    pytest.param("jsonl", _line({"tokens": [2.7, 1]}), ValidationError, id="jsonl-token-float"),
    pytest.param("jsonl", _line({"tokens": [True, 1]}), ValidationError, id="jsonl-token-bool"),
    pytest.param("jsonl", _line({"tokens": [1, 2], "modality": [0, False]}), ValidationError,
                 id="jsonl-modality-bool"),
    pytest.param("jsonl", _line({"tokens": [1, 2], "modality": None}), ValidationError,
                 id="jsonl-modality-null"),
    pytest.param("jsonl", DEEP, ValidationError, id="jsonl-deep"),
    pytest.param("plan", _set("n_layers", "x"), PlanError, id="plan-n_layers-str"),
    pytest.param("plan", UNDECODABLE, PlanError, id="plan-undecodable"),
    pytest.param("plan", _set("n_layers", 4.9), PlanError, id="plan-n_layers-float"),
    pytest.param("plan", _set_anchor(False), PlanError, id="plan-anchor-bool"),
    pytest.param("plan", DEEP, PlanError, id="plan-deep"),
    pytest.param("plan", _set("blocks", {}), PlanError, id="plan-blocks-dict"),
    pytest.param("plan", _set("blocks", ""), PlanError, id="plan-blocks-str"),
    pytest.param("plan", _set("epsilon", True), PlanError, id="plan-epsilon-bool"),
    pytest.param("plan", _set("epsilon", "0.5"), PlanError, id="plan-epsilon-str"),
    pytest.param("plan", _set("epsilon", 10**400), PlanError, id="plan-epsilon-huge-int"),
    pytest.param("profile", _set("S", "zz"), ValidationError, id="profile-S-str"),
    pytest.param("profile", _set_cell("a"), ValidationError, id="profile-cell-str"),
    pytest.param("profile", _set_cells(repr), ValidationError, id="profile-S-number-str"),
    pytest.param("profile", _set_cells(lambda v: False), ValidationError, id="profile-S-bool"),
    pytest.param("profile", _set_cell(10**400), ValidationError, id="profile-cell-huge-int"),
    pytest.param("profile", UNDECODABLE, ValidationError, id="profile-undecodable"),
    pytest.param("profile", _set("n_layers", 4.0), ValidationError, id="profile-n_layers-float"),
    pytest.param("profile", _set("n_samples", True), ValidationError, id="profile-n_samples-bool"),
    pytest.param("profile", DEEP, ValidationError, id="profile-deep"),
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
        argv = ["run", "--model", model, "--input", inputs, "--plan", plan, "--out", out]
    with pytest.raises(error):
        load(bad)
    assert main(argv) == code
    assert not os.path.exists(out)


MUTATED = ["manifest", "jsonl", "plan", "profile"]
NEST = "\u0000nest\u0000"
RETYPED = [None, True, "x", 1.5, -1, 10**30, [], {}]


def _mutate(rng, doc: bytes) -> tuple[bytes, str]:
    """One seeded mutation of a JSON document: drop a key or element, give a
    value another JSON type, nest a value deeply, or truncate the bytes. A
    drop that lands on the whole document retypes it instead."""
    kind = ["drop", "retype", "nest", "truncate"][int(rng.integers(4))]
    if kind == "truncate":
        cut = int(rng.integers(len(doc)))
        return doc[:cut], f"truncate at {cut}"
    root = [json.loads(doc)]
    parent, key = root, 0
    while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() < 0.75:
        parent = parent[key]
        keys = list(parent) if isinstance(parent, dict) else range(len(parent))
        key = list(keys)[int(rng.integers(len(keys)))]
    if kind == "drop" and parent is not root:
        del parent[key]
        return json.dumps(root[0]).encode(), f"drop {key!r}"
    if kind == "nest":
        depth = int(rng.choice([3, 900, 200000]))
        parent[key] = NEST
        text = json.dumps(root[0]).replace(json.dumps(NEST), "[" * depth + "]" * depth)
        return text.encode(), f"nest {key!r} {depth} deep"
    value = RETYPED[int(rng.integers(len(RETYPED)))]
    parent[key] = value
    return json.dumps(root[0]).encode(), f"set {key!r} to {value!r}"


@pytest.mark.parametrize("kind", MUTATED)
def test_seeded_mutations_exit_cleanly(pipeline, tmp_path, kind):
    """Randomly damaged inputs end in exit code 0, 1 or 3, never a raise."""
    rng = np.random.default_rng(MUTATED.index(kind))
    model, inputs, plan = pipeline["model"], pipeline["inputs"], pipeline["plan"]
    if kind == "manifest":
        model = str(tmp_path / "model")
        shutil.copytree(pipeline["model"], model)
        bad, source = os.path.join(model, "model.json"), os.path.join(pipeline["model"], "model.json")
    else:
        bad = str(tmp_path / "input")
        source = {"jsonl": inputs, "plan": plan,
                  "profile": os.path.join(pipeline["prof"], "profile.json")}[kind]
    with open(source, "rb") as fh:
        original = fh.read()
    out = str(tmp_path / "out")
    if kind == "profile":
        argv = ["plan", "--mode", GLA, "--sim", bad, "--epsilon", "0.5", "--out", out]
    else:
        argv = ["run", "--model", model, "--input", bad if kind == "jsonl" else inputs,
                "--plan", bad if kind == "plan" else plan, "--steps", "1", "--out", out]
    for case in range(64):
        if kind == "jsonl":
            lines = original.splitlines()
            i = int(rng.integers(len(lines)))
            lines[i], what = _mutate(rng, lines[i])
            data, what = b"\n".join(lines), f"line {i + 1}: {what}"
        else:
            data, what = _mutate(rng, original)
        with open(bad, "wb") as fh:
            fh.write(data)
        try:
            code = main(argv)
        except Exception as exc:  # any raise fails the test; name the case
            pytest.fail(f"{kind} case {case} ({what}) raised {exc!r}")
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_IO), f"{kind} case {case} ({what})"
