"""Command-line pipeline: genmodel -> profile -> plan -> run / verify / bench.

Every command validates its inputs before any side effect and writes output
files through `model.atomic_write` (a unique temp file, then a rename), so
failures never leave partial artifacts. All randomness flows from explicit
--seed flags. A mode is chosen once, by `plan --mode`; `run`, `verify` and
`bench` run the mode of their --plan file, or the standard runtime without
one.

Exit codes: 0 success, 1 validation/usage error, 2 oracle mismatch, 3 I/O or
checkpoint error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import efficiency, oracle, planner, profiler, rng, runtime, viz
from .errors import CheckpointError, OracleMismatchError, ValidationError
from .model import (
    ModelConfig,
    atomic_write,
    init_synthetic_model,
    load_checkpoint,
    read_sequences_jsonl,
    require_int,
    save_checkpoint,
    synthetic_prompt,
)
from .planner import GLA, VLA

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_ORACLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # Subparsers are built by this class too, so none of them takes an
    # abbreviated flag: without that, `run --mode gla` would read as --model.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with code 2 on usage errors; that code is reserved for
    # oracle mismatches here, so remap usage problems to the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="lazyattn", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("genmodel", help="write a synthetic checkpoint")
    g.add_argument("--layers", type=int, default=8)
    g.add_argument("--heads", type=int, default=2)
    g.add_argument("--dmodel", type=int, default=64)
    g.add_argument("--dff", type=int, default=128)
    g.add_argument("--vocab", type=int, default=256)
    g.add_argument("--rope-theta", type=float, default=10000.0)
    g.add_argument("--norm-eps", type=float, default=1e-5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="checkpoint directory")

    pr = sub.add_parser("profile", help="attention similarity profile over a corpus")
    pr.add_argument("--model", required=True)
    pr.add_argument("--inputs", required=True, help="JSONL token sequences")
    pr.add_argument("--out", required=True, help="output directory")
    pr.add_argument("--full-matrix", action="store_true",
                    help="average divergence over all rows, not just the last")
    pr.add_argument("--svg", action="store_true", help="also write a similarity heatmap")

    pl = sub.add_parser("plan", help="build a lazy plan from a profile or at random")
    pl.add_argument("--mode", choices=[GLA, VLA], required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--sim", help="similarity profile JSON")
    pl.add_argument("--epsilon", type=float)
    pl.add_argument("--max-span", type=int, default=None)
    pl.add_argument("--random", action="store_true")
    pl.add_argument("--layers", type=int, help="model layer count (random plans)")
    pl.add_argument("--spans", help="comma list of block spans, e.g. 3,3,4")
    pl.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("run", help="generate tokens and write a cost report")
    r.add_argument("--model", required=True)
    r.add_argument("--input", required=True, help="JSONL; first record is the prompt")
    r.add_argument("--plan", help="lazy plan JSON, whose mode runs (standard without one)")
    r.add_argument("--steps", type=int, default=8)
    r.add_argument("--prune-layer", type=int, default=None)
    r.add_argument("--prune-keep", type=float, default=None)
    r.add_argument("--out", default=".", help="directory for cost_report.json")

    v = sub.add_parser("verify", help="oracle equivalence on random prompts")
    v.add_argument("--model", required=True)
    v.add_argument("--plan", help="lazy plan JSON, whose mode runs (standard without one)")
    v.add_argument("--cases", type=int, default=10)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--steps", type=int, default=8)

    b = sub.add_parser("bench", help="decode throughput benchmark")
    b.add_argument("--model", required=True)
    b.add_argument("--plan", help="lazy plan JSON, whose mode runs (standard without one)")
    b.add_argument("--context", type=int, required=True)
    b.add_argument("--steps", type=int, default=32)
    b.add_argument("--repeats", type=int, default=5)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--visual-frac", type=float, default=0.5)
    b.add_argument("--out", required=True, help="JSON path")

    return p


def cmd_genmodel(args) -> int:
    if args.heads < 1 or args.dmodel % args.heads != 0:
        raise ValidationError(f"--dmodel {args.dmodel} is not divisible by --heads {args.heads}")
    config = ModelConfig(
        n_layers=args.layers,
        n_heads=args.heads,
        d_model=args.dmodel,
        d_head=args.dmodel // args.heads,
        d_ff=args.dff,
        vocab_size=args.vocab,
        rope_theta=args.rope_theta,
        norm_eps=args.norm_eps,
    )
    weights = init_synthetic_model(config, args.seed)
    save_checkpoint(weights, args.out)
    print(f"wrote checkpoint to {args.out} ({sum(a.size for _, a in weights.named_tensors())} params)")
    return EXIT_OK


def cmd_profile(args) -> int:
    weights = load_checkpoint(args.model)
    corpus = read_sequences_jsonl(args.inputs)
    if not corpus:
        raise ValidationError(f"input file {args.inputs} holds no sequences")
    profile = profiler.profile_model(weights, corpus, full_matrix=args.full_matrix)
    os.makedirs(args.out, exist_ok=True)
    profiler.save_profile(profile, os.path.join(args.out, "profile.json"))
    atomic_write(os.path.join(args.out, "adjacent.csv"), profiler.adjacent_profile_csv(profile))
    if args.svg:
        svg = viz.render_heatmap_svg(
            profile.similarity_view(), title="ln2 - S", vmin=0.0, vmax=profiler.LN2
        )
        atomic_write(os.path.join(args.out, "similarity.svg"), svg)
    print(f"profiled {profile.n_samples} samples over {profile.n_layers} layers -> {args.out}")
    return EXIT_OK


def cmd_plan(args) -> int:
    if args.random:
        if args.layers is None or args.spans is None:
            raise ValidationError("--random needs --layers and --spans")
        try:
            spans = [int(x) for x in args.spans.split(",") if x]
        except ValueError as exc:
            raise ValidationError(f"--spans must be a comma list of integers: {exc}") from exc
        plan = planner.plan_random(args.layers, spans, args.seed, mode=args.mode)
    else:
        if args.sim is None or args.epsilon is None:
            raise ValidationError("threshold planning needs --sim and --epsilon")
        profile = profiler.load_profile(args.sim)
        plan = planner.plan_from_profile(
            profile, args.epsilon, mode=args.mode, max_block_span=args.max_span
        )
    planner.save_plan(plan, args.out)
    print(
        f"plan: {len(plan.blocks)} blocks, {plan.n_lazy}/{plan.n_layers} lazy layers "
        f"({plan.lazy_fraction():.1%}) -> {args.out}"
    )
    return EXIT_OK


def cmd_run(args) -> int:
    if (args.prune_layer is None) != (args.prune_keep is None):
        raise ValidationError("--prune-layer and --prune-keep must be given together")
    weights = load_checkpoint(args.model)
    sequences = read_sequences_jsonl(args.input)
    if not sequences:
        raise ValidationError(f"input file {args.input} holds no sequences")
    tokens = sequences[0]
    plan = planner.load_plan(args.plan) if args.plan is not None else None
    require_int("--steps", args.steps, 0)

    capture = profiler.AttentionCapture() if args.prune_layer is not None else None
    meter = efficiency.FlopMeter()
    logits, store = runtime.prefill(weights, tokens, plan, capture=capture, meter=meter)
    if args.prune_layer is not None:
        runtime.prune_visual_tokens(store, capture.snapshot, args.prune_layer, args.prune_keep)
    ids = runtime.generate(weights, store, logits[-1], args.steps)
    report = efficiency.cost_report(weights, plan, meter, store)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "cost_report.json")
    atomic_write(path, json.dumps(asdict(report), indent=2) + "\n")
    print("generated:", " ".join(str(t) for t in ids))
    print(f"cost report -> {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    require_int("--cases", args.cases, 1)
    weights = load_checkpoint(args.model)
    plan = planner.load_plan(args.plan) if args.plan is not None else None
    vocab = weights.config.vocab_size
    for case in range(args.cases):
        # Drawn as the case runs: the stream is counter-based, so case i
        # reads outputs 3i..3i+2 whatever the case count.
        draws = rng.splitmix64(args.seed, 3 * case, 3)
        # 4 to 200 tokens, so a case can run a weight product as one GEMM of
        # 128 to 256 padded rows, cross into a second, third or fourth
        # attention block and pad a partial last block.
        length = 4 + int(draws[0]) % 197
        prompt = synthetic_prompt(
            vocab,
            length,
            seed=int(draws[2]) % (2**31),
            visual_fraction=(int(draws[1]) % 3) / 4.0,
        )
        oracle.verify_case(
            weights, prompt, plan, steps=args.steps, case_label=f"case {case}"
        )
        print(f"case {case}: ok (len={length}, visual={prompt.n_visual})")
    print(f"verified {args.cases} cases: production matches oracle")
    return EXIT_OK


def cmd_bench(args) -> int:
    weights = load_checkpoint(args.model)
    plan = planner.load_plan(args.plan) if args.plan is not None else None
    result = efficiency.bench_decode(
        weights,
        plan,
        context_len=args.context,
        steps=args.steps,
        repeats=args.repeats,
        seed=args.seed,
        visual_fraction=args.visual_frac,
    )
    atomic_write(args.out, json.dumps(asdict(result), indent=2) + "\n")
    print(
        f"{result.mode}: median {result.median:.2f} tok/s "
        f"(p10 {result.p10:.2f}, p90 {result.p90:.2f}) -> {args.out}"
    )
    return EXIT_OK


_COMMANDS = {
    "genmodel": cmd_genmodel,
    "profile": cmd_profile,
    "plan": cmd_plan,
    "run": cmd_run,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        if exc.case:
            print(f"repro: {json.dumps(exc.case)}", file=sys.stderr)
        return EXIT_ORACLE
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
