"""Command-line surface for training, pruning, distillation, and arms studies.

One command per job: fine-tuning is `run-plan` of a one-stage plan, and
factorizing a dense embedding is `prune-one-step` with only an `r` target.

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 usage
errors (argparse). File formats: TSV datasets, JSON plans and specs, NDJSON
metrics, RSTA binary checkpoints.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import N_FILLER_WORDS, generate_marker_task, load_task_dir
from .metrics import METRIC_KINDS, check_metric_kind
from .model import ModelConfig, check_ints, check_keys, count_params
from .pipeline import (PruneSpec, StagePlan, StageSpec, _check_split, _stage_data,
                       collect_one_step_scores, evaluate, one_step_prune, run_arms,
                       run_plan)
from .presets import build_preset
from .pruning import ArchitectureTarget, unit_importance


def _read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None


def _load_data(args, model, where: str = "model"):
    """The data dir's splits and `task.json` (only keys `make-data` writes), and
    the command's one base `model`, named `where`: a plan's or spec's
    `model`, or a checkpoint's config. The data dir fills the vocab_size,
    max_len and n_classes that `model` omits, from `vocab.txt` and
    `task.json`; the splits are encoded at task.json's max_len, else at the
    model's."""
    info = {}
    task_json = Path(args.data) / "task.json"
    if task_json.exists():
        info = check_keys(_read_json(task_json), task_json,
                          ("dir", "max_len", "metric", "n_classes", "vocab_size"))
    info.setdefault("metric", "accuracy")
    check_metric_kind(info["metric"])
    model = check_keys(model, where, [f.name for f in fields(ModelConfig)])
    model = {k: info[k] for k in ("max_len", "n_classes") if k in info} | model
    if missing := [k for k in ("max_len", "n_classes") if k not in model]:
        raise ValueError(f"{where}: missing keys {missing}; {task_json} does not hold them")
    max_len = info.get("max_len", model["max_len"])
    check_ints({"max_len": max_len}, task_json if "max_len" in info else where)
    vocab, splits = load_task_dir(args.data, max_len)
    return splits, info, check_keys({"vocab_size": len(vocab), **model}, where, ModelConfig)


def cmd_make_data(args) -> int:
    info = generate_marker_task(args.out, n_train=args.n_train, n_dev=args.n_dev,
                                n_aug=args.n_aug, seq_len=args.seq_len,
                                n_filler_words=args.n_words, seed=args.seed)
    (Path(args.out) / "task.json").write_text(json.dumps(info, sort_keys=True) + "\n",
                                              encoding="utf-8")
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_prune_one_step(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    model = ck.to_model()
    splits, info, _ = _load_data(args, model.config.to_dict())
    try:
        raw = _read_json(args.target) if Path(args.target).exists() else json.loads(args.target)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--target {args.target!r} is neither a file of JSON nor a "
                         f"JSON literal ({exc})") from None
    try:
        target = ArchitectureTarget.from_dict(raw)
    except ValueError as exc:
        raise ValueError(f"--target {args.target!r}: {exc}") from exc
    stage = StageSpec(name="prune", dataset="train", epochs=1,
                      batch_size=args.batch_size,
                      prune=PruneSpec(mode="one_step", target=target))
    if "dev" in splits:  # pruning keeps vocab_size, max_len and n_classes
        _check_split(splits["dev"], "split 'dev'", model.config)
    one_step_prune(model, None, stage, _stage_data(stage, splits, model.config), None)
    ckpt = Path(args.out, "pruned.rst")
    result = {"checkpoint": str(ckpt), "config": model.config.to_dict(),
              "param_count": count_params(model.config)}
    if "dev" in splits:  # scored before anything is written
        result["dev_metric"] = evaluate(model, splits["dev"], info["metric"])
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt, model, seed=ck.seed, stage="pruned")
    print(json.dumps(result, sort_keys=True))
    return 0


def _plan_from_dict(raw: dict, path, arm: str | None = None) -> StagePlan:
    """The plan of `raw`, read from `path` (as `arm` of a spec): a preset with
    its target and hp, or an explicit stage list. A bad key or value names
    the file, arm and stage."""
    where = path if arm is None else f"{path}: arm {arm!r}"
    try:
        if isinstance(raw, dict) and "preset" in raw:
            raw = check_keys(raw, "plan", ("preset", "model", "target", "hp"),
                             ("preset", "model", "target"))
            return build_preset(raw["preset"], raw["model"], raw["target"], raw.get("hp"))
        return StagePlan.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def cmd_run_plan(args) -> int:
    plan = _plan_from_dict(_read_json(args.plan), args.plan)
    splits, info, plan.model = _load_data(args, plan.model, f"{args.plan}: model")
    summaries = run_plan(plan, splits, args.out, seed=args.seed, eval_kind=info["metric"])
    print(json.dumps(summaries, sort_keys=True, indent=2))
    return 0


def _arms_from_spec(path) -> tuple[dict, list[tuple[str, dict, StagePlan]]]:
    """The spec's model, and its arms as `(name, grid fields, plan)`, all on that model.
    A `grid` arm is one cell `{name}_f{fraction:g}_{lr_kind}` per pair of
    values, whose iterative last stage takes them."""
    spec = check_keys(_read_json(path), path, ("model", "arms"), ("model", "arms"))
    if not isinstance(spec["arms"], list) or not spec["arms"]:
        raise ValueError(f"{path}: 'arms' must be a list of one arm or more")
    cells = []
    for i, arm in enumerate(spec["arms"]):
        # an arm's other keys are its plan's, which its plan checks
        name = check_keys(arm, f"{path}: arm {i}", arm, ("name",))["name"]
        grid = arm.get("grid")
        if "model" in arm:
            raise ValueError(f"{path}: arm {name!r} has a model; every arm takes the spec's")
        body = {k: v for k, v in arm.items() if k not in ("name", "grid")}
        plan = _plan_from_dict({**body, "model": spec["model"]}, path, name)
        if grid is None:
            cells.append((name, {}, plan))
            continue
        *shared, last = plan.stages
        grid = check_keys(grid, f"{path}: arm {name!r}: grid", ("prune_fraction", "lr_kind"),
                          ("prune_fraction", "lr_kind"))
        if not all(isinstance(v, list) and v for v in grid.values()) \
                or last.prune is None or last.prune.mode != "iterative":
            raise ValueError(f"{path}: arm {name!r}: a grid takes the lists 'prune_fraction' "
                             f"and 'lr_kind', for an iterative last stage, each with a value "
                             f"or more")
        try:
            for fraction in grid["prune_fraction"]:
                for kind in grid["lr_kind"]:
                    stage = replace(last, lr_kind=kind,
                                    prune=replace(last.prune, prune_fraction=fraction))
                    cells.append((f"{name}_f{fraction:g}_{kind}",
                                  {"prune_fraction": fraction, "lr_kind": kind},
                                  StagePlan(plan.model, shared + [stage])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: arm {name!r}: {exc}") from exc
    return spec["model"], cells


def cmd_run_arms(args) -> int:
    """Run each arm for each seed as `{arm}_seed{seed}/`, one `run_arms` call
    per seed, and write one summary row per arm and seed: its name, any grid
    fields, the seed and its last stage's summary. A repeated arm or seed is
    rejected before anything trains."""
    model, arms = _arms_from_spec(args.spec)
    for what, items in (("arm", [name for name, _, _ in arms]), ("seed", args.seeds)):
        if repeated := [x for i, x in enumerate(items) if x in items[:i]]:
            raise ValueError(f"{what} {repeated[0]!r} appears twice")
    splits, info, model = _load_data(args, model, f"{args.spec}: model")
    for _, _, plan in arms:
        plan.model = model
    rows = []
    for seed in args.seeds:
        results = run_arms({Path(args.out, f"{name}_seed{seed}"): plan
                            for name, _, plan in arms}, splits, seed, info["metric"])
        for (name, fields, _), summaries in zip(arms, results.values()):
            rows.append({"arm": name, **fields, "seed": seed,
                         **{k: v for k, v in summaries[-1].items()
                            if k not in ("stage", "checkpoint")}})
    Path(args.out).mkdir(parents=True, exist_ok=True)
    _write_summary(Path(args.out), rows)
    print(json.dumps(rows, sort_keys=True, indent=2))
    return 0


def _write_summary(out_dir: Path, rows: list[dict]) -> None:
    """`summary.json` and `summary.tsv`, each written to a temporary sibling
    and renamed into place. The TSV's columns are the rows' keys whose
    values are not dicts, in first-seen order."""
    keys = list(dict.fromkeys(k for row in rows for k, v in row.items()
                              if not isinstance(v, dict)))
    lines = ["\t".join(keys)] + ["\t".join(str(row.get(k, "")) for k in keys) for row in rows]
    for name, text in (("summary.json", json.dumps(rows, indent=2, sort_keys=True) + "\n"),
                       ("summary.tsv", "\n".join(lines) + "\n")):
        tmp = out_dir / f"{name}.tmp"
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out_dir / name)


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint).to_model()
    splits, info, _ = _load_data(args, model.config.to_dict())
    if args.split not in splits:
        raise ValueError(f"split {args.split!r} not in {sorted(splits)}")
    kind = args.metric or info["metric"]
    value = evaluate(model, splits[args.split], kind)
    print(json.dumps({"split": args.split, "metric": kind, "value": value},
                     sort_keys=True))
    return 0


def cmd_inspect(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    model = ck.to_model()
    out = {"config": model.config.to_dict(),
           "param_count": count_params(model.config),
           "stage": ck.stage, "seed": ck.seed}
    if args.data:
        splits, info, _ = _load_data(args, model.config.to_dict())
        stage = StageSpec(name="inspect", dataset="train", epochs=1, batch_size=32)
        ledger = collect_one_step_scores(model, None, stage,
                                         _stage_data(stage, splits, model.config), None)
        importance = {}
        for layer in range(model.config.L):
            importance[f"layer{layer}"] = {
                "heads": unit_importance(ledger, model, "attention_head", layer).tolist(),
                "neuron_mean": float(
                    unit_importance(ledger, model, "ffn_neuron", layer).mean()),
            }
        if model.config.factorized:
            importance["embedding_ranks_mean"] = float(
                unit_importance(ledger, model, "embedding_rank").mean())
        out["importance"] = importance
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosita-mini",
        description="transformer compression: structured pruning, embedding "
                    "factorization, multi-stage distillation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    def int_list(text):  # named in the usage error of a bad value
        return [int(x) for x in text.split(",")]

    p = add("make-data", cmd_make_data, help="generate a built-in synthetic task")
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=256)
    p.add_argument("--n-dev", type=int, default=768)
    p.add_argument("--n-aug", type=int, default=4096)
    p.add_argument("--seq-len", type=int, default=12)
    p.add_argument("--n-words", type=int, default=N_FILLER_WORDS)
    p.add_argument("--seed", type=int, default=0)

    p = add("prune-one-step", cmd_prune_one_step,
            help="prune a checkpoint to a target architecture in one step")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--target", required=True,
                   help="JSON file or literal, e.g. '{\"H\":2,\"L\":8}'")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, default=32)

    p = add("run-plan", cmd_run_plan, help="execute a multi-stage plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("run-arms", cmd_run_arms,
            help="run a spec's named plans side by side, for each seed")
    p.add_argument("--spec", required=True)
    p.add_argument("--seeds", type=int_list, default="0")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="dev")
    p.add_argument("--metric", choices=METRIC_KINDS)

    p = add("inspect", cmd_inspect,
            help="print config, parameter count, importance summaries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure -> exit 1 with diagnostic
        print(f"rosita-mini: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
