"""Command-line surface for training, pruning, distillation, and sweeps.

Exit codes: 0 success, 1 runtime failure (diagnostic on stderr), 2 usage
errors (argparse). File formats: TSV datasets, JSON configs/plans, NDJSON
metrics, RSTA binary checkpoints.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import generate_marker_task, load_task_dir
from .factorization import factorize_model_embedding
from .metrics import MetricsWriter
from .model import Model, ModelConfig, count_params
from .pipeline import (PruneSpec, StagePlan, StageSpec, collect_one_step_scores,
                       evaluate, limit_worker_threads, one_step_prune, run_plan,
                       run_stage)
from .presets import build_preset
from .pruning import (ArchitectureTarget, head_importance, neuron_importance,
                      rank_importance)
from .sweeps import LR_KIND_ALIASES, sweep_architectures, sweep_frequency


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_data(args, max_len: int | None = None):
    info = {}
    task_json = Path(args.data) / "task.json"
    if task_json.exists():
        info = json.loads(task_json.read_text(encoding="utf-8"))
    if max_len is None:
        max_len = info.get("max_len")
    if max_len is None:
        raise SystemExit("no max_len available: pass a model config or keep task.json")
    vocab, splits = load_task_dir(args.data, max_len)
    return vocab, splits, info


def _with_data_defaults(model: dict, vocab, info: dict) -> dict:
    """Fill vocab_size / max_len / n_classes from the data dir when omitted."""
    merged = dict(model)
    merged.setdefault("vocab_size", len(vocab))
    if "max_len" in info:
        merged.setdefault("max_len", info["max_len"])
    if "n_classes" in info:
        merged.setdefault("n_classes", info["n_classes"])
    return merged


def cmd_make_data(args) -> int:
    if args.task != "markers":
        raise SystemExit(f"unknown task {args.task!r}; available: markers")
    info = generate_marker_task(args.out, n_train=args.n_train, n_dev=args.n_dev,
                                n_aug=args.n_aug, seq_len=args.seq_len,
                                n_filler_words=args.n_words, seed=args.seed)
    (Path(args.out) / "task.json").write_text(json.dumps(info, sort_keys=True) + "\n",
                                              encoding="utf-8")
    print(json.dumps(info, sort_keys=True))
    return 0


# the keys of a finetune config's "train" block, with their defaults
_TRAIN_DEFAULTS = {"dataset": "train", "epochs": 10, "batch_size": 32,
                   "lr_kind": "linear_decay", "base_lr": 1e-3, "dropout": 0.0}


def cmd_finetune(args) -> int:
    cfg = _read_json(args.config)
    train = cfg.get("train", {})
    unknown = sorted(set(train) - set(_TRAIN_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown train keys {unknown}; known: {sorted(_TRAIN_DEFAULTS)}")
    vocab, splits, info = _load_data(args, cfg.get("model", {}).get("max_len"))
    model_cfg = ModelConfig.from_dict(_with_data_defaults(cfg["model"], vocab, info))
    model = Model.init(model_cfg, np.random.default_rng(args.seed))

    stage = StageSpec(name="finetune", **{**_TRAIN_DEFAULTS, **train})
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with MetricsWriter(out / "finetune.ndjson") as metrics:
        run_stage(stage, model, None, splits, metrics,
                  np.random.default_rng(np.random.SeedSequence(args.seed)),
                  eval_kind=info.get("metric", "accuracy"))
    ckpt = out / "teacher.rst"
    save_checkpoint(ckpt, model, seed=args.seed, stage="finetune")
    result = {"checkpoint": str(ckpt), "param_count": count_params(model_cfg)}
    if "eval_metric" in metrics.last:
        result["dev_metric"] = metrics.last["eval_metric"]
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_prune_one_step(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    model = ck.to_model()
    vocab, splits, info = _load_data(args, model.config.max_len)
    target = ArchitectureTarget.from_dict(_read_json(args.target)
                                          if Path(args.target).exists()
                                          else json.loads(args.target))
    stage = StageSpec(name="prune", dataset="train", epochs=1,
                      batch_size=args.batch_size,
                      prune=PruneSpec(mode="one_step", target=target))
    one_step_prune(model, None, stage, splits["train"], None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "pruned.rst"
    save_checkpoint(ckpt, model, seed=ck.seed, stage="pruned")
    result = {"checkpoint": str(ckpt), "config": model.config.to_dict(),
              "param_count": count_params(model.config)}
    if "dev" in splits:
        result["dev_metric"] = evaluate(model, splits["dev"],
                                        info.get("metric", "accuracy"))
    print(json.dumps(result, sort_keys=True))
    return 0


def _plan_from_file(path, vocab, info) -> StagePlan:
    raw = _read_json(path)
    if "preset" in raw:
        plan = build_preset(raw["preset"], raw["model"], raw["target"], raw.get("hp"))
    else:
        plan = StagePlan.from_dict(raw)
    plan.model = _with_data_defaults(plan.model, vocab, info)
    for stage in plan.stages:
        if stage.model is not None:
            stage.model = _with_data_defaults(stage.model, vocab, info)
    return plan


def cmd_run_plan(args) -> int:
    vocab, splits, info = _load_data(args)
    plan = _plan_from_file(args.plan, vocab, info)
    summaries = run_plan(plan, splits, args.out, seed=args.seed,
                         eval_kind=info.get("metric", "accuracy"))
    print(json.dumps(summaries, sort_keys=True, indent=2))
    return 0


def cmd_sweep_architectures(args) -> int:
    vocab, splits, info = _load_data(args)
    spec = _read_json(args.archs)
    rows = sweep_architectures(args.teacher, spec["architectures"], splits,
                               args.out, seed=args.seed, hp=spec.get("hp"),
                               eval_kind=info.get("metric", "accuracy"))
    print(json.dumps(rows, sort_keys=True, indent=2))
    return 0


def cmd_sweep_frequency(args) -> int:
    vocab, splits, info = _load_data(args)
    cfg = _read_json(args.config)
    model = _with_data_defaults(cfg["model"], vocab, info)
    fractions = [float(f) for f in args.fractions.split(",")]
    kinds = args.lr_schedule.split(",")
    unknown = [k for k in kinds if k not in LR_KIND_ALIASES]
    if unknown:
        raise SystemExit(f"unknown lr schedule(s) {unknown}; "
                         f"choices: {sorted(LR_KIND_ALIASES)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    rows = sweep_frequency(model, cfg["target"], fractions, kinds, seeds, splits,
                           args.out, hp=cfg.get("hp"),
                           eval_kind=info.get("metric", "accuracy"))
    print(json.dumps(rows, sort_keys=True, indent=2))
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint).to_model()
    vocab, splits, info = _load_data(args, model.config.max_len)
    if args.split not in splits:
        raise SystemExit(f"split {args.split!r} not in {sorted(splits)}")
    kind = args.metric or info.get("metric", "accuracy")
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
        vocab, splits, info = _load_data(args, model.config.max_len)
        stage = StageSpec(name="inspect", dataset="train", epochs=1, batch_size=32)
        ledger = collect_one_step_scores(model, None, stage, splits["train"], None)
        importance = {}
        for layer in range(model.config.L):
            importance[f"layer{layer}"] = {
                "heads": head_importance(ledger, layer, model.config.head_dim).tolist(),
                "neuron_mean": float(neuron_importance(ledger, layer).mean()),
            }
        if model.config.factorized:
            importance["embedding_ranks_mean"] = float(
                rank_importance(model, ledger).mean())
        out["importance"] = importance
    print(json.dumps(out, sort_keys=True, indent=2))
    return 0


def cmd_factorize_embedding(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    model = ck.to_model()
    factorize_model_embedding(model, args.rank)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "factorized.rst"
    save_checkpoint(ckpt, model, seed=ck.seed, stage=ck.stage)
    print(json.dumps({"checkpoint": str(ckpt),
                      "config": model.config.to_dict(),
                      "param_count": count_params(model.config)}, sort_keys=True))
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

    p = add("make-data", cmd_make_data, help="generate a built-in synthetic task")
    p.add_argument("--task", default="markers")
    p.add_argument("--out", required=True)
    p.add_argument("--n-train", type=int, default=256)
    p.add_argument("--n-dev", type=int, default=768)
    p.add_argument("--n-aug", type=int, default=4096)
    p.add_argument("--seq-len", type=int, default=12)
    p.add_argument("--n-words", type=int, default=58)
    p.add_argument("--seed", type=int, default=0)

    p = add("finetune", cmd_finetune, help="train a model with cross-entropy")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
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

    p = add("sweep-architectures", cmd_sweep_architectures,
            help="one-step prune + fine-tune across architectures")
    p.add_argument("--teacher", required=True)
    p.add_argument("--archs", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = add("sweep-frequency", cmd_sweep_frequency,
            help="grid over pruning fraction and lr schedule")
    p.add_argument("--config", required=True)
    p.add_argument("--fractions", required=True)
    p.add_argument("--lr-schedule", required=True)
    p.add_argument("--seeds", default="0")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="dev")
    p.add_argument("--metric", choices=["accuracy", "mcc"])

    p = add("inspect", cmd_inspect,
            help="print config, parameter count, importance summaries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data")

    p = add("factorize-embedding", cmd_factorize_embedding,
            help="replace the token embedding with truncated SVD factors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    limit_worker_threads()
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except Exception as exc:  # runtime failure -> exit 1 with diagnostic
        print(f"rosita-mini: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
