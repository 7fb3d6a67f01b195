"""Experiment orchestrators: architecture sweeps and the pruning-frequency
by learning-rate-schedule grid.

A frequency cell is the `run_arms` arm `f{fraction:g}_{lr_kind}_seed{seed}/`:
the preset's stages before the final width-pruning one, trained once per
seed, then the cell's own, so the cells of a seed differ in nothing but
pruning fraction and schedule, not even in batches. Every architecture
draws `stage_rng(seed, 1)`, the same batches wherever it is in the list.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .checkpoint import load_checkpoint
from .data import EncodedDataset
from .metrics import MetricsWriter, check_metric_kind
from .pipeline import PruneSpec, StagePlan, run_arms, run_stage, stage_rng, stage_summary
from .presets import (_finetune_stage, _hp, plan_iterative_width_depth_three_stage,
                      plan_iterative_width_two_stage)
from .pruning import ArchitectureTarget


def sweep_architectures(teacher_ckpt, archs: list[dict],
                        datasets: dict[str, EncodedDataset], out_dir, seed: int = 0,
                        hp: dict | None = None,
                        eval_kind: str = "accuracy") -> list[dict]:
    """One-step prune the fine-tuned model to each architecture, fine-tune
    with cross-entropy, and report the dev metric per architecture.

    archs entries: {"name": str, "target": {"H":…, "L":…, "d_I":…, "r":…}}.
    The metric kind and every arch's stage are checked before any trains.
    """
    check_metric_kind(eval_kind)
    hp = _hp(hp)
    teacher_ck = load_checkpoint(teacher_ckpt)
    stages = {}
    for arch in archs:
        name, target = arch["name"], ArchitectureTarget.from_dict(arch["target"])
        if name in stages:
            raise ValueError(f"architecture name {name!r} appears twice")
        target.deltas(teacher_ck.config)
        stages[name] = replace(_finetune_stage(hp), name=f"arch_{name}",
                               prune=PruneSpec(mode="one_step", target=target))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for arch, stage in zip(archs, stages.values()):
        student = teacher_ck.to_model()
        with MetricsWriter(out_dir / f"{stage.name}.ndjson") as metrics:
            run_stage(stage, student, None, datasets, metrics, stage_rng(seed, 1),
                      eval_kind)
        rows.append(stage_summary(student, metrics, name=arch["name"],
                                  target=arch["target"]))
    _write_summary(out_dir, rows)
    return rows


LR_KIND_ALIASES = {"linear": "linear_decay", "linear_decay": "linear_decay",
                   "constant": "constant"}


def sweep_frequency(model: dict, target: dict, fractions: list[float],
                    lr_kinds: list[str], seeds: list[int],
                    datasets: dict[str, EncodedDataset], out_dir,
                    hp: dict | None = None,
                    eval_kind: str = "accuracy") -> list[dict]:
    """Grid over (pruning fraction, lr schedule, seed) for the final
    width-pruning KD stage; each cell is an arm in its own directory."""
    hp = _hp(hp)
    preset = (plan_iterative_width_two_stage if target.get("L") is None
              else plan_iterative_width_depth_three_stage)
    plan = preset(model, target, hp)
    *shared, last = plan.stages
    lr_kinds = [LR_KIND_ALIASES[k] for k in lr_kinds]
    # every cell's stage is built, and so checked, before anything trains
    cells = {(fraction, kind): StagePlan(plan.model, shared + [replace(
                 last, lr_kind=kind, prune=replace(last.prune, prune_fraction=fraction))])
             for fraction in fractions for kind in lr_kinds}
    rows = []
    for seed in seeds:
        arms = {Path(out_dir, f"f{fraction:g}_{kind}_seed{seed}"): cell
                for (fraction, kind), cell in cells.items()}
        results = run_arms(arms, datasets, seed, eval_kind)
        for (fraction, kind), summaries in zip(cells, results.values()):
            rows.append({"fraction": fraction, "lr_kind": kind, "seed": seed,
                         **{k: v for k, v in summaries[-1].items()
                            if k not in ("stage", "checkpoint")}})
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    _write_summary(Path(out_dir), rows)
    return rows


def _write_summary(out_dir: Path, rows: list[dict]) -> None:
    (out_dir / "summary.json").write_text(
        json.dumps(rows, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not rows:
        return
    keys = [k for k in rows[0] if not isinstance(rows[0][k], dict)]
    lines = ["\t".join(keys)]
    for row in rows:
        lines.append("\t".join(str(row.get(k, "")) for k in keys))
    (out_dir / "summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
