"""Experiment orchestrators: architecture sweeps and the pruning-frequency
by learning-rate-schedule grid.

The frequency sweep trains the shared precursor stages once per seed
(fine-tune, same-size KD, iterative depth KD) and then reruns only the
final width-pruning stage per grid cell, so cells differ in nothing but
pruning fraction and schedule.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint
from .data import EncodedDataset
from .metrics import MetricsWriter
from .pipeline import (PruneSpec, StagePlan, limit_worker_threads, run_plan, run_stage,
                       stage_summary)
from .presets import (_finetune_stage, _hp, _kd_stage, _width_target,
                      plan_iterative_width_depth_three_stage,
                      plan_iterative_width_two_stage)
from .pruning import ArchitectureTarget


def sweep_architectures(teacher_ckpt, archs: list[dict],
                        datasets: dict[str, EncodedDataset], out_dir, seed: int = 0,
                        hp: dict | None = None,
                        eval_kind: str = "accuracy") -> list[dict]:
    """One-step prune the fine-tuned model to each architecture, fine-tune
    with cross-entropy, and report the dev metric per architecture.

    archs entries: {"name": str, "target": {"H":…, "L":…, "d_I":…, "r":…}}.
    """
    limit_worker_threads()
    hp = _hp(hp)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    teacher_ck = load_checkpoint(teacher_ckpt)
    rows = []
    for idx, arch in enumerate(archs):
        name, target = arch["name"], ArchitectureTarget.from_dict(arch["target"])
        student = teacher_ck.to_model()
        stage = replace(_finetune_stage(hp), name=f"arch_{name}",
                        prune=PruneSpec(mode="one_step", target=target))
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        with MetricsWriter(out_dir / f"arch_{name}.ndjson") as metrics:
            run_stage(stage, student, None, datasets, metrics, rng, eval_kind)
        rows.append(stage_summary(student, metrics, name=name, target=arch["target"]))
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
    width-pruning KD stage; one metrics file per cell."""
    limit_worker_threads()
    hp = _hp(hp)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lr_kinds = [LR_KIND_ALIASES[k] for k in lr_kinds]
    # every cell's stage is built, and so checked, before anything trains
    cells = [(fraction, kind,
              _kd_stage("kd_width", {**hp, "lr_kind": kind}, teacher="previous",
                        use_hidden=True,
                        prune=PruneSpec(mode="iterative", target=_width_target(target),
                                        prune_fraction=fraction,
                                        n_events=hp["width_events"])))
             for fraction in fractions for kind in lr_kinds]
    if target.get("L") is not None:
        plan = plan_iterative_width_depth_three_stage(model, target, hp)
    else:
        plan = plan_iterative_width_two_stage(model, target, hp)
    precursor = StagePlan(model=plan.model, stages=plan.stages[:-1])

    rows = []
    for seed in seeds:
        summaries = run_plan(precursor, datasets, out_dir / f"seed{seed}" / "precursor",
                             seed=seed, eval_kind=eval_kind)
        teacher_ck = load_checkpoint(summaries[-1]["checkpoint"])

        for fraction, kind, stage in cells:
            cell = f"f{fraction:g}_{kind}_seed{seed}"
            teacher, student = teacher_ck.to_model(), teacher_ck.to_model()
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, hash_cell(fraction, kind)]))
            with MetricsWriter(out_dir / f"{cell}.ndjson") as metrics:
                run_stage(stage, student, teacher, datasets, metrics, rng, eval_kind)
            rows.append(stage_summary(student, metrics, fraction=fraction,
                                      lr_kind=kind, seed=seed))
    _write_summary(out_dir, rows)
    return rows


def hash_cell(fraction: float, kind: str) -> int:
    """Stable small integer for seeding a grid cell (not runtime hash())."""
    text = f"{fraction:.6f}|{kind}"
    acc = 0
    for ch in text:
        acc = (acc * 131 + ord(ch)) % (2 ** 31)
    return acc


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
