"""Experiment orchestrators: the architecture study and the pruning-frequency
by learning-rate-schedule grid.

Each cell of either grid is the `run_arms` arm `{cell}_seed{seed}/`. The
cells of a seed share their stage prefix, trained once, and the batches of
their last stage, so they differ in nothing but the cell's own fields.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .data import EncodedDataset
from .model import ModelConfig
from .pipeline import PruneSpec, StagePlan, run_arms
from .presets import (_finetune_stage, _hp, plan_iterative_width_depth_three_stage,
                      plan_iterative_width_two_stage)
from .pruning import ArchitectureTarget


def sweep_architectures(model: dict, archs: list[dict], seeds: list[int],
                        datasets: dict[str, EncodedDataset], out_dir,
                        hp: dict | None = None,
                        eval_kind: str = "accuracy") -> list[dict]:
    """Per seed, fine-tune `model` once; then, per architecture, the cell
    `arch_{name}` one-step prunes that to its target and fine-tunes it with
    cross-entropy.

    archs entries: {"name": str, "target": {"H":…, "L":…, "d_I":…, "r":…}}.
    Every target is checked against `model` before anything trains.
    """
    finetune = _finetune_stage(_hp(hp))
    cells = []
    for arch in archs:
        target = ArchitectureTarget.from_dict(arch["target"])
        target.deltas(ModelConfig.from_dict(model))
        arch_stage = replace(finetune, name=f"arch_{arch['name']}", teacher="original",
                             prune=PruneSpec("one_step", target))
        cells.append((arch_stage.name, {"name": arch["name"], "target": arch["target"]},
                      StagePlan(model, [finetune, arch_stage])))
    return _run_cells(cells, seeds, datasets, out_dir, eval_kind)


LR_KIND_ALIASES = {"linear": "linear_decay", "linear_decay": "linear_decay",
                   "constant": "constant"}


def sweep_frequency(model: dict, target: dict, fractions: list[float],
                    lr_kinds: list[str], seeds: list[int],
                    datasets: dict[str, EncodedDataset], out_dir,
                    hp: dict | None = None,
                    eval_kind: str = "accuracy") -> list[dict]:
    """Grid over (pruning fraction, lr schedule, seed) for the final
    width-pruning KD stage: the cell `f{fraction:g}_{lr_kind}`."""
    if unknown := [k for k in lr_kinds if k not in LR_KIND_ALIASES]:
        raise ValueError(f"unknown lr schedule(s) {unknown}; "
                         f"choices: {sorted(LR_KIND_ALIASES)}")
    preset = (plan_iterative_width_two_stage if target.get("L") is None
              else plan_iterative_width_depth_three_stage)
    *shared, last = preset(model, target, hp).stages
    lr_kinds = [LR_KIND_ALIASES[k] for k in lr_kinds]
    # every cell's stage is built, and so checked, before anything trains
    cells = [(f"f{fraction:g}_{kind}", {"fraction": fraction, "lr_kind": kind},
              StagePlan(model, shared + [replace(
                  last, lr_kind=kind, prune=replace(last.prune, prune_fraction=fraction))]))
             for fraction in fractions for kind in lr_kinds]
    return _run_cells(cells, seeds, datasets, out_dir, eval_kind)


def _run_cells(cells: list[tuple[str, dict, StagePlan]], seeds: list[int],
               datasets: dict[str, EncodedDataset], out_dir,
               eval_kind: str) -> list[dict]:
    """Run each `(cell, fields, plan)` for each seed as the arm
    `{cell}_seed{seed}/`, one `run_arms` call per seed, and write one summary
    row per cell and seed: the cell's fields, the seed, and its last stage's
    summary. A repeated cell or seed is rejected before anything trains."""
    for what, items in (("cell", [cell for cell, _, _ in cells]), ("seed", seeds)):
        if repeated := [x for i, x in enumerate(items) if x in items[:i]]:
            raise ValueError(f"{what} {repeated[0]!r} appears twice")
    rows = []
    for seed in seeds:
        results = run_arms({Path(out_dir, f"{cell}_seed{seed}"): plan
                            for cell, _, plan in cells}, datasets, seed, eval_kind)
        for (_, fields, _), summaries in zip(cells, results.values()):
            rows.append({**fields, "seed": seed,
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
