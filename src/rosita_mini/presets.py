"""Plan builders for the standard pruning + distillation strategies.

Every distillation preset starts by fine-tuning the full-size model on
the labeled split; distillation stages then run on the augmented split
with teacher predictions throughout and hidden states only in the final
stage. The scratch preset is the baseline without pruning or distillation.
"""

from __future__ import annotations

from dataclasses import replace

from .distillation import KDConfig
from .pipeline import PruneSpec, StagePlan, StageSpec
from .pruning import ArchitectureTarget

HP_DEFAULTS = {
    "batch_size": 32,
    "lr_kind": "linear_decay",
    "finetune_lr": 1e-3,
    "kd_lr": 1e-3,
    "finetune_epochs": 20,
    "kd_epochs": 4,
    "prune_fraction": 0.1,
    "width_events": 6,
    "depth_events": 4,
    "hidden_weight": 1.0,
    "temperature": 1.0,
    "dropout": 0.0,
}


def _hp(overrides: dict | None) -> dict:
    overrides = overrides or {}
    unknown = sorted(set(overrides) - set(HP_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown hp keys {unknown}; known: {sorted(HP_DEFAULTS)}")
    return {**HP_DEFAULTS, **overrides}


def _finetune_stage(hp: dict) -> StageSpec:
    return StageSpec(name="finetune", dataset="train", epochs=hp["finetune_epochs"],
                     batch_size=hp["batch_size"], lr_kind=hp["lr_kind"],
                     base_lr=hp["finetune_lr"], dropout=hp["dropout"])


def _kd_stage(name: str, hp: dict, *, teacher: str, use_hidden: bool,
              prune: PruneSpec | None = None) -> StageSpec:
    kd = KDConfig(use_pred=True, use_hidden=use_hidden,
                  hidden_weight=hp["hidden_weight"], temperature=hp["temperature"])
    return StageSpec(name=name, dataset="train_aug", epochs=hp["kd_epochs"],
                     teacher=teacher, batch_size=hp["batch_size"],
                     lr_kind=hp["lr_kind"], base_lr=hp["kd_lr"], kd=kd, prune=prune,
                     dropout=hp["dropout"])


def plan_scratch(model: dict, target: dict, hp: dict | None = None) -> StagePlan:
    """Baseline: train the base model reshaped to the target dimensions from
    scratch, with cross-entropy only and no KD."""
    ArchitectureTarget.from_dict(target)  # rejects an unknown or nonpositive dimension
    dims = {k: v for k, v in target.items() if v is not None}
    stage = replace(_finetune_stage(_hp(hp)), name="scratch", model={**model, **dims})
    return StagePlan(model=model, stages=[stage])


def plan_one_step_one_stage(model: dict, target: dict,
                            hp: dict | None = None) -> StagePlan:
    """Prune the fine-tuned model to the target in one step, then one KD
    stage with predictions and hidden states."""
    hp = _hp(hp)
    prune = PruneSpec(mode="one_step", target=ArchitectureTarget.from_dict(target))
    return StagePlan(model=model, stages=[
        _finetune_stage(hp),
        _kd_stage("kd_prune", hp, teacher="original", use_hidden=True, prune=prune),
    ])


def plan_one_step_two_stage(model: dict, target: dict,
                            hp: dict | None = None) -> StagePlan:
    """Same-size prediction KD first; its student teaches the pruned model."""
    hp = _hp(hp)
    prune = PruneSpec(mode="one_step", target=ArchitectureTarget.from_dict(target))
    return StagePlan(model=model, stages=[
        _finetune_stage(hp),
        _kd_stage("kd_samesize", hp, teacher="original", use_hidden=False),
        _kd_stage("kd_prune", hp, teacher="previous", use_hidden=True, prune=prune),
    ])


def plan_iterative_width_two_stage(model: dict, target: dict,
                                   hp: dict | None = None) -> StagePlan:
    """Same-size KD, then iterative pruning of the width dimensions
    (heads, FFN neurons, embedding ranks) during the final KD stage."""
    hp = _hp(hp)
    target = ArchitectureTarget.from_dict(target)
    prune = PruneSpec(mode="iterative", target=replace(target, L=None),
                      prune_fraction=hp["prune_fraction"],
                      n_events=hp["width_events"])
    return StagePlan(model=model, stages=[
        _finetune_stage(hp),
        _kd_stage("kd_samesize", hp, teacher="original", use_hidden=False),
        _kd_stage("kd_width", hp, teacher="previous", use_hidden=True, prune=prune),
    ])


def plan_iterative_width_depth_three_stage(model: dict, target: dict,
                                           hp: dict | None = None) -> StagePlan:
    """Depth is pruned iteratively in its own prediction-only stage; the
    resulting shallow model teaches the final width-pruning stage."""
    hp = _hp(hp)
    target = ArchitectureTarget.from_dict(target)
    if target.L is None:
        raise ValueError("its depth stage needs a target L")
    depth = PruneSpec(mode="iterative", target=ArchitectureTarget(L=target.L),
                      prune_fraction=hp["prune_fraction"],
                      n_events=hp["depth_events"])
    width = PruneSpec(mode="iterative", target=replace(target, L=None),
                      prune_fraction=hp["prune_fraction"],
                      n_events=hp["width_events"])
    return StagePlan(model=model, stages=[
        _finetune_stage(hp),
        _kd_stage("kd_samesize", hp, teacher="original", use_hidden=False),
        _kd_stage("kd_depth", hp, teacher="previous", use_hidden=False, prune=depth),
        _kd_stage("kd_width", hp, teacher="previous", use_hidden=True, prune=width),
    ])


PRESETS = {
    "one_step_one_stage": plan_one_step_one_stage,
    "one_step_two_stage": plan_one_step_two_stage,
    "iterative_width_two_stage": plan_iterative_width_two_stage,
    "iterative_width_depth_three_stage": plan_iterative_width_depth_three_stage,
    "scratch": plan_scratch,
}


def build_preset(name: str, model: dict, target: dict,
                 hp: dict | None = None) -> StagePlan:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    try:
        return PRESETS[name](model, target, hp)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"preset {name!r}: {exc}") from exc
