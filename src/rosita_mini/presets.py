"""The standard pruning + distillation strategies, built as plans by `build_preset`.

Every distillation preset starts by fine-tuning the full-size model on
the labeled split; distillation stages then run on the augmented split
with teacher predictions throughout and hidden states only in the final
stage. The scratch preset is the baseline without pruning or distillation.
"""

from __future__ import annotations

from dataclasses import replace

from .distillation import KDConfig
from .model import check_keys
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


def _finetune_stage(name: str, hp: dict) -> StageSpec:
    return StageSpec(name=name, dataset="train", epochs=hp["finetune_epochs"],
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


# Each distillation preset's KD stages after `finetune`, as (name, use_hidden,
# prune kind): the first is taught by the fine-tuned model ("original"), each
# later one by the stage before it ("previous").
_KD_STAGES = {
    # Prune to the target in one step, then KD with predictions and hidden states.
    "one_step_one_stage": [("kd_prune", True, "one_step")],
    # Same-size prediction KD first; its student teaches the pruned model.
    "one_step_two_stage": [("kd_samesize", False, None), ("kd_prune", True, "one_step")],
    # Same-size KD, then the width dims (heads, FFN, embedding rank) pruned iteratively.
    "iterative_width_two_stage": [("kd_samesize", False, None), ("kd_width", True, "width")],
    # Depth pruned iteratively in its own prediction-only stage, then width.
    "iterative_width_depth_three_stage": [("kd_samesize", False, None),
                                          ("kd_depth", False, "depth"),
                                          ("kd_width", True, "width")],
}

PRESETS = (*_KD_STAGES, "scratch")


def _prune(kind: str | None, target: ArchitectureTarget, hp: dict) -> PruneSpec | None:
    """A one-step prune to the whole target, or an iterative one to its depth
    (L alone) or to its width (all but L)."""
    if kind is None:
        return None
    if kind == "one_step":
        return PruneSpec(mode="one_step", target=target)
    if kind == "depth":
        if target.L is None:
            raise ValueError("its depth stage needs a target L")
        target, n_events = ArchitectureTarget(L=target.L), hp["depth_events"]
    else:
        target, n_events = replace(target, L=None), hp["width_events"]
    return PruneSpec(mode="iterative", target=target, prune_fraction=hp["prune_fraction"],
                     n_events=n_events)


def build_preset(name: str, model: dict, target: dict,
                 hp: dict | None = None) -> StagePlan:
    """The plan of preset `name`: `finetune` and its KD stages, or `scratch`,
    which trains the model reshaped to the target dims from scratch, with
    cross-entropy only."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choices: {sorted(PRESETS)}")
    try:
        hp = {**HP_DEFAULTS, **check_keys({} if hp is None else hp, "hp", HP_DEFAULTS)}
        if name == "scratch":
            ArchitectureTarget.from_dict(target)  # rejects an unknown or nonpositive dimension
            return StagePlan(model=model, stages=[replace(
                _finetune_stage("scratch", hp),
                model={k: v for k, v in target.items() if v is not None})])
        target = ArchitectureTarget.from_dict(target)
        rows = _KD_STAGES[name]
        prunes = [_prune(kind, target, hp) for _, _, kind in rows]  # target errors first
        return StagePlan(model=model, stages=[_finetune_stage("finetune", hp)] + [
            _kd_stage(stage, hp, teacher="previous" if k else "original",
                      use_hidden=use_hidden, prune=prune)
            for k, ((stage, use_hidden, _), prune) in enumerate(zip(rows, prunes))])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"preset {name!r}: {exc}") from exc
