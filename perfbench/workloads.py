"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one client: an iteration is one full
pass of the workload's calls into rosita_mini, and the next iteration
starts only when the previous one has ended. Inputs come from the seed via
``data.generate_marker_task``; every iteration of a run repeats the same
inputs, so every iteration must write byte-identical checkpoints.

- ``finetune``: the README fine-tune (H8 L8 d_X64 d_I256, cross-entropy on
  ``train`` through ``pipeline.run_stage`` with the default eval cadence).
  No teacher, no pruning, no SVD; about 40% of its time is full-dev eval.
- ``kd_iterative``: the three KD stages of the quick-start preset
  ``iterative_width_depth_three_stage`` to H2 L4 d_I64 r10, chained through
  the written checkpoints as ``run_plan`` chains them. The fine-tuned
  teacher is built once per run, outside the timed region.
- ``one_step_svd``: the ``prune-one-step`` command path on a
  large-vocabulary model: dataset-average Taylor scores, one surgery, and a
  Jacobi SVD of the dense V x 64 embedding that takes most of the time.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rosita_mini import checkpoint, data, model, pipeline, presets
from rosita_mini.metrics import MetricsWriter
from rosita_mini.pruning import ArchitectureTarget

BASE_MODEL = {"H": 8, "L": 8, "d_X": 64, "d_I": 256, "r": 0, "head_dim": 8}
KD_TARGET = {"H": 2, "L": 4, "d_I": 64, "r": 10}
SVD_TARGET = {"H": 2, "d_I": 64, "r": 10}

# Input sizes per scale. "full" is what BENCHMARK.json measures; "tiny" keeps
# every workload's structure (10 surgeries, kd_epochs 2, one SVD) for the
# smoke test. The marker task uses the make-data defaults except where a
# size had to shrink to fit the run length: 4-token sequences learn within
# 80 steps, and the KD split is the smallest that holds 6 pruning events in
# the first tenth of a 2-epoch stage (60 steps).
SIZES = {
    "full": {
        "finetune": {"task": {"n_train": 256, "n_dev": 256, "n_aug": 0, "seq_len": 4,
                              "n_filler_words": 58},
                     "epochs": 10, "batch_size": 32, "dev_floor": 0.9},
        "kd_iterative": {"task": {"n_train": 256, "n_dev": 192, "n_aug": 960, "seq_len": 4,
                                  "n_filler_words": 58},
                         "hp": {"finetune_epochs": 10, "kd_epochs": 2, "width_events": 6,
                                "depth_events": 4, "batch_size": 32}},
        "one_step_svd": {"task": {"n_train": 256, "n_dev": 2048, "n_aug": 0, "seq_len": 12,
                                  "n_filler_words": 4000},
                         "batch_size": 32},
    },
    "tiny": {
        "finetune": {"task": {"n_train": 64, "n_dev": 32, "n_aug": 0, "seq_len": 4,
                              "n_filler_words": 58},
                     "epochs": 1, "batch_size": 32, "dev_floor": 0.0},
        "kd_iterative": {"task": {"n_train": 64, "n_dev": 32, "n_aug": 240, "seq_len": 4,
                                  "n_filler_words": 58},
                         "hp": {"finetune_epochs": 1, "kd_epochs": 2, "width_events": 6,
                                "depth_events": 4, "batch_size": 8}},
        "one_step_svd": {"task": {"n_train": 32, "n_dev": 32, "n_aug": 0, "seq_len": 12,
                                  "n_filler_words": 200},
                         "batch_size": 32},
    },
}

SVD_RTOL = 1e-9


class Ops:
    """Counts the workload's calls into rosita_mini and the ones that fail.

    Every stage or command call is one operation; a raise, or a failed
    check on its output, makes it a failed operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            self.problems.append(f"{getattr(fn, '__qualname__', fn)} raised {exc!r}")
            raise OperationFailed from exc

    def check(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.problems += problems


class OperationFailed(Exception):
    """An operation raised; the rest of the iteration is skipped."""


class Workload:
    """Set-up, untimed preparation, and one timed iteration of a workload."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.sizes = SIZES[scale][self.name]
        self.workdir = Path(workdir)
        self.splits: dict[str, data.EncodedDataset] = {}
        self.info: dict = {}

    @property
    def start_path(self) -> Path:
        return self.workdir / "start.rst"

    def model_config(self) -> dict:
        return {**BASE_MODEL, "vocab_size": self.info["vocab_size"],
                "max_len": self.info["max_len"], "n_classes": self.info["n_classes"]}

    def load_task(self, task_dir: Path) -> None:
        """Generate the seed's task and tokenise it (part of set-up)."""
        self.info = data.generate_marker_task(task_dir, seed=self.seed, **self.sizes["task"])
        _vocab, self.splits = data.load_task_dir(task_dir, self.info["max_len"])

    def prepare(self) -> None:
        """Untimed work that set-up needs on disk, such as the starting checkpoint."""

    def load_start(self) -> None:
        """Load the starting checkpoint (part of set-up)."""

    def setup(self, task_dir: Path) -> None:
        self.load_task(task_dir)
        self.load_start()

    def iterate(self, ops: Ops) -> "Outcome":
        raise NotImplementedError


@dataclass
class Outcome:
    """What one iteration produced, for the checks and the metrics."""

    final_model: model.Model
    checkpoints: list[Path]
    dev_acc: float

    @property
    def model_bytes(self) -> int:
        return self.checkpoints[-1].stat().st_size

    def digest(self) -> str:
        return checkpoint_digest(self.checkpoints)


class Finetune(Workload):
    name = "finetune"

    def iterate(self, ops: Ops) -> Outcome:
        cfg = model.ModelConfig(**self.model_config())
        student = ops(model.Model.init, cfg, np.random.default_rng(self.seed))
        stage = pipeline.StageSpec(name="finetune", dataset="train",
                                   epochs=self.sizes["epochs"],
                                   batch_size=self.sizes["batch_size"])
        with MetricsWriter(self.workdir / "finetune.ndjson") as writer:
            ops(pipeline.run_stage, stage, student, None, self.splits, writer,
                np.random.default_rng(np.random.SeedSequence(self.seed)))
        path = self.workdir / "teacher.rst"
        ops(checkpoint.save_checkpoint, path, student, seed=self.seed, stage="finetune")
        dev_acc = ops(pipeline.evaluate, student, self.splits["dev"])
        return Outcome(student, [path], dev_acc)

    def check(self, outcome: Outcome) -> list[str]:
        problems = check_config(outcome.final_model, self.model_config())
        if not outcome.dev_acc >= self.sizes["dev_floor"]:
            problems.append(f"dev accuracy {outcome.dev_acc:.4f} below the floor "
                            f"{self.sizes['dev_floor']}")
        return problems


class KDIterative(Workload):
    name = "kd_iterative"

    def plan(self):
        return presets.build_preset("iterative_width_depth_three_stage",
                                    self.model_config(), KD_TARGET, self.sizes["hp"])

    def stage_seeds(self, n_stages: int):
        return np.random.SeedSequence(self.seed).spawn(n_stages)

    def prepare(self) -> None:
        """Fine-tune the teacher exactly as ``run_plan`` runs stage 0."""
        plan = self.plan()
        rng = np.random.default_rng(self.stage_seeds(len(plan.stages))[0])
        teacher = model.Model.init(model.ModelConfig.from_dict(plan.model), rng)
        stage = plan.stages[0]
        with MetricsWriter(self.workdir / f"stage0_{stage.name}.ndjson") as writer:
            pipeline.run_stage(stage, teacher, None, self.splits, writer, rng)
        checkpoint.save_checkpoint(self.start_path, teacher, seed=self.seed, stage=stage.name)

    def load_start(self) -> None:
        checkpoint.load_checkpoint(self.start_path)

    def iterate(self, ops: Ops) -> Outcome:
        plan = self.plan()
        seeds = self.stage_seeds(len(plan.stages))
        original = previous = self.start_path
        written = []
        for k, stage in enumerate(plan.stages[1:], start=1):
            rng = np.random.default_rng(seeds[k])
            teacher_path = original if stage.teacher == "original" else previous
            teacher = ops(checkpoint.load_checkpoint, teacher_path).to_model()
            student = ops(checkpoint.load_checkpoint, teacher_path).to_model()
            with MetricsWriter(self.workdir / f"stage{k}_{stage.name}.ndjson") as writer:
                student = ops(pipeline.run_stage, stage, student, teacher, self.splits,
                              writer, rng)
            previous = self.workdir / f"stage{k}_{stage.name}.rst"
            ops(checkpoint.save_checkpoint, previous, student, seed=self.seed,
                stage=stage.name)
            written.append(previous)
        dev_acc = ops(pipeline.evaluate, student, self.splits["dev"])
        return Outcome(student, written, dev_acc)

    def check(self, outcome: Outcome) -> list[str]:
        return check_config(outcome.final_model, {**self.model_config(), **KD_TARGET})


class OneStepSVD(Workload):
    name = "one_step_svd"

    def prepare(self) -> None:
        start = model.Model.init(model.ModelConfig(**self.model_config()), self.seed)
        checkpoint.save_checkpoint(self.start_path, start, seed=self.seed, stage="init")

    def load_start(self) -> None:
        self.start = checkpoint.load_checkpoint(self.start_path)

    def iterate(self, ops: Ops) -> Outcome:
        student = ops(self.start.to_model)
        stage = pipeline.StageSpec(
            name="prune", dataset="train", epochs=1, batch_size=self.sizes["batch_size"],
            prune=pipeline.PruneSpec(mode="one_step",
                                     target=ArchitectureTarget.from_dict(SVD_TARGET)))
        ops(pipeline.one_step_prune, student, None, stage, self.splits["train"], None)
        path = self.workdir / "pruned.rst"
        ops(checkpoint.save_checkpoint, path, student, seed=self.start.seed, stage="pruned")
        dev_acc = ops(pipeline.evaluate, student, self.splits["dev"])
        return Outcome(student, [path], dev_acc)

    def check(self, outcome: Outcome) -> list[str]:
        problems = check_config(outcome.final_model, {**self.model_config(), **SVD_TARGET})
        if not problems:
            params = outcome.final_model.params
            problems += check_svd_factors(self.start.params["emb.W"].astype(np.float64),
                                          params["emb.E_U"].data, params["emb.E_V"].data)
        return problems


WORKLOADS = {cls.name: cls for cls in (Finetune, KDIterative, OneStepSVD)}


# ---------------------------------------------------------------------------
# output checks


def check_config(final_model, expected: dict) -> list[str]:
    got = final_model.config.to_dict()
    wrong = {k: (got.get(k), v) for k, v in expected.items() if got.get(k) != v}
    return [f"final config differs from the target (got, want): {wrong}"] if wrong else []


def check_svd_factors(w: np.ndarray, e_u: np.ndarray, e_v: np.ndarray) -> list[str]:
    """Rank-r factors must reach the optimal rank-r error and keep the top r
    singular values, both to SVD_RTOL relative, against LAPACK's SVD."""
    r = e_u.shape[1]
    sigma = np.linalg.svd(w, compute_uv=False)
    optimal = float(np.sqrt(np.sum(sigma[r:] ** 2)))
    error = float(np.linalg.norm(w - e_u @ e_v))
    kept = np.linalg.svd(e_u @ e_v, compute_uv=False)[:r]
    problems = []
    if abs(error - optimal) > SVD_RTOL * optimal:
        problems.append(f"rank-{r} Frobenius error {error!r} is not the optimal {optimal!r}")
    if np.max(np.abs(kept - sigma[:r])) > SVD_RTOL * sigma[0]:
        problems.append(f"kept singular values differ from LAPACK's by "
                        f"{np.max(np.abs(kept - sigma[:r])):.3e}")
    return problems


def checkpoint_digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Checkpoint digests by workload, scale and seed, kept across runs in
    one checkout: two runs of one seed must write identical checkpoints."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.known = json.loads(self.path.read_text()) if self.path.exists() else {}

    def check(self, key: str, digest: str) -> list[str]:
        seen = self.known.get(key)
        if seen is None:
            self.known[key] = digest
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        if seen != digest:
            return [f"checkpoint digest {digest[:16]} differs from an earlier run of "
                    f"{key} ({seen[:16]})"]
        return []
