"""Training loop, learning-rate schedules, pruning-event scheduling, and
multi-stage orchestration.

A plan is an ordered list of stages. Each stage resolves its teacher (the
fine-tuned original or the previous stage's student, always reloaded from
the written checkpoint so chaining is bit-exact), initializes its student,
optionally prunes (one-step before training, or iteratively at scheduled
steps during it), and trains with cross-entropy and/or distillation
losses under Adam. Where the process has a spare CPU, a stage's dev
evals run in a forked child process, on the student as it was at that
step, while training goes on; the metrics records are the ones an inline
eval writes.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .data import EncodedDataset, batches_per_epoch, iter_batches
from .distillation import (KDConfig, LayerMap, build_layer_map, hidden_mse,
                           soft_cross_entropy)
from .factorization import factorize_model_embedding
from .metrics import MetricsWriter, eval_metric
from .model import Model, ModelConfig, count_params, cross_entropy
from .optim import Adam
from .pruning import (ArchitectureTarget, ImportanceLedger, RemovalAmounts,
                      apply_surgery, record_batch_scores, select_prune_set)

_blas_limiter = None
_warned_uncapped = False


def _thread_cap() -> int:
    return max(1, int(os.environ.get("ROSITA_MINI_THREADS", "1")))


def limit_worker_threads() -> int:
    """Cap numerical worker threads at ROSITA_MINI_THREADS (default 1).

    The cap applies to the BLAS pools doing the actual work, process-wide,
    so a forked dev-eval child inherits it. The default of one keeps every
    reduction order fixed (bit-reproducible runs) and is faster anyway on
    desk-scale matrices. Without threadpoolctl nothing is capped, and the
    first call in the process says so on stderr.
    """
    global _blas_limiter, _warned_uncapped
    cap = _thread_cap()
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        if not _warned_uncapped:
            _warned_uncapped = True
            print(f"rosita-mini: warning: threadpoolctl is not installed; the BLAS "
                  f"thread cap of {cap} was not applied", file=sys.stderr)
        return cap
    _blas_limiter = threadpool_limits(limits=cap)
    return cap


# ---------------------------------------------------------------------------
# schedules


@dataclass
class LRSchedule:
    kind: str  # "constant" | "linear_decay"
    base_lr: float
    total_steps: int

    def __post_init__(self):
        if self.kind not in ("constant", "linear_decay"):
            raise ValueError(f"unknown lr schedule kind {self.kind!r}")
        if self.base_lr < 0 or self.total_steps < 1:
            raise ValueError("lr schedule needs base_lr >= 0 and total_steps >= 1")


def lr_at(schedule: LRSchedule, t: int) -> float:
    """Learning rate at step t in [0, T]."""
    if not 0 <= t <= schedule.total_steps:
        raise ValueError(f"step {t} outside [0, {schedule.total_steps}]")
    if schedule.kind == "constant":
        return schedule.base_lr
    return schedule.base_lr * (1.0 - t / schedule.total_steps)


@dataclass
class PruneSchedule:
    """Equally spaced pruning events within the first floor(p*T) steps."""

    total_steps: int
    prune_fraction: float
    n_events: int
    amounts: RemovalAmounts

    def __post_init__(self):
        if not 0.0 < self.prune_fraction <= 1.0:
            raise ValueError(f"prune_fraction {self.prune_fraction} outside (0, 1]")
        if self.n_events < 1:
            raise ValueError("need at least one pruning event")
        if int(self.prune_fraction * self.total_steps) < self.n_events:
            raise ValueError(
                f"floor({self.prune_fraction} * {self.total_steps}) steps cannot "
                f"hold {self.n_events} events"
            )


def schedule_events(schedule: PruneSchedule) -> list[tuple[int, RemovalAmounts]]:
    """Event steps floor(p*T)*k/n for k = 1..n, strictly increasing."""
    window = int(schedule.prune_fraction * schedule.total_steps)
    steps = [(window * k) // schedule.n_events for k in range(1, schedule.n_events + 1)]
    if any(b <= a for a, b in zip(steps, steps[1:])) or steps[0] < 1:
        raise ValueError(f"degenerate event steps {steps}")
    return [(s, schedule.amounts) for s in steps]


def schedule_for_target(config: ModelConfig, target: ArchitectureTarget,
                        total_steps: int, prune_fraction: float,
                        n_events: int) -> PruneSchedule:
    """Build the per-event amounts that land exactly on the target."""
    deltas = target.deltas(config)
    amounts = {}
    for dim, key in (("H", "heads_per_layer"), ("d_I", "neurons_per_layer"),
                     ("r", "ranks"), ("L", "layers")):
        delta = deltas[dim]
        if delta % n_events != 0:
            raise ValueError(
                f"cannot reach target: {dim} delta {delta} is not divisible "
                f"by {n_events} events"
            )
        amounts[key] = delta // n_events
    return PruneSchedule(total_steps=total_steps, prune_fraction=prune_fraction,
                         n_events=n_events, amounts=RemovalAmounts(**amounts))


# ---------------------------------------------------------------------------
# stage plans


@dataclass
class PruneSpec:
    mode: str  # "one_step" | "iterative"
    target: ArchitectureTarget
    prune_fraction: float = 0.1
    n_events: int = 10

    def __post_init__(self):
        if self.mode not in ("one_step", "iterative"):
            raise ValueError(f"unknown prune mode {self.mode!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "PruneSpec":
        d = dict(d)
        d["target"] = ArchitectureTarget.from_dict(d["target"])
        return cls(**d)


@dataclass
class StageSpec:
    name: str
    dataset: str
    epochs: int
    teacher: str | None = None        # None | "original" | "previous"
    student_init: str = "fresh"       # "fresh" | "copy_of_teacher"
    batch_size: int = 32
    lr_kind: str = "linear_decay"
    base_lr: float = 1e-3
    kd: KDConfig | None = None
    prune: PruneSpec | None = None
    use_cross: bool | None = None     # default: no KD configured
    model: dict | None = None         # fresh-init config override
    dropout: float = 0.0

    def __post_init__(self):
        if self.teacher not in (None, "original", "previous"):
            raise ValueError(f"unknown teacher source {self.teacher!r}")
        if self.student_init not in ("fresh", "copy_of_teacher"):
            raise ValueError(f"unknown student init {self.student_init!r}")
        if self.student_init == "copy_of_teacher" and self.teacher is None:
            raise ValueError(f"stage {self.name!r} copies a teacher it does not have")
        if self.kd is not None and self.teacher is None:
            raise ValueError(f"stage {self.name!r} distills without a teacher")
        if self.use_cross is None:
            self.use_cross = self.kd is None
        if not self.use_cross and self.kd is None:
            raise ValueError(f"stage {self.name!r} trains with no loss at all")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "StageSpec":
        d = dict(d)
        if d.get("kd") is not None:
            d["kd"] = KDConfig(**d["kd"])
        if d.get("prune") is not None:
            d["prune"] = PruneSpec.from_dict(d["prune"])
        return cls(**d)


PLAN_SCHEMA_VERSION = 1


@dataclass
class StagePlan:
    model: dict                       # base (teacher-shaped) model config
    stages: list[StageSpec]
    version: int = PLAN_SCHEMA_VERSION
    allow_hidden_outside_final: bool = False

    def __post_init__(self):
        if self.version != PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"plan schema version {self.version}, supported {PLAN_SCHEMA_VERSION}"
            )
        if not self.stages:
            raise ValueError("plan has no stages")
        if self.stages[0].teacher is not None:
            raise ValueError("the first stage has no earlier stage to teach it")
        for i, stage in enumerate(self.stages):
            final = i == len(self.stages) - 1
            if stage.kd and stage.kd.use_hidden and not final \
                    and not self.allow_hidden_outside_final:
                raise ValueError(
                    f"stage {stage.name!r}: hidden distillation is reserved for "
                    f"the final stage (set allow_hidden_outside_final to override)"
                )
            if stage.kd and stage.kd.use_hidden and stage.prune \
                    and stage.prune.mode == "iterative" \
                    and stage.prune.target.L is not None:
                raise ValueError(
                    f"stage {stage.name!r}: hidden loss cannot run while depth "
                    f"is being pruned"
                )

    @classmethod
    def from_dict(cls, d: dict) -> "StagePlan":
        d = dict(d)
        d["stages"] = [StageSpec.from_dict(s) for s in d["stages"]]
        return cls(**d)


# ---------------------------------------------------------------------------
# training


def evaluate(model: Model, data: EncodedDataset, kind: str = "accuracy",
             batch_size: int = 64) -> float:
    unlabeled = int((data.labels < 0).sum())
    if unlabeled:
        raise ValueError(f"evaluate: {unlabeled} of {len(data.labels)} rows are unlabeled "
                         "(label -1); evaluate on a labeled split")
    preds, labels = [], []
    with T.no_grad():
        for ids, mask, batch_labels in iter_batches(data, batch_size):
            logits = model.forward(ids, mask).logits.data
            preds.append(np.argmax(logits, axis=1))
            labels.append(batch_labels)
    return eval_metric(np.concatenate(preds), np.concatenate(labels), kind)


def _batch_loss(student: Model, teacher: Model | None, stage: StageSpec,
                layer_map: LayerMap | None, ids, mask, labels,
                dropout_key: int = 0):
    """Total active training loss plus per-component values for metrics."""
    trace_s = student.forward(ids, mask, stage.dropout, dropout_key)
    parts = {"loss_cross": None, "loss_pred": None, "loss_hidden": None}
    total = None
    if stage.use_cross:
        labeled = np.nonzero(labels >= 0)[0]
        if labeled.size == len(labels):
            ce = cross_entropy(trace_s.logits, labels)
        elif labeled.size:
            ce = cross_entropy(T.gather_rows(trace_s.logits, labeled), labels[labeled])
        else:
            ce = None
        if ce is not None:
            parts["loss_cross"] = ce.item()
            total = ce
    if stage.kd is not None:
        with T.no_grad():
            trace_t = teacher.forward(ids, mask)
        if stage.kd.use_pred:
            pred = soft_cross_entropy(trace_t.logits, trace_s.logits,
                                      stage.kd.temperature)
            parts["loss_pred"] = pred.item()
            total = pred if total is None else T.add(total, pred)
        if stage.kd.use_hidden:
            hidden = hidden_mse(trace_t, trace_s, layer_map, mask)
            parts["loss_hidden"] = hidden.item()
            weighted = T.scale(hidden, stage.kd.hidden_weight)
            total = weighted if total is None else T.add(total, weighted)
    if total is None:
        raise RuntimeError(
            f"stage {stage.name!r}: batch produced no loss (unlabeled data "
            f"with cross-entropy only)"
        )
    return total, parts


def collect_one_step_scores(student: Model, teacher: Model | None,
                            stage: StageSpec, data: EncodedDataset,
                            layer_map: LayerMap | None) -> ImportanceLedger:
    """Dataset-averaged Taylor scores with the stage's active loss."""
    ledger = ImportanceLedger(student, "one_step_average")
    for ids, mask, labels in iter_batches(data, stage.batch_size):
        student.zero_grad()
        loss, _ = _batch_loss(student, teacher, stage, layer_map, ids, mask, labels)
        loss.backward(leaves=student.parameters().values())
        record_batch_scores(ledger, student)
    student.zero_grad()
    return ledger


def one_step_prune(student: Model, teacher: Model | None, stage: StageSpec,
                    data: EncodedDataset, layer_map: LayerMap | None) -> None:
    """Prune straight to the target before training starts.

    Heads/neurons (and ranks of an already-factorized embedding) come off
    by dataset-averaged Taylor scores; a dense embedding is factorized by
    singular value directly at the target rank.
    """
    target = stage.prune.target
    deltas = target.deltas(student.config)
    rank_via_svd = target.r is not None and not student.config.factorized
    amounts = RemovalAmounts(
        heads_per_layer=deltas["H"],
        neurons_per_layer=deltas["d_I"],
        ranks=0 if rank_via_svd else deltas["r"],
        layers=deltas["L"],
    )
    ledger = None
    if amounts.heads_per_layer or amounts.neurons_per_layer or amounts.ranks:
        ledger = collect_one_step_scores(student, teacher, stage, data, layer_map)
    if amounts.any():
        units = select_prune_set(ledger, student, amounts)
        apply_surgery(student, units)
    if rank_via_svd:
        factorize_model_embedding(student, target.r)


def _fork_evals() -> bool:
    """Whether dev evals can overlap training in a forked child: fork must
    exist and the process must have CPUs for two BLAS-capped workers."""
    if not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2 * _thread_cap()


def _serve_evals(requests: int, replies: int, data: EncodedDataset, kind: str) -> None:
    """The forked eval child: for each (config, arrays) read from `requests`,
    send the pickled outcome of `evaluate` down `replies`. It ends, without
    running any of the parent's exit code, when `requests` is closed."""
    try:
        gc.freeze()  # inherited objects are the parent's to collect
        with os.fdopen(requests, "rb") as rx, os.fdopen(replies, "wb") as tx:
            while True:
                try:
                    config, arrays = pickle.load(rx)
                except EOFError:
                    break
                model = Model(config, {name: T.Tensor(a) for name, a in arrays.items()})
                try:
                    outcome = (True, evaluate(model, data, kind), "")
                except BaseException as exc:
                    import traceback
                    outcome = (False, exc, traceback.format_exc())
                try:
                    blob = pickle.dumps(outcome)
                except Exception:
                    blob = pickle.dumps((False, RuntimeError(repr(outcome[1])), outcome[2]))
                tx.write(blob)
                tx.flush()
    finally:
        os._exit(0)


class _DevEvals:
    """A stage's dev evals, run in one forked child process while the
    parent goes on training.

    Each eval sends the child a copy of the student's config and arrays as
    they are at that step. The record of an eval step, and every record
    after it, is held until that eval's metric is back and is then written
    in step order: the stream is byte-identical to evaluating inline. At
    most one eval is in flight. Leaving the `with` block waits for it,
    writes what is held and ends the child; an exception raised by the
    eval is raised again in the parent (from Python 3.11 with the child's
    traceback as a note). Where `_fork_evals()` is false, each eval runs
    inline.
    """

    def __init__(self, metrics: MetricsWriter, data: EncodedDataset | None, kind: str):
        self._metrics = metrics
        self._data, self._kind = data, kind
        self._pid = 0  # the child, if there is one
        self._tx = self._rx = None
        self._held: list[dict] = []  # an eval's record and the ones after it

    def write(self, record: dict) -> None:
        if self._held:
            import select
            if select.select([self._rx], [], [], 0)[0]:  # the eval is back
                self._collect()
        if self._held:
            self._held.append(record)
        else:
            self._metrics.write(record)

    def submit(self, record: dict, model: Model) -> None:
        """Evaluate `model` as it is now into `record["eval_metric"]`."""
        self._collect()
        record["eval_metric_kind"] = self._kind
        if not self._pid:
            record["eval_metric"] = evaluate(model, self._data, self._kind)
            self._metrics.write(record)
            return
        arrays = {name: p.data for name, p in model.params.items()}
        pickle.dump((model.config, arrays), self._tx, protocol=pickle.HIGHEST_PROTOCOL)
        self._tx.flush()
        self._held = [record]

    def _collect(self) -> None:
        """Wait for the eval in flight, then write its record and the held ones."""
        if not self._held:
            return
        held, self._held = self._held, []
        try:
            ok, value, child_tb = pickle.load(self._rx)
        except EOFError:
            raise RuntimeError("the dev eval process ended without a result") from None
        if not ok:
            if hasattr(value, "add_note"):  # Python 3.11 and later
                value.add_note(f"raised in the dev eval process:\n{child_tb}")
            raise value
        held[0]["eval_metric"] = value
        for record in held:
            self._metrics.write(record)

    def __enter__(self):
        # forked before the training steps grow the heap, so the child
        # keeps few pages that the parent goes on to rewrite
        if self._data is not None and _fork_evals():
            child_rx, tx = os.pipe()
            rx, child_tx = os.pipe()
            self._pid = os.fork()
            if self._pid == 0:
                os.close(tx)
                os.close(rx)
                _serve_evals(child_rx, child_tx, self._data, self._kind)
            os.close(child_rx)
            os.close(child_tx)
            self._tx, self._rx = os.fdopen(tx, "wb"), os.fdopen(rx, "rb")
        return self

    def __exit__(self, *exc):
        try:
            self._collect()
        finally:
            if self._pid:
                self._tx.close()  # the child's EOF
                self._rx.close()
                os.waitpid(self._pid, 0)
                self._pid = 0
        return False


def run_stage(stage: StageSpec, student: Model, teacher: Model | None,
              datasets: dict[str, EncodedDataset], metrics: MetricsWriter,
              rng: np.random.Generator, eval_kind: str = "accuracy") -> Model:
    """Execute one stage: optional one-step prune, then the training loop
    with optional iterative pruning events; returns the trained student.

    When a "dev" split is loaded, it is evaluated every max(1, T // 25)
    steps and at the last step T, so the stage's last record carries the
    final student's dev metric. Each eval may run in a forked child,
    overlapping the next training steps; the records are the ones an
    inline eval writes (see `_DevEvals`)."""
    if stage.dataset not in datasets:
        raise KeyError(f"stage {stage.name!r}: dataset {stage.dataset!r} not loaded")
    data = datasets[stage.dataset]
    if teacher is not None:
        teacher.freeze()

    def fresh_layer_map():
        if stage.kd is not None and stage.kd.use_hidden:
            return build_layer_map(teacher.config.L, student.config.L)
        return None

    layer_map = fresh_layer_map()

    if stage.prune is not None and stage.prune.mode == "one_step":
        one_step_prune(student, teacher, stage, data, layer_map)
        layer_map = fresh_layer_map()

    total_steps = stage.epochs * batches_per_epoch(len(data), stage.batch_size)
    schedule = LRSchedule(stage.lr_kind, stage.base_lr, total_steps)

    events: list[tuple[int, RemovalAmounts]] = []
    ledger = None
    if stage.prune is not None and stage.prune.mode == "iterative":
        if stage.prune.target.r is not None and not student.config.factorized:
            # iterative rank pruning trains the factors, so factorize at
            # full rank up front and let Taylor scores order the ranks
            factorize_model_embedding(
                student, min(student.config.vocab_size, student.config.d_X))
        prune_schedule = schedule_for_target(
            student.config, stage.prune.target, total_steps,
            stage.prune.prune_fraction, stage.prune.n_events)
        events = schedule_events(prune_schedule)
        ledger = ImportanceLedger(student, "iterative_accumulate")

    optimizer = Adam(student.parameters())
    eval_every = max(1, total_steps // 25)
    dropout_key = int(rng.integers(2 ** 31)) if stage.dropout else 0

    step = 0
    event_idx = 0
    done = False
    with _DevEvals(metrics, datasets.get("dev"), eval_kind) as evals:
        while not done:
            for ids, mask, labels in iter_batches(data, stage.batch_size, rng):
                student.zero_grad()
                loss, parts = _batch_loss(student, teacher, stage, layer_map,
                                          ids, mask, labels, dropout_key + step)
                if not np.isfinite(loss.item()):
                    raise FloatingPointError(
                        f"stage {stage.name!r}: training loss is {loss.item()} at "
                        f"step {step + 1}"
                    )
                loss.backward(leaves=student.parameters().values())
                if ledger is not None:
                    record_batch_scores(ledger, student)
                optimizer.step(student.parameters(), lr_at(schedule, step))
                step += 1

                while event_idx < len(events) and events[event_idx][0] == step:
                    _, amounts = events[event_idx]
                    units = select_prune_set(ledger, student, amounts)
                    report = apply_surgery(student, units)
                    optimizer.apply_surgery(report)
                    ledger.reset_after_prune(student)
                    layer_map = fresh_layer_map()
                    event_idx += 1

                record = {
                    "stage": stage.name, "step": step,
                    "lr": lr_at(schedule, step - 1), **parts,
                    "H": student.config.H, "L": student.config.L,
                    "d_I": student.config.d_I, "r": student.config.r,
                    "param_count": count_params(student.config),
                }
                if "dev" in datasets and (step % eval_every == 0 or step == total_steps):
                    evals.submit(record, student)
                else:
                    evals.write(record)
                if step >= total_steps:
                    done = True
                    break

    if event_idx != len(events):
        raise RuntimeError(
            f"stage {stage.name!r} ended with {len(events) - event_idx} pruning "
            f"events unexecuted"
        )
    return student


def stage_summary(student: Model, metrics: MetricsWriter, **fields) -> dict:
    """Summary row of a finished stage: `fields`, the student's config and
    size, and the dev metric that the stage's last record carries."""
    last = metrics.last
    return {**fields, "config": student.config.to_dict(),
            "param_count": count_params(student.config),
            **{k: last[k] for k in ("eval_metric_kind", "eval_metric") if k in last}}


def run_plan(plan: StagePlan, datasets: dict[str, EncodedDataset], out_dir,
             seed: int = 0, eval_kind: str = "accuracy") -> list[dict]:
    """Run all stages in order, checkpointing each student.

    Teachers are reloaded from the previous stage's written checkpoint, so
    the chain is exactly what landed on disk.
    """
    limit_worker_threads()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_seeds = np.random.SeedSequence(seed).spawn(len(plan.stages))

    original_path: Path | None = None
    previous_path: Path | None = None
    summaries = []
    for k, stage in enumerate(plan.stages):
        rng = np.random.default_rng(stage_seeds[k])

        teacher = None
        if stage.teacher == "original":
            teacher = load_checkpoint(original_path).to_model()
        elif stage.teacher == "previous":
            teacher = load_checkpoint(previous_path).to_model()

        if stage.student_init == "copy_of_teacher":
            source = original_path if stage.teacher == "original" else previous_path
            student = load_checkpoint(source).to_model()
        else:
            cfg = ModelConfig.from_dict(stage.model or plan.model)
            student = Model.init(cfg, rng)

        with MetricsWriter(out_dir / f"stage{k}_{stage.name}.ndjson") as metrics:
            student = run_stage(stage, student, teacher, datasets, metrics, rng,
                                eval_kind)

        ckpt_path = out_dir / f"stage{k}_{stage.name}.rst"
        save_checkpoint(ckpt_path, student, seed=seed, stage=stage.name)
        if k == 0:
            original_path = ckpt_path
        previous_path = ckpt_path

        summaries.append(stage_summary(student, metrics, stage=stage.name,
                                       checkpoint=str(ckpt_path)))
    return summaries
