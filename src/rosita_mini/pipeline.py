"""Training loop, learning-rate schedules, pruning-event scheduling, and
multi-stage orchestration.

A plan is an ordered list of stages. Each stage resolves its teacher (the
fine-tuned original or the previous stage's student, always reloaded from
the written checkpoint so chaining is bit-exact), initializes its student,
optionally prunes (one-step before training, or iteratively at scheduled
steps during it), and trains with cross-entropy and/or distillation
losses under Adam.

BLAS runs on one thread. Importing this module sets the thread count of
the OpenBLAS that numpy loaded to 1, process-wide: it overrides
OPENBLAS_NUM_THREADS, every forked child inherits it, it keeps every
reduction order fixed (bit-reproducible runs), and it is faster anyway on
desk-scale matrices. Where no known OpenBLAS is loaded, or the count does
not read back as 1, stderr says so.

Where the process has a CPU to spare (`_cpu_spare`: fork exists, and the
process has CPUs for two workers of the BLAS thread count that OpenBLAS
reports), a forked `_Worker` computes on the second core until the end of
its block kills and reaps it. One runs a stage's dev evals while training
goes on; one computes every other batch of `evaluate` and of the one-step
Taylor scoring (`_map_batches`). The records, metrics and scores are the
ones one core computes, and a worker never forks again, so the dev-eval
child evaluates on one core.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import os
import pickle
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .data import EncodedDataset, batches_per_epoch, iter_batches
from .distillation import (KDConfig, LayerMap, build_layer_map, hidden_mse,
                           soft_cross_entropy)
from .factorization import factorize_model_embedding
from .metrics import MetricsWriter, check_metric_kind, eval_metric
from .model import (ForwardTrace, Model, ModelConfig, check_ints, check_keys, count_params,
                    cross_entropy)
from .optim import Adam
from .pruning import (UNIT_DIMS, ArchitectureTarget, apply_surgery, record_batch_scores,
                      record_scores, select_prune_set, weight_taylor_scores)

# thread-count entry points of the OpenBLAS builds numpy ships with
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads")


@functools.cache
def _openblas():
    """The (set, get) thread-count functions of the OpenBLAS that numpy
    loaded, found among the files mapped into this process; None when no
    known OpenBLAS is mapped (an MKL or Accelerate numpy, or no /proc)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in paths:
        lib = ctypes.CDLL(path)
        for pattern in _OPENBLAS_SYMBOLS:
            set_fn = getattr(lib, pattern.format("set"), None)
            get_fn = getattr(lib, pattern.format("get"), None)
            if set_fn is not None and get_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                return set_fn, get_fn
    return None


def _cap_blas_threads() -> None:
    """Set OpenBLAS to one thread and say on stderr when that did not take."""
    blas = _openblas()
    if blas is None:
        print("rosita-mini: warning: no OpenBLAS found in this process; BLAS threads "
              "are not capped at 1, and nothing runs on a second core", file=sys.stderr)
        return
    set_threads, get_threads = blas
    set_threads(1)
    if get_threads() != 1:
        print(f"rosita-mini: warning: OpenBLAS reports {get_threads()} threads after "
              f"the cap of 1", file=sys.stderr)


_cap_blas_threads()


# ---------------------------------------------------------------------------
# schedules


LR_KINDS = ("constant", "linear_decay")


def lr_at(kind: str, base_lr: float, total_steps: int, t: int) -> float:
    """Learning rate at step t in [0, total_steps]."""
    if not 0 <= t <= total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    if kind == "constant":
        return base_lr
    return base_lr * (1.0 - t / total_steps)


def prune_events(config: ModelConfig, prune: PruneSpec,
                 total_steps: int) -> tuple[list[int], dict[str, int]]:
    """The event steps floor(p*T)*k/n for k = 1..n, and the removal counts,
    keyed by config field, that every event takes so that the n events land
    exactly on the target.

    A window of at least n steps makes the steps rise strictly from 1 up.
    """
    n = prune.n_events
    deltas = prune.target.deltas(config)
    for dim, delta in deltas.items():
        if delta % n != 0:
            raise ValueError(
                f"cannot reach target: {dim} delta {delta} is not divisible by {n} events"
            )
    window = int(prune.prune_fraction * total_steps)
    if window < n:
        raise ValueError(
            f"floor({prune.prune_fraction} * {total_steps}) steps cannot hold {n} events"
        )
    return ([(window * k) // n for k in range(1, n + 1)],
            {dim: delta // n for dim, delta in deltas.items()})


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
        if not 0.0 < self.prune_fraction <= 1.0:
            raise ValueError(f"prune_fraction {self.prune_fraction} outside (0, 1]")
        check_ints({"n_events": self.n_events}, "prune")
        if self.n_events < 1:
            raise ValueError(f"n_events {self.n_events} < 1: need a pruning event")

    @classmethod
    def from_dict(cls, d: dict) -> "PruneSpec":
        d = check_keys(d, "prune", cls)
        d["target"] = ArchitectureTarget.from_dict(d["target"])
        return cls(**d)


@dataclass
class StageSpec:
    """One stage. A stage with a teacher starts from a copy of it; one
    without starts fresh from `model` (default: the plan's model). A stage
    trains with cross-entropy exactly when it has no `kd`."""

    name: str
    dataset: str
    epochs: int
    teacher: str | None = None        # None | "original" | "previous"
    batch_size: int = 32
    lr_kind: str = "linear_decay"     # one of LR_KINDS
    base_lr: float = 1e-3
    kd: KDConfig | None = None
    prune: PruneSpec | None = None
    model: dict | None = None         # fresh-init config override
    dropout: float = 0.0

    def __post_init__(self):
        if self.teacher not in (None, "original", "previous"):
            raise ValueError(f"unknown teacher source {self.teacher!r}")
        if self.kd is not None and self.teacher is None:
            raise ValueError(f"stage {self.name!r} distills without a teacher")
        if self.model is not None and self.teacher is not None:
            raise ValueError(f"stage {self.name!r} starts from a copy of its teacher, "
                             f"so it cannot take a model config")
        if self.lr_kind not in LR_KINDS:
            raise ValueError(f"stage {self.name!r}: unknown lr_kind {self.lr_kind!r}; "
                             f"choices: {list(LR_KINDS)}")
        if self.base_lr < 0:
            raise ValueError(f"stage {self.name!r}: base_lr {self.base_lr} < 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"stage {self.name!r}: dropout {self.dropout} outside [0, 1)")
        check_ints({"epochs": self.epochs, "batch_size": self.batch_size},
                   f"stage {self.name!r}:")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError(f"stage {self.name!r}: epochs and batch_size must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "StageSpec":
        where = f"stage {d.get('name') if isinstance(d, dict) else d!r}"
        d = check_keys(d, where, cls)
        try:
            if d.get("kd") is not None:
                d["kd"] = KDConfig(**check_keys(d["kd"], "kd", KDConfig))
            if d.get("prune") is not None:
                d["prune"] = PruneSpec.from_dict(d["prune"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
        return cls(**d)


PLAN_SCHEMA_VERSION = 1


@dataclass
class StagePlan:
    model: dict                       # base (teacher-shaped) model config
    stages: list[StageSpec]
    version: int = PLAN_SCHEMA_VERSION

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
            if stage.kd and stage.kd.use_hidden and not final:
                raise ValueError(
                    f"stage {stage.name!r}: hidden distillation is reserved for "
                    f"the final stage"
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
        d = check_keys(d, "plan", cls)
        if not isinstance(d["stages"], list):
            raise ValueError(f"plan: stages {d['stages']!r} is not a list")
        d["stages"] = [StageSpec.from_dict(s) for s in d["stages"]]
        return cls(**d)


# ---------------------------------------------------------------------------
# training


def _float32(model: Model) -> Model:
    """A float32 copy of `model`, whose forwards build no graph; float32 arrays are shared."""
    return Model(model.config, {name: T.Tensor(p.data.astype(np.float32, copy=False))
                                for name, p in model.params.items()})


def _check_split(data: EncodedDataset, where: str, config: ModelConfig,
                 labeled: bool = True) -> EncodedDataset:
    """`data` once it has rows, no token id or row `config` cannot take and,
    where `labeled`, no unlabeled row (label -1) and no label `config`
    cannot predict. A failure names `where`."""
    if not len(data):
        raise ValueError(f"{where}: the split has no rows")
    if labeled and (unlabeled := int((data.labels < 0).sum())):
        raise ValueError(f"{where}: {unlabeled} of {len(data)} rows are unlabeled "
                         f"(label -1), and this split needs labels")
    token, length = int(data.ids.max()), int(data.mask.sum(axis=1).max())
    if token >= config.vocab_size:
        raise ValueError(f"{where}: token id {token} >= vocab_size {config.vocab_size}")
    if length > config.max_len:
        raise ValueError(f"{where}: a row of {length} tokens > max_len {config.max_len}")
    if labeled and (label := int(data.labels.max())) >= config.n_classes:
        raise ValueError(f"{where}: label {label} >= n_classes {config.n_classes}")
    return data


def evaluate(model: Model, data: EncodedDataset, kind: str = "accuracy",
             batch_size: int = 64) -> float:
    """The `kind` metric on `data` of a float32 copy of `model`, which builds no graph."""
    check_metric_kind(kind)
    _check_split(data, "evaluate", model.config)
    model = _float32(model)

    def predict(batch):
        return np.argmax(model.forward(batch[0], batch[1]).logits.data, axis=1)

    preds = list(_map_batches(predict, list(iter_batches(data, batch_size))))
    return eval_metric(np.concatenate(preds), data.labels, kind)


def _batch_loss(student: Model, teacher: Model | None, stage: StageSpec,
                layer_map: LayerMap | None, ids, mask, labels,
                dropout_key: int = 0):
    """Total active training loss plus per-component values for metrics.
    A `teacher` that is the student itself is not run again: its trace is
    the student's."""
    trace_s = student.forward(ids, mask, stage.dropout, dropout_key)
    parts = {"loss_cross": None, "loss_pred": None, "loss_hidden": None}
    total = None
    if stage.kd is None:
        total = cross_entropy(trace_s.logits, labels)
        parts["loss_cross"] = total.item()
    else:
        trace_t = trace_s
        if teacher is not student:
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
    return total, parts


def collect_one_step_scores(student: Model, teacher: Model | None,
                            stage: StageSpec, data: EncodedDataset,
                            layer_map: LayerMap | None) -> dict[str, np.ndarray]:
    """Dataset-averaged Taylor scores with the stage's active loss: summed
    in batch order wherever the batches were scored (`_map_batches`), then
    divided once by the batch count."""
    _check_split(data, f"stage {stage.name!r}: dataset {stage.dataset!r}", student.config,
                 stage.kd is None)

    def batch_scores(batch):
        ids, mask, labels = batch
        student.zero_grad()
        loss, _ = _batch_loss(student, teacher, stage, layer_map, ids, mask, labels)
        loss.backward(leaves=student.parameters().values())
        return weight_taylor_scores(student)

    batches = list(iter_batches(data, stage.batch_size))
    sums = {}
    for scores in _map_batches(batch_scores, batches):
        record_scores(sums, scores)
        del scores  # not held through the next batch's backward
    student.zero_grad()
    for s in sums.values():
        s /= len(batches)  # in place, so the sums and the averages are not both held
    return sums


def one_step_prune(student: Model, teacher: Model | None, stage: StageSpec,
                    data: EncodedDataset, layer_map: LayerMap | None) -> None:
    """Prune straight to the target before training starts.

    Heads/neurons (and ranks of an already-factorized embedding) come off
    by dataset-averaged Taylor scores; a dense embedding is factorized by
    singular value directly at the target rank.
    """
    target = stage.prune.target
    rank_via_svd = target.r is not None and not student.config.factorized
    amounts = target.deltas(student.config)
    if rank_via_svd:
        amounts["r"] = 0
    ledger = None
    if any(amounts[dim] for dim in UNIT_DIMS.values()):
        ledger = collect_one_step_scores(student, teacher, stage, data, layer_map)
    if any(amounts.values()):
        apply_surgery(student, select_prune_set(ledger, student, amounts))
    if rank_via_svd:
        factorize_model_embedding(student, target.r)


_in_worker = False  # true in a forked child, which never forks again


def _cpu_spare() -> bool:
    """Whether a forked child can work beside this process, as the dev-eval
    child (`_DevEvals`) or the batch helper (`_map_batches`): fork must
    exist, and the process must have CPUs for two workers of the BLAS
    thread count that OpenBLAS reports. Where that count is unknown (no
    known OpenBLAS), nothing forks."""
    blas = _openblas()
    if not hasattr(os, "fork") or blas is None:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return cpus >= 2 * blas[1]()


class _Worker:
    """A forked child that computes fn(item) for each item `send` gives it,
    while this process goes on. `receive` returns the outcomes in order:
    fn's value, or its exception raised again here (from Python 3.11 with
    the child's traceback as a note). The child works on its own copy of
    what fn uses, never forks again, and stops after the first item that
    raises. Leaving the `with` block kills and reaps it.
    """

    def __init__(self, fn, name: str):
        self._name = name
        requests, tx = os.pipe()
        rx, replies = os.pipe()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(tx)
            os.close(rx)
            self._serve(fn, requests, replies)
        os.close(requests)
        os.close(replies)
        self._tx, self._rx = os.fdopen(tx, "wb"), os.fdopen(rx, "rb")

    @staticmethod
    def _serve(fn, requests: int, replies: int) -> None:
        """The child's loop; it ends the process without the parent's exit code."""
        global _in_worker
        _in_worker = True
        gc.freeze()  # inherited objects are the parent's to collect
        try:
            with os.fdopen(requests, "rb") as rx, os.fdopen(replies, "wb") as tx:
                while rx.peek(1):  # b"" once the parent's end is closed
                    try:
                        outcome = (True, fn(pickle.load(rx)), "")
                    except BaseException as exc:  # raised again in the parent
                        import traceback
                        outcome = (False, exc, traceback.format_exc())
                    try:
                        blob = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
                    except Exception:
                        blob = pickle.dumps((False, RuntimeError(repr(outcome[1])),
                                             outcome[2]))
                    tx.write(blob)
                    tx.flush()
                    if not outcome[0]:
                        break
        finally:
            os._exit(0)

    def send(self, item) -> None:
        with contextlib.suppress(BrokenPipeError):  # the child has ended; `receive` says so
            pickle.dump(item, self._tx, protocol=pickle.HIGHEST_PROTOCOL)
            self._tx.flush()

    def receive(self):
        try:
            ok, value, child_tb = pickle.load(self._rx)
        except EOFError:
            raise RuntimeError(f"the {self._name} process ended without a result") from None
        if not ok:
            if hasattr(value, "add_note"):  # Python 3.11 and later
                value.add_note(f"raised in the {self._name} process:\n{child_tb}")
            raise value
        return value

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        import signal
        os.kill(self._pid, signal.SIGKILL)  # a no-op on a child that has ended
        os.waitpid(self._pid, 0)
        self._rx.close()
        with contextlib.suppress(BrokenPipeError):  # what a failed `send` left buffered
            self._tx.close()


def _map_batches(fn, batches: list):
    """Yield fn(batch) for each of `batches`, in batch order.

    Where a CPU is spare and there are at least two batches, a `_Worker`
    computes every other batch while this process computes the rest. It is
    asked for at most two batches ahead, so neither side can fill a pipe
    that the other is not reading.
    """
    if len(batches) < 2 or _in_worker or not _cpu_spare():
        yield from map(fn, batches)
        return
    with _Worker(lambda i: fn(batches[i]), "batch helper") as helper:
        helper.send(1)
        for i, batch in enumerate(batches):
            if i % 2:
                yield helper.receive()
                continue
            if i + 3 < len(batches):
                helper.send(i + 3)  # the helper's batch after next
            yield fn(batch)


class _DevEvals:
    """A stage's dev evals, run in one forked `_Worker` while the parent
    goes on training.

    Each eval sends the child the student's float32 copy (`_float32`) as
    it is at that step. The record of an eval step, and every record after
    it, is held until the next eval or the end of the `with` block, which
    wait for the metric, and is then written in step order: the stream is
    byte-identical to evaluating inline, which is how each eval runs where
    `_cpu_spare()` is false. At most one eval is in flight. Without `data`
    nothing forks, and only `write` may be called.
    """

    def __init__(self, metrics: MetricsWriter, data: EncodedDataset | None, kind: str):
        self._metrics = metrics
        self._data, self._kind = data, kind
        self._worker = None
        self._held: list[dict] = []  # an eval's record and the ones after it

    def write(self, record: dict) -> None:
        if self._held:
            self._held.append(record)
        else:
            self._metrics.write(record)

    def submit(self, record: dict, model: Model) -> None:
        """Evaluate `model` as it is now into `record["eval_metric"]`."""
        self._collect()
        record["eval_metric_kind"] = self._kind
        if self._worker is None:
            record["eval_metric"] = evaluate(model, self._data, self._kind)
            self._metrics.write(record)
            return
        self._worker.send(_float32(model))
        self._held = [record]

    def _collect(self) -> None:
        """Wait for the eval in flight, then write its record and the held ones."""
        if not self._held:
            return
        held, self._held = self._held, []
        held[0]["eval_metric"] = self._worker.receive()
        for record in held:
            self._metrics.write(record)

    def __enter__(self):
        # forked before the training steps grow the heap, so the child
        # keeps few pages that the parent goes on to rewrite
        if self._data is not None and _cpu_spare():
            self._worker = _Worker(lambda model: evaluate(model, self._data, self._kind),
                                   "dev eval")
        return self

    def __exit__(self, *exc):
        try:
            self._collect()
        finally:
            if self._worker is not None:
                self._worker.__exit__()


def _stage_data(stage: StageSpec, datasets: dict[str, EncodedDataset],
                config: ModelConfig) -> EncodedDataset:
    """The stage's dataset once `_check_split` passes it; without `kd` it trains on labels."""
    if stage.dataset not in datasets:
        raise ValueError(f"dataset {stage.dataset!r} not loaded; loaded: {sorted(datasets)}")
    return _check_split(datasets[stage.dataset], f"dataset {stage.dataset!r}", config,
                        stage.kd is None)


def _is_fixed_point(stage: StageSpec, student: Model, teacher: Model | None) -> bool:
    """Whether distillation cannot move `student`: it is an unpruned copy of
    its teacher, config and array bytes, trained without dropout. Its
    forwards are then the teacher's bit for bit, so every KD loss term has
    a zero gradient at any temperature (equal L maps each layer to itself),
    and Adam's zero moments leave every parameter as it is."""
    if (stage.kd is None or teacher is None or stage.prune is not None or stage.dropout
            or student.config != teacher.config):
        return False
    return all(p.data.tobytes() == teacher.params[name].data.tobytes()
               for name, p in student.params.items())


_memo: tuple[bytes | None, dict[bytes, np.ndarray]] = (None, {})  # teacher digest, rows


class _TeacherRows:
    """A frozen teacher for a loss that reads only its logits, looked up per
    row in one memo that outlives the stage.

    The memo holds a copy of the teacher's last-layer first-token state of
    each row it has run, keyed by the row's ids and mask bytes at the
    batch's trimmed length. A row's hidden states do not depend on the
    other rows of its batch at that length (each 3-D product is one GEMM
    per sequence, and layer norm and softmax reduce along the last axis);
    only the classifier's 2-D product does. So a batch whose rows all hit
    takes that product on the stacked rows, and any other batch runs the
    teacher and stores its rows. The memo belongs to one teacher, named by
    a digest of its config and parameter bytes: a later KD stage with the
    same teacher reuses it, and one with another teacher empties it. The
    module holds it, so stages that a caller runs one by one share it.
    """

    def __init__(self, teacher: Model):
        global _memo
        import hashlib  # here, not at import: only a KD stage pays for it
        digest = hashlib.blake2b(repr(teacher.config).encode())
        for name, p in teacher.params.items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(p.data))
        if _memo[0] != digest.digest():
            _memo = (digest.digest(), {})
        self.teacher, self.rows = teacher, _memo[1]

    def forward(self, ids, mask, dropout_rate: float = 0.0, dropout_key: int = 0):
        """The teacher's trace; on a batch the memo holds, logits only.
        A teacher runs without dropout, so the rate is 0 and the key unused."""
        keys = [i.tobytes() + m.tobytes() for i, m in zip(ids, mask)]
        if all(k in self.rows for k in keys):
            params = self.teacher.params
            return ForwardTrace(T.linear(np.stack([self.rows[k] for k in keys]),
                                         params["cls.W"], params["cls.b"]), hidden=[])
        trace = self.teacher.forward(ids, mask)
        for k, row in zip(keys, trace.hidden[-1].data[:, 0, :]):
            self.rows[k] = row.copy()
        return trace


def run_stage(stage: StageSpec, student: Model, teacher: Model | None,
              datasets: dict[str, EncodedDataset], metrics: MetricsWriter,
              rng: np.random.Generator, eval_kind: str = "accuracy") -> Model:
    """Execute one stage: optional one-step prune, then the training loop
    with optional iterative pruning events; returns the trained student.

    When a "dev" split is loaded, it is evaluated every max(1, T // 25)
    steps and at the last step T, so the stage's last record carries the
    final student's dev metric. Each eval may run in a forked child,
    overlapping the next training steps; the records are the ones an
    inline eval writes (see `_DevEvals`).

    The teacher is frozen before its first forward, so no teacher forward
    records a graph. A KD stage whose student starts as its teacher's
    unpruned copy, without dropout, cannot move (`_is_fixed_point`). Each of
    its steps takes only the teacher's logits for the step's losses; it
    skips the student's forward, the backward and the Adam step. Its student
    is evaluated once, before the first step and with no dev-eval child, for
    every eval record. Its records and student are those training writes.

    A KD stage whose loss reads only logits takes its teacher's rows from
    the memo of `_TeacherRows`, so the teacher runs once per row and
    trimmed length while KD stages with its bytes follow one another."""
    data = _stage_data(stage, datasets, student.config)
    if teacher is not None:
        teacher.freeze()
    fixed = _is_fixed_point(stage, student, teacher)
    if stage.kd is not None:
        memo = _TeacherRows(teacher)  # any other teacher's rows go, whatever the loss
        if not stage.kd.use_hidden:
            teacher = memo

    def fresh_layer_map():
        if stage.kd is not None and stage.kd.use_hidden:
            return build_layer_map(teacher.config.L, student.config.L)
        return None

    layer_map = fresh_layer_map()

    if stage.prune is not None and stage.prune.mode == "one_step":
        one_step_prune(student, teacher, stage, data, layer_map)
        layer_map = fresh_layer_map()

    total_steps = stage.epochs * batches_per_epoch(len(data), stage.batch_size)
    event_steps, amounts = [], None
    ledger = None  # Taylor score sums since the last event, while one ranks units
    if stage.prune is not None and stage.prune.mode == "iterative":
        if stage.prune.target.r is not None and not student.config.factorized:
            # iterative rank pruning trains the factors, so factorize at
            # full rank up front and let Taylor scores order the ranks
            factorize_model_embedding(student, student.config.full_rank)
        event_steps, amounts = prune_events(student.config, stage.prune, total_steps)
        if any(amounts[dim] for dim in UNIT_DIMS.values()):  # else no event ranks units
            ledger = {}

    optimizer = None if fixed else Adam(student.parameters())
    eval_every = max(1, total_steps // 25)
    dropout_key = int(rng.integers(2 ** 31)) if stage.dropout else 0
    dev = datasets.get("dev")
    fixed_metric = evaluate(student, dev, eval_kind) if fixed and dev is not None else None

    step = 0
    with _DevEvals(metrics, None if fixed else dev, eval_kind) as evals:
        for _ in range(stage.epochs):
            for ids, mask, labels in iter_batches(data, stage.batch_size, rng):
                student.zero_grad()
                loss, parts = _batch_loss(teacher if fixed else student, teacher, stage,
                                          layer_map, ids, mask, labels, dropout_key + step)
                if not np.isfinite(loss.item()):
                    raise FloatingPointError(
                        f"stage {stage.name!r}: training loss is {loss.item()} at "
                        f"step {step + 1}"
                    )
                lr = lr_at(stage.lr_kind, stage.base_lr, total_steps, step)
                if not fixed:
                    loss.backward(leaves=student.parameters().values())
                    if ledger is not None:
                        record_batch_scores(ledger, student)
                    optimizer.step(student.parameters(), lr)
                step += 1

                if step in event_steps:
                    units = select_prune_set(ledger, student, amounts)
                    report = apply_surgery(student, units)
                    optimizer.apply_surgery(report)
                    ledger = None if ledger is None or step == event_steps[-1] else {}
                    layer_map = fresh_layer_map()

                record = {
                    "stage": stage.name, "step": step,
                    "lr": lr, **parts,
                    "H": student.config.H, "L": student.config.L,
                    "d_I": student.config.d_I, "r": student.config.r,
                    "param_count": count_params(student.config),
                }
                if dev is None or (step % eval_every and step != total_steps):
                    evals.write(record)
                elif fixed:
                    evals.write({**record, "eval_metric_kind": eval_kind,
                                 "eval_metric": fixed_metric})
                else:
                    evals.submit(record, student)
    return student


def stage_rng(seed: int, k: int) -> np.random.Generator:
    """Stage k's rng under `seed`: SeedSequence(seed).spawn(n)[k], the same for any n > k."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(k + 1)[k])


def plan_configs(plan: StagePlan, datasets: dict[str, EncodedDataset]) -> list[ModelConfig]:
    """Each stage's end config, walked by training's rules without training: a
    stage starts as its teacher's end config or fresh from its `model`, and
    its dataset and `dev` must pass `_check_split` against that config (its
    dataset labeled without `kd`). It fits a one-step target by
    `target.deltas` and an iterative one by `prune_events` over its T =
    epochs x `batches_per_epoch` steps, and ends at the target's set
    dimensions, where a hidden loss must map its teacher's layers onto them
    (`build_layer_map`). A broken rule raises a ValueError naming the stage."""
    ends = []
    for k, stage in enumerate(plan.stages):
        try:
            teacher = stage.teacher and ends[0 if stage.teacher == "original" else -1]
            config = teacher or ModelConfig.from_dict(stage.model or plan.model)
            data = _stage_data(stage, datasets, config)
            if "dev" in datasets:
                _check_split(datasets["dev"], "split 'dev'", config)
            if stage.prune is not None:
                if stage.prune.mode == "one_step":
                    stage.prune.target.deltas(config)
                else:
                    prune_events(config, stage.prune,
                                 stage.epochs * batches_per_epoch(len(data), stage.batch_size))
                target = asdict(stage.prune.target)
                config = replace(config, **{dim: v for dim, v in target.items() if v is not None})
            if stage.kd is not None and stage.kd.use_hidden:
                build_layer_map(teacher.L, config.L)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"stage {k} {stage.name!r}: {exc}") from exc
        ends.append(config)
    return ends


def run_plan(plan: StagePlan, datasets: dict[str, EncodedDataset], out_dir,
             seed: int = 0, eval_kind: str = "accuracy") -> list[dict]:
    """Run all stages in order, checkpointing each student (one arm)."""
    return run_arms({out_dir: plan}, datasets, seed, eval_kind)[out_dir]


def run_arms(arms: dict[Path, StagePlan], datasets: dict[str, EncodedDataset],
             seed: int = 0, eval_kind: str = "accuracy") -> dict[Path, list[dict]]:
    """Run each arm's plan into its directory; return its stage summaries.

    The metric kind and every arm's configs and labels (`plan_configs`, its
    failure naming the arm) are checked before any stage trains.
    Stage k draws `stage_rng(seed, k)`; its teacher is reloaded from the
    arm's written checkpoints, and one without starts fresh from its `model`
    (default: the plan's). A stage whose prefix (plan model and stages
    0..k) an earlier arm trained is linked in, not trained again, so each
    directory holds what a lone `run_plan` of its arm writes. A stage's
    summary holds its name, checkpoint, the student's config and size, and
    the dev metric that the stage's last record carries.
    """
    check_metric_kind(eval_kind)
    for out_dir, plan in arms.items():
        try:
            plan_configs(plan, datasets)
        except ValueError as exc:
            raise ValueError(f"{out_dir}: {exc}") from exc
    trained = {}  # a prefix's repr -> (the directory that holds it, its summary)
    results = {}
    for out_dir, plan in arms.items():
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        results[out_dir] = summaries = []
        for k, stage in enumerate(plan.stages):
            name = f"stage{k}_{stage.name}"
            ckpt_path = Path(out_dir, f"{name}.rst")
            prefix = repr((plan.model, plan.stages[:k + 1]))
            if prefix in trained:
                source, summary = trained[prefix]
                for suffix in (".ndjson", ".rst"):
                    tmp = Path(out_dir, f"{name}{suffix}.tmp")
                    tmp.unlink(missing_ok=True)
                    os.link(Path(source, f"{name}{suffix}"), tmp)
                    os.replace(tmp, Path(out_dir, f"{name}{suffix}"))
                summaries.append({**summary, "checkpoint": str(ckpt_path)})
                continue
            rng = stage_rng(seed, k)
            if stage.teacher is None:
                teacher = None
                student = Model.init(ModelConfig.from_dict(stage.model or plan.model), rng)
            else:
                ck = load_checkpoint(
                    summaries[0 if stage.teacher == "original" else -1]["checkpoint"])
                teacher, student = ck.to_model(), ck.to_model()

            with MetricsWriter(Path(out_dir, f"{name}.ndjson")) as metrics:
                student = run_stage(stage, student, teacher, datasets, metrics, rng,
                                    eval_kind)
            save_checkpoint(ckpt_path, student, seed=seed, stage=stage.name)
            last = metrics.last
            summaries.append({"stage": stage.name, "checkpoint": str(ckpt_path),
                              "config": student.config.to_dict(),
                              "param_count": count_params(student.config),
                              **{k: last[k] for k in ("eval_metric_kind", "eval_metric")
                                 if k in last}})
            trained[prefix] = (out_dir, summaries[-1])
    return results
