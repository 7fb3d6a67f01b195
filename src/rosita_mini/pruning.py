"""Taylor-importance scoring, aggregation to structural units, selection,
and exact surgery on the parameter store.

Per-weight importance is |dL/dW * W|, accumulated into a ledger either as
a dataset average (one-step pruning) or as a running sum between pruning
events (iterative pruning). Scores aggregate to FFN neurons, attention
heads, and embedding ranks; layers are dropped keep-first instead of
scored.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Model, ModelConfig, param_shapes
from .tensor import Tensor

VALID_KINDS = ("ffn_neuron", "attention_head", "embedding_rank", "layer")


@dataclass(frozen=True)
class UnitId:
    kind: str
    unit_index: int
    layer_index: int | None = None  # absent for embedding_rank and layer

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown unit kind {self.kind!r}")


@dataclass
class RemovalAmounts:
    """Per-event removal counts; head/neuron counts apply to every layer."""

    heads_per_layer: int = 0
    neurons_per_layer: int = 0
    ranks: int = 0
    layers: int = 0

    def any(self) -> bool:
        return bool(self.heads_per_layer or self.neurons_per_layer
                    or self.ranks or self.layers)


@dataclass(frozen=True)
class ArchitectureTarget:
    """Structural dimensions to reach; None keeps the current value."""

    H: int | None = None
    L: int | None = None
    d_I: int | None = None
    r: int | None = None

    def deltas(self, config: ModelConfig) -> dict[str, int]:
        """Removal counts from a config down to this target.

        The rank delta is measured from the current rank when factorized,
        else from the full rank min(|V|, d_X) the factorization would have.
        """
        current_r = config.r if config.factorized else min(config.vocab_size, config.d_X)
        pairs = {"H": (config.H, self.H), "L": (config.L, self.L),
                 "d_I": (config.d_I, self.d_I), "r": (current_r, self.r)}
        out = {}
        for dim, (cur, tgt) in pairs.items():
            if tgt is None:
                out[dim] = 0
                continue
            if not 1 <= tgt <= cur:
                raise ValueError(
                    f"target {dim} = {tgt} must lie in [1, current {cur}]"
                )
            out[dim] = cur - tgt
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ArchitectureTarget":
        extra = set(d) - {"H", "L", "d_I", "r"}
        if extra:
            raise ValueError(f"unknown target dimensions {sorted(extra)}")
        return cls(**d)


def _prunable_names(config: ModelConfig) -> list[str]:
    names = []
    if config.factorized:
        names += ["emb.E_U", "emb.E_V"]
    for i in range(config.L):
        p = f"layer{i}."
        names += [p + n for n in ("W_Q", "W_K", "W_V", "W_AO", "W_FI", "b_FI", "W_FO")]
    return names


def weight_taylor_scores(model: Model) -> dict[str, np.ndarray]:
    """Per-weight |grad * weight| for every prunable matrix, current batch."""
    scores = {}
    for name in _prunable_names(model.config):
        p = model.params[name]
        if p.grad is None:
            raise RuntimeError(
                f"weight_taylor_scores: no gradient on {name}; run backward first"
            )
        scores[name] = np.abs(p.grad * p.data)
    return scores


class ImportanceLedger:
    """Accumulated per-weight Taylor scores plus a batch counter.

    one_step_average reports the score mean over recorded batches;
    iterative_accumulate reports the raw sum since the last pruning event
    and is reset after each event.
    """

    MODES = ("one_step_average", "iterative_accumulate")

    def __init__(self, model: Model, mode: str):
        if mode not in self.MODES:
            raise ValueError(f"ledger mode must be one of {self.MODES}, got {mode!r}")
        self.mode = mode
        self.scores: dict[str, np.ndarray] = {}
        self.batches_seen = 0
        self._init_scores(model)

    def _init_scores(self, model: Model) -> None:
        self.scores = {
            name: np.zeros(param_shapes(model.config)[name])
            for name in _prunable_names(model.config)
        }

    def record(self, batch_scores: dict[str, np.ndarray]) -> None:
        if set(batch_scores) != set(self.scores):
            raise RuntimeError(
                "ledger/model mismatch: prunable parameter sets differ "
                "(reset the ledger after surgery)"
            )
        for name, s in batch_scores.items():
            if s.shape != self.scores[name].shape:
                raise RuntimeError(
                    f"ledger/model mismatch on {name}: {s.shape} vs "
                    f"{self.scores[name].shape} (reset the ledger after surgery)"
                )
            self.scores[name] += s
        self.batches_seen += 1

    def reported(self, name: str) -> np.ndarray:
        if self.batches_seen == 0:
            raise RuntimeError("ledger has no recorded batches")
        if self.mode == "one_step_average":
            return self.scores[name] / self.batches_seen
        return self.scores[name]

    def reset_after_prune(self, model: Model) -> None:
        self._init_scores(model)
        self.batches_seen = 0


def record_batch_scores(ledger: ImportanceLedger, model: Model) -> None:
    """Fold the current batch's Taylor scores into the ledger.

    Call after backward on the step's total training loss.
    """
    ledger.record(weight_taylor_scores(model))


def neuron_importance(ledger: ImportanceLedger, layer: int) -> np.ndarray:
    """Per-neuron score: connected W_FI column + W_FO row + b_FI entry."""
    p = f"layer{layer}."
    return (ledger.reported(p + "W_FI").sum(axis=0)
            + ledger.reported(p + "W_FO").sum(axis=1)
            + ledger.reported(p + "b_FI"))


def head_importance(ledger: ImportanceLedger, layer: int, head_dim: int) -> np.ndarray:
    """Per-head score: summed scores of the head's W_AO row block only."""
    ao = ledger.reported(f"layer{layer}.W_AO")
    n_heads = ao.shape[0] // head_dim
    return ao.reshape(n_heads, head_dim * ao.shape[1]).sum(axis=1)


def rank_importance(model: Model, ledger: ImportanceLedger) -> np.ndarray:
    """Per-rank score: summed Taylor scores of E_U column i and E_V row i."""
    if not model.config.factorized:
        raise RuntimeError("rank_importance: embedding is not factorized")
    return (ledger.reported("emb.E_U").sum(axis=0)
            + ledger.reported("emb.E_V").sum(axis=1))


def _lowest(scores: np.ndarray, count: int) -> list[int]:
    # stable sort: ties resolve to the lower unit index
    return sorted(np.argsort(scores, kind="stable")[:count].tolist())


def select_prune_set(ledger: ImportanceLedger | None, model: Model,
                     amounts: RemovalAmounts) -> list[UnitId]:
    """Lowest-scoring units per dimension, exactly the requested counts.

    Head/neuron counts are removed from every layer (per-layer uniform
    pruning); layer removals take the highest indices, keeping a prefix.
    """
    c = model.config
    if amounts.heads_per_layer >= c.H and amounts.heads_per_layer > 0:
        raise ValueError(
            f"removing {amounts.heads_per_layer} heads would empty a layer of {c.H}"
        )
    if amounts.neurons_per_layer >= c.d_I and amounts.neurons_per_layer > 0:
        raise ValueError(
            f"removing {amounts.neurons_per_layer} neurons would empty a layer of {c.d_I}"
        )
    if amounts.ranks:
        if not c.factorized:
            raise RuntimeError("rank pruning requested on an unfactorized embedding")
        if amounts.ranks >= c.r:
            raise ValueError(f"removing {amounts.ranks} ranks of {c.r} leaves none")
    if amounts.layers >= c.L and amounts.layers > 0:
        raise ValueError(f"removing {amounts.layers} layers of {c.L} leaves none")
    if (amounts.heads_per_layer or amounts.neurons_per_layer or amounts.ranks) \
            and ledger is None:
        raise ValueError("head/neuron/rank selection needs an importance ledger")

    units: list[UnitId] = []
    keep_layers = c.L - amounts.layers
    for layer in range(keep_layers):
        if amounts.heads_per_layer:
            scores = head_importance(ledger, layer, c.head_dim)
            units += [UnitId("attention_head", i, layer)
                      for i in _lowest(scores, amounts.heads_per_layer)]
        if amounts.neurons_per_layer:
            scores = neuron_importance(ledger, layer)
            units += [UnitId("ffn_neuron", i, layer)
                      for i in _lowest(scores, amounts.neurons_per_layer)]
    if amounts.ranks:
        units += [UnitId("embedding_rank", i)
                  for i in _lowest(rank_importance(model, ledger), amounts.ranks)]
    units += [UnitId("layer", i) for i in range(keep_layers, c.L)]
    return units


@dataclass
class SurgeryReport:
    """Index bookkeeping so optimizer state can be sliced in lockstep."""

    kept: dict[str, list[tuple[int, np.ndarray]]]  # name -> [(axis, kept idx)]
    removed: list[str]                             # dropped parameter names
    config: ModelConfig                            # config after surgery


def _grouped(prune_set: list[UnitId], config: ModelConfig):
    heads: dict[int, list[int]] = {}
    neurons: dict[int, list[int]] = {}
    ranks: list[int] = []
    layers: list[int] = []
    for u in prune_set:
        if u.kind == "attention_head":
            heads.setdefault(u.layer_index, []).append(u.unit_index)
        elif u.kind == "ffn_neuron":
            neurons.setdefault(u.layer_index, []).append(u.unit_index)
        elif u.kind == "embedding_rank":
            ranks.append(u.unit_index)
        else:
            layers.append(u.unit_index)

    def check(groups: dict[int, list[int]], what: str, bound: int):
        for layer, idxs in groups.items():
            if len(set(idxs)) != len(idxs):
                raise ValueError(f"duplicate {what} indices in layer {layer}")
            if any(i < 0 or i >= bound for i in idxs):
                raise ValueError(f"{what} index out of range in layer {layer}")

    return heads, neurons, sorted(set(ranks)), sorted(set(layers)), check


def apply_surgery(model: Model, prune_set: list[UnitId]) -> SurgeryReport:
    """Remove the listed units, shrinking matrices and the config exactly.

    Validates the whole set before touching anything: a failure leaves the
    model unmodified. Removal counts for heads/neurons must be uniform
    across surviving layers so the config stays rectangular.
    """
    c = model.config
    heads, neurons, ranks, layer_units, check = _grouped(prune_set, c)

    # ---- validate
    if layer_units:
        expect = list(range(c.L - len(layer_units), c.L))
        if layer_units != expect:
            raise ValueError(
                f"layer pruning keeps the first layers: expected to drop "
                f"{expect}, got {layer_units}"
            )
    new_L = c.L - len(layer_units)
    survivors = set(range(new_L))
    for groups, what, bound in ((heads, "head", c.H), (neurons, "neuron", c.d_I)):
        check(groups, what, bound)
        touched = set(groups)
        if touched and not touched <= survivors:
            raise ValueError(f"{what} pruning listed for a dropped layer")
        if touched and touched != survivors:
            raise ValueError(
                f"{what} removals must cover every surviving layer uniformly"
            )
        counts = {len(v) for v in groups.values()}
        if len(counts) > 1:
            raise ValueError(f"{what} removal counts differ across layers: {counts}")
    heads_removed = len(next(iter(heads.values()))) if heads else 0
    neurons_removed = len(next(iter(neurons.values()))) if neurons else 0
    if heads_removed >= c.H:
        raise ValueError("surgery would remove every attention head")
    if neurons_removed >= c.d_I:
        raise ValueError("surgery would remove every FFN neuron")
    if ranks:
        if not c.factorized:
            raise RuntimeError("rank surgery on an unfactorized embedding")
        if ranks[-1] >= c.r or len(ranks) >= c.r:
            raise ValueError("rank surgery out of range or removes every rank")

    new_config = replace(
        c, H=c.H - heads_removed, L=new_L, d_I=c.d_I - neurons_removed,
        r=c.r - len(ranks) if ranks else c.r,
    )

    # ---- compute new arrays, then commit
    new_data: dict[str, np.ndarray] = {}
    kept_report: dict[str, list[tuple[int, np.ndarray]]] = {}

    def slice_param(name: str, axis: int, kept_idx: np.ndarray):
        src = new_data.get(name, model.params[name].data)
        new_data[name] = np.take(src, kept_idx, axis=axis)
        kept_report.setdefault(name, []).append((axis, kept_idx))

    for layer, idxs in heads.items():
        hd = c.head_dim
        gone = np.concatenate([np.arange(i * hd, (i + 1) * hd) for i in sorted(idxs)])
        kept_cols = np.setdiff1d(np.arange(c.H * hd), gone)
        for base in ("W_Q", "W_K", "W_V"):
            slice_param(f"layer{layer}.{base}", 1, kept_cols)
        slice_param(f"layer{layer}.W_AO", 0, kept_cols)
    for layer, idxs in neurons.items():
        kept_idx = np.setdiff1d(np.arange(c.d_I), np.array(sorted(idxs)))
        slice_param(f"layer{layer}.W_FI", 1, kept_idx)
        slice_param(f"layer{layer}.b_FI", 0, kept_idx)
        slice_param(f"layer{layer}.W_FO", 0, kept_idx)
    if ranks:
        kept_idx = np.setdiff1d(np.arange(c.r), np.array(ranks))
        slice_param("emb.E_U", 1, kept_idx)
        slice_param("emb.E_V", 0, kept_idx)

    removed = [name for i in layer_units for name in _layer_param_names(i)]

    for name, data in new_data.items():
        old = model.params[name]
        model.params[name] = Tensor(data, requires_grad=old.requires_grad)
    for name in removed:
        del model.params[name]
    model.config = new_config
    model.assert_shapes()
    return SurgeryReport(kept=kept_report, removed=removed, config=new_config)


def _layer_param_names(i: int) -> list[str]:
    p = f"layer{i}."
    return [p + n for n in ("W_Q", "W_K", "W_V", "W_AO", "b_AO", "ln1_g", "ln1_b",
                            "W_FI", "b_FI", "W_FO", "b_FO", "ln2_g", "ln2_b")]
