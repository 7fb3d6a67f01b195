"""Taylor-importance scoring, aggregation to structural units, selection,
and exact surgery on the parameter store.

Per-weight importance is |dL/dW * W|. A ledger is a plain dict from each
scored parameter's name to its scores summed over the batches recorded
into it (`record_scores`). One-step pruning divides the sums once by the
batch count, a dataset average; iterative pruning ranks on the sums since
the last pruning event and then starts a new ledger. Scores aggregate to
FFN neurons, attention heads, and embedding ranks; layers are dropped
keep-first instead of scored.

`UNIT_SLICES` is the one statement of where a unit lives: for each kind,
the (parameter, axis, scored) slices that hold one unit, and `UNIT_DIMS`
the config field that counts the kind's units. A head is head_dim
consecutive entries along its axis, a neuron or a rank one entry. The
ledger keeps scores for the scored slices only, `unit_importance` sums a
unit's scored slices, and `apply_surgery` cuts every slice. A head is
scored by its W_AO rows alone, so W_Q, W_K and W_V are cut but not
scored.

A removal count is a dict keyed by the config field it shrinks: the
`UNIT_DIMS` values and "L", as `ArchitectureTarget.deltas` returns them.
`select_prune_set` turns counts into units; `apply_surgery` is the one
place that bounds them, and rejects a set that leaves no unit of a kind.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Model, ModelConfig, check_ints, check_keys
from .tensor import Tensor

# kind -> (parameter, axis, scored) slices holding one unit; layer kinds
# name their parameters without the "layer{i}." prefix
UNIT_SLICES = {
    "ffn_neuron": (("W_FI", 1, True), ("W_FO", 0, True), ("b_FI", 0, True)),
    "attention_head": (("W_Q", 1, False), ("W_K", 1, False), ("W_V", 1, False),
                       ("W_AO", 0, True)),
    "embedding_rank": (("emb.E_U", 1, True), ("emb.E_V", 0, True)),
}
# kind -> the config field that counts its units
UNIT_DIMS = {"ffn_neuron": "d_I", "attention_head": "H", "embedding_rank": "r"}
VALID_KINDS = (*UNIT_SLICES, "layer")


@dataclass(frozen=True)
class UnitId:
    kind: str
    unit_index: int
    layer_index: int | None = None  # absent for embedding_rank and layer

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValueError(f"unknown unit kind {self.kind!r}")


@dataclass(frozen=True)
class ArchitectureTarget:
    """Structural dimensions to reach; None keeps the current value."""

    H: int | None = None
    L: int | None = None
    d_I: int | None = None
    r: int | None = None

    def __post_init__(self):
        check_ints({dim: v for dim, v in vars(self).items() if v is not None}, "target")
        low = {dim: v for dim, v in vars(self).items() if v is not None and v < 1}
        if low:
            raise ValueError(f"target dimensions must be >= 1, got {low}")

    def deltas(self, config: ModelConfig) -> dict[str, int]:
        """Removal counts from a config down to this target.

        The rank delta is measured from the current rank when factorized,
        else from the full rank (`config.full_rank`) a factorization has.
        """
        current_r = config.r if config.factorized else config.full_rank
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
        return cls(**check_keys(d, "target", cls))


def _param_name(name: str, layer: int | None) -> str:
    return name if layer is None else f"layer{layer}.{name}"


def _homes(kind: str, n_layers: int) -> list[int | None]:
    """The layers that hold a kind's units; None for the embedding's ranks."""
    return [None] if kind == "embedding_rank" else list(range(n_layers))


def _prunable_names(config: ModelConfig) -> list[str]:
    """Names of the scored slices of every unit in the model."""
    names = []
    for kind, slices in UNIT_SLICES.items():
        if kind == "embedding_rank" and not config.factorized:
            continue
        names += [_param_name(name, layer) for layer in _homes(kind, config.L)
                  for name, _axis, scored in slices if scored]
    return names


def weight_taylor_scores(model: Model) -> dict[str, np.ndarray]:
    """Per-weight |grad * weight| for every scored slice, current batch."""
    scores = {}
    for name in _prunable_names(model.config):
        p = model.params[name]
        if p.grad is None:
            raise RuntimeError(
                f"weight_taylor_scores: no gradient on {name}; run backward first"
            )
        scores[name] = np.abs(p.grad * p.data)
    return scores


def record_scores(ledger: dict[str, np.ndarray], scores: dict[str, np.ndarray]) -> None:
    """Add one batch's per-weight scores into `ledger`, a dict of score sums.

    An empty ledger takes over the batch's arrays, so the caller must not
    reuse them. Start a new ledger after surgery: a ledger of other
    parameters or shapes is rejected.
    """
    if not ledger:
        ledger.update(scores)
        return
    if set(scores) != set(ledger):
        raise RuntimeError(
            "ledger/model mismatch: prunable parameter sets differ "
            "(reset the ledger after surgery)"
        )
    for name, s in scores.items():
        if s.shape != ledger[name].shape:
            raise RuntimeError(
                f"ledger/model mismatch on {name}: {s.shape} vs "
                f"{ledger[name].shape} (reset the ledger after surgery)"
            )
        ledger[name] += s


def record_batch_scores(ledger: dict[str, np.ndarray], model: Model) -> None:
    """Add the current batch's Taylor scores into the ledger.

    Call after backward on the step's total training loss.
    """
    record_scores(ledger, weight_taylor_scores(model))


def unit_importance(ledger: dict[str, np.ndarray], model: Model, kind: str,
                    layer: int | None = None) -> np.ndarray:
    """Per-unit score of `kind` in `layer` (None for embedding ranks): the
    summed ledger scores of each unit's scored slices, in table order."""
    if kind == "embedding_rank" and not model.config.factorized:
        raise RuntimeError("unit_importance: embedding is not factorized")
    n = getattr(model.config, UNIT_DIMS[kind])
    total = None
    for name, axis, scored in UNIT_SLICES[kind]:
        if not scored:
            continue
        s = ledger[_param_name(name, layer)]
        # scored axis-1 slices are one entry per unit
        part = s.reshape(n, -1).sum(axis=1) if axis == 0 else s.sum(axis=0)
        total = part if total is None else total + part
    return total


def _lowest(scores: np.ndarray, count: int) -> list[int]:
    # stable sort: ties resolve to the lower unit index
    return sorted(np.argsort(scores, kind="stable")[:count].tolist())


def select_prune_set(ledger: dict[str, np.ndarray] | None, model: Model,
                     amounts: dict[str, int]) -> list[UnitId]:
    """The lowest-scoring units of each kind, `amounts[dim]` of them for
    each `UNIT_DIMS` field dim (absent means 0), and the last `amounts["L"]`
    layers.

    Head and neuron counts apply to every kept layer (per-layer uniform
    pruning); dropped layers keep a prefix. Counts are not bounded here:
    `apply_surgery` rejects a set that would leave no unit of a kind.
    """
    unknown = set(amounts) - {*UNIT_DIMS.values(), "L"}
    if unknown:
        raise ValueError(f"unknown removal dimensions {sorted(unknown)}")
    keep_layers = model.config.L - amounts.get("L", 0)
    units: list[UnitId] = []
    for kind, dim in UNIT_DIMS.items():
        count = amounts.get(dim, 0)
        if not count:
            continue
        if ledger is None:
            raise ValueError(f"{kind} selection needs an importance ledger")
        for layer in _homes(kind, keep_layers):
            scores = unit_importance(ledger, model, kind, layer)
            units += [UnitId(kind, i, layer) for i in _lowest(scores, count)]
    units += [UnitId("layer", i) for i in range(keep_layers, model.config.L)]
    return units


def _emptied(kind: str, count: int, n: int) -> str:
    return f"removing {count} of {n} {kind} units leaves none, and surgery cannot empty a kind"


@dataclass
class SurgeryReport:
    """Index bookkeeping so optimizer state can be sliced in lockstep."""

    kept: dict[str, list[tuple[int, np.ndarray]]]  # name -> [(axis, kept idx)]
    removed: list[str]                             # dropped parameter names
    config: ModelConfig                            # config after surgery


def apply_surgery(model: Model, prune_set: list[UnitId]) -> SurgeryReport:
    """Remove the listed units, shrinking matrices and the config exactly.

    Validates the whole set before touching anything: a failure leaves the
    model unmodified. This is where removal counts are bounded: a set that
    leaves no unit of a kind, layers included, is rejected. Removal counts
    for heads/neurons must be uniform across surviving layers so the config
    stays rectangular.
    """
    c = model.config
    groups: dict[str, dict[int | None, list[int]]] = {kind: {} for kind in VALID_KINDS}
    for u in prune_set:
        groups[u.kind].setdefault(u.layer_index, []).append(u.unit_index)
    layer_units = sorted({i for idxs in groups.pop("layer").values() for i in idxs})

    # ---- validate
    if len(layer_units) >= c.L:
        raise ValueError(_emptied("layer", len(layer_units), c.L))
    if layer_units:
        expect = list(range(c.L - len(layer_units), c.L))
        if layer_units != expect:
            raise ValueError(
                f"layer pruning keeps the first layers: expected to drop "
                f"{expect}, got {layer_units}"
            )
    dims = {"L": c.L - len(layer_units)}
    for kind, by_layer in groups.items():
        if not by_layer:
            continue
        if kind == "embedding_rank" and not c.factorized:
            raise RuntimeError("rank surgery on an unfactorized embedding")
        n = getattr(c, UNIT_DIMS[kind])
        for layer, idxs in by_layer.items():
            if len(set(idxs)) != len(idxs):
                raise ValueError(f"duplicate {kind} indices in layer {layer}")
            if any(i < 0 or i >= n for i in idxs):
                raise ValueError(f"{kind} index out of range in layer {layer}")
        if set(by_layer) != set(_homes(kind, dims["L"])):
            raise ValueError(
                f"{kind} removals must cover every surviving layer uniformly, "
                f"got layers {list(by_layer)}"
            )
        counts = {len(v) for v in by_layer.values()}
        if len(counts) > 1:
            raise ValueError(f"{kind} removal counts differ across layers: {counts}")
        (count,) = counts
        if count >= n:
            raise ValueError(_emptied(kind, count, n))
        dims[UNIT_DIMS[kind]] = n - count
    new_config = replace(c, **dims)

    # ---- compute new arrays, then commit
    new_data: dict[str, np.ndarray] = {}
    kept_report: dict[str, list[tuple[int, np.ndarray]]] = {}
    for kind, by_layer in groups.items():
        n = getattr(c, UNIT_DIMS[kind])
        for layer, idxs in by_layer.items():
            keep = np.ones(n, dtype=bool)
            keep[idxs] = False
            for name, axis, _scored in UNIT_SLICES[kind]:
                name = _param_name(name, layer)
                data = model.params[name].data
                kept_idx = np.flatnonzero(np.repeat(keep, data.shape[axis] // n))
                new_data[name] = np.take(data, kept_idx, axis=axis)
                kept_report.setdefault(name, []).append((axis, kept_idx))

    removed = [name for name in model.params
               if name.startswith(tuple(f"layer{i}." for i in layer_units))]

    for name, data in new_data.items():
        old = model.params[name]
        model.params[name] = Tensor(data, requires_grad=old.requires_grad)
    for name in removed:
        del model.params[name]
    model.config = new_config
    model.assert_shapes()
    return SurgeryReport(kept=kept_report, removed=removed, config=new_config)
