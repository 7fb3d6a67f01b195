"""Configurable BERT-shaped encoder with a first-token classifier head.

The four compressible dimensions (attention heads H, layers L, FFN width
d_I, embedding rank r) live in ModelConfig; pruning shrinks them while the
hidden size d_X stays fixed. The forward pass records every hidden state
so distillation can read them.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, ShapeError

# desk-scale init: full-size encoders use 0.02 at hidden width 768; the
# small widths here need a slightly larger scale to train reliably
INIT_STD = 0.05


def check_ints(values: dict, what: str, kind: type = int) -> None:
    """Reject the first of `values` that is not a `kind`: an int, a bool, or a
    float, which takes an int too. A bool is neither of the others."""
    accepted, noun = {int: (int, "an int"), float: ((int, float), "a number"),
                      bool: (bool, "a bool")}[kind]
    for name, v in values.items():
        if isinstance(v, bool) != (kind is bool) or not isinstance(v, accepted):
            raise ValueError(f"{what} {name} = {v!r} is not {noun}")


def check_keys(d, where: str, known, required=()) -> dict:
    """A copy of `d` once it is a dict with every `required` key and no key outside
    `known`: a dataclass stands for its fields, and requires those without a
    default. Each error names `where`."""
    if not isinstance(d, dict):
        raise ValueError(f"{where}: not a JSON object")
    if is_dataclass(known):
        required = [f.name for f in fields(known) if f.default is MISSING]
        known = [f.name for f in fields(known)]
    if unknown := sorted(set(d) - set(known)):
        raise ValueError(f"{where}: unknown keys {unknown}; known: {list(known)}")
    if missing := [key for key in required if key not in d]:
        raise ValueError(f"{where}: missing keys {missing}")
    return dict(d)


@dataclass
class ModelConfig:
    H: int
    L: int
    d_X: int
    d_I: int
    r: int  # embedding rank; 0 = unfactorized
    vocab_size: int
    max_len: int
    n_classes: int
    head_dim: int = 0  # 0 = derive as d_X // H
    eps: float = 1e-12

    def __post_init__(self):
        check_ints({k: v for k, v in vars(self).items() if k != "eps"}, "config field")
        check_ints({"eps": self.eps}, "config field", float)
        if self.head_dim == 0 and self.H >= 1:  # validate rejects H < 1
            self.head_dim = self.d_X // self.H
        self.validate()

    def validate(self) -> None:
        if self.H < 1 or self.L < 1 or self.d_I < 1:
            raise ValueError(f"config needs H, L, d_I >= 1, got {self}")
        if self.head_dim < 1:
            raise ValueError("head_dim must be >= 1")
        if self.H * self.head_dim > self.d_X:
            raise ValueError(
                f"attention width H*head_dim = {self.H * self.head_dim} "
                f"exceeds d_X = {self.d_X}"
            )
        if self.r < 0 or self.r > self.full_rank:
            raise ValueError(f"rank r = {self.r} outside [0, min(|V|, d_X) = {self.full_rank}]")
        if self.vocab_size < 1 or self.max_len < 1 or self.n_classes < 2:
            raise ValueError("vocab_size, max_len >= 1 and n_classes >= 2 required")

    @property
    def factorized(self) -> bool:
        return self.r > 0

    @property
    def full_rank(self) -> int:
        """The rank of a dense token embedding: min(|V|, d_X)."""
        return min(self.vocab_size, self.d_X)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**check_keys(d, "model", cls))


@dataclass
class ForwardTrace:
    """Classifier logits plus the L+1 hidden states (index 0 = embedding)."""

    logits: Tensor
    hidden: list[Tensor]


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter name -> shape map; fixes checkpoint ordering too."""
    c = config
    width = c.H * c.head_dim
    shapes: dict[str, tuple[int, ...]] = {}
    if c.factorized:
        shapes["emb.E_U"] = (c.vocab_size, c.r)
        shapes["emb.E_V"] = (c.r, c.d_X)
    else:
        shapes["emb.W"] = (c.vocab_size, c.d_X)
    shapes["emb.P"] = (c.max_len, c.d_X)
    shapes["emb.ln_g"] = (c.d_X,)
    shapes["emb.ln_b"] = (c.d_X,)
    for i in range(c.L):
        p = f"layer{i}."
        shapes[p + "W_Q"] = (c.d_X, width)
        shapes[p + "W_K"] = (c.d_X, width)
        shapes[p + "W_V"] = (c.d_X, width)
        shapes[p + "W_AO"] = (width, c.d_X)
        shapes[p + "b_AO"] = (c.d_X,)
        shapes[p + "ln1_g"] = (c.d_X,)
        shapes[p + "ln1_b"] = (c.d_X,)
        shapes[p + "W_FI"] = (c.d_X, c.d_I)
        shapes[p + "b_FI"] = (c.d_I,)
        shapes[p + "W_FO"] = (c.d_I, c.d_X)
        shapes[p + "b_FO"] = (c.d_X,)
        shapes[p + "ln2_g"] = (c.d_X,)
        shapes[p + "ln2_b"] = (c.d_X,)
    shapes["cls.W"] = (c.d_X, c.n_classes)
    shapes["cls.b"] = (c.n_classes,)
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config).items():
        base = name.split(".")[-1]
        if base.endswith("_g"):  # layer-norm gains
            data = np.ones(shape)
        elif base.endswith("_b") or base.startswith("b_") or base == "b":
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, INIT_STD, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


class Model:
    """Encoder parameters plus forward logic; mutated only via surgery."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.assert_shapes()

    @classmethod
    def init(cls, config: ModelConfig, seed: int | np.random.Generator = 0) -> "Model":
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return cls(config, init_params(config, rng))

    def assert_shapes(self) -> None:
        expected = param_shapes(self.config)
        got = {name: p.shape for name, p in self.params.items()}
        if got != expected:
            missing = expected.keys() - got.keys()
            extra = got.keys() - expected.keys()
            bad = {n: (got[n], expected[n]) for n in expected.keys() & got.keys()
                   if got[n] != expected[n]}
            raise ShapeError(
                f"parameter store inconsistent with config: missing={sorted(missing)} "
                f"extra={sorted(extra)} mismatched={bad}"
            )

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def freeze(self) -> None:
        for p in self.params.values():
            p.requires_grad = False

    def forward(self, token_ids, mask, dropout_rate: float = 0.0,
                dropout_key: int = 0) -> ForwardTrace:
        return forward(self, token_ids, mask, dropout_rate, dropout_key)


# ---------------------------------------------------------------------------
# building blocks


def multi_head(x: Tensor, layer: dict[str, Tensor], config: ModelConfig,
               mask_bias: np.ndarray | None = None, drop=lambda t: t) -> Tensor:
    """Multi-head attention + output projection + `drop` + residual + layer norm.

    Heads run through one batched projection per Q/K/V; the concat order is
    head index, feeding W_AO of shape (H*head_dim, d_X).
    """
    q = T.linear(x, layer["W_Q"])
    k = T.linear(x, layer["W_K"])
    v = T.linear(x, layer["W_V"])
    ctx = T.attention(q, k, v, config.H, mask_bias)
    proj = T.linear(ctx, layer["W_AO"], layer["b_AO"])
    return T.layer_norm(x, layer["ln1_g"], layer["ln1_b"], config.eps, drop(proj))


def ffn(x: Tensor, layer: dict[str, Tensor], config: ModelConfig, drop=lambda t: t) -> Tensor:
    """Position-wise FFN (ReLU between two linears) + `drop` + residual + layer norm."""
    h = T.relu(T.linear(x, layer["W_FI"], layer["b_FI"]))
    out = T.linear(h, layer["W_FO"], layer["b_FO"])
    return T.layer_norm(x, layer["ln2_g"], layer["ln2_b"], config.eps, drop(out))


def embed(model: Model, token_ids: np.ndarray, positions: np.ndarray) -> Tensor:
    """Token lookup (+ factor product when r > 0) + position add + layer norm."""
    ids = np.asarray(token_ids)
    pos = np.asarray(positions)
    c = model.config
    if ids.size and ids.max() >= c.vocab_size:
        raise IndexError(f"token id {int(ids.max())} >= vocab size {c.vocab_size}")
    if pos.size and pos.max() >= c.max_len:
        raise IndexError(f"position {int(pos.max())} >= max_len {c.max_len}")
    if c.factorized:
        tok = T.linear(T.gather_rows(model.params["emb.E_U"], ids), model.params["emb.E_V"])
    else:
        tok = T.gather_rows(model.params["emb.W"], ids)
    posv = T.gather_rows(model.params["emb.P"], pos)
    return T.layer_norm(tok, model.params["emb.ln_g"], model.params["emb.ln_b"],
                        c.eps, posv)


def _layer_slice(params: dict[str, Tensor], i: int) -> dict[str, Tensor]:
    p = f"layer{i}."
    return {name[len(p):]: t for name, t in params.items() if name.startswith(p)}


def forward(model: Model, token_ids, mask, dropout_rate: float = 0.0,
            dropout_key: int = 0) -> ForwardTrace:
    """Run embed -> L transformer layers -> classifier on the first token.

    mask is (B, S) with 1 for real tokens; masked key positions get -inf
    attention scores. All L+1 hidden states are recorded. Dropout masks the
    embedding (Philox counter 0) and, as in BERT, each sub-layer's output
    before its residual add: layer i's attention (2i + 1) and FFN (2i + 2).
    """
    ids = np.asarray(token_ids)
    if ids.ndim != 2 or ids.shape[0] == 0:
        raise ValueError(f"forward: batch of token ids must be 2-D and nonempty, got {ids.shape}")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != ids.shape:
        raise ShapeError(f"forward: mask shape {mask.shape} != ids shape {ids.shape}")
    b, s = ids.shape
    c = model.config

    def drop(counter: int):
        return lambda t: T.dropout(t, dropout_rate, dropout_key, counter)

    x = T.dropout(embed(model, ids, np.arange(s)), dropout_rate, dropout_key, 0)
    hidden = [x]
    # (B, 1, 1, S) additive bias over key positions, in x's dtype: a float32 eval stays float32
    mask_bias = np.where(mask[:, None, None, :] > 0, 0.0, -np.inf).astype(x.data.dtype)
    for i in range(c.L):
        layer = _layer_slice(model.params, i)
        x = multi_head(x, layer, c, mask_bias, drop(2 * i + 1))
        x = ffn(x, layer, c, drop(2 * i + 2))
        hidden.append(x)
    logits = T.linear(T.first_token(x), model.params["cls.W"], model.params["cls.b"])
    return ForwardTrace(logits=logits, hidden=hidden)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(z)[label]."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be (batch, classes), got {logits.shape}")
    b, n_classes = logits.shape
    if labels.shape != (b,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} != ({b},)")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"cross_entropy: label outside [0, {n_classes})")

    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=-1, keepdims=True))
    rows = np.arange(b)
    data = np.asarray((lse[:, 0] - z[rows, labels]).mean())

    def bwd(g):
        p = np.exp(z - lse)
        p[rows, labels] -= 1.0
        logits.accumulate_grad(g * p / b, owned=True)

    return T._node(data, (logits,), bwd)


def count_params(config: ModelConfig) -> int:
    """Exact parameter count for a config: the sizes of `param_shapes`.

    Convention: token embedding (factors when r > 0), learned position
    embeddings, embedding layer norm, all per-layer weights/biases/layer
    norms, and the classifier. Position embeddings are never factorized.
    """
    return sum(math.prod(shape) for shape in param_shapes(config).values())
