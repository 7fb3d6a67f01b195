"""Helpers that only the tests use: a central-difference gradient check,
a vocabulary builder, model copies and sizes, the hand parameter-count
formula, SVD reconstruction, the elementwise product and full sum that
build gradient probes, and the unfused op chains the fused tensor nodes are
checked against."""

import math
from dataclasses import replace

import numpy as np

from rosita_mini import tensor as T
from rosita_mini.data import RESERVED, Vocab, split_text
from rosita_mini.factorization import SVDResult
from rosita_mini.model import Model, ModelConfig
from rosita_mini.tensor import ShapeError, Tensor


def finite_diff_check(f, x: Tensor, h: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    f maps a Tensor to a scalar Tensor. Per coordinate i the comparison is
    |analytic_i - central_i| / (|central_i| + 1e-8); the max over all
    coordinates is returned.
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    out.backward(leaves=[probe])
    analytic = probe.grad.copy()

    numeric = np.zeros_like(probe.data)
    flat = probe.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(probe).item()
        flat[i] = orig - h
        down = f(probe).item()
        flat[i] = orig
        num_flat[i] = (up - down) / (2.0 * h)

    err = np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)
    return float(err.max()) if err.size else 0.0


def build_vocab(texts, lowercase: bool = True) -> Vocab:
    """Vocabulary ordered by descending frequency, ties alphabetical."""
    counts: dict[str, int] = {}
    for text in texts:
        for tok in split_text(text.lower() if lowercase else text):
            counts[tok] = counts.get(tok, 0) + 1
    ordered = sorted(counts, key=lambda t: (-counts[t], t))
    return Vocab(list(RESERVED) + ordered, lowercase=lowercase)


def clone(model: Model) -> Model:
    """An independent copy of a model's config and arrays."""
    cloned = {name: Tensor(p.data.copy(), requires_grad=p.requires_grad)
              for name, p in model.params.items()}
    return Model(replace(model.config), cloned)


def num_params(model: Model) -> int:
    """Entries held in a model's parameter store."""
    return sum(p.data.size for p in model.params.values())


def count_params_formula(config: ModelConfig) -> int:
    """The parameter count worked out by hand, term by term."""
    c = config
    width = c.H * c.head_dim
    emb = c.vocab_size * c.r + c.r * c.d_X if c.factorized else c.vocab_size * c.d_X
    emb += c.max_len * c.d_X + 2 * c.d_X
    per_layer = (
        3 * c.d_X * width          # W_Q, W_K, W_V
        + width * c.d_X + c.d_X    # W_AO, b_AO
        + c.d_X * c.d_I + c.d_I    # W_FI, b_FI
        + c.d_I * c.d_X + c.d_X    # W_FO, b_FO
        + 4 * c.d_X                # two layer-norm pairs
    )
    cls = c.d_X * c.n_classes + c.n_classes
    return emb + c.L * per_layer + cls


def reconstruct(result: SVDResult) -> np.ndarray:
    """U @ diag(sigma) @ V."""
    return (result.U * result.sigma) @ result.V


def reconstruction_error(w: np.ndarray, e_u: np.ndarray, e_v: np.ndarray) -> float:
    """Frobenius norm of W - E_U @ E_V."""
    w = np.asarray(w, dtype=np.float64)
    if e_u.shape[0] != w.shape[0] or e_v.shape[1] != w.shape[1] \
            or e_u.shape[1] != e_v.shape[0]:
        raise ShapeError(
            f"reconstruction_error: W {w.shape} vs factors {e_u.shape} x {e_v.shape}"
        )
    return float(np.linalg.norm(w - e_u @ e_v))


# Gradient probes: an elementwise product and a sum to a scalar, which no
# model or loss builds.


def mul(a, b) -> Tensor:
    a, b = T._ensure(a), T._ensure(b)
    data = a.data * b.data

    def bwd(g):
        if a.tracked:
            a.accumulate_grad(T._unbroadcast(g * b.data, a.shape), owned=True)
        if b.tracked:
            b.accumulate_grad(T._unbroadcast(g * a.data, b.shape), owned=True)

    return T._node(data, (a, b), bwd)


def sum_all(a) -> Tensor:
    a = T._ensure(a)
    data = np.asarray(a.data.sum())

    def bwd(g):
        a.accumulate_grad(np.broadcast_to(g, a.shape).copy(), owned=True)

    return T._node(data, (a,), bwd)


# The per-op chain that the fused `linear`, `attention` and two-input
# `layer_norm` nodes replace, kept as the reference they must match bit
# for bit. `_swap` and `_reshape` are the head split/merge nodes of that
# chain: each copies the gradient it hands on, as every op once did.


def _swap(t: Tensor, ax1: int, ax2: int) -> Tensor:
    data = np.ascontiguousarray(t.data.swapaxes(ax1, ax2))
    return T._node(data, (t,), lambda g: t.accumulate_grad(g.swapaxes(ax1, ax2)))


def _reshape(t: Tensor, shape) -> Tensor:
    return T._node(t.data.reshape(shape), (t,),
                   lambda g: t.accumulate_grad(g.reshape(t.shape)))


def unfused_linear(x, w, b=None) -> Tensor:
    out = T.matmul(x, w)
    return out if b is None else T.add(out, b)


def unfused_attention(q, k, v, n_heads: int, mask_bias=None) -> Tensor:
    bsz, s, width = q.shape
    hd = width // n_heads

    def split(t):
        return _swap(_reshape(t, (bsz, s, n_heads, hd)), 1, 2)

    scores = T.scale(T.matmul(split(q), _swap(split(k), -1, -2)), 1.0 / math.sqrt(hd))
    if mask_bias is not None:
        scores = T.add(scores, Tensor(mask_bias))
    ctx = T.matmul(T.softmax_rows(scores), split(v))
    return _reshape(_swap(ctx, 1, 2), (bsz, s, width))


def unfused_layer_norm(x, gamma, beta, eps, y=None) -> Tensor:
    return T.layer_norm(x if y is None else T.add(x, y), gamma, beta, eps)


def padding_bias(rng, bsz: int, s: int) -> np.ndarray:
    """(B, 1, 1, S) additive key mask of random lengths >= 1, as
    `model.forward` builds it."""
    mask = np.ones((bsz, s))
    for i in range(bsz):
        mask[i, rng.integers(1, s + 1):] = 0.0
    return np.where(mask[:, None, None, :] > 0, 0.0, -np.inf)
