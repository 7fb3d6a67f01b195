"""Helpers that only the tests use: a central-difference gradient check,
a vocabulary builder, and the unfused op chains the fused tensor nodes
are checked against."""

import math

import numpy as np

from rosita_mini import tensor as T
from rosita_mini.data import RESERVED, Vocab, split_text
from rosita_mini.tensor import Tensor, no_grad


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
    with no_grad():
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
