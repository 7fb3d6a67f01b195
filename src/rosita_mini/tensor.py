"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough autodiff for an encoder forward pass and its losses: each op
returns a new Tensor holding the value, and, when some input is tracked
(requires grad, or has parents of its own), its inputs and a closure that
routes the upstream gradient to them. That is the one rule for graph
recording: a forward of a frozen model, or of `pipeline.evaluate`'s
float32 copy, builds no graph. `backward()` replays the closures in
reverse topological order and consumes the graph as it goes. Data
lives in row-major numpy arrays and is treated as immutable once a
tensor is built.

The encoder's sub-layers are single nodes: `linear` (matmul plus bias),
`attention` (head split, scaled and masked softmax, weighted sum and
head merge) and `layer_norm` of a sum (residual plus layer norm). Each
fused node runs the same numpy products, on operands of the same shapes
and memory layouts, as the chain of elementary ops it replaces, so its
values and gradients are bit-identical to that chain. That holds for the
one-product rule too: `linear` and `matmul` both take the input and the
weight gradient of a batched input against a 2-D weight as one product
over all the batch rows, where the forward is one product per sequence.
The input gradient then differs from per-sequence products only in the
last bits, by at most 1e-13 of its largest entry. Each loss is one
`_node` too, where it is defined.

Gradient arrays are owned, not copied: an op hands an input the array
it has just computed for that input alone, and the input keeps it. An op
writes in place only into arrays it has just allocated or into its own
incoming gradient, never into an input's data.

float32 data stays float32 and all else becomes float64: only the
untracked copy that `pipeline.evaluate` runs is float32, and a tensor
that requires grad refuses float32 data, so training stays float64.
"""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


def _as_float(data) -> np.ndarray:
    data = np.asarray(data)
    return np.ascontiguousarray(data, np.float32 if data.dtype == np.float32 else np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float(data)
        if requires_grad and self.data.dtype == np.float32:
            raise TypeError("a tensor that requires grad must be float64, got float32 data")
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def tracked(self) -> bool:
        """True when this node participates in gradient computation."""
        return self.requires_grad or bool(self._parents)

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add g into .grad. `owned` says the caller has just computed g for
        this tensor alone, so the first one is kept instead of copied;
        without it g may alias a buffer that another input also gets."""
        if self.grad is None:
            self.grad = g if owned else np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, leaves=None) -> None:
        """Backpropagate from this scalar through the recorded graph, and
        consume the graph.

        Every requires_grad leaf on a path to this loss gets its grad
        populated. Once an interior node's closure has run, the node drops
        its grad, parents and closure, so the activations the graph holds
        are freed as the walk proceeds and no graph outlives its backward;
        a graph can be walked once. Leaves passed in `leaves` that the graph
        never reached are set to zero gradients, so "loss independent of w"
        reads as dw == 0 rather than missing.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()  # reverse topological order
            if node._backward is None:
                continue  # a leaf: it keeps its grad
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), None
        if leaves is not None:
            for leaf in leaves:
                if leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _topo_order(root: Tensor) -> list[Tensor]:
    """Iterative DFS postorder; each node appears exactly once."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], bwd) -> Tensor:
    out = Tensor(data)
    if any(p.tracked for p in parents):
        out._parents = parents
        out._backward = bwd
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (gdim, sdim) in enumerate(zip(g.shape, shape)):
        if sdim == 1 and gdim != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and broadcast arithmetic


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data + b.data

    def bwd(g):
        if a.tracked:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.tracked:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _node(data, (a, b), bwd)


def scale(a, c) -> Tensor:
    """Multiply by a constant scalar or ndarray (no gradient into c)."""
    a = _ensure(a)
    c = np.asarray(c, dtype=np.float64)
    data = a.data * c

    def bwd(g):
        a.accumulate_grad(_unbroadcast(g * c, a.shape), owned=True)

    return _node(data, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading dimensions like np.matmul.

    Gradients: da = g @ b^T, db = a^T @ g, summed over broadcast batch dims.
    A batched a against a 2-D b gets each as one product over all the batch
    rows, as `linear` does.
    """
    a, b = _ensure(a), _ensure(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data
    shared = b.data.ndim == 2 and a.data.ndim > 2  # a weight shared by every batch row

    def bwd(g):
        k, n = b.shape[-2:]
        if a.tracked:
            if shared:
                ga = (g.reshape(-1, n) @ b.data.T).reshape(a.shape)
            else:
                ga = _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape)
            a.accumulate_grad(ga, owned=True)
        if b.tracked:
            if shared:
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
            b.accumulate_grad(gb, owned=True)

    return _node(data, (a, b), bwd)


def linear(x, w, b=None) -> Tensor:
    """x @ w, plus the bias b if given: (..., k) x (k, n) -> (..., n).

    One node with the products of `matmul` and then `add`: the batched
    (..., k) @ (k, n) forward, and in backward one product over all the
    batch rows for each of the input and weight gradients.
    """
    x, w = _ensure(x), _ensure(w)
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape}")
    data = x.data @ w.data
    if b is not None:
        b = _ensure(b)
        if b.shape != (w.shape[1],):
            raise ShapeError(f"linear: bias shape {b.shape} != ({w.shape[1]},)")
        data += b.data

    def bwd(g):
        k, n = w.shape
        if b is not None and b.tracked:
            b.accumulate_grad(_unbroadcast(g, b.shape), owned=True)
        if x.tracked:
            x.accumulate_grad((g.reshape(-1, n) @ w.data.T).reshape(x.shape), owned=True)
        if w.tracked:
            w.accumulate_grad(x.data.reshape(-1, k).T @ g.reshape(-1, n), owned=True)

    return _node(data, (x, w) if b is None else (x, w, b), bwd)


def attention(q, k, v, n_heads: int, mask_bias=None) -> Tensor:
    """Multi-head scaled dot-product attention, as one node.

    q, k and v are (B, S, H*hd) projections. The node splits them into H
    heads of width hd, computes softmax(q k^T / sqrt(hd) + mask_bias) v
    per head, and merges the heads back into (B, S, H*hd), head index
    major. mask_bias is a constant that broadcasts against the (B, H, S, S)
    scores; -inf removes a key. Products and their operand layouts are
    those of the per-op chain (split, matmul, scale, add, softmax_rows,
    matmul, merge), in forward and backward alike.
    """
    q, k, v = _ensure(q), _ensure(k), _ensure(v)
    if q.data.ndim != 3 or k.shape != q.shape or v.shape != q.shape \
            or n_heads < 1 or q.shape[-1] % n_heads:
        raise ShapeError(f"attention: q, k, v must share a (B, S, H*hd) shape with "
                         f"H = {n_heads}, got {q.shape}, {k.shape}, {v.shape}")
    bsz, s, width = q.shape
    hd = width // n_heads
    scale = 1.0 / math.sqrt(hd)

    def split(t):  # (B, S, H*hd) -> (B, S, H, hd)
        return t.reshape(bsz, s, n_heads, hd)

    qh = np.ascontiguousarray(split(q.data).swapaxes(1, 2))         # (B, H, S, hd)
    kt = np.ascontiguousarray(split(k.data).transpose(0, 2, 3, 1))  # (B, H, hd, S)
    vh = np.ascontiguousarray(split(v.data).swapaxes(1, 2))
    scores = qh @ kt
    scores *= scale
    if mask_bias is not None:
        scores += mask_bias
    p = _softmax(scores, "attention", out=scores)
    data = np.ascontiguousarray((p @ vh).swapaxes(1, 2)).reshape(bsz, s, width)

    def merge(gh):  # (B, H, S, hd) -> (B, S, H*hd), a view where possible
        return gh.swapaxes(1, 2).reshape(bsz, s, width)

    def bwd(g):
        gctx = split(g).swapaxes(1, 2)
        gp = gctx @ vh.swapaxes(-1, -2)
        if v.tracked:
            v.accumulate_grad(merge(p.swapaxes(-1, -2) @ gctx), owned=True)
        dot = (gp * p).sum(axis=-1, keepdims=True)
        gs = gp
        gs -= dot
        gs *= p
        gs *= scale
        if q.tracked:
            q.accumulate_grad(merge(gs @ kt.swapaxes(-1, -2)), owned=True)
        if k.tracked:
            gkt = qh.swapaxes(-1, -2) @ gs
            k.accumulate_grad(gkt.transpose(0, 3, 1, 2).reshape(bsz, s, width), owned=True)

    return _node(data, (q, k, v), bwd)


def gather_rows(table, indices) -> Tensor:
    """Row lookup table[indices]: (N, d) indexed by an int array of any shape.

    Backward scatter-adds into the table rows (duplicate ids accumulate).
    """
    table = _ensure(table)
    idx = np.asarray(indices)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-D, got {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise IndexError(
            f"gather_rows: index out of range for table with {table.shape[0]} rows"
        )
    data = table.data[idx]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx.reshape(-1), g.reshape(-1, table.shape[1]))
        table.accumulate_grad(gt, owned=True)

    return _node(data, (table,), bwd)


def first_token(a) -> Tensor:
    """Select position 0 along axis 1: (B, S, d) -> (B, d)."""
    a = _ensure(a)
    if a.data.ndim != 3:
        raise ShapeError(f"first_token: expected 3-D input, got {a.shape}")
    data = np.ascontiguousarray(a.data[:, 0, :])

    def bwd(g):
        ga = np.zeros_like(a.data)
        ga[:, 0, :] = g
        a.accumulate_grad(ga, owned=True)

    return _node(data, (a,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def relu(a) -> Tensor:
    a = _ensure(a)
    data = np.maximum(0.0, a.data)

    def bwd(g):
        g *= a.data > 0  # subgradient at 0 is 0
        a.accumulate_grad(g, owned=True)

    return _node(data, (a,), bwd)


def _softmax(x: np.ndarray, op: str, out: np.ndarray | None = None) -> np.ndarray:
    """Row-stabilized softmax over the last axis, into `out` if given (which
    may be x itself).

    NaN input raises; -inf entries are allowed and get weight 0 (additive
    attention masking), as long as each row keeps at least one finite entry.
    """
    if np.isnan(x).any():
        raise ValueError(f"{op}: NaN in input")
    # np.maximum over the columns gives the same values as max(-1), 3-10x
    # faster on a short last axis (S <= 24; the marker task's default rows
    # give S = 14). From S = 32 on, its strided column reads make it the
    # slower one: 1.5x at S = 32, 5.8x at S = 128
    m = x[..., 0]
    for j in range(1, x.shape[-1]):
        m = np.maximum(m, x[..., j])
    m = m[..., None]
    if not np.isfinite(m).all():
        raise ValueError(f"{op}: a row has no finite entry")
    e = np.subtract(x, m, out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_rows(a) -> Tensor:
    """Row-stabilized softmax over the last axis (see `_softmax`)."""
    a = _ensure(a)
    y = _softmax(a.data, "softmax_rows")

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.accumulate_grad((g - dot) * y, owned=True)

    return _node(y, (a,), bwd)


def layer_norm(x, gamma, beta, eps: float, y=None) -> Tensor:
    """Normalize the last axis of x, or of x + y, to mean 0 / population
    variance 1, then affine.

    With y, the sum is part of the node (a residual add plus its layer
    norm), and both summands get the gradient of the sum.
    """
    x, gamma, beta = _ensure(x), _ensure(gamma), _ensure(beta)
    y = None if y is None else _ensure(y)
    total = x.data if y is None else x.data + y.data
    d = total.shape[-1] if total.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm: last dimension must be nonzero")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    mu = total.mean(axis=-1, keepdims=True)
    # without y, total is x's own data, which this node must not write
    xhat = total - mu if y is None else np.subtract(total, mu, out=total)
    square = xhat * xhat
    var = square.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    data = np.multiply(gamma.data, xhat, out=square)
    data += beta.data

    def bwd(g):
        if gamma.tracked:
            gamma.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0), owned=True)
        if beta.tracked:
            beta.accumulate_grad(g.reshape(-1, d).sum(axis=0), owned=True)
        if x.tracked or (y is not None and y.tracked):
            dxhat = g * gamma.data
            row_sum = dxhat.sum(axis=-1, keepdims=True)
            xhat_dot = (dxhat * xhat).sum(axis=-1, keepdims=True)
            gx = dxhat  # inv_std / d * (d * dxhat - row_sum - xhat * xhat_dot)
            gx *= d
            gx -= row_sum
            gx -= xhat * xhat_dot
            gx *= inv_std / d
            if x.tracked:  # with y, x gets a copy: y may own gx
                x.accumulate_grad(_unbroadcast(gx, x.shape), owned=y is None)
            if y is not None and y.tracked:
                y.accumulate_grad(_unbroadcast(gx, y.shape), owned=True)

    return _node(data, (x, gamma, beta) if y is None else (x, y, gamma, beta), bwd)


def dropout(a, rate: float, key: int, counter: int) -> Tensor:
    """Inverted dropout with a counter-based Philox generator.

    rate 0 is the identity (no graph node). (key, counter) fully determine
    the mask, so replays are bit-identical.
    """
    a = _ensure(a)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    gen = np.random.Generator(np.random.Philox(key=key, counter=counter))
    mask = (gen.random(a.shape) >= rate) / (1.0 - rate)

    def bwd(g):
        a.accumulate_grad(g * mask, owned=True)

    return _node(a.data * mask, (a,), bwd)
