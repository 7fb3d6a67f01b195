"""Dense float64 tensors with reverse-mode automatic differentiation.

Just enough autodiff for an encoder forward pass and its losses: each op
returns a new Tensor holding the value plus a closure that routes the
upstream gradient to the op's inputs. `backward()` replays the closures
in reverse topological order. Data lives in row-major numpy arrays and
is treated as immutable once a tensor is built.
"""

from __future__ import annotations

import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that suppresses graph construction (teacher passes).

    The flag is thread-local; each training loop owns its own graph state.
    """

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def _as_f64(data) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(data, dtype=np.float64))


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_f64(data)
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

    def detach(self) -> Tensor:
        return Tensor(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # copy: g may alias an upstream buffer shared with another parent
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, leaves=None) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Every tensor on a path from a requires_grad leaf to this loss gets
        its grad populated. Leaves passed in `leaves` that the graph never
        reached are set to zero gradients, so "loss independent of w" reads
        as dw == 0 rather than missing.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
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
    if any(p.tracked for p in parents) and _grad_enabled():
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


def sub(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data - b.data

    def bwd(g):
        if a.tracked:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.tracked:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return _node(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    data = a.data * b.data

    def bwd(g):
        if a.tracked:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.tracked:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), bwd)


def scale(a, c) -> Tensor:
    """Multiply by a constant scalar or ndarray (no gradient into c)."""
    a = _ensure(a)
    c = np.asarray(c, dtype=np.float64)
    data = a.data * c

    def bwd(g):
        a.accumulate_grad(_unbroadcast(g * c, a.shape))

    return _node(data, (a,), bwd)


def add_const(a, c) -> Tensor:
    """Add a constant ndarray (attention mask bias); gradient passes through."""
    a = _ensure(a)
    data = a.data + np.asarray(c, dtype=np.float64)

    def bwd(g):
        a.accumulate_grad(_unbroadcast(g, a.shape))

    return _node(data, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product, batched over leading dimensions like np.matmul.

    Gradients: da = g @ b^T, db = a^T @ g, summed over broadcast batch dims.
    """
    a, b = _ensure(a), _ensure(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    data = a.data @ b.data

    def bwd(g):
        if a.tracked:
            ga = g @ b.data.swapaxes(-1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.tracked:
            if b.data.ndim == 2 and a.data.ndim > 2:
                # batched input against a shared weight: collapse the batch
                # dims up front instead of materializing per-batch gradients
                k, n = b.shape
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape)
            b.accumulate_grad(gb)

    return _node(data, (a, b), bwd)


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = _ensure(a)
    data = np.ascontiguousarray(a.data.swapaxes(ax1, ax2))

    def bwd(g):
        a.accumulate_grad(g.swapaxes(ax1, ax2))

    return _node(data, (a,), bwd)


def reshape(a, shape) -> Tensor:
    a = _ensure(a)
    data = a.data.reshape(shape)

    def bwd(g):
        a.accumulate_grad(g.reshape(a.shape))

    return _node(data, (a,), bwd)


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
        table.accumulate_grad(gt)

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
        a.accumulate_grad(ga)

    return _node(data, (a,), bwd)


# ---------------------------------------------------------------------------
# nonlinearities and normalization


def relu(a) -> Tensor:
    a = _ensure(a)
    data = np.maximum(0.0, a.data)

    def bwd(g):
        # subgradient at 0 is 0
        a.accumulate_grad(g * (a.data > 0))

    return _node(data, (a,), bwd)


def softmax_rows(a) -> Tensor:
    """Row-stabilized softmax over the last axis.

    NaN input raises; -inf entries are allowed and get weight 0 (additive
    attention masking), as long as each row keeps at least one finite entry.
    """
    a = _ensure(a)
    x = a.data
    if np.isnan(x).any():
        raise ValueError("softmax_rows: NaN in input")
    m = np.max(x, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("softmax_rows: a row has no finite entry")
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a.accumulate_grad((g - dot) * y)

    return _node(y, (a,), bwd)


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """Normalize the last axis to mean 0 / population variance 1, then affine."""
    x, gamma, beta = _ensure(x), _ensure(gamma), _ensure(beta)
    d = x.data.shape[-1] if x.data.ndim else 0
    if d == 0:
        raise ShapeError("layer_norm: last dimension must be nonzero")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), "
            f"got {gamma.shape} and {beta.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = gamma.data * xhat + beta.data

    def bwd(g):
        if gamma.tracked:
            gamma.accumulate_grad((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.tracked:
            beta.accumulate_grad(g.reshape(-1, d).sum(axis=0))
        if x.tracked:
            dxhat = g * gamma.data
            gx = inv_std / d * (
                d * dxhat
                - dxhat.sum(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)
            )
            x.accumulate_grad(gx)

    return _node(data, (x, gamma, beta), bwd)


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
        a.accumulate_grad(g * mask)

    return _node(a.data * mask, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions


def sum_all(a) -> Tensor:
    a = _ensure(a)
    data = np.asarray(a.data.sum())

    def bwd(g):
        a.accumulate_grad(np.broadcast_to(g, a.shape).copy())

    return _node(data, (a,), bwd)


# ---------------------------------------------------------------------------
# gradient checking


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
