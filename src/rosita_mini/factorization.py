"""SVD of the token-embedding matrix and rank truncation into two factors.

The decomposition is LAPACK's, through `np.linalg.svd`; this module adds
input checks, an exact rank rule and a sign convention that make the
factors reproducible, then splits the r leading components into the two
embedding factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import Model, param_shapes
from .tensor import ShapeError, Tensor


@dataclass
class SVDResult:
    """Thin SVD W = U @ diag(sigma) @ V with sigma sorted nonincreasing."""

    U: np.ndarray      # (m, k), orthonormal columns
    sigma: np.ndarray  # (k,), nonincreasing, nonnegative
    V: np.ndarray      # (k, n), orthonormal rows


def svd(w: np.ndarray) -> SVDResult:
    """Full thin SVD of a real matrix (LAPACK, via `np.linalg.svd`).

    Singular values at or below eps * max(m, n) * sigma_1 are set to
    exactly 0. Sign convention: the first entry of each U column with
    magnitude above machine-level noise is made nonnegative, so factors
    are reproducible.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeError(f"svd: expected a matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("svd: input has non-finite entries")
    u, sigma, vt = np.linalg.svd(w, full_matrices=False)
    tiny = np.finfo(float).eps * max(w.shape) * (sigma[0] if sigma.size else 0.0)
    sigma[sigma <= tiny] = 0.0

    # make the first significantly-nonzero entry of each U column nonnegative
    scale = np.abs(u).max(axis=0, initial=0.0)
    for c in range(u.shape[1]):
        nz = np.nonzero(np.abs(u[:, c]) > 1e-12 * max(scale[c], 1.0))[0]
        if nz.size and u[nz[0], c] < 0:
            u[:, c] = -u[:, c]
            vt[c, :] = -vt[c, :]
    return SVDResult(U=u, sigma=sigma, V=vt)


def truncate(result: SVDResult, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Keep the r largest components; sqrt(sigma) absorbed into both factors.

    Returns (E_U, E_V) with E_U = U_r sqrt(S_r) and E_V = sqrt(S_r) V_r, so
    both factors sit on a comparable scale for later scoring and training.
    """
    k = result.sigma.shape[0]
    if not 1 <= r <= k:
        raise ValueError(f"truncate: rank {r} outside [1, {k}]")
    root = np.sqrt(result.sigma[:r])
    e_u = result.U[:, :r] * root
    e_v = root[:, None] * result.V[:r, :]
    return e_u, e_v


def factorize_model_embedding(model: Model, rank: int) -> None:
    """Swap a model's dense token embedding for rank-truncated SVD factors."""
    if model.config.factorized:
        raise RuntimeError("embedding is already factorized")
    if not 1 <= rank <= model.config.full_rank:
        raise ValueError(f"factorization rank {rank} outside [1, {model.config.full_rank}]")
    dense = model.params["emb.W"]
    e_u, e_v = truncate(svd(dense.data), rank)
    config = replace(model.config, r=rank)
    params = {**model.params, "emb.E_U": Tensor(e_u, requires_grad=dense.requires_grad),
              "emb.E_V": Tensor(e_v, requires_grad=dense.requires_grad)}
    factorized = Model(config, {name: params[name] for name in param_shapes(config)})
    model.config, model.params = factorized.config, factorized.params
