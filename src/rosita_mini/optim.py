"""Adam with bias correction, aware of structural surgery.

Moment estimates are keyed by parameter name and sliced with exactly the
same index sets as the parameters when units are pruned, so surviving
entries keep their optimizer state.
"""

from __future__ import annotations

import numpy as np

from .pruning import SurgeryReport
from .tensor import Tensor

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: dict[str, Tensor]):
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, params: dict[str, Tensor], lr: float) -> None:
        """One bias-corrected update; aborts before mutating on NaN/inf grads."""
        if set(params) != set(self.m):
            raise RuntimeError(
                "optimizer state out of sync with parameters "
                "(apply_surgery on the optimizer after pruning)"
            )
        grads = {}
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise FloatingPointError(f"non-finite gradient on {name}; step aborted")
            grads[name] = g

        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for name, p in params.items():
            # m = BETA1 m + (1 - BETA1) g and v = BETA2 v + (1 - BETA2) g g in
            # place, then p - lr (m / bc1) / (sqrt(v / bc2) + EPS) as a new array
            g, m, v = grads[name], self.m[name], self.v[name]
            scratch = (1 - BETA1) * g
            m *= BETA1
            m += scratch
            np.multiply(1 - BETA2, g, out=scratch)
            scratch *= g
            v *= BETA2
            v += scratch
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += EPS
            new = m / bc1
            new *= lr
            new /= scratch
            p.data = np.subtract(p.data, new, out=new)

    def apply_surgery(self, report: SurgeryReport) -> None:
        """Slice moments with the same kept-index sets as the parameters."""
        for name, slices in report.kept.items():
            for axis, kept_idx in slices:
                self.m[name] = np.take(self.m[name], kept_idx, axis=axis)
                self.v[name] = np.take(self.v[name], kept_idx, axis=axis)
        for name in report.removed:
            del self.m[name]
            del self.v[name]
