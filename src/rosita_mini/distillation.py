"""Knowledge-distillation losses and the teacher-student layer mapping.

Two kinds of knowledge transfer: softened teacher predictions via a soft
cross-entropy on logits, and teacher hidden states via MSE on mapped
layers (layer 0 = embedding output on both sides).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import ForwardTrace, check_ints
from .tensor import ShapeError, Tensor


@dataclass
class LayerMap:
    """g assigns each student layer (0..L_student) a teacher layer index."""

    teacher_layers: int
    student_layers: int
    g: list[int]

    def __post_init__(self):
        if self.g[0] != 0:
            raise ValueError("layer map must send the embedding to the embedding")
        if any(b <= a for a, b in zip(self.g, self.g[1:])) or self.g[-1] > self.teacher_layers:
            raise ValueError(f"layer map must be strictly increasing within bounds, got {self.g}")


@dataclass
class KDConfig:
    use_pred: bool = True
    use_hidden: bool = False
    hidden_weight: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        check_ints({"use_pred": self.use_pred, "use_hidden": self.use_hidden}, "kd", bool)
        if not (self.use_pred or self.use_hidden):
            raise ValueError("at least one distillation loss must be active")
        check_ints({"hidden_weight": self.hidden_weight, "temperature": self.temperature},
                   "kd", float)
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.hidden_weight < 0:
            raise ValueError("hidden_weight must be nonnegative")


def build_layer_map(teacher_layers: int, student_layers: int) -> LayerMap:
    """Even selection when L_student divides L_teacher; otherwise drop the
    teacher layers whose 1-indexed position is an integer multiple of
    L/L' and assign the rest in order.

    Pairs where the drop rule does not leave exactly L_student layers are
    rejected rather than guessed at.
    """
    L, Ls = teacher_layers, student_layers
    if not 1 <= Ls <= L:
        raise ValueError(f"need 1 <= student layers <= teacher layers, got {Ls} vs {L}")
    if L % Ls == 0:
        stride = L // Ls
        return LayerMap(L, Ls, [l * stride for l in range(Ls + 1)])
    ratio = L / Ls
    kept = [t for t in range(1, L + 1) if (t / ratio) % 1.0 != 0.0]
    if len(kept) != Ls:
        raise ValueError(
            f"drop rule keeps {len(kept)} of {L} teacher layers, student has {Ls}"
        )
    return LayerMap(L, Ls, [0] + kept)


def soft_cross_entropy(z_teacher: Tensor, z_student: Tensor,
                       temperature: float = 1.0) -> Tensor:
    """Mean over the batch of -softmax(z_T/tau) . log softmax(z_S/tau).

    Teacher logits are constants here; the gradient flows only into the
    student logits.
    """
    if z_teacher.shape != z_student.shape or z_student.data.ndim != 2:
        raise ShapeError(
            f"soft_cross_entropy: logits must share a (batch, classes) shape, "
            f"got {z_teacher.shape} and {z_student.shape}"
        )
    tau = float(temperature)
    b = z_student.shape[0]

    def stable_log_softmax(z):
        m = z.max(axis=-1, keepdims=True)
        return z - m - np.log(np.exp(z - m).sum(axis=-1, keepdims=True))

    log_p_t = stable_log_softmax(z_teacher.data / tau)
    p_t = np.exp(log_p_t)
    log_p_s = stable_log_softmax(z_student.data / tau)
    data = np.asarray(-(p_t * log_p_s).sum(axis=-1).mean())

    def bwd(g):
        p_s = np.exp(log_p_s)
        z_student.accumulate_grad(g * (p_s - p_t) / (b * tau), owned=True)

    return T._node(data, (z_student,), bwd)


def hidden_mse(trace_teacher: ForwardTrace, trace_student: ForwardTrace,
               layer_map: LayerMap, mask: np.ndarray | None = None) -> Tensor:
    """Sum over mapped layers of the MSE between teacher and student states.

    Each term is a mean over batch, unmasked sequence positions, and the
    hidden axis, so the loss scale is independent of d_X and padding.
    One node; teacher states are constants, and each tracked student state
    gets gs + gs, gs = (g * weight) * diff, as the product rule adds it.
    """
    t_hidden, s_hidden = trace_teacher.hidden, trace_student.hidden
    if len(s_hidden) != layer_map.student_layers + 1:
        raise ValueError(
            f"student trace has {len(s_hidden) - 1} layers, map expects "
            f"{layer_map.student_layers}"
        )
    if len(t_hidden) != layer_map.teacher_layers + 1:
        raise ValueError(
            f"teacher trace has {len(t_hidden) - 1} layers, map expects "
            f"{layer_map.teacher_layers}"
        )
    if t_hidden[0].shape[-1] != s_hidden[0].shape[-1]:
        raise ShapeError(
            f"hidden_mse: teacher d_X {t_hidden[0].shape[-1]} != "
            f"student d_X {s_hidden[0].shape[-1]}"
        )
    d = s_hidden[0].shape[-1]
    if mask is None:
        mask = np.ones(s_hidden[0].shape[:2])
    weight = mask[:, :, None] / (mask.sum() * d)

    diffs = [s.data - t_hidden[l_t].data for s, l_t in zip(s_hidden, layer_map.g)]
    total = sum((diff * diff * weight).sum() for diff in diffs)  # 0 + term 0 is term 0

    def bwd(g):
        for state, diff in zip(s_hidden, diffs):
            if state.tracked:
                gs = (g * weight) * diff
                state.accumulate_grad(gs + gs, owned=True)

    return T._node(np.asarray(total), tuple(s_hidden), bwd)
