"""rosita_mini: desk-scale transformer encoder compression toolkit.

Structured weight pruning (first-order Taylor importance), low-rank
factorization of the token embedding, and multi-stage knowledge
distillation, driven by a config-file pipeline and CLI.
"""

__version__ = "0.1.0"

from .tensor import Tensor, ShapeError
from .model import Model, ModelConfig, ForwardTrace, count_params

__all__ = [
    "Tensor",
    "ShapeError",
    "Model",
    "ModelConfig",
    "ForwardTrace",
    "count_params",
]
