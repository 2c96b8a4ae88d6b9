"""Pure-NumPy neural-network substrate.

This package replaces the PyTorch dependency of the original Helios
implementation with a small but complete training stack: layers,
losses, optimizers, model containers, FLOP/memory estimation, and
structured (per-neuron) masking — the hook Helios' soft-training uses.
"""

from .parameter import Parameter
from .model import Sequential, iter_leaf_layers
from .masking import ModelMask
from .flops import ModelCost, LayerCost, estimate_model_cost, trace_shapes
from .losses import Loss, MeanSquaredError, SoftmaxCrossEntropy, get_loss
from .optimizers import SGD, Adam, MomentumSGD, Optimizer, get_optimizer
from . import initializers, layers, models

__all__ = [
    "Parameter",
    "Sequential",
    "iter_leaf_layers",
    "ModelMask",
    "ModelCost",
    "LayerCost",
    "estimate_model_cost",
    "trace_shapes",
    "Loss",
    "SoftmaxCrossEntropy",
    "MeanSquaredError",
    "get_loss",
    "Optimizer",
    "SGD",
    "MomentumSGD",
    "Adam",
    "get_optimizer",
    "initializers",
    "layers",
    "models",
]
