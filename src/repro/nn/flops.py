"""Training-cost estimation (FLOPs, parameters, memory) for models.

The Helios resource-based profiling (paper Sec. IV-B) needs the training
computation workload ``W`` and memory usage ``M`` of a model so that the
analytical cost model ``Te = W/Ccpu + M/Vmc + M/Bn`` can predict per-cycle
training time on a device.  This module derives both quantities from the
actual layer graph by tracing one forward pass and applying standard
per-layer FLOP formulas.

The estimator also accepts per-layer *neuron fractions* so the expected cost
of a soft-trained (shrunk) model can be computed: training only a fraction
``p`` of a layer's neurons removes the corresponding fraction of that
layer's multiply–accumulate work and of the next layer's input work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .layers.base import Layer
from .layers.conv import Conv2D
from .layers.dense import Dense
from .layers.normalization import _BatchNormBase
from .layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from .model import Sequential, iter_leaf_layers

__all__ = ["LayerCost", "ModelCost", "trace_shapes", "estimate_model_cost"]

# A backward pass costs roughly twice the forward pass (one pass for the
# input gradients and one for the weight gradients); training FLOPs are
# therefore taken as 3x inference FLOPs, the convention used by most
# training-cost calculators.
TRAINING_FLOP_MULTIPLIER = 3.0
BYTES_PER_VALUE = 4  # float32 storage assumed by the deployment cost model


@dataclass
class LayerCost:
    """Per-layer cost record."""

    name: str
    layer_type: str
    input_shape: Tuple[int, ...]
    output_shape: Tuple[int, ...]
    inference_flops: float
    parameters: int
    activation_values: int
    num_neurons: int = 0
    neuron_fraction: float = 1.0

    @property
    def training_flops(self) -> float:
        """FLOPs of one training pass (forward + backward) for one sample."""
        return self.inference_flops * TRAINING_FLOP_MULTIPLIER


@dataclass
class ModelCost:
    """Aggregate model cost, the input of the hardware cost model."""

    layer_costs: List[LayerCost] = field(default_factory=list)

    @property
    def inference_flops(self) -> float:
        """Per-sample inference FLOPs."""
        return sum(cost.inference_flops for cost in self.layer_costs)

    @property
    def training_flops(self) -> float:
        """Per-sample training FLOPs (forward + backward)."""
        return sum(cost.training_flops for cost in self.layer_costs)

    @property
    def parameters(self) -> int:
        """Total parameter count."""
        return sum(cost.parameters for cost in self.layer_costs)

    @property
    def parameter_bytes(self) -> float:
        """Parameter storage in bytes."""
        return self.parameters * BYTES_PER_VALUE

    @property
    def activation_values(self) -> int:
        """Total activation values stored for one sample."""
        return sum(cost.activation_values for cost in self.layer_costs)

    def memory_bytes(self, batch_size: int = 1) -> float:
        """Training memory footprint: parameters + gradients + activations."""
        return (2.0 * self.parameter_bytes
                + self.activation_values * BYTES_PER_VALUE * batch_size)

    def memory_megabytes(self, batch_size: int = 1) -> float:
        """Training memory footprint in MB."""
        return self.memory_bytes(batch_size) / 1e6

    def training_gflops(self, num_samples: int = 1) -> float:
        """Training workload in GFLOPs for ``num_samples`` samples."""
        return self.training_flops * num_samples / 1e9


def trace_shapes(model: Sequential,
                 input_shape: Tuple[int, ...]) -> List[Tuple[Layer, Tuple[int, ...], Tuple[int, ...]]]:
    """Record every leaf layer's input/output shape for a single sample.

    Runs one forward pass on a zero batch of size 1 in evaluation mode and
    captures the shapes seen by each leaf layer (shapes exclude the batch
    dimension).
    """
    records: List[Tuple[Layer, Tuple[int, ...], Tuple[int, ...]]] = []
    leaves = list(iter_leaf_layers(model.layers))
    originals = {id(layer): layer.forward for layer in leaves}

    def make_wrapper(layer: Layer):
        original = originals[id(layer)]

        def wrapped(inputs: np.ndarray) -> np.ndarray:
            outputs = original(inputs)
            records.append((layer, tuple(inputs.shape[1:]),
                            tuple(outputs.shape[1:])))
            return outputs

        return wrapped

    was_training = model.training
    model.eval()
    try:
        for layer in leaves:
            layer.forward = make_wrapper(layer)  # type: ignore[method-assign]
        # Traced in the parameters' dtype: a wider dummy would run the
        # whole forward pass promoted.
        params = model.parameters()
        dummy = np.zeros((1,) + tuple(input_shape),
                         dtype=params[0].data.dtype if params else None)
        model.forward(dummy)
    finally:
        for layer in leaves:
            layer.forward = originals[id(layer)]  # type: ignore[method-assign]
        if was_training:
            model.train()
    return records


def _layer_inference_flops(layer: Layer, in_shape: Tuple[int, ...],
                           out_shape: Tuple[int, ...]) -> float:
    """Per-sample inference FLOPs for one leaf layer."""
    out_values = float(np.prod(out_shape)) if out_shape else 0.0
    in_values = float(np.prod(in_shape)) if in_shape else 0.0
    if isinstance(layer, Conv2D):
        kh, kw = layer.kernel_size
        macs = out_values * layer.in_channels * kh * kw
        return 2.0 * macs
    if isinstance(layer, Dense):
        macs = float(layer.in_features * layer.out_features)
        return 2.0 * macs
    if isinstance(layer, _BatchNormBase):
        return 4.0 * out_values
    if isinstance(layer, (MaxPool2D, AvgPool2D)):
        kh, kw = layer.kernel_size
        return out_values * kh * kw
    if isinstance(layer, GlobalAvgPool2D):
        return in_values
    # Activations, dropout, flatten: one (or zero) op per value.
    return out_values


def estimate_model_cost(model: Sequential, input_shape: Tuple[int, ...],
                        neuron_fractions: Optional[Dict[str, float]] = None
                        ) -> ModelCost:
    """Estimate the per-sample cost of training ``model``.

    Parameters
    ----------
    model:
        The model to profile.
    input_shape:
        Shape of a single input sample, e.g. ``(3, 32, 32)``.
    neuron_fractions:
        Optional mapping from maskable-layer name to the fraction of its
        neurons that participate in training (Helios' expected model
        volume).  Each layer's compute shrinks proportionally to its own
        fraction and to the fraction of the *previous* maskable layer
        (fewer input channels/features survive).
    """
    neuron_fractions = neuron_fractions or {}
    records = trace_shapes(model, input_shape)
    layer_costs: List[LayerCost] = []
    previous_fraction = 1.0
    for layer, in_shape, out_shape in records:
        flops = _layer_inference_flops(layer, in_shape, out_shape)
        fraction = 1.0
        if layer.num_neurons > 0:
            fraction = float(neuron_fractions.get(layer.name, 1.0))
            if not 0.0 < fraction <= 1.0:
                raise ValueError(
                    f"neuron fraction for {layer.name!r} must be in (0, 1]; "
                    f"got {fraction}")
            flops *= fraction * previous_fraction
            previous_fraction = fraction
        params = sum(param.size for param in layer.parameters())
        if layer.num_neurons > 0 and fraction < 1.0:
            params = int(round(params * fraction))
        layer_costs.append(LayerCost(
            name=layer.name,
            layer_type=type(layer).__name__,
            input_shape=in_shape,
            output_shape=out_shape,
            inference_flops=flops,
            parameters=params,
            activation_values=int(np.prod(out_shape)) if out_shape else 0,
            num_neurons=layer.num_neurons,
            neuron_fraction=fraction,
        ))
    return ModelCost(layer_costs=layer_costs)
