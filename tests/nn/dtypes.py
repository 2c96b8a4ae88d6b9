"""Float64 models for the tests that need them.

The substrate trains in float32 and names that dtype in exactly two places
(``Parameter`` and ``Dataset``); no layer, loss or optimizer names one, so
a model whose parameters are float64 computes in float64 throughout.
Nothing in ``src/`` builds such a model.  The gradient checks (central
differences need the digits) and the reference-kernel equivalence suites
(``allclose(rtol=1e-10)``) build theirs here.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import Sequential, iter_leaf_layers

__all__ = ["as_float64"]


def as_float64(module):
    """``module`` — a layer or a ``Sequential`` — with every parameter,
    gradient and buffer widened to float64, in place; returns it."""
    for param in module.parameters():
        param.data = param.data.astype(np.float64)
        param.grad = param.grad.astype(np.float64)
    layers = module.layers if isinstance(module, Sequential) else [module]
    for layer in iter_leaf_layers(layers):
        for name, value in layer.buffers().items():
            layer.set_buffer(name, value)   # follows the parameters' dtype
    return module
