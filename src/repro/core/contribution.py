"""Neuron collaboration-contribution metric (paper Eq. 1).

The contribution of neuron ``j`` in layer ``i`` after training cycle
``S_k`` is the magnitude of its weight-parameter change during that cycle:

    U_ij(S_k) = θ_ij(S_k) − θ_ij(S_k−1)

Neurons with larger changes are assumed (following Alistarh et al., the
paper's ref. [18]) to contribute more to global-model convergence, and are
therefore kept in the next soft-training cycle.

:func:`neuron_contributions` and :func:`layer_parameter_index` are
implemented once, in :mod:`repro.fl.aggregation`: the worker or shard that
trains a masked job computes Eq. 1 there and returns it with the job's
summary, so Helios never needs the trained weights in the parent.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from ..fl.aggregation import layer_parameter_index, neuron_contributions
from ..nn.model import Sequential

__all__ = ["layer_parameter_index", "neuron_contributions",
           "contributions_from_gradients"]


def contributions_from_gradients(model: Sequential,
                                 gradients: Mapping[str, np.ndarray]
                                 ) -> Dict[str, np.ndarray]:
    """Contribution scores from a gradient snapshot instead of a delta.

    Useful for analysis (Proposition 2 reasons about gradients); the
    magnitude of the gradient plays the same role as the one-cycle weight
    change under plain SGD.
    """
    index = layer_parameter_index(model)
    contributions: Dict[str, np.ndarray] = {}
    for layer_name, entries in index.items():
        totals: np.ndarray = None  # type: ignore[assignment]
        for param_name, axis in entries:
            if param_name not in gradients:
                raise KeyError(f"gradients missing parameter {param_name!r}")
            grad = np.abs(np.asarray(gradients[param_name], dtype=np.float64))
            moved = np.moveaxis(grad, axis, 0)
            change = moved.reshape(moved.shape[0], -1).sum(axis=1)
            totals = change if totals is None else totals + change
        contributions[layer_name] = totals
    return contributions
