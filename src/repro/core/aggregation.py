"""Heterogeneity-aware model aggregation (paper Sec. VI-B, Eq. 10).

When stragglers upload partial models, cycles mix updates with very
different structural completeness.  Helios weights every device's
contribution by the completeness of the model it actually trained:

    α_n = r_n / Σ_k r_k

where ``r_n`` is the fraction of neurons device ``n`` selected this cycle.
A more complete update therefore moves the global model more.  The weights
can optionally be combined with the classical FedAvg sample-count weights.

Both inputs are known before any client trains — ``r_n`` is the active
fraction of the mask drawn for it, the sample count that of its dataset —
so Helios computes the weights before dispatch and the workers fold with
them (:meth:`~repro.fl.simulation.FederatedSimulation.train_and_aggregate`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..fl.aggregation import normalize_weights
from ..nn.masking import ModelMask

__all__ = ["heterogeneity_ratios", "heterogeneity_weights"]


def heterogeneity_ratios(masks: Sequence[Optional[ModelMask]]
                         ) -> List[float]:
    """Per-client trained-neuron ratio ``r_n`` (1.0 for no mask)."""
    return [mask.active_fraction() if mask is not None else 1.0
            for mask in masks]


def heterogeneity_weights(fractions: Sequence[float],
                          sample_counts: Sequence[int],
                          combine_with_sample_counts: bool = True,
                          ratio_exponent: float = 1.0
                          ) -> np.ndarray:
    """Aggregation weights ``α_n`` for one cycle's clients.

    Parameters
    ----------
    fractions:
        Each client's trained-neuron ratio ``r_n``
        (:func:`heterogeneity_ratios` of its mask).
    sample_counts:
        Each client's local sample count, parallel to ``fractions``.
    combine_with_sample_counts:
        Multiply ``α_n`` by the FedAvg sample-count weight so devices with
        larger local datasets keep their proportional influence (the paper
        formulates Eq. 10 on top of the FedAvg objective).
    ratio_exponent:
        Exponent applied to ``r_n`` before normalization; 1.0 reproduces
        the paper, values > 1 emphasize complete models more aggressively
        (exposed for the ablation benchmark).

    Returns
    -------
    np.ndarray
        Normalized weights summing to 1, aligned with ``fractions``.
    """
    if len(fractions) == 0:
        raise ValueError("need at least one client")
    if len(sample_counts) != len(fractions):
        raise ValueError("need exactly one sample count per fraction")
    if ratio_exponent < 0:
        raise ValueError("ratio_exponent must be non-negative")
    ratios = np.asarray(fractions, dtype=np.float64)
    if np.any(ratios <= 0):
        raise ValueError("neuron fractions must be positive")
    alpha = ratios ** ratio_exponent
    if combine_with_sample_counts:
        alpha = alpha * normalize_weights(sample_counts)
    return normalize_weights(alpha)
