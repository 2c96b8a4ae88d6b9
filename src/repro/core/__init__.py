"""Helios core: the paper's primary contribution.

Straggler identification, optimization-target determination, soft-training
(contribution metric, rotating selection, rejoin regulation), convergence
analysis, heterogeneity-aware aggregation, dynamic-join scalability, the
:class:`StragglerAwareStrategy` base Helios and every baseline share (the
same code decides stragglers and volumes and closes a synchronous cycle
for all of them) and the :class:`HeliosStrategy` that ties them together.
"""

from ..fl.aggregation import layer_parameter_index, neuron_contributions
from .aggregation import heterogeneity_ratios, heterogeneity_weights
from .convergence import (SoftTrainingConvergenceAnalysis,
                          analyze_soft_training, descent_upper_bound,
                          expected_active_bound,
                          optimal_selection_probabilities,
                          select_v_for_epsilon,
                          sparsified_gradient_variance)
from .helios import HeliosConfig, HeliosStrategy
from .rotation import NeuronRotationTracker
from .scalability import DynamicJoinManager, JoinDecision
from .selection import SoftTrainingSelector
from .straggler import StragglerIdentifier, StragglerReport
from .straggler_aware import StragglerAwareStrategy
from .targets import OptimizationTargetPolicy, VolumeAssignment

__all__ = [
    "HeliosConfig",
    "HeliosStrategy",
    "StragglerAwareStrategy",
    "StragglerIdentifier",
    "StragglerReport",
    "OptimizationTargetPolicy",
    "VolumeAssignment",
    "SoftTrainingSelector",
    "NeuronRotationTracker",
    "neuron_contributions",
    "layer_parameter_index",
    "heterogeneity_weights",
    "heterogeneity_ratios",
    "DynamicJoinManager",
    "JoinDecision",
    "analyze_soft_training",
    "SoftTrainingConvergenceAnalysis",
    "descent_upper_bound",
    "sparsified_gradient_variance",
    "optimal_selection_probabilities",
    "select_v_for_epsilon",
    "expected_active_bound",
]
