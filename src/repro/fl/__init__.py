"""Federated-learning substrate: clients, server, aggregation, simulation."""

from .aggregation import (ModelStructure, PartialAggregate, aggregate_full,
                          aggregate_partial, finalize_partials, fold_updates,
                          merge_partials, normalize_weights,
                          sample_count_weights)
from .chaos import ChaosController, FaultPlan
from .client import (ClientConfig, ClientSpec, ClientState, ClientUpdate,
                     FLClient, TrainingSummary)
from .executor import (AGGREGATION_MODES, FAILURE_POLICIES,
                       ExecutionBackend, SerialBackend, ShardError,
                       ShardedSocketBackend, TrainingJob,
                       available_backends, make_backend)
from .history import CycleRecord, TrainingHistory
from .server import FLServer
from .simulation import (FederatedSimulation, VirtualFleet, build_simulation,
                         make_client_specs)
from .strategy import CycleOutcome, FederatedStrategy

__all__ = [
    "FLClient",
    "ClientConfig",
    "ClientSpec",
    "ClientState",
    "ClientUpdate",
    "TrainingSummary",
    "FLServer",
    "ModelStructure",
    "PartialAggregate",
    "aggregate_full",
    "aggregate_partial",
    "fold_updates",
    "merge_partials",
    "finalize_partials",
    "sample_count_weights",
    "normalize_weights",
    "TrainingHistory",
    "CycleRecord",
    "FederatedStrategy",
    "CycleOutcome",
    "FederatedSimulation",
    "VirtualFleet",
    "build_simulation",
    "make_client_specs",
    "ExecutionBackend",
    "SerialBackend",
    "ShardedSocketBackend",
    "ShardError",
    "ChaosController",
    "FaultPlan",
    "AGGREGATION_MODES",
    "FAILURE_POLICIES",
    "TrainingJob",
    "available_backends",
    "make_backend",
]
