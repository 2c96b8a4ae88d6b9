"""Shared experiment plumbing: scales, fleet construction, strategy runs.

Every experiment module builds on the same recipe:

1. pick a *scale* (how large the synthetic datasets/models are — the paper's
   workloads are far too heavy for a pure-NumPy substrate, so experiments
   default to reduced sizes that preserve the comparisons),
2. build a fleet of capable devices and stragglers with the paper's device
   presets,
3. run every strategy — named in :data:`STRATEGIES`, the one table
   ``repro run`` and ``repro scenario run`` share — on an identical fresh
   simulation, and
4. reduce the histories to the rows/series the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import FunctionType
from typing import (Any, Callable, Dict, NamedTuple, Optional, Sequence,
                    Tuple, Union, get_type_hints)

import numpy as np

from ..baselines import (AFOStrategy, AsynchronousFLStrategy,
                         FixedPruningStrategy, RandomMaskingStrategy,
                         SynchronousFLStrategy)
from ..core.helios import HeliosConfig, HeliosStrategy
from ..data import Dataset, load_synthetic_dataset, partition_dataset
from ..fl import (ClientConfig, ExecutionBackend, FederatedSimulation,
                  TrainingHistory, build_simulation, make_backend,
                  make_client_specs)
from ..fl.strategy import FederatedStrategy
from ..hardware import CommunicationModel, build_fleet
from ..nn.model import Sequential
from ..nn.models import build_model

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "DATASET_MODEL",
    "ExperimentSetting",
    "SeededModelFactory",
    "StrategyEntry",
    "STRATEGIES",
    "make_simulation_factory",
    "run_strategies",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Size knobs shared by all experiments.

    ``smoke`` is meant for unit tests, ``fast`` for the default benchmark
    harness, ``full`` for longer runs that sharpen the curves.
    """

    name: str
    num_train: int
    num_test: int
    width_multiplier: float
    num_cycles: int
    batch_size: int
    learning_rate: float
    local_epochs: int
    workload_scale: float
    eval_every: int = 1

    def scaled_cycles(self, factor: float) -> int:
        """A cycle count scaled by ``factor`` (at least 2)."""
        return max(2, int(round(self.num_cycles * factor)))


SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke", num_train=240, num_test=80, width_multiplier=0.25,
        num_cycles=3, batch_size=20, learning_rate=0.08, local_epochs=1,
        workload_scale=60.0),
    "fast": ExperimentScale(
        name="fast", num_train=1000, num_test=250, width_multiplier=0.4,
        num_cycles=12, batch_size=32, learning_rate=0.05, local_epochs=1,
        workload_scale=40.0),
    "full": ExperimentScale(
        name="full", num_train=2400, num_test=600, width_multiplier=0.6,
        num_cycles=25, batch_size=32, learning_rate=0.05, local_epochs=1,
        workload_scale=25.0),
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale preset by name."""
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(SCALES)}")
    return SCALES[name]


#: The paper's dataset→model pairing (Sec. VII-A).
DATASET_MODEL: Dict[str, str] = {
    "mnist": "lenet",
    "cifar10": "alexnet",
    "cifar100": "resnet",
}

#: Relative cost of the model families on the NumPy substrate; experiment
#: runners shrink the heavier pairings so a full figure stays tractable.
_PAIR_ADJUSTMENTS: Dict[str, Dict[str, float]] = {
    "mnist": {"width": 1.0, "train": 1.0, "cycles": 1.0},
    "cifar10": {"width": 0.25, "train": 0.6, "cycles": 0.75},
    "cifar100": {"width": 0.2, "train": 0.5, "cycles": 0.6},
}


@dataclass(frozen=True)
class ExperimentSetting:
    """One concrete collaboration setting (dataset, fleet, partition)."""

    dataset: str
    model: str
    num_capable: int
    num_stragglers: int
    partition: str = "iid"
    shards_per_client: int = 2
    seed: int = 0

    @property
    def num_clients(self) -> int:
        return self.num_capable + self.num_stragglers

    @property
    def label(self) -> str:
        return (f"{self.model}-{self.dataset}-"
                f"{self.num_stragglers}strag-{self.num_capable}cap-"
                f"{self.partition}")


def _adjusted(scale: ExperimentScale, dataset: str) -> Tuple[float, int, int]:
    """(width, num_train, num_cycles) adjusted for the dataset/model pair."""
    adjust = _PAIR_ADJUSTMENTS.get(dataset, _PAIR_ADJUSTMENTS["mnist"])
    width = scale.width_multiplier * adjust["width"]
    num_train = max(scale.num_train // 4,
                    int(round(scale.num_train * adjust["train"])))
    cycles = scale.scaled_cycles(adjust["cycles"])
    return width, num_train, cycles


@dataclass(frozen=True)
class SeededModelFactory:
    """Picklable deterministic model factory.

    Experiment fleets used to close over these values in a local function,
    which the process-based execution backends cannot pickle; a frozen
    dataclass with a ``__call__`` ships to worker processes cleanly and
    still builds the exact same seeded model every time.  It rides inside
    each client's :class:`~repro.fl.client.ClientSpec`, which is what the
    ``persistent`` backend ships to a worker exactly once per client.
    """

    model_name: str
    input_shape: Tuple[int, ...]
    num_classes: int
    width_multiplier: float
    seed: int

    def __call__(self) -> Sequential:
        return build_model(self.model_name, self.input_shape,
                           self.num_classes,
                           width_multiplier=self.width_multiplier,
                           rng=np.random.default_rng(self.seed))


class StrategyEntry(NamedTuple):
    """One row of :data:`STRATEGIES`: a constructor whose keywords are
    the annotated parameters of ``annotated``'s constructors (default:
    ``build``'s) but the ``fixed`` ones."""

    build: Callable[..., FederatedStrategy]
    annotated: Optional[type] = None
    fixed: Tuple[str, ...] = ()

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(self.types())

    def __call__(self, **options) -> FederatedStrategy:
        """A fresh strategy; an option outside :attr:`keys` is refused."""
        unknown = sorted(set(options) - set(self.keys))
        if unknown:
            raise ValueError(f"unknown strategy key {unknown[0]!r}; "
                             f"available: {', '.join(self.keys)}")
        return self.build(**options)

    def types(self) -> Dict[str, Any]:
        """Each keyword's annotation, from the constructors along the
        MRO."""
        hints: Dict[str, Any] = {}
        for klass in reversed((self.annotated or self.build).__mro__):
            init = vars(klass).get("__init__")
            if isinstance(init, FunctionType):
                hints.update(get_type_hints(init))
        return {key: hint for key, hint in hints.items()
                if key not in ("return",) + self.fixed}


def _helios(**config) -> HeliosStrategy:
    return HeliosStrategy(HeliosConfig(**config))


def _st_only(**config) -> HeliosStrategy:
    """Helios soft-training with plain FedAvg aggregation instead of
    Eq. 10's weights: the paper's "S.T. Only" ablation (Fig. 6)."""
    return HeliosStrategy(HeliosConfig(aggregation="fedavg", **config))


#: Every compared strategy by name, for the figures and for a scenario
#: spec's ``strategy`` section; Helios and S.T. Only take
#: :class:`~repro.core.helios.HeliosConfig` fields.
STRATEGIES: Dict[str, StrategyEntry] = {
    "sync_fl": StrategyEntry(SynchronousFLStrategy),
    "async_fl": StrategyEntry(AsynchronousFLStrategy),
    "afo": StrategyEntry(AFOStrategy),
    "random": StrategyEntry(RandomMaskingStrategy),
    "fixed_pruning": StrategyEntry(FixedPruningStrategy),
    "st_only": StrategyEntry(_st_only, HeliosConfig, ("aggregation",)),
    "helios": StrategyEntry(_helios, HeliosConfig),
}


def make_simulation_factory(setting: ExperimentSetting,
                            scale: ExperimentScale
                            ) -> Tuple[Callable[[], FederatedSimulation], int]:
    """Build a factory producing identical fresh simulations for a setting.

    Returns ``(factory, num_cycles)`` where ``num_cycles`` already accounts
    for the dataset/model cost adjustment.  Execution-backend selection
    lives in :func:`run_strategies`, which shares one pool across every
    strategy run and owns its shutdown.
    """
    width, num_train, num_cycles = _adjusted(scale, setting.dataset)
    train, test = load_synthetic_dataset(
        setting.dataset, num_train=num_train, num_test=scale.num_test,
        seed=setting.seed)
    partition_rng = np.random.default_rng(setting.seed + 1)
    client_datasets = partition_dataset(
        train, setting.num_clients, strategy=setting.partition,
        rng=partition_rng, shards_per_client=setting.shards_per_client)
    devices = build_fleet(setting.num_capable, setting.num_stragglers)
    input_shape = train.sample_shape
    client_config = ClientConfig(
        batch_size=scale.batch_size,
        local_epochs=scale.local_epochs,
        learning_rate=scale.learning_rate)
    model_factory = SeededModelFactory(
        model_name=setting.model, input_shape=input_shape,
        num_classes=train.num_classes, width_multiplier=width,
        seed=setting.seed + 7)
    # The spec list is built once and shared: specs are immutable and
    # picklable, every fresh simulation builds its own runtime state
    # (model replicas, RNGs) from them.
    client_specs = make_client_specs(
        model_factory, client_datasets, devices,
        client_config=client_config, seed=setting.seed)

    def simulation_factory() -> FederatedSimulation:
        return build_simulation(
            model_factory, client_specs=client_specs,
            test_dataset=test, input_shape=input_shape,
            comm_model=CommunicationModel(),
            workload_scale=scale.workload_scale,
            seed=setting.seed)

    return simulation_factory, num_cycles


def run_strategies(simulation_factory: Callable[[], FederatedSimulation],
                   strategies: Sequence[FederatedStrategy],
                   num_cycles: int, eval_every: int = 1,
                   verbose: bool = False,
                   backend: Union[None, str, ExecutionBackend] = None
                   ) -> Dict[str, TrainingHistory]:
    """Run every strategy on its own fresh copy of the simulation.

    ``backend`` (optional, a name or an instance) overrides the
    execution backend of every fresh simulation; one instance is shared
    across the strategy runs and closed afterwards when this function
    built it.
    """
    shared_backend = make_backend(backend) if backend is not None else None
    owns_backend = (shared_backend is not None
                    and not isinstance(backend, ExecutionBackend))
    histories: Dict[str, TrainingHistory] = {}
    try:
        for strategy in strategies:
            simulation = simulation_factory()
            if shared_backend is not None:
                simulation.set_backend(shared_backend)
            histories[strategy.name] = simulation.run(
                strategy, num_cycles=num_cycles, eval_every=eval_every,
                verbose=verbose)
    finally:
        if owns_backend:
            shared_backend.close()
    return histories
