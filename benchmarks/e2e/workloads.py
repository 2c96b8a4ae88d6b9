"""The four workloads: what set-up builds and what the timed run executes.

Imported as ``benchmarks.e2e.workloads`` in the repetition interpreter
*and* in the shard workers it spawns (they unpickle ``BenchMlpFactory``
by this module path), never as ``__main__``.

Backends are created only through ``sim.set_backend(name, max_workers=,
aggregation=)``; every other option stays at its library default, so a
later change of a default (fusion, arena, delta shipping) shows up in
the numbers without editing this file.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional

import numpy as np

from repro.baselines.sync_fl import SynchronousFLStrategy
from repro.core.helios import HeliosConfig, HeliosStrategy
from repro.data.synthetic import (SyntheticImageSpec, VirtualClientDatasets,
                                  make_classification_images)
from repro.experiments.common import (SCALES, ExperimentScale,
                                      ExperimentSetting,
                                      make_simulation_factory)
from repro.fl import (ClientConfig, FLClient, FLServer, FederatedSimulation,
                      VirtualFleet)
from repro.fl.strategy import CycleOutcome, FederatedStrategy
from repro.hardware import DeviceProfile
from repro.metrics.convergence import speedup_over
from repro.nn.layers import Dense, Flatten, ReLU
from repro.nn.model import Sequential

#: Cycles per repetition, the issue's sizes.  Fewer would fit more
#: repetitions into a time-boxed run, but the first cycles of a
#: repetition are its noisy ones (worker/shard spawn in cycle 1 of the
#: resident workloads, 0.25-1.4 s; first-touch page faults in cycles 1-2
#: of the LeNet panel, 0-0.7 s of kernel time from one repetition to the
#: next), and at a third of these counts they were half of
#: ``run_wall_s`` and moved the median cycle.
CYCLES: Dict[str, int] = {
    "fig5_lenet_serial": 12,
    "fleet32_persistent": 30,
    "fleet32_sharded_hier": 30,
    "virtual2k_sharded": 5,
}
SMOKE_CYCLES = 2
VIRTUAL_CLIENTS = 2000
SMOKE_VIRTUAL_CLIENTS = 200

#: Worker / shard count of the resident backends.
NUM_WORKERS = min(2, os.cpu_count() or 1)

_FLEET32_SCALE = ExperimentScale(
    "bench", num_train=2560, num_test=250, width_multiplier=1.0,
    num_cycles=30, batch_size=8, learning_rate=0.05, local_epochs=1,
    workload_scale=40.0)

_VIRTUAL_SPEC = SyntheticImageSpec(
    name="bench", image_shape=(1, 8, 8), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)
_VIRTUAL_DEVICE = DeviceProfile(
    name="bench-node", compute_gflops=50.0, memory_bandwidth_gbps=10.0,
    network_bandwidth_mbps=100.0, memory_capacity_mb=1024.0)
_VIRTUAL_REAL_CLIENTS = 6
_VIRTUAL_SAMPLES = 8
_VIRTUAL_TEST_SAMPLES = 40

SpanFactory = Callable[[str], ContextManager[None]]


def no_span(name: str) -> ContextManager[None]:
    return nullcontext()


@dataclass(frozen=True)
class BenchMlpFactory:
    """Picklable seeded 64 -> 16 -> 4 MLP of the virtual fleet."""

    seed: int

    def __call__(self) -> Sequential:
        rng = np.random.default_rng(self.seed)
        return Sequential([
            Flatten(name="flatten"),
            Dense(64, 16, rng=rng, name="fc1"),
            ReLU(name="relu1"),
            Dense(16, 4, rng=rng, name="output"),
        ], name="bench-mlp")


class TimedStrategy(FederatedStrategy):
    """Delegates to ``inner`` and timestamps the start of every cycle.

    ``setup`` is a no-op: the harness ran ``inner.setup(sim)`` during
    set-up, so that identification and volume search count into
    ``setup_s`` and not into the first cycle.
    """

    def __init__(self, inner: FederatedStrategy, tracer=None) -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.cycle_starts: List[float] = []

    def setup(self, sim: FederatedSimulation) -> None:
        pass

    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        self.cycle_starts.append(time.perf_counter())
        if self.tracer is None:
            return self.inner.execute_cycle(cycle, sim)
        self.tracer.cycle = cycle
        with self.tracer.span("simulation.cycle"):
            return self.inner.execute_cycle(cycle, sim)


@dataclass
class Session:
    """One repetition's objects, ready for cycle 1."""

    name: str
    sim: FederatedSimulation
    num_cycles: int
    #: Fresh simulation on the same inputs with the library-default
    #: (serial) backend — the probes' serial twin.
    new_simulation: Callable[[], FederatedSimulation]
    strategy: Optional[FederatedStrategy] = None
    fleet: Optional[VirtualFleet] = None

    @property
    def ops_per_cycle(self) -> int:
        if self.fleet is not None:
            return self.fleet.num_clients
        return len(self.sim.client_indices())

    def samples_per_op(self, index: int) -> int:
        """Training samples one client training consumes."""
        if self.fleet is not None:
            return _VIRTUAL_SAMPLES * self.fleet.config.local_epochs
        client = self.sim.clients[index]
        return client.num_samples * client.config.local_epochs


def _set_backend(sim: FederatedSimulation, name: str,
                 aggregation: Optional[str], span: SpanFactory) -> None:
    with span("executor.spawn"):
        if name == "serial":
            sim.set_backend("serial", aggregation=aggregation)
        else:
            sim.set_backend(name, max_workers=NUM_WORKERS,
                            aggregation=aggregation)


def _build_experiment(name: str, setting: ExperimentSetting,
                      scale: ExperimentScale,
                      strategy: FederatedStrategy, backend: str,
                      aggregation: Optional[str], num_cycles: int,
                      span: SpanFactory) -> Session:
    with span("experiments.build"):
        factory, _ = make_simulation_factory(setting, scale)
        sim = factory()
    _set_backend(sim, backend, aggregation, span)
    with span("core.setup"):
        strategy.setup(sim)
    return Session(name=name, sim=sim, num_cycles=num_cycles,
                   new_simulation=factory, strategy=strategy)


def _virtual_simulation(seed: int) -> FederatedSimulation:
    """The 6-client real fleet that owns the server and the test set
    (the recipe of ``bench_substrate._payload_fleet``, seeded)."""
    model_factory = BenchMlpFactory(seed + 3)
    train_samples = _VIRTUAL_SAMPLES * _VIRTUAL_REAL_CLIENTS
    pool = make_classification_images(
        train_samples + _VIRTUAL_TEST_SAMPLES, _VIRTUAL_SPEC,
        np.random.default_rng(seed))
    config = ClientConfig(batch_size=10, local_epochs=1, learning_rate=0.1)
    clients = [
        FLClient(client_id=index,
                 dataset=pool.subset(np.arange(index * _VIRTUAL_SAMPLES,
                                               (index + 1) * _VIRTUAL_SAMPLES)),
                 device=_VIRTUAL_DEVICE, model_factory=model_factory,
                 config=config)
        for index in range(_VIRTUAL_REAL_CLIENTS)
    ]
    server = FLServer(model_factory, test_dataset=pool.subset(
        np.arange(train_samples, len(pool))))
    return FederatedSimulation(clients, server, input_shape=(1, 8, 8),
                               seed=seed)


def build(name: str, seed: int, smoke: bool = False,
          backend: Optional[str] = None,
          span: SpanFactory = no_span) -> Session:
    """Set one workload up.  ``backend="serial"`` builds the reference
    the verification pass compares digests against."""
    cycles = SMOKE_CYCLES if smoke else CYCLES[name]
    if name == "fig5_lenet_serial":
        return _build_experiment(
            name, ExperimentSetting("mnist", "lenet", num_capable=2,
                                    num_stragglers=2, seed=seed),
            SCALES["fast"],
            HeliosStrategy(HeliosConfig(straggler_top_k=2, seed=seed)),
            "serial", None, cycles, span)
    if name == "fleet32_persistent":
        return _build_experiment(
            name, ExperimentSetting("mnist", "mlp", num_capable=16,
                                    num_stragglers=16, seed=seed),
            _FLEET32_SCALE,
            HeliosStrategy(HeliosConfig(straggler_top_k=16, seed=seed)),
            backend or "persistent", None, cycles, span)
    if name == "fleet32_sharded_hier":
        return _build_experiment(
            name, ExperimentSetting("mnist", "mlp", num_capable=16,
                                    num_stragglers=16, seed=seed),
            _FLEET32_SCALE,
            SynchronousFLStrategy(straggler_top_k=16, seed=seed),
            backend or "sharded", "hierarchical", cycles, span)
    if name == "virtual2k_sharded":
        with span("experiments.build"):
            sim = _virtual_simulation(seed)
            fleet = VirtualFleet(
                num_clients=(SMOKE_VIRTUAL_CLIENTS if smoke
                             else VIRTUAL_CLIENTS),
                dataset_factory=VirtualClientDatasets(
                    _VIRTUAL_SPEC, samples_per_client=_VIRTUAL_SAMPLES,
                    seed=seed),
                device=_VIRTUAL_DEVICE,
                model_factory=BenchMlpFactory(seed + 3),
                config=ClientConfig(batch_size=8, local_epochs=1,
                                    learning_rate=0.1),
                seed=seed)
        _set_backend(sim, backend or "sharded", "hierarchical", span)
        return Session(name=name, sim=sim, num_cycles=cycles,
                       new_simulation=lambda: _virtual_simulation(seed),
                       fleet=fleet)
    raise KeyError(f"unknown workload {name!r}")


def fig5_fidelity(seed: int, smoke: bool = False) -> Dict[str, Any]:
    """Paper fidelity of the Fig. 5(a) panel (a count, not a timing):
    simulated time-to-target of Helios against one Syn. FL run at the
    full ``fast`` scale, target 0.9 x Syn. FL's converged accuracy."""
    setting = ExperimentSetting("mnist", "lenet", num_capable=2,
                                num_stragglers=2, seed=seed)
    factory, num_cycles = make_simulation_factory(setting, SCALES["fast"])
    if smoke:
        num_cycles = SMOKE_CYCLES
    histories = {}
    for strategy in (HeliosStrategy(HeliosConfig(straggler_top_k=2,
                                                 seed=seed)),
                     SynchronousFLStrategy(straggler_top_k=2, seed=seed)):
        with factory() as sim:
            histories[strategy.name] = sim.run(strategy, num_cycles)
    helios, sync = histories["Helios"], histories["Syn. FL"]
    target = 0.9 * sync.converged_accuracy()
    return {
        "cycles": num_cycles,
        "target_accuracy": target,
        # None when a run never reaches the target (possible in smoke).
        "helios_speedup_vs_sync": speedup_over(helios, sync, target),
        "helios_final_accuracy": helios.final_accuracy(),
        "sync_final_accuracy": sync.final_accuracy(),
    }
