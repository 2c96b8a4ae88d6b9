"""Declarative chaos scenarios: JSON specs composing faults over a run.

A scenario spec describes one federated run *and* everything that goes
wrong during it — fleet churn (clients joining/leaving per cycle),
shard crashes, straggler waves, flaky links — over the hardware presets
of :mod:`repro.hardware.presets`.  The strategy comes from the table
``repro run`` uses (:data:`~repro.experiments.common.STRATEGIES`), the
model from the experiments' :class:`~repro.experiments.common.SeededModelFactory`.
``repro scenario run examples/scenario_shard_kill.json`` is the CLI
entry point; :func:`run_scenario` the library one.  The spec format and
its validation live in :mod:`repro.experiments.spec`.

Every client trains the registry's ``mlp`` at width 0.25 on the tiny
4-class 8×8 image family; the client at fleet position ``p`` — initial
or joining — draws its data from seed ``seed + p``.  A ``join`` builds
the newcomer and admits it through the strategy's
``register_new_client`` (paper Sec. VI-C): it is profiled against the
collaboration pace and, if it would straggle, given a volume — under
Helios also a soft-training selector and a rotation tracker — before
its first cycle.

The same ``(seed, spec)`` replays the identical event log (events are
cycle-indexed, never timestamped; faults come from the
:class:`~repro.fl.chaos.FaultPlan`'s seeded streams), and under
``on_failure="rebalance"`` the history is bit-identical to
:meth:`~repro.experiments.spec.ScenarioSpec.serial_reference`'s, which
``repro scenario run --assert-serial`` checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.straggler_aware import StragglerAwareStrategy
from ..data.synthetic import (SyntheticImageSpec, VirtualClientDatasets,
                              make_classification_images)
from ..fl.chaos import ChaosController
from ..fl.client import ClientConfig, FLClient
from ..fl.history import TrainingHistory
from ..fl.simulation import FederatedSimulation, build_simulation
from ..fl.strategy import CycleOutcome, FederatedStrategy
from ..hardware.presets import build_fleet, get_device
from .common import STRATEGIES, SeededModelFactory
from .spec import ChurnEvent, ScenarioSpec, load_spec

__all__ = [
    "ScenarioResult",
    "run_scenario",
    "compare_histories",
]

#: The synthetic workload every scenario trains on — the test suite's
#: tiny 4-class image family: fast enough that a multi-cycle scenario
#: with real shard processes stays in CI budgets, real enough that
#: accuracies move and aggregation re-weighting is observable.
_IMAGE_SPEC = SyntheticImageSpec(
    name="scenario", image_shape=(1, 8, 8), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)


@dataclass
class ScenarioResult:
    """What one scenario run produced.

    ``events`` is the append-only per-run log: every injected fault and
    churn action plus one ``cycle_end`` entry per cycle (accuracy,
    loss, participants, dropped clients) — plain dicts, cycle-indexed,
    JSONL-serializable via :meth:`write_events`.  ``strategy`` is the
    strategy the run used, with its admission state (``join_decisions``).
    """

    name: str
    seed: int
    history: TrainingHistory
    events: List[Dict[str, Any]] = field(default_factory=list)
    strategy: Optional[StragglerAwareStrategy] = None

    def write_events(self, path: Union[str, Path]) -> None:
        """Persist the event log as JSON Lines (one event per line)."""
        lines = [json.dumps(event, sort_keys=True) for event in self.events]
        Path(path).write_text("\n".join(lines) + "\n" if lines else "",
                              encoding="utf-8")


class _ScenarioStrategy(FederatedStrategy):
    """Wrap a strategy with per-cycle churn and fault execution.

    Before each inner cycle: apply the cycle's churn (recorded in the
    event log) and let the chaos controller execute the cycle's
    scheduled kills and rotate its fault streams.  The inner strategy
    hears of a joiner through ``register_new_client``, as a deployment
    would tell it, and never of a fault — that is the point: scenarios
    exercise the substrate underneath unmodified strategies.
    """

    def __init__(self, inner: StragglerAwareStrategy,
                 controller: ChaosController,
                 churn: Sequence[ChurnEvent],
                 datasets: VirtualClientDatasets) -> None:
        self.inner = inner
        self.name = inner.name
        self.controller = controller
        self.churn = tuple(churn)
        self.datasets = datasets

    def setup(self, sim: FederatedSimulation) -> None:
        self.inner.setup(sim)

    def _join_client(self, sim: FederatedSimulation, preset: str) -> int:
        """Build one fresh client on ``preset`` and admit it through the
        strategy (Sec. VI-C).

        Its dataset and RNG seeds derive from the fleet position, so a
        scenario replay (and its serial reference run) builds
        bit-identical joiners.
        """
        position = len(sim.clients)
        spec = sim.client(0).spec.replace(
            client_id=position, dataset=self.datasets(position),
            device=get_device(preset), seed=self.datasets.seed + position)
        self.inner.register_new_client(sim, FLClient.from_spec(spec))
        return position

    def execute_cycle(self, cycle: int,
                      sim: FederatedSimulation) -> CycleOutcome:
        self.controller.begin_cycle(cycle)
        for event in self.churn:
            if event.cycle != cycle:
                continue
            for index in event.leave:
                sim.deactivate_client(index)
                self.controller.record("client_leave", client=index)
            for index in event.rejoin:
                sim.reactivate_client(index)
                self.controller.record("client_rejoin", client=index)
            for _ in range(event.join):
                index = self._join_client(sim, event.preset)
                self.controller.record("client_join", client=index,
                                       preset=event.preset)
        return self.inner.execute_cycle(cycle, sim)


def run_scenario(source: Union[str, Path, Dict[str, Any], ScenarioSpec], *,
                 seed: Optional[int] = None,
                 verbose: bool = False) -> ScenarioResult:
    """Execute one scenario and return its history + event log.

    ``source`` is anything :func:`~repro.experiments.spec.load_spec`
    takes; ``seed`` overrides the spec's seed (fleet, faults and jitter
    all derive from it).  :meth:`ScenarioSpec.serial_reference` is the
    run ``--assert-serial`` compares against.
    """
    spec = load_spec(source, seed=seed)
    fleet = spec.fleet
    devices = build_fleet(fleet.num_capable, fleet.num_stragglers)
    datasets = VirtualClientDatasets(_IMAGE_SPEC, fleet.samples_per_client,
                                     spec.seed)
    test_dataset = make_classification_images(
        fleet.test_samples, _IMAGE_SPEC,
        np.random.default_rng(spec.seed + 10_000))
    inner = STRATEGIES[spec.strategy](**dict(spec.strategy_options))
    controller = ChaosController(spec.faults)

    shape = _IMAGE_SPEC.image_shape
    sim = build_simulation(
        model_factory=SeededModelFactory("mlp", shape, _IMAGE_SPEC.num_classes,
                                         0.25, spec.seed + 7),
        client_datasets=[datasets(position)
                         for position in range(len(devices))],
        devices=devices, test_dataset=test_dataset, input_shape=shape,
        client_config=ClientConfig(batch_size=fleet.batch_size,
                                   local_epochs=fleet.local_epochs,
                                   learning_rate=fleet.learning_rate),
        workload_scale=fleet.workload_scale, seed=spec.seed,
        backend=spec.backend.build())
    try:
        if spec.faults.armed:
            sim.backend.attach_chaos(controller)
        wrapper = _ScenarioStrategy(inner, controller, spec.churn, datasets)
        history = sim.run(wrapper, num_cycles=spec.cycles, verbose=verbose)
    finally:
        sim.close()

    events = list(controller.events)
    for record in history.records:
        events.append({
            "cycle": record.cycle, "event": "cycle_end",
            "accuracy": record.global_accuracy,
            "mean_train_loss": record.mean_train_loss,
            "participants": record.participating_clients,
            "dropped_clients": list(record.dropped_clients),
        })
    # Stable by-cycle ordering: each cycle's injections (recorded live,
    # hence earlier in the list) precede its cycle_end summary.
    events.sort(key=lambda event: event["cycle"])
    return ScenarioResult(name=spec.name, seed=spec.seed, history=history,
                          events=events, strategy=inner)


def compare_histories(chaos: TrainingHistory,
                      reference: TrainingHistory) -> List[str]:
    """Bit-exact comparison of two run histories (empty = identical).

    The ``--assert-serial`` check: a rebalance-recovered chaos run must
    match the serial, fault-free reference *exactly* — same cycles,
    same accuracies, same losses, same simulated clock.  Returns
    human-readable mismatch lines, most fundamental first.
    """
    problems: List[str] = []
    if len(chaos.records) != len(reference.records):
        return [f"cycle count differs: {len(chaos.records)} != "
                f"{len(reference.records)}"]
    for ours, theirs in zip(chaos.records, reference.records):
        for field_name in ("cycle", "global_accuracy", "mean_train_loss",
                           "sim_time_s", "participating_clients",
                           "dropped_clients"):
            mine = getattr(ours, field_name)
            ref = getattr(theirs, field_name)
            if mine != ref:
                problems.append(
                    f"cycle {ours.cycle}: {field_name} differs "
                    f"({mine!r} != {ref!r})")
    return problems
