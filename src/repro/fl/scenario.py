"""Declarative chaos scenarios: JSON specs composing faults over a run.

A scenario spec describes one federated run *and* everything that goes
wrong during it — fleet churn (clients joining/leaving per cycle),
shard crashes, straggler waves, flaky links — over the hardware presets
of :mod:`repro.hardware.presets`, executed through the existing
strategies.  ``repro scenario run examples/scenario_shard_kill.json``
is the CLI entry point; :func:`run_scenario` the library one.

Spec format (every section optional unless noted)::

    {
      "name": "shard-kill-rebalance",
      "seed": 7,
      "cycles": 4,                       # required
      "fleet": {
        "num_capable": 2, "num_stragglers": 1,
        "samples_per_client": 40,
        "batch_size": 20, "local_epochs": 1, "learning_rate": 0.1,
        "workload_scale": 200.0
      },
      "strategy": {"name": "sync_fl"},
      "backend": {
        "name": "sharded", "workers": 2,
        "on_failure": "rebalance"        # abort | rebalance | degrade
      },
      "faults": { ... FaultPlan spec, see repro.fl.chaos ... },
      "churn": [
        {"cycle": 2, "leave": [2]},      # deactivate clients
        {"cycle": 3, "join": 1},         # add fresh clients
        {"cycle": 4, "rejoin": [2]}      # reactivate departed clients
      ]
    }

Determinism contract
--------------------
A scenario is replayable end to end: the fleet is built from seeds
derived from the spec's ``seed``, every fault decision comes from the
:class:`~repro.fl.chaos.FaultPlan`'s seeded streams, and the event log
records cycle indices, never timestamps — so the same ``(seed, spec)``
produces the identical event log twice, and under
``on_failure="rebalance"`` the history is bit-identical to the same
scenario on the serial backend with no faults at all (which is what
``repro scenario run --assert-serial`` checks).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..baselines import (AFOStrategy, AsynchronousFLStrategy,
                         SynchronousFLStrategy)
from ..data.synthetic import SyntheticImageSpec, make_classification_images
from ..hardware.presets import build_fleet, get_device
from ..nn.layers import Dense, Flatten, ReLU
from ..nn.model import Sequential
from .chaos import ChaosController, FaultPlan
from .client import ClientConfig, ClientSpec, FLClient
from .history import TrainingHistory
from .simulation import FederatedSimulation, build_simulation
from .strategy import CycleOutcome, FederatedStrategy

__all__ = [
    "SCENARIO_STRATEGIES",
    "ScenarioResult",
    "load_spec",
    "run_scenario",
    "compare_histories",
]

#: Strategies a scenario may name (spec key ``strategy.name``); every
#: remaining key of the ``strategy`` object is passed to the
#: constructor unchanged.
SCENARIO_STRATEGIES = {
    "sync_fl": SynchronousFLStrategy,
    "async_fl": AsynchronousFLStrategy,
    "afo": AFOStrategy,
}

#: The synthetic workload every scenario trains on — the test suite's
#: tiny 4-class image family: fast enough that a multi-cycle scenario
#: with real shard processes stays in CI budgets, real enough that
#: accuracies move and aggregation re-weighting is observable.
_IMAGE_SPEC = SyntheticImageSpec(
    name="scenario", image_shape=(1, 8, 8), num_classes=4, separation=1.2,
    noise_std=0.5, max_shift=1, label_noise=0.0, prototypes_per_class=1,
    smoothness=2)

#: Device preset assigned to clients joining mid-run (churn ``join``
#: entries may override it per entry).
_DEFAULT_JOIN_PRESET = "jetson-nano-gpu"


def _scenario_model(seed: int) -> Sequential:
    """Dense classifier over the scenario image family (picklable)."""
    generator = np.random.default_rng(seed)
    return Sequential([
        Flatten(name="flatten"),
        Dense(64, 16, rng=generator, name="fc1"),
        ReLU(name="relu1"),
        Dense(16, 8, rng=generator, name="fc2"),
        ReLU(name="relu2"),
        Dense(8, 4, rng=generator, name="output"),
    ], name="scenario-mlp")


def _pop_section(spec: Dict[str, Any], key: str) -> Dict[str, Any]:
    section = spec.pop(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"scenario section {key!r} must be an object, "
                         f"not {type(section).__name__}")
    return dict(section)


def _reject_unknown(section: Dict[str, Any], where: str,
                    known: Sequence[str]) -> None:
    if section:
        raise ValueError(f"unknown {where} key {sorted(section)[0]!r}; "
                         f"available: {', '.join(known)}")


@dataclass
class _ChurnEvent:
    """One fleet mutation scheduled for the start of a cycle."""

    cycle: int
    leave: Tuple[int, ...] = ()
    rejoin: Tuple[int, ...] = ()
    join: int = 0
    preset: str = _DEFAULT_JOIN_PRESET


def _parse_churn(entries: Any) -> List[_ChurnEvent]:
    if entries is None:
        return []
    churn: List[_ChurnEvent] = []
    for entry in entries:
        entry = dict(entry)
        cycle = int(entry.pop("cycle"))
        if cycle < 1:
            raise ValueError("churn cycle must be positive")
        event = _ChurnEvent(
            cycle=cycle,
            leave=tuple(int(i) for i in entry.pop("leave", ())),
            rejoin=tuple(int(i) for i in entry.pop("rejoin", ())),
            join=int(entry.pop("join", 0)),
            preset=str(entry.pop("preset", _DEFAULT_JOIN_PRESET)))
        if event.join < 0:
            raise ValueError("churn join count must be non-negative")
        get_device(event.preset)
        _reject_unknown(entry, "churn", ("cycle", "leave", "rejoin",
                                         "join", "preset"))
        churn.append(event)
    return churn


@dataclass
class ScenarioResult:
    """What one scenario run produced.

    ``events`` is the append-only per-run log: every injected fault and
    churn action plus one ``cycle_end`` entry per cycle (accuracy,
    loss, participants, dropped clients) — plain dicts, cycle-indexed,
    JSONL-serializable via :meth:`write_events`.
    """

    name: str
    seed: int
    history: TrainingHistory
    events: List[Dict[str, Any]] = field(default_factory=list)

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
    never knows it is being tormented — that is the point: scenarios
    exercise the substrate underneath unmodified strategies.
    """

    def __init__(self, inner: FederatedStrategy,
                 controller: ChaosController,
                 churn: Sequence[_ChurnEvent],
                 model_seed: int, data_seed: int,
                 samples_per_client: int,
                 client_config: ClientConfig) -> None:
        self.inner = inner
        self.name = inner.name
        self.controller = controller
        self.churn = tuple(churn)
        self.model_seed = model_seed
        self.data_seed = data_seed
        self.samples_per_client = samples_per_client
        self.client_config = client_config

    def setup(self, sim: FederatedSimulation) -> None:
        self.inner.setup(sim)

    def _join_client(self, sim: FederatedSimulation, preset: str) -> int:
        """Build one fresh client on ``preset`` and add it to the fleet.

        The dataset seed derives from the fleet position, so a scenario
        replay (and its serial reference run) builds bit-identical
        joiners.
        """
        position = len(sim.clients)
        dataset = make_classification_images(
            self.samples_per_client, _IMAGE_SPEC,
            np.random.default_rng(self.data_seed + position))
        spec = ClientSpec(
            client_id=position, dataset=dataset, device=get_device(preset),
            model_factory=functools.partial(_scenario_model,
                                            self.model_seed),
            config=self.client_config, seed=self.data_seed + position)
        return sim.add_client(FLClient.from_spec(spec))

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


def load_spec(source: Union[str, Path, Dict[str, Any]]) -> Dict[str, Any]:
    """Load a scenario spec from a path (or pass a dict through)."""
    if isinstance(source, dict):
        return dict(source)
    path = Path(source)
    if not path.is_file():
        raise ValueError(f"scenario spec {str(path)!r} does not exist")
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario spec {str(path)!r} is not valid "
                         f"JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ValueError(f"scenario spec {str(path)!r} must contain a "
                         f"JSON object")
    return spec


def run_scenario(source: Union[str, Path, Dict[str, Any]], *,
                 seed: Optional[int] = None,
                 backend_override: Optional[str] = None,
                 inject: bool = True,
                 verbose: bool = False) -> ScenarioResult:
    """Execute one scenario spec and return its history + event log.

    ``seed`` overrides the spec's seed (fleet, faults and jitter all
    derive from it).  ``backend_override``/``inject=False`` run the
    same scenario on another backend with fault injection disabled —
    the serial reference the ``--assert-serial`` check compares
    against (churn still applies; it is fleet composition, not a
    fault).
    """
    spec = load_spec(source)
    name = str(spec.pop("name", "scenario"))
    spec_seed = spec.pop("seed", 0)
    run_seed = int(spec_seed if seed is None else seed)
    if "cycles" not in spec:
        raise ValueError("scenario spec needs a 'cycles' count")
    cycles = int(spec.pop("cycles"))
    if cycles <= 0:
        raise ValueError("cycles must be positive")

    fleet_spec = _pop_section(spec, "fleet")
    strategy_spec = _pop_section(spec, "strategy")
    backend_spec = _pop_section(spec, "backend")
    fault_spec = _pop_section(spec, "faults")
    churn = _parse_churn(spec.pop("churn", None))
    _reject_unknown(spec, "scenario", ("name", "seed", "cycles", "fleet",
                                       "strategy", "backend", "faults",
                                       "churn"))

    # ------------------------------------------------------------------ #
    # fleet
    # ------------------------------------------------------------------ #
    num_capable = int(fleet_spec.pop("num_capable", 2))
    num_stragglers = int(fleet_spec.pop("num_stragglers", 1))
    samples_per_client = int(fleet_spec.pop("samples_per_client", 40))
    test_samples = int(fleet_spec.pop("test_samples", 60))
    workload_scale = float(fleet_spec.pop("workload_scale", 200.0))
    client_config = ClientConfig(
        batch_size=int(fleet_spec.pop("batch_size", 20)),
        local_epochs=int(fleet_spec.pop("local_epochs", 1)),
        learning_rate=float(fleet_spec.pop("learning_rate", 0.1)))
    _reject_unknown(fleet_spec, "fleet",
                    ("num_capable", "num_stragglers", "samples_per_client",
                     "test_samples", "workload_scale", "batch_size",
                     "local_epochs", "learning_rate"))
    if num_capable + num_stragglers <= 0:
        raise ValueError("fleet must contain at least one client")
    if samples_per_client <= 0:
        raise ValueError("samples_per_client must be positive")
    devices = build_fleet(num_capable, num_stragglers)
    datasets = [make_classification_images(
                    samples_per_client, _IMAGE_SPEC,
                    np.random.default_rng(run_seed + position))
                for position in range(len(devices))]
    test_dataset = make_classification_images(
        test_samples, _IMAGE_SPEC,
        np.random.default_rng(run_seed + 10_000))
    model_factory = functools.partial(_scenario_model, run_seed + 7)

    # ------------------------------------------------------------------ #
    # strategy
    # ------------------------------------------------------------------ #
    strategy_name = str(strategy_spec.pop("name", "sync_fl"))
    try:
        strategy_cls = SCENARIO_STRATEGIES[strategy_name]
    except KeyError:
        raise ValueError(
            f"unknown scenario strategy {strategy_name!r}; available: "
            f"{tuple(sorted(SCENARIO_STRATEGIES))}") from None
    inner = strategy_cls(**strategy_spec)

    # ------------------------------------------------------------------ #
    # backend + faults
    # ------------------------------------------------------------------ #
    backend_name = backend_spec.pop("name", "serial")
    backend_knobs = {
        "max_workers": backend_spec.pop("workers", None),
        "shards": backend_spec.pop("shards", None),
        "on_shard_failure": backend_spec.pop("on_failure", None),
    }
    _reject_unknown(backend_spec, "backend",
                    ("name", "workers", "shards", "on_failure"))
    if backend_override is not None:
        # The serial reference run keeps the fleet and strategy but
        # drops every resident-backend knob along with the backend.
        backend_name = backend_override
        backend_knobs = {}
    plan = FaultPlan.from_spec(fault_spec, seed=run_seed)
    controller = ChaosController(plan)

    sim = build_simulation(
        model_factory=model_factory, client_datasets=datasets,
        devices=devices, test_dataset=test_dataset, input_shape=(1, 8, 8),
        client_config=client_config, workload_scale=workload_scale,
        seed=run_seed)
    try:
        if backend_name != "serial":
            sim.set_backend(backend_name, **backend_knobs)
        plan_is_armed = bool(plan.shard_kills or plan.straggler_waves
                             or plan.has_frame_faults)
        if plan_is_armed and inject:
            # attach_chaos raises on backends without a substrate to
            # injure, so a scenario never silently skips its faults.
            sim.backend.attach_chaos(controller)
        wrapper = _ScenarioStrategy(
            inner, controller, churn, model_seed=run_seed + 7,
            data_seed=run_seed, samples_per_client=samples_per_client,
            client_config=client_config)
        history = sim.run(wrapper, num_cycles=cycles, verbose=verbose)
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
    return ScenarioResult(name=name, seed=run_seed, history=history,
                          events=events)


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
