"""Scenario specs: a JSON file parsed once into a frozen :class:`ScenarioSpec`.

A spec describes one federated run *and* everything that goes wrong
during it; :func:`~repro.experiments.scenario.run_scenario` runs it.
Format (every key optional unless noted)::

    {
      "name": "shard-kill-rebalance",
      "seed": 7,
      "cycles": 4,                       # required
      "fleet": {
        "num_capable": 2, "num_stragglers": 1,
        "samples_per_client": 40, "test_samples": 60,
        "batch_size": 20, "local_epochs": 1, "learning_rate": 0.1,
        "workload_scale": 200.0
      },
      "strategy": {"name": "helios", "straggler_top_k": 1},
      "backend": {
        "name": "sharded", "workers": 2,  # or "shards": ["host:port", ...]
        "on_failure": "rebalance"        # abort | rebalance | degrade
      },
      "faults": {
        "shard_kill": [{"cycle": 3, "slot": 1}],
        "straggler_wave": [{"cycles": [2, 3], "slots": [0],
                            "seconds": 0.05}],
        "frame_delay": {"probability": 0.2, "max_seconds": 0.01},
        "frame_drop": {"probability": 0.05},
        "frame_truncate": {"probability": 0.02},
        "connection_reset": {"probability": 0.02}
      },
      "churn": [
        {"cycle": 2, "leave": [2]},      # deactivate clients
        {"cycle": 3, "join": 1,          # add fresh clients
         "preset": "raspberry-pi-4"},    # (default jetson-nano-gpu)
        {"cycle": 4, "rejoin": [2]}      # reactivate departed clients
      ]
    }

``strategy.name`` is a key of :data:`~repro.experiments.common.STRATEGIES`
(default ``sync_fl``); the section's other keys are that entry's
keywords.  ``backend`` holds :class:`~repro.fl.executor.BackendConfig`'s
fields (default ``serial``).

Validation.  Each value's JSON type is checked against the annotation of
the field it feeds (a bool is not an int, an int is a valid float, a
list feeds a tuple, ``null`` only an optional field), then what the spec
fixes across sections: fault and churn cycles within ``1..cycles``, a
``shard_kill`` from cycle 2 (slots start inside cycle 1's batch), slots
below the backend's slot count, no fault on ``serial``, and a churn
``leave``/``rejoin`` naming a client of the fleet at that point.  Every
refusal is one ``ValueError`` naming where it is:
``fleet.num_capable: expected int, got float``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import (Any, Dict, Mapping, Optional, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from ..fl.chaos import FaultPlan, ShardKill, StragglerWave
from ..fl.client import ClientConfig
from ..fl.executor import BackendConfig, BackendOptionError
from ..hardware.presets import DEVICE_PRESETS
from .common import STRATEGIES

__all__ = ["FleetSpec", "ChurnEvent", "ScenarioSpec", "load_spec"]


@dataclass(frozen=True)
class FleetSpec:
    """The initial fleet and its clients' training settings."""

    num_capable: int = 2
    num_stragglers: int = 1
    samples_per_client: int = 40
    test_samples: int = 60
    batch_size: int = 20
    local_epochs: int = 1
    learning_rate: float = 0.1
    workload_scale: float = 200.0

    def __post_init__(self) -> None:
        if min(self.num_capable, self.num_stragglers) < 0 or \
                self.num_capable + self.num_stragglers == 0:
            raise ValueError("needs at least one client and no negative "
                             "count")
        for name in ("samples_per_client", "test_samples", "workload_scale"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        ClientConfig(batch_size=self.batch_size,
                     local_epochs=self.local_epochs,
                     learning_rate=self.learning_rate)


@dataclass(frozen=True)
class ChurnEvent:
    """One fleet mutation at the start of a cycle: leaves, then rejoins,
    then ``join`` fresh clients on ``preset``."""

    cycle: int
    leave: Tuple[int, ...] = ()
    rejoin: Tuple[int, ...] = ()
    join: int = 0
    preset: str = "jetson-nano-gpu"

    def __post_init__(self) -> None:
        if self.join < 0:
            raise ValueError(f"join must be non-negative, got {self.join}")
        if self.preset not in DEVICE_PRESETS:
            raise ValueError(f"unknown device preset {self.preset!r}; "
                             f"available: {', '.join(DEVICE_PRESETS)}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario; ``faults`` carries the run seed."""

    cycles: int
    name: str = "scenario"
    seed: int = 0
    fleet: FleetSpec = FleetSpec()
    strategy: str = "sync_fl"
    strategy_options: Tuple[Tuple[str, Any], ...] = ()
    backend: BackendConfig = BackendConfig()
    faults: FaultPlan = FaultPlan()
    churn: Tuple[ChurnEvent, ...] = ()

    def serial_reference(self) -> "ScenarioSpec":
        """The same run on the serial backend without faults: what
        ``--assert-serial`` compares against (churn still applies; it is
        fleet composition, not a fault)."""
        return replace(self, backend=BackendConfig(),
                       faults=FaultPlan(seed=self.seed))


#: Fault sections holding :class:`FaultPlan` fields, by JSON key.
_FRAME_FAULTS = {
    "frame_delay": {"probability": "frame_delay_probability",
                    "max_seconds": "frame_delay_max_s"},
    "frame_drop": {"probability": "frame_drop_probability"},
    "frame_truncate": {"probability": "frame_truncate_probability"},
    "connection_reset": {"probability": "connection_reset_probability"},
}
_TOP = {"name": str, "seed": int, "cycles": int, "fleet": dict,
        "strategy": dict, "backend": dict, "faults": dict,
        "churn": Tuple[dict, ...]}
_NONE = type(None)


def _at(path: str, key: Any) -> str:
    return f"{path}[{key}]" if type(key) is int else \
        f"{path}.{key}" if path else key


def _name(kind: Any) -> str:
    return {dict: "object", tuple: "list", _NONE: "null"}.get(
        kind, getattr(kind, "__name__", str(kind)))


def _typed(path: str, value: Any, annotation: Any) -> Any:
    """``value`` if its JSON type fits ``annotation``; an int widens to a
    float and a list becomes a tuple."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Union and _NONE in args:
        if value is None:
            return None
        annotation, = (arg for arg in args if arg is not _NONE)
        origin, args = get_origin(annotation), get_args(annotation)
    if origin is tuple and type(value) is list:
        return tuple(_typed(_at(path, index), item, args[0])
                     for index, item in enumerate(value))
    if annotation is float and type(value) is int:
        return float(value)
    if type(value) is not (origin or annotation):
        raise ValueError(f"{path or 'scenario spec'}: expected "
                         f"{_name(origin or annotation)}, got "
                         f"{_name(type(value))}")
    return value


def _object(path: str, value: Any, types: Mapping[str, Any],
            required: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """A JSON object's values, each checked against ``types[key]``."""
    value = _typed(path, value, dict)
    for key in list(value) + [key for key in required if key not in value]:
        if key not in value:
            raise ValueError(f"{_at(path, key)}: required")
        if key not in types:
            raise ValueError(f"{_at(path, key)}: unknown key; available: "
                             f"{', '.join(types)}")
    return {key: _typed(_at(path, key), item, types[key])
            for key, item in value.items()}


def _record(path: str, value: Any, cls: type) -> Any:
    """A ``cls`` from a JSON object keyed by its fields."""
    required = tuple(field.name for field in fields(cls)
                     if field.default is MISSING)
    values = _object(path, value, get_type_hints(cls), required)
    try:
        return cls(**values)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def _records(path: str, entries: Tuple[Any, ...], cls: type) -> Tuple:
    return tuple(_record(_at(path, index), entry, cls)
                 for index, entry in enumerate(entries))


def _within(path: str, value: int, low: int, high: int, what: str) -> None:
    if not low <= value <= high:
        raise ValueError(f"{path}: {value} is not {what}")


def _parse(data: Any, seed: Optional[int]) -> ScenarioSpec:
    spec = _object("", data, _TOP, required=("cycles",))
    cycles = spec["cycles"]
    if cycles < 1:
        raise ValueError(f"cycles: must be positive, got {cycles}")
    run_seed = spec.get("seed", 0) if seed is None else seed
    fleet = _record("fleet", spec.get("fleet", {}), FleetSpec)

    strategy = dict(spec.get("strategy", {}))
    name = _typed("strategy.name", strategy.pop("name", "sync_fl"), str)
    if name not in STRATEGIES:
        raise ValueError(f"strategy.name: unknown scenario strategy "
                         f"{name!r}; available: {', '.join(STRATEGIES)}")
    options = _object("strategy", strategy, STRATEGIES[name].types())
    try:
        STRATEGIES[name](**options)
    except ValueError as error:
        raise ValueError(f"strategy: {error}") from None

    try:
        backend = BackendConfig(**_object("backend", spec.get("backend", {}),
                                          get_type_hints(BackendConfig)))
    except BackendOptionError as error:
        raise ValueError(f"backend.{error.option}: "
                         f"{error.naming(error.option)}") from None
    churn = _records("churn", spec.get("churn", ()), ChurnEvent)
    _check_churn(churn, cycles, fleet.num_capable + fleet.num_stragglers)
    return ScenarioSpec(
        cycles=cycles, name=spec.get("name", "scenario"), seed=run_seed,
        fleet=fleet, strategy=name, strategy_options=tuple(options.items()),
        backend=backend, churn=churn,
        faults=_faults(spec.get("faults", {}), run_seed, cycles, backend))


def _faults(section: Dict[str, Any], seed: int, cycles: int,
            backend: BackendConfig) -> FaultPlan:
    section = _object("faults", section, {
        "shard_kill": Tuple[dict, ...], "straggler_wave": Tuple[dict, ...],
        **{key: dict for key in _FRAME_FAULTS}})
    if section and backend.name == "serial":
        raise ValueError("faults: the serial backend has no slots to "
                         "injure; name 'persistent' or 'sharded'")
    run = (1, cycles, f"a cycle of the run (1..{cycles})")
    slot = (0, backend.num_slots - 1, f"a slot of the {backend.name} "
                                      f"backend ({backend.num_slots} slots)")
    kills = _records("faults.shard_kill", section.pop("shard_kill", ()),
                     ShardKill)
    for index, kill in enumerate(kills):
        _within(f"faults.shard_kill[{index}].cycle", kill.cycle, *run)
        _within(f"faults.shard_kill[{index}].slot", kill.slot, *slot)
    waves = _records("faults.straggler_wave",
                     section.pop("straggler_wave", ()), StragglerWave)
    for index, wave in enumerate(waves):
        for key, bounds in (("cycles", run), ("slots", slot)):
            for position, value in enumerate(getattr(wave, key)):
                _within(f"faults.straggler_wave[{index}].{key}[{position}]",
                        value, *bounds)
    hints = get_type_hints(FaultPlan)
    frame = {_FRAME_FAULTS[key][name]: value
             for key, values in section.items()
             for name, value in _object(f"faults.{key}", values, {
                 name: hints[field]
                 for name, field in _FRAME_FAULTS[key].items()}).items()}
    try:
        return FaultPlan(seed, kills, waves, **frame)
    except ValueError as error:
        raise ValueError(f"faults: {error}") from None


def _check_churn(churn: Tuple[ChurnEvent, ...], cycles: int,
                 size: int) -> None:
    """Cycles within the run; leaves and rejoins of clients in the fleet
    when the event runs (events of one cycle run in list order)."""
    for index, event in enumerate(churn):
        _within(f"churn[{index}].cycle", event.cycle, 1, cycles,
                f"a cycle of the run (1..{cycles})")
        fleet = size + sum(earlier.join for position, earlier in
                           enumerate(churn) if (earlier.cycle, position)
                           < (event.cycle, index))
        for key in ("leave", "rejoin"):
            for position, client in enumerate(getattr(event, key)):
                _within(f"churn[{index}].{key}[{position}]", client, 0,
                        fleet - 1, f"a client of the fleet at cycle "
                                   f"{event.cycle} ({fleet} clients)")


def load_spec(source: Union[str, Path, Mapping[str, Any], ScenarioSpec],
              seed: Optional[int] = None) -> ScenarioSpec:
    """Parse a spec file or a decoded JSON object (a :class:`ScenarioSpec`
    passes through); ``seed`` overrides the spec's seed."""
    if isinstance(source, ScenarioSpec):
        return source if seed is None else replace(
            source, seed=seed, faults=replace(source.faults, seed=seed))
    if isinstance(source, Mapping):
        return _parse(dict(source), seed)
    path = Path(source)
    if not path.is_file():
        raise ValueError(f"scenario spec {str(path)!r} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario spec {str(path)!r} is not valid "
                         f"JSON: {exc}") from None
    return _parse(data, seed)
