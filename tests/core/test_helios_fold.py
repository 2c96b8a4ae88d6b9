"""Helios on the fold path: every backend, one answer.

Helios computes Eq. 10's weights before dispatch, the workers fold what
they trained and return each masked job's Eq. 1 contributions on its
summary.  Nothing the strategies observe may depend on where that
happened: histories, final weights and — the proof that the worker's
Eq. 1 is the parent's bit for bit — the masks drawn from the
contributions are equal on ``serial``/``persistent``/``sharded``.  Also
here: the fold normalizes Eq. 10 weights as ``FLServer.aggregate``
does, the reply bytes a resident Helios cycle ships, the degraded-cycle
crash and the pace-adaptation keying bug this path fixed.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import FixedPruningStrategy, SoftTrainingOnlyStrategy
from repro.core import HeliosConfig, HeliosStrategy
from repro.experiments.common import (SCALES, ExperimentSetting,
                                      make_simulation_factory)
from repro.fl import FederatedSimulation, FLClient, TrainingJob, make_backend
from repro.fl.aggregation import normalize_weights
from repro.fl.chaos import ChaosController, FaultPlan, ShardKill
from repro.fl.client import TrainingSummary
from repro.nn import ModelMask

from ..conftest import local_train_jobs, make_tiny_simulation

CONFIGS = ("serial", "persistent", "sharded")

#: The two fleets of the parity test, at smoke scale.
FLEETS = {
    "mlp-4+4": ExperimentSetting("mnist", "mlp", num_capable=4,
                                 num_stragglers=4, seed=0),
    "lenet-2+2": ExperimentSetting("mnist", "lenet", num_capable=2,
                                   num_stragglers=2, seed=0),
}

STRATEGIES = {
    "helios": lambda k: HeliosStrategy(HeliosConfig(straggler_top_k=k,
                                                    seed=0)),
    "st_only": lambda k: SoftTrainingOnlyStrategy(
        HeliosConfig(straggler_top_k=k, seed=0)),
    "fixed_pruning": lambda k: FixedPruningStrategy(straggler_top_k=k,
                                                    seed=0),
}


@pytest.fixture(scope="module")
def backends():
    """One instance per configuration, shared by every run here."""
    made = {config: make_backend(config, max_workers=2)
            for config in CONFIGS}
    yield made
    for backend in made.values():
        backend.close()


def _weights_digest(weights):
    sha = hashlib.sha256()
    for name in sorted(weights):
        sha.update(name.encode())
        sha.update(np.ascontiguousarray(weights[name]).tobytes())
    return sha.hexdigest()


def _as_bytes(arrays_by_key):
    return {key: {name: array.tobytes() for name, array in arrays.items()}
            for key, arrays in arrays_by_key.items()}


def _collaborate(factory, strategy, backend, num_cycles=3):
    """History, final-weight digest, last cycle's masks, contributions."""
    sim = factory()
    sim.set_backend(backend)
    masks_per_cycle = []
    train_and_aggregate = sim.train_and_aggregate

    def recording(indices, masks=None, **kwargs):
        masks_per_cycle.append(_as_bytes({
            index: mask.as_dict() for index, mask in (masks or {}).items()}))
        return train_and_aggregate(indices, masks=masks, **kwargs)

    sim.train_and_aggregate = recording
    history = sim.run(strategy, num_cycles=num_cycles)
    return (history.records, _weights_digest(sim.server.get_global_weights()),
            masks_per_cycle[-1],
            _as_bytes(getattr(strategy, "contributions", {})))


class TestEveryBackendAndTopology:
    @pytest.mark.parametrize("strategy_name", sorted(STRATEGIES))
    @pytest.mark.parametrize("fleet", sorted(FLEETS))
    def test_one_answer(self, backends, fleet, strategy_name):
        setting = FLEETS[fleet]
        factory, _ = make_simulation_factory(setting, SCALES["smoke"])
        results = {
            config: _collaborate(
                factory, STRATEGIES[strategy_name](setting.num_stragglers),
                backends[config])
            for config in CONFIGS}
        records, digest, masks, contributions = results[CONFIGS[0]]
        assert masks  # the stragglers trained masked
        if strategy_name != "fixed_pruning":
            assert sorted(contributions) == sorted(masks)
        for config, result in results.items():
            assert result[0] == records, config
            assert result[1] == digest, config
            assert result[2] == masks, config
            assert result[3] == contributions, config


# --------------------------------------------------------------------- #
# Eq. 10 weights: the fold normalizes them exactly as the server does
# --------------------------------------------------------------------- #

def _twice_normalized_differs():
    """Normalized weights that normalize once more to other floats —
    what Helios hands over and what ``aggregate_partial`` re-normalizes."""
    rng = np.random.default_rng(0)
    for _ in range(1000):
        weights = normalize_weights(rng.uniform(0.1, 1.0, size=3))
        if normalize_weights(weights).tobytes() != weights.tobytes():
            return weights
    raise AssertionError("no weights whose second normalization moves")


def test_fold_normalizes_client_weights_like_the_server():
    """Regression: shipping Helios' weights to the fold un-normalized
    installs different float64 weights than ``FLServer.aggregate`` over
    the same raw updates (seed-7 e2e digests moved on both Helios
    workloads)."""
    client_weights = _twice_normalized_differs()
    installed = {}
    for route in ("server", "fold"):
        sim = make_tiny_simulation()
        server = sim.server
        for method in ("aggregate", "install_partials"):
            def capture(*args, _method=getattr(server, method), **kwargs):
                installed[route] = _method(*args, **kwargs)
                return installed[route]
            setattr(server, method, capture)
        masks = {2: ModelMask.random(server.global_model,
                                     {"fc1": 0.5, "fc2": 0.5, "output": 0.5},
                                     np.random.default_rng(1))}
        if route == "fold":
            sim.train_and_aggregate(sim.client_indices(), masks=masks,
                                    client_weights=client_weights)
            continue
        weights = server.get_global_weights()
        server.aggregate(local_train_jobs(sim.clients, [
            TrainingJob(index=index, weights=weights, mask=masks.get(index))
            for index in sim.client_indices()]),
            client_weights=client_weights)
    assert installed["server"].keys() == installed["fold"].keys()
    for name, value in installed["server"].items():
        assert value.dtype == np.float64
        assert value.tobytes() == installed["fold"][name].tobytes(), name


def test_client_weights_must_match_indices():
    sim = make_tiny_simulation()
    with pytest.raises(ValueError, match="client_weights"):
        sim.train_and_aggregate(sim.client_indices(), client_weights=[1.0])


# --------------------------------------------------------------------- #
# bytes: a resident Helios cycle ships partials and summaries, no weights
# --------------------------------------------------------------------- #

def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))


def _helios_cycle_replies(per_kind):
    """One Helios cycle of ``per_kind`` capable + ``per_kind`` stragglers
    on 2 forked slots: ``(reply bytes, decoded replies, weight bytes)``."""
    sim = make_tiny_simulation(num_capable=per_kind,
                               num_stragglers=per_kind)
    sim.set_backend("persistent", max_workers=2)
    replies = []
    collect_reply = sim.backend._collect_reply

    def recording(slot, *args, **kwargs):
        replies.append(collect_reply(slot, *args, **kwargs))
        return replies[-1]

    sim.backend._collect_reply = recording
    try:
        strategy = HeliosStrategy(HeliosConfig(straggler_top_k=per_kind,
                                               seed=0))
        strategy.setup(sim)
        strategy.execute_cycle(1, sim)
        weight_bytes = sum(value.nbytes for value
                           in sim.server.get_global_weights().values())
        return sim.backend.last_reply_bytes, replies, weight_bytes
    finally:
        sim.close()


def test_resident_helios_reply_carries_no_client_weights():
    small, _, weight_bytes = _helios_cycle_replies(1)
    large, replies, _ = _helios_cycle_replies(4)
    assert len(replies) == 2
    summaries = []
    for kind, (results, partial) in replies:
        assert kind == "results" and partial is not None
        for entry in results:
            summaries.extend(entry[3])
        # Clients train and ship float32; the fold's sums and Eq. 1 are
        # float64 — a float32 array in a reply is somebody's weights.
        assert not [array for array in _arrays(results)
                    if array.dtype == np.float32]
    assert all(isinstance(summary, TrainingSummary) for summary in summaries)
    assert sum(summary.contributions is not None
               for summary in summaries) == 4  # one Eq. 1 per straggler
    # Six more clients (three more a slot) add less than one client's
    # weights upstream.
    assert large - small < weight_bytes


# --------------------------------------------------------------------- #
# degraded cycles and pace adaptation
# --------------------------------------------------------------------- #

class _ChaosHelios(HeliosStrategy):
    """Helios that starts each cycle's faults and records the straggler's
    state after every cycle."""

    def __init__(self, controller, straggler):
        super().__init__(HeliosConfig(seed=0))
        self.controller = controller
        self.straggler = straggler
        self.after_cycle = []

    def execute_cycle(self, cycle, sim):
        self.controller.begin_cycle(cycle)
        outcome = super().execute_cycle(cycle, sim)
        tracker = self.trackers[self.straggler]
        self.after_cycle.append((
            _as_bytes({"skips": tracker.skip_counts}),
            _as_bytes({"eq1": self.contributions[self.straggler]}),
            self.volumes[self.straggler]))
        return outcome


def test_helios_survives_a_degraded_cycle():
    """Regression: Helios + persistent + degrade + a shard killed at
    cycle 2 raised ``AttributeError`` on the dropped client's ``None``.
    Clients 0 and 2 (the straggler) live on slot 0."""
    plan = FaultPlan(seed=3, shard_kills=(ShardKill(cycle=2, slot=0),))
    controller = ChaosController(plan)
    sim = make_tiny_simulation()
    sim.set_backend("persistent", max_workers=2, on_shard_failure="degrade")
    sim.backend.attach_chaos(controller)
    strategy = _ChaosHelios(controller, straggler=2)
    try:
        history = sim.run(strategy, num_cycles=3)
    finally:
        sim.close()
    assert strategy.straggler_indices() == [2]
    assert [record.dropped_clients for record in history.records] == \
        [(), (0, 2), ()]
    assert history.records[1].participating_clients == 1
    # The dropped straggler's tracker, contributions and volume are the
    # ones cycle 1 left; cycle 3 trains it again.
    assert strategy.after_cycle[1] == strategy.after_cycle[0]
    assert strategy.after_cycle[2][:2] != strategy.after_cycle[1][:2]


def _fleet_with_ids(first_id):
    """The tiny 2 capable + 2 straggler fleet, client ids from
    ``first_id`` (fleet indices stay 0-3)."""
    sim = make_tiny_simulation(num_capable=2, num_stragglers=2)
    clients = [FLClient(client_id=first_id + index, dataset=client.dataset,
                        device=client.device,
                        model_factory=client.model_factory,
                        config=client.config)
               for index, client in enumerate(sim.clients)]
    return FederatedSimulation(clients, sim.server,
                               input_shape=sim.input_shape,
                               workload_scale=sim.workload_scale)


def test_pace_adaptation_keys_by_fleet_index():
    """Regression: durations were keyed by client id and looked up by
    fleet index, so with ids 100-103 no straggler volume ever adapted."""
    runs = {}
    for first_id in (0, 100):
        sim = _fleet_with_ids(first_id)
        strategy = HeliosStrategy(HeliosConfig(straggler_top_k=2,
                                               volume_policy="levels"))
        strategy.setup(sim)
        initial = dict(strategy.volumes)
        history = sim.run(strategy, num_cycles=4)
        runs[first_id] = (initial, dict(strategy.volumes), history.times_s())
    (initial, adapted, times), again = runs[0], runs[100]
    assert adapted[3] < initial[3]  # straggler 3 was over pace
    assert again == runs[0]
    durations = np.diff([0.0] + times)
    assert durations[-1] < durations[0]
