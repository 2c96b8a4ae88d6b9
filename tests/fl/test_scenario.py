"""Scenario runner tests: declarative specs, replay, serial identity.

The acceptance criteria of the chaos engine live here: the same
``(seed, spec)`` produces the identical event log twice; under
``rebalance`` the chaos history is bit-identical to the fault-free
serial reference; under ``degrade`` the history records exactly which
clients were dropped per cycle; every strategy of the experiments' table
runs a scenario and admits a joiner through ``register_new_client``.
The shipped ``examples/scenario_*.json`` specs are validated as part of
the suite so CI and docs never drift, and every spec key refuses every
wrong JSON type in one line (``TestWrongTypes``).
"""

import copy
import json
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.common import STRATEGIES
from repro.experiments.scenario import compare_histories, run_scenario
from repro.experiments.spec import ScenarioSpec, load_spec
from repro.fl.chaos import FaultPlan
from repro.fl.executor import BackendConfig

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _tiny_spec(**overrides):
    spec = {
        "name": "unit", "seed": 5, "cycles": 2,
        "fleet": {"num_capable": 2, "num_stragglers": 1,
                  "samples_per_client": 24},
        "strategy": {"name": "sync_fl"},
    }
    spec.update(overrides)
    return spec


class TestSpecValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="^fualts: unknown key; "
                                             "available: name, seed"):
            run_scenario(_tiny_spec(fualts={}))

    def test_unknown_fleet_key(self):
        spec = _tiny_spec()
        spec["fleet"]["clients"] = 3
        with pytest.raises(ValueError, match="^fleet.clients: unknown key"):
            run_scenario(spec)

    def test_removed_wire_compression_backend_key(self):
        with pytest.raises(ValueError, match="^backend.wire_compression: "
                                             "unknown key"):
            run_scenario(_tiny_spec(backend={"name": "persistent",
                                             "wire_compression": "zlib"}))

    def test_missing_cycles(self):
        spec = _tiny_spec()
        del spec["cycles"]
        with pytest.raises(ValueError, match="^cycles: required"):
            run_scenario(spec)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="^strategy.name: unknown "
                                             "scenario strategy 'helios2'"):
            run_scenario(_tiny_spec(strategy={"name": "helios2"}))

    @pytest.mark.parametrize("name", ["sync_fl", "helios"])
    def test_unknown_strategy_key(self, name):
        with pytest.raises(ValueError, match="^strategy.bogus: unknown key; "
                                             "available: .*straggler_top_k"):
            run_scenario(_tiny_spec(strategy={"name": name, "bogus": 1}))

    def test_unknown_churn_key(self):
        with pytest.raises(ValueError, match=r"^churn\[0\].drop: unknown "
                                             r"key"):
            run_scenario(_tiny_spec(churn=[{"cycle": 1, "drop": [0]}]))

    def test_unknown_fault_key(self):
        with pytest.raises(ValueError, match="^faults.shard_kills: unknown "
                                             "key; available: shard_kill, "
                                             "straggler_wave"):
            load_spec(_tiny_spec(faults={"shard_kills": []}))

    def test_scheduled_faults_resolve_per_cycle(self):
        spec = load_spec(_tiny_spec(
            cycles=4, backend={"name": "persistent", "workers": 2},
            faults={"shard_kill": [{"cycle": 3, "slot": 1},
                                   {"cycle": 3, "slot": 0}],
                    "straggler_wave": [{"cycles": [2, 3], "slots": [1],
                                        "seconds": 0.25}]}))
        plan = spec.faults
        assert plan.seed == 5
        assert plan.kills_for_cycle(3) == [0, 1]
        assert plan.kills_for_cycle(2) == []
        assert plan.straggle_seconds(2, 1) == 0.25
        assert plan.straggle_seconds(2, 0) == 0.0
        assert plan.straggle_seconds(4, 1) == 0.0

    def test_missing_spec_file(self):
        with pytest.raises(ValueError, match="does not exist"):
            load_spec("/nonexistent/scenario.json")

    def test_strategies_registry_is_complete(self):
        assert set(STRATEGIES) == {"sync_fl", "async_fl", "afo", "random",
                                   "fixed_pruning", "st_only", "helios"}

    def test_values_reach_the_spec_typed(self):
        """An int feeds a float field as a float; lists become tuples;
        the seed override reseeds the fault plan."""
        spec = load_spec(_tiny_spec(
            fleet={"learning_rate": 1, "workload_scale": 50},
            strategy={"name": "helios", "top_share": 0},
            backend={"name": "sharded", "shards": ["h:1", "h:2"],
                     "on_failure": "rebalance"},
            churn=[{"cycle": 2, "leave": [0, 1]}]), seed=9)
        assert spec.fleet.learning_rate == 1.0
        assert type(spec.fleet.learning_rate) is float
        assert dict(spec.strategy_options) == {"top_share": 0.0}
        assert spec.backend == BackendConfig("sharded", None,
                                             ("h:1", "h:2"), "rebalance")
        assert spec.churn[0].leave == (0, 1)
        assert (spec.seed, spec.faults.seed) == (9, 9)
        assert load_spec(spec) is spec
        assert load_spec(spec, seed=3).faults.seed == 3

    def test_serial_reference_drops_backend_and_faults(self):
        spec = load_spec(EXAMPLES / "scenario_helios_churn.json")
        reference = spec.serial_reference()
        assert reference.backend == BackendConfig()
        assert reference.faults == FaultPlan(seed=spec.seed)
        assert (reference.churn, reference.fleet, reference.strategy) == \
            (spec.churn, spec.fleet, spec.strategy)


class TestScenarioDeterminism:
    def test_same_seed_same_event_log_twice(self):
        spec = _tiny_spec(churn=[{"cycle": 2, "leave": [2]}])
        first = run_scenario(spec)
        second = run_scenario(spec)
        assert first.events == second.events
        assert not compare_histories(first.history, second.history)

    def test_seed_override_changes_the_run(self):
        spec = _tiny_spec()
        base = run_scenario(spec)
        other = run_scenario(spec, seed=99)
        assert other.seed == 99
        assert compare_histories(base.history, other.history)

    def test_event_log_serializes_to_jsonl(self, tmp_path):
        result = run_scenario(_tiny_spec())
        out = tmp_path / "events.jsonl"
        result.write_events(out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(result.events)
        assert [json.loads(line) for line in lines] == result.events

    def test_churn_applies_and_is_recorded(self):
        spec = _tiny_spec(cycles=3, churn=[
            {"cycle": 2, "leave": [0]},
            {"cycle": 3, "rejoin": [0], "join": 1},
        ])
        result = run_scenario(spec)
        kinds = [(e["cycle"], e["event"]) for e in result.events
                 if e["event"] != "cycle_end"]
        assert kinds == [(2, "client_leave"), (3, "client_rejoin"),
                         (3, "client_join")]
        participants = [r.participating_clients
                        for r in result.history.records]
        assert participants == [3, 2, 4]

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_strategy_admits_a_joiner(self, name):
        result = run_scenario(_tiny_spec(
            strategy={"name": name, "straggler_top_k": 1},
            churn=[{"cycle": 2, "join": 1, "preset": "raspberry-pi-4"}]))
        assert len(result.history.records) == 2
        assert [(e["cycle"], e["client"]) for e in result.events
                if e["event"] == "client_join"] == [(2, 3)]
        decision, = result.strategy.join_decisions
        assert decision.device_name == "raspberry-pi-4"
        assert decision.is_straggler
        assert result.strategy.straggler_indices() == [2, 3]


class TestExampleSpecs:
    @pytest.mark.parametrize("name", ["scenario_shard_kill.json",
                                      "scenario_degrade.json",
                                      "scenario_flaky_links.json",
                                      "scenario_helios_churn.json"])
    def test_shipped_specs_parse(self, name):
        spec = load_spec(EXAMPLES / name)
        assert isinstance(spec, ScenarioSpec)
        assert spec.cycles >= 1
        assert spec.backend.name in ("sharded", "persistent")
        assert spec.faults.armed

    def test_shard_kill_example_is_serial_identical(self):
        """The CI chaos-smoke contract: the shipped shard-kill scenario
        recovers under rebalance bit-identically to serial."""
        spec = load_spec(EXAMPLES / "scenario_shard_kill.json")
        chaos = run_scenario(spec)
        assert any(e["event"] == "shard_kill" for e in chaos.events)
        reference = run_scenario(spec.serial_reference())
        assert not compare_histories(chaos.history, reference.history)

    def test_helios_churn_example_admits_a_straggler(self):
        """A kill under rebalance stays serial-identical, and the
        Raspberry Pi joining at cycle 3 is admitted as a straggler with
        a volume, a soft-training selector and a rotation tracker."""
        spec = load_spec(EXAMPLES / "scenario_helios_churn.json")
        chaos = run_scenario(spec)
        assert any(e["event"] == "shard_kill" for e in chaos.events)
        reference = run_scenario(spec.serial_reference())
        assert not compare_histories(chaos.history, reference.history)
        helios = chaos.strategy
        assert chaos.history.strategy_name == "Helios"
        decision, = helios.join_decisions
        assert decision.is_straggler
        assert 0.0 < helios.volumes[4] == decision.volume < 1.0
        assert helios.straggler_indices() == [2, 3, 4]
        assert 4 in helios.selectors and 4 in helios.trackers
        participants = [r.participating_clients
                        for r in chaos.history.records]
        assert participants == [4, 4, 5, 5]

    def test_degrade_example_audits_dropped_clients(self):
        spec = load_spec(EXAMPLES / "scenario_degrade.json")
        result = run_scenario(spec)
        replay = run_scenario(spec)
        assert result.events == replay.events
        dropped = {r.cycle: r.dropped_clients
                   for r in result.history.records if r.dropped_clients}
        assert dropped  # the kill really degraded a cycle
        # The spec kills slot 1 at cycle 2, before the cycle-3 join: the
        # 4-client fleet minus the dropped set is who participated.
        assert set(dropped) == {2}
        for cycle, clients in dropped.items():
            end = next(e for e in result.events
                       if e["cycle"] == cycle and e["event"] == "cycle_end")
            assert end["dropped_clients"] == list(clients)
            assert end["participants"] == 4 - len(clients)


class TestScenarioCLI:
    def test_cli_runs_and_writes_events(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_tiny_spec()), encoding="utf-8")
        events_path = tmp_path / "events.jsonl"
        code = main(["scenario", "run", str(spec_path),
                     "--events-out", str(events_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "scenario 'unit'" in out
        assert events_path.is_file()

    def test_cli_rejects_degrade_with_assert_serial(self, tmp_path,
                                                    capsys):
        spec = _tiny_spec(backend={"name": "persistent", "workers": 2,
                                   "on_failure": "degrade"})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["scenario", "run", str(spec_path), "--assert-serial"])
        err = capsys.readouterr().err
        assert code == 2
        assert "lossless failure policy" in err

    def test_cli_reports_bad_spec_one_line(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        cases = [
            ("{not json", [], "error: scenario spec"),
            ('{"cycles": 1, "backend": "sharded"}', ["--assert-serial"],
             "error: backend: expected object, got str"),
            ('{"cycles": 1, "strategy": {"name": "sync_fl", "bogus": 1}}',
             [], "error: strategy.bogus: unknown key; available: "
                 "straggler_top_k, "),
        ]
        for text, flags, start in cases:
            spec_path.write_text(text, encoding="utf-8")
            code = main(["scenario", "run", str(spec_path), *flags])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(start)
            assert err.count("\n") == 1


# ---------------------------------------------------------------------- #
# Every key x every wrong JSON type, and the cross-section refusals
# ---------------------------------------------------------------------- #
#: A valid spec holding every key, so each row can spoil exactly one.
_FULL = {
    "name": "full", "seed": 5, "cycles": 3,
    "fleet": {"num_capable": 2, "num_stragglers": 1,
              "samples_per_client": 24, "test_samples": 60,
              "batch_size": 20, "local_epochs": 1, "learning_rate": 0.1,
              "workload_scale": 200.0},
    "strategy": {"name": "helios", "straggler_top_k": 1},
    "backend": {"name": "persistent", "workers": 2,
                "on_failure": "rebalance"},
    "faults": {
        "shard_kill": [{"cycle": 2, "slot": 1}],
        "straggler_wave": [{"cycles": [2], "slots": [0], "seconds": 0.05}],
        "frame_delay": {"probability": 0.1, "max_seconds": 0.005},
        "frame_drop": {"probability": 0.1},
        "frame_truncate": {"probability": 0.05},
        "connection_reset": {"probability": 0.05},
    },
    "churn": [{"cycle": 2, "leave": [0], "rejoin": [0], "join": 1,
               "preset": "raspberry-pi-4"}],
}

#: Every spec key and the JSON it takes.
_KEYS = {
    "name": "str", "seed": "int", "cycles": "int", "fleet": "object",
    "strategy": "object", "backend": "object", "faults": "object",
    "churn": "list of object",
    **{f"fleet.{key}": "int" for key in (
        "num_capable", "num_stragglers", "samples_per_client",
        "test_samples", "batch_size", "local_epochs")},
    "fleet.learning_rate": "float", "fleet.workload_scale": "float",
    "strategy.name": "str",
    # helios: the HeliosConfig fields
    "strategy.top_share": "float", "strategy.identification": "str",
    "strategy.straggler_top_k": "int or null",
    "strategy.slowdown_threshold": "float", "strategy.volume_policy": "str",
    "strategy.min_volume": "float", "strategy.pace_slack": "float",
    "strategy.aggregation": "str", "strategy.combine_sample_counts": "bool",
    "strategy.rejoin_margin": "float", "strategy.adapt_volume_cycles": "int",
    "strategy.volume_adapt_rate": "float", "strategy.seed": "int",
    # afo: the constructors' keywords
    "afo:strategy.mixing_alpha": "float",
    "afo:strategy.staleness_exponent": "float",
    "afo:strategy.aggregation_period": "int or null",
    "backend.name": "str", "backend.workers": "int or null",
    "backend.shards": "list of str or null",
    "backend.on_failure": "str or null",
    "faults.shard_kill": "list of object",
    "faults.shard_kill[0].cycle": "int", "faults.shard_kill[0].slot": "int",
    "faults.straggler_wave": "list of object",
    "faults.straggler_wave[0].cycles": "list of int",
    "faults.straggler_wave[0].slots": "list of int",
    "faults.straggler_wave[0].seconds": "float",
    **{f"faults.{key}": "object" for key in (
        "frame_delay", "frame_drop", "frame_truncate", "connection_reset")},
    **{f"faults.{key}.probability": "float" for key in (
        "frame_delay", "frame_drop", "frame_truncate", "connection_reset")},
    "faults.frame_delay.max_seconds": "float",
    "churn[0].cycle": "int", "churn[0].leave": "list of int",
    "churn[0].rejoin": "list of int", "churn[0].join": "int",
    "churn[0].preset": "str",
}

_WRONG = {"string": "x", "bool": True, "float-for-int": 1.5, "list": [1],
          "object": {"a": 1}, "null": None}

#: Which wrong values a kind takes after all.
_FITS = {"str": {"string"}, "float": {"float-for-int"}, "bool": {"bool"},
         "object": {"object"}, "list of int": {"list"}}


def _fits(kind, wrong):
    return (wrong in _FITS.get(kind.replace(" or null", ""), ())
            or (wrong == "null" and kind.endswith("or null")))


def _spoiled(key, value):
    spec = copy.deepcopy(_FULL)
    if ":" in key:
        strategy, key = key.split(":")
        spec["strategy"] = {"name": strategy}
    *parents, last = re.findall(r"[^.\[\]]+", key)
    target = spec
    for part in parents:
        target = target[int(part) if part.isdigit() else part]
    target[last] = value
    return spec


#: The parent's tracebacks (exit 1), silent coercions and silent no-ops:
#: each now exits 2 naming where it is.
_REFUSALS = {
    "churn-entry-int": ({"churn": [1]}, "churn[0]: expected object"),
    "churn-leave-int": ({"churn": [{"cycle": 1, "leave": 5}]},
                        "churn[0].leave: expected list"),
    "shard-kill-int": ({"faults": {"shard_kill": 3}},
                       "faults.shard_kill: expected list"),
    "frame-drop-float": ({"faults": {"frame_drop": 0.5}},
                         "faults.frame_drop: expected object"),
    "top-share-str": ({"strategy": {"name": "helios", "top_share": "x"}},
                      "strategy.top_share: expected float, got str"),
    "workers-str": ({"backend": {"name": "persistent", "workers": "2"}},
                    "backend.workers: expected int, got str"),
    "leave-outside-fleet": ({"churn": [{"cycle": 1, "leave": [9]}]},
                            "churn[0].leave[0]: 9 is not a client of the "
                            "fleet at cycle 1 (3 clients)"),
    "cycles-true": ({"cycles": True}, "cycles: expected int, got bool"),
    "cycles-1.7": ({"cycles": 1.7}, "cycles: expected int, got float"),
    "num-capable-2.9": ({"fleet": {"num_capable": 2.9}},
                        "fleet.num_capable: expected int, got float"),
    "num-capable-str": ({"fleet": {"num_capable": "2"}},
                        "fleet.num_capable: expected int, got str"),
    "kill-at-cycle-1": ({"backend": {"name": "persistent", "workers": 2},
                         "faults": {"shard_kill": [{"cycle": 1, "slot": 0}]}},
                        "faults.shard_kill[0]: cycle must be at least 2: "
                        "slots start inside cycle 1's batch"),
    "kill-slot-5-of-2": ({"backend": {"name": "sharded", "workers": 2},
                          "faults": {"shard_kill": [{"cycle": 2,
                                                     "slot": 5}]}},
                         "faults.shard_kill[0].slot: 5 is not a slot of the "
                         "sharded backend (2 slots)"),
    "kill-past-last-cycle": ({"backend": {"name": "persistent",
                                          "workers": 2},
                              "faults": {"shard_kill": [{"cycle": 9,
                                                         "slot": 0}]}},
                             "faults.shard_kill[0].cycle: 9 is not a cycle "
                             "of the run (1..3)"),
    "serial-on-failure": ({"backend": {"name": "serial",
                                       "on_failure": "rebalance"}},
                          "backend.on_failure: on_failure only applies to "
                          "the worker-resident backends"),
    "serial-workers": ({"backend": {"name": "serial", "workers": 2}},
                       "backend.workers: workers only applies to the "
                       "worker-resident backends"),
    "serial-faults": ({"faults": {"frame_drop": {"probability": 0.1}}},
                      "faults: the serial backend has no slots to injure"),
    "wave-slot-2-of-2": ({"backend": {"name": "persistent", "workers": 2},
                          "faults": {"straggler_wave": [
                              {"cycles": [2], "slots": [2],
                               "seconds": 0.1}]}},
                         "faults.straggler_wave[0].slots[0]: 2 is not a "
                         "slot"),
    "wave-past-last-cycle": ({"backend": {"name": "persistent",
                                          "workers": 2},
                              "faults": {"straggler_wave": [
                                  {"cycles": [4], "slots": [0],
                                   "seconds": 0.1}]}},
                             "faults.straggler_wave[0].cycles[0]: 4 is not "
                             "a cycle"),
    "churn-past-last-cycle": ({"churn": [{"cycle": 4, "join": 1}]},
                              "churn[0].cycle: 4 is not a cycle"),
    "rejoin-before-the-join": ({"churn": [{"cycle": 3, "rejoin": [3]},
                                          {"cycle": 2, "join": 1},
                                          {"cycle": 3, "rejoin": [4]}]},
                               "churn[2].rejoin[0]: 4 is not a client of "
                               "the fleet at cycle 3 (4 clients)"),
    "fleet-test-samples-0": ({"fleet": {"test_samples": 0}},
                             "fleet: test_samples must be positive"),
    "unknown-preset": ({"churn": [{"cycle": 2, "join": 1,
                                   "preset": "toaster"}]},
                       "churn[0]: unknown device preset 'toaster'"),
}


def _wrong_type_rows():
    for key, kind in _KEYS.items():
        for wrong, value in _WRONG.items():
            if not _fits(kind, wrong):
                path = key.split(":")[-1]
                yield pytest.param(_spoiled(key, value), path,
                                   id=f"{key}={wrong}")
    for name, (overrides, message) in _REFUSALS.items():
        yield pytest.param(_tiny_spec(**{"cycles": 3, **overrides}), message,
                           id=name)


class TestWrongTypes:
    def test_full_spec_is_valid(self):
        assert load_spec(_FULL).faults.armed

    @pytest.mark.parametrize("spec, start", _wrong_type_rows())
    def test_exits_2_with_one_line_naming_the_key(self, tmp_path, capsys,
                                                  spec, start):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        code = main(["scenario", "run", str(spec_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: {start}")
