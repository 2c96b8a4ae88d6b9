"""Scenario runner tests: declarative specs, replay, serial identity.

The acceptance criteria of the chaos engine live here: the same
``(seed, spec)`` produces the identical event log twice; under
``rebalance`` the chaos history is bit-identical to the fault-free
serial reference; under ``degrade`` the history records exactly which
clients were dropped per cycle; every strategy of the experiments' table
runs a scenario and admits a joiner through ``register_new_client``.
The shipped ``examples/scenario_*.json`` specs are validated as part of
the suite so CI and docs never drift.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.common import STRATEGIES
from repro.experiments.scenario import (compare_histories, load_spec,
                                        run_scenario)

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
        with pytest.raises(ValueError, match="unknown scenario key "
                                             "'fualts'"):
            run_scenario(_tiny_spec(fualts={}))

    def test_unknown_fleet_key(self):
        spec = _tiny_spec()
        spec["fleet"]["clients"] = 3
        with pytest.raises(ValueError, match="unknown fleet key 'clients'"):
            run_scenario(spec)

    def test_removed_wire_compression_backend_key(self):
        with pytest.raises(ValueError, match="unknown backend key "
                                             "'wire_compression'"):
            run_scenario(_tiny_spec(backend={"name": "persistent",
                                             "wire_compression": "zlib"}))

    def test_missing_cycles(self):
        spec = _tiny_spec()
        del spec["cycles"]
        with pytest.raises(ValueError, match="needs a 'cycles' count"):
            run_scenario(spec)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown scenario strategy "
                                             "'helios2'"):
            run_scenario(_tiny_spec(strategy={"name": "helios2"}))

    @pytest.mark.parametrize("name", ["sync_fl", "helios"])
    def test_unknown_strategy_key(self, name):
        with pytest.raises(ValueError, match="unknown strategy key 'bogus'; "
                                             "available: .*straggler_top_k"):
            run_scenario(_tiny_spec(strategy={"name": name, "bogus": 1}))

    def test_unknown_churn_key(self):
        with pytest.raises(ValueError, match="unknown churn key 'drop'"):
            run_scenario(_tiny_spec(churn=[{"cycle": 1, "drop": [0]}]))

    def test_missing_spec_file(self):
        with pytest.raises(ValueError, match="does not exist"):
            load_spec("/nonexistent/scenario.json")

    def test_strategies_registry_is_complete(self):
        assert set(STRATEGIES) == {"sync_fl", "async_fl", "afo", "random",
                                   "fixed_pruning", "st_only", "helios"}


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
        assert spec["cycles"] >= 1
        assert spec["backend"]["name"] in ("sharded", "persistent")

    def test_shard_kill_example_is_serial_identical(self):
        """The CI chaos-smoke contract: the shipped shard-kill scenario
        recovers under rebalance bit-identically to serial."""
        spec = load_spec(EXAMPLES / "scenario_shard_kill.json")
        chaos = run_scenario(spec)
        assert any(e["event"] == "shard_kill" for e in chaos.events)
        reference = run_scenario(spec, backend_override="serial",
                                 inject=False)
        assert not compare_histories(chaos.history, reference.history)

    def test_helios_churn_example_admits_a_straggler(self):
        """A kill under rebalance stays serial-identical, and the
        Raspberry Pi joining at cycle 3 is admitted as a straggler with
        a volume, a soft-training selector and a rotation tracker."""
        spec = load_spec(EXAMPLES / "scenario_helios_churn.json")
        chaos = run_scenario(spec)
        assert any(e["event"] == "shard_kill" for e in chaos.events)
        reference = run_scenario(spec, backend_override="serial",
                                 inject=False)
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
             "error: scenario section 'backend' must be an object, not str"),
            ('{"cycles": 1, "strategy": {"name": "sync_fl", "bogus": 1}}',
             [], "error: unknown strategy key 'bogus'; available: "
                 "straggler_top_k, "),
        ]
        for text, flags, start in cases:
            spec_path.write_text(text, encoding="utf-8")
            code = main(["scenario", "run", str(spec_path), *flags])
            err = capsys.readouterr().err
            assert code == 2
            assert err.startswith(start)
            assert err.count("\n") == 1
