"""Chaos engine tests: seeded fault plans, retry policies, degradation.

Three layers under test:

* the pure pieces — :class:`RetryPolicy` backoff math and validation,
  :func:`seeded_jitter`, :class:`FaultPlan` stream determinism;
* fault injection against live resident backends — scheduled shard
  kills recover bit-identically under ``rebalance`` and drop exactly
  the dead shard's clients under ``degrade``, across both resident
  backends (the tier-1 chaos suite of the acceptance criteria);
* the regression corners of the retry substrate — heartbeat-probe
  failover (probe → rebalance → respawn) and two shards SIGKILLed in
  the same batch.
"""

import numpy as np
import pytest

from repro.fl.chaos import (ChaosController, FaultPlan, FrameFault,
                            ShardKill, StragglerWave, seeded_jitter)
from repro.fl.executor import (RetryPolicy, ShardedSocketBackend,
                               _SlotFailed, make_backend)

from ..conftest import make_tiny_simulation


# ---------------------------------------------------------------------- #
# RetryPolicy
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_defaults_reproduce_legacy_constants(self):
        policy = RetryPolicy()
        assert policy.attempt_limit(3) == 6
        assert policy.attempt_limit(1) == 4
        assert policy.backoff_delay(1) == 0.0
        assert policy.drain_timeout_s == 600.0
        assert policy.reconnect_attempts == 1

    @pytest.mark.parametrize("kwargs, match", [
        ({"max_attempts": 0}, "max_attempts"),
        ({"backoff_base_s": -1.0}, "backoff_base_s"),
        ({"backoff_multiplier": 0.5}, "backoff_multiplier"),
        ({"backoff_max_s": 0.0}, "backoff_max_s"),
        ({"jitter": 1.5}, "jitter"),
        ({"budget_s": 0.0}, "budget_s"),
        ({"drain_timeout_s": 0.0}, "drain_timeout_s"),
        ({"reconnect_attempts": 0}, "reconnect_attempts"),
        ({"breaker_threshold": 0}, "breaker_threshold"),
    ])
    def test_rejects_non_positive_knobs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RetryPolicy(**kwargs)

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown retry policy key "
                                             "'attempts'"):
            RetryPolicy.from_spec({"attempts": 3})

    def test_backoff_grows_exponentially_and_clamps(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_multiplier=2.0,
                             backoff_max_s=3.0)
        assert policy.backoff_delay(1) == 1.0
        assert policy.backoff_delay(2) == 2.0
        assert policy.backoff_delay(3) == 3.0  # clamped, not 4.0
        assert policy.backoff_delay(10) == 3.0

    def test_jittered_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, jitter=1.0, seed=5)
        delays = [policy.backoff_delay(1, slot) for slot in range(8)]
        replays = [policy.backoff_delay(1, slot) for slot in range(8)]
        assert delays == replays
        assert all(0.5 <= delay <= 1.5 for delay in delays)
        assert len(set(delays)) > 1  # jitter actually varies per slot

    def test_seeded_jitter_replays_and_varies(self):
        draws = {(s, a): seeded_jitter(s, a) for s in range(3)
                 for a in range(1, 4)}
        for (s, a), value in draws.items():
            assert value == seeded_jitter(s, a)
            assert 0.0 <= value < 1.0
        assert len(set(draws.values())) == len(draws)


# ---------------------------------------------------------------------- #
# FaultPlan
# ---------------------------------------------------------------------- #
class TestFaultPlan:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError, match="frame_drop_probability"):
            FaultPlan(frame_drop_probability=1.5)
        with pytest.raises(ValueError, match="sum to at most 1"):
            FaultPlan(frame_drop_probability=0.6,
                      connection_reset_probability=0.6)

    def test_fault_dataclasses_validate(self):
        with pytest.raises(ValueError, match="unknown frame fault action"):
            FrameFault("explode")
        with pytest.raises(ValueError, match="cycle must be positive"):
            ShardKill(cycle=0, slot=0)
        with pytest.raises(ValueError, match="seconds must be positive"):
            StragglerWave(cycles=(1,), slots=(0,), seconds=0.0)

    def test_from_spec_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key "
                                             "'shard_kills'"):
            FaultPlan.from_spec({"shard_kills": []})

    def test_scheduled_faults_resolve_per_cycle(self):
        plan = FaultPlan.from_spec({
            "shard_kill": [{"cycle": 3, "slot": 1}, {"cycle": 3, "slot": 0}],
            "straggler_wave": [{"cycles": [2, 3], "slots": [1],
                                "seconds": 0.25}],
        })
        assert plan.kills_for_cycle(3) == [0, 1]
        assert plan.kills_for_cycle(2) == []
        assert plan.straggle_seconds(2, 1) == 0.25
        assert plan.straggle_seconds(2, 0) == 0.0
        assert plan.straggle_seconds(4, 1) == 0.0

    def test_frame_fault_stream_replays_identically(self):
        plan = FaultPlan(seed=9, frame_drop_probability=0.3,
                         frame_delay_probability=0.2)
        stream = plan.frame_fault_stream(2, 1)
        first = [stream() for _ in range(32)]
        replay_stream = plan.frame_fault_stream(2, 1)
        second = [replay_stream() for _ in range(32)]
        assert first == second
        assert any(fault is not None for fault in first)
        # Distinct (cycle, slot) keys draw from independent streams.
        other_stream = plan.frame_fault_stream(2, 0)
        other = [other_stream() for _ in range(32)]
        assert other != first

    def test_streams_are_order_independent(self):
        """Creating/consuming slot streams in any order gives the same
        per-slot decisions (no shared global RNG)."""
        plan = FaultPlan(seed=4, connection_reset_probability=0.5)
        forward = {slot: plan.frame_fault_stream(1, slot)()
                   for slot in range(6)}
        backward = {slot: plan.frame_fault_stream(1, slot)()
                    for slot in reversed(range(6))}
        assert forward == backward
        assert any(fault is not None for fault in forward.values())


# ---------------------------------------------------------------------- #
# ChaosController against live backends
# ---------------------------------------------------------------------- #
def _serial_histories(cycles, seed=0):
    sim = make_tiny_simulation(seed=seed)
    from repro.baselines import SynchronousFLStrategy
    history = sim.run(SynchronousFLStrategy(), num_cycles=cycles)
    sim.close()
    return history


def _run_with_chaos(backend_name, plan, cycles, seed=0, strategy=None,
                    **backend_kwargs):
    """Run ``strategy`` (default: Syn. FL) with ``plan``'s faults fired
    at the start of every cycle; returns ``(history, events)``."""
    from repro.baselines import SynchronousFLStrategy

    strategy = strategy or SynchronousFLStrategy()
    sim = make_tiny_simulation(seed=seed)
    backend = sim.set_backend(backend_name, **backend_kwargs)
    controller = ChaosController(plan)
    backend.attach_chaos(controller)
    execute_cycle = strategy.execute_cycle

    def execute_chaos_cycle(cycle, sim):
        controller.begin_cycle(cycle)
        return execute_cycle(cycle, sim)

    strategy.execute_cycle = execute_chaos_cycle
    try:
        history = sim.run(strategy, num_cycles=cycles)
    finally:
        sim.close()
    return history, controller.events


class TestChaosInjection:
    def test_serial_backend_refuses_chaos(self):
        backend = make_backend("serial")
        with pytest.raises(RuntimeError, match="does not support fault "
                                               "injection"):
            backend.attach_chaos(ChaosController(FaultPlan()))

    @pytest.mark.parametrize("backend_name", ["persistent", "sharded"])
    def test_shard_kill_rebalance_matches_serial(self, backend_name):
        """Tier-1 determinism gate: a kill at cycle 2 under rebalance
        yields a history bit-identical to the undisturbed serial run."""
        plan = FaultPlan(seed=3, shard_kills=(ShardKill(cycle=2, slot=0),))
        history, events = _run_with_chaos(
            backend_name, plan, cycles=3, max_workers=2,
            on_shard_failure="rebalance")
        reference = _serial_histories(cycles=3)
        assert [e["event"] for e in events] == ["shard_kill"]
        assert events[0] == {"cycle": 2, "event": "shard_kill", "slot": 0}
        for ours, theirs in zip(history.records, reference.records):
            assert ours.global_accuracy == theirs.global_accuracy
            assert ours.mean_train_loss == theirs.mean_train_loss
            assert ours.dropped_clients == ()

    @pytest.mark.parametrize("backend_name", ["persistent", "sharded"])
    def test_shard_kill_degrade_records_dropped_clients(self, backend_name):
        """Under degrade the dead shard's clients are dropped from the
        cycle, recorded in the history, and training continues over the
        survivors (re-weighted aggregation, replayable)."""
        plan = FaultPlan(seed=3, shard_kills=(ShardKill(cycle=2, slot=0),))
        history, events = _run_with_chaos(
            backend_name, plan, cycles=3, max_workers=2,
            on_shard_failure="degrade")
        replay, replay_events = _run_with_chaos(
            backend_name, plan, cycles=3, max_workers=2,
            on_shard_failure="degrade")
        assert events == replay_events
        wounded = history.records[1]
        assert wounded.cycle == 2
        assert wounded.dropped_clients  # somebody was dropped
        assert wounded.participating_clients == \
            3 - len(wounded.dropped_clients)
        # Degraded aggregation diverges from the full-fleet run...
        reference = _serial_histories(cycles=3)
        assert wounded.global_accuracy != \
            reference.records[1].global_accuracy or \
            wounded.mean_train_loss != reference.records[1].mean_train_loss
        # ...but replays exactly.
        for ours, again in zip(history.records, replay.records):
            assert ours.global_accuracy == again.global_accuracy
            assert ours.dropped_clients == again.dropped_clients
        # Cycles before/after the kill run the full fleet.
        assert history.records[0].dropped_clients == ()
        assert history.records[2].dropped_clients == ()

    @pytest.mark.parametrize("backend_name", ["persistent", "sharded"])
    @pytest.mark.parametrize("strategy_name", ["async_fl", "afo"])
    def test_async_strategies_survive_a_degraded_cycle(self, strategy_name,
                                                       backend_name):
        """Regression: Asyn. FL and AFO dereferenced the ``None`` a
        dropped client leaves in a degraded batch.  Only survivors count
        now, and a dropped stale delivery is delivered again next cycle
        from the same snapshot."""
        from repro.baselines import AFOStrategy, AsynchronousFLStrategy
        cls = {"async_fl": AsynchronousFLStrategy,
               "afo": AFOStrategy}[strategy_name]
        strategy = cls(aggregation_period=1)
        plan = FaultPlan(seed=3, shard_kills=(ShardKill(cycle=2, slot=0),))
        history, events = _run_with_chaos(
            backend_name, plan, cycles=3, strategy=strategy, max_workers=2,
            on_shard_failure="degrade")
        assert [e["event"] for e in events] == ["shard_kill"]
        first, wounded, healed = history.records
        straggler = strategy.straggler_indices()[0]
        dropped_straggler = straggler in wounded.dropped_clients
        assert wounded.dropped_clients
        assert first.dropped_clients == healed.dropped_clients == ()
        # Cycle 1 only starts the straggler's training.
        assert first.extra["stale_deliveries"] == 0
        assert wounded.participating_clients == \
            first.participating_clients + 1 - len(wounded.dropped_clients)
        # A delivered straggler starts a fresh training in cycle 3; a
        # dropped delivery stays pending and is delivered then instead.
        assert wounded.extra["stale_deliveries"] == \
            (0 if dropped_straggler else 1)
        assert healed.extra["stale_deliveries"] == \
            (1 if dropped_straggler else 0)
        assert healed.participating_clients == \
            first.participating_clients + healed.extra["stale_deliveries"]

    def test_straggler_wave_slows_but_preserves_results(self):
        plan = FaultPlan(straggler_waves=(
            StragglerWave(cycles=(1,), slots=(0, 1), seconds=0.05),))
        history, events = _run_with_chaos(
            "persistent", plan, cycles=2, max_workers=2)
        reference = _serial_histories(cycles=2)
        straggles = [e for e in events if e["event"] == "straggle"]
        assert {e["slot"] for e in straggles} == {0, 1}
        assert all(e["cycle"] == 1 for e in straggles)
        assert len(straggles) == 2  # recorded once per (cycle, slot)
        for ours, theirs in zip(history.records, reference.records):
            assert ours.global_accuracy == theirs.global_accuracy

    def test_frame_faults_recover_bit_identically(self):
        plan = FaultPlan(seed=1, frame_drop_probability=0.3,
                         connection_reset_probability=0.15)
        history, events = _run_with_chaos(
            "sharded", plan, cycles=2, max_workers=2,
            on_shard_failure="rebalance",
            retry_policy={"max_attempts": 10, "backoff_base_s": 0.01,
                          "backoff_max_s": 0.05})
        reference = _serial_histories(cycles=2)
        assert any(e["event"].startswith("frame_") for e in events)
        for ours, theirs in zip(history.records, reference.records):
            assert ours.global_accuracy == theirs.global_accuracy
            assert ours.mean_train_loss == theirs.mean_train_loss


# ---------------------------------------------------------------------- #
# Retry substrate regressions
# ---------------------------------------------------------------------- #
def _train_twice_serial(seed=0):
    sim = make_tiny_simulation(seed=seed)
    sim.train_clients(sim.client_indices())
    second = sim.train_clients(sim.client_indices())
    sim.close()
    return second


def _assert_updates_equal(expected_updates, actual_updates):
    assert len(expected_updates) == len(actual_updates)
    for expected, actual in zip(expected_updates, actual_updates):
        assert expected.client_id == actual.client_id
        assert expected.train_loss == actual.train_loss
        for key in expected.weights:
            np.testing.assert_array_equal(expected.weights[key],
                                          actual.weights[key])


class TestRetrySubstrate:
    def test_heartbeat_probe_failover_stays_serial_identical(self):
        """Probe-triggered rebalance respawns the dead shard and the
        updates stay bit-identical to serial."""
        serial_second = _train_twice_serial()
        backend = ShardedSocketBackend(shards=2, on_failure="rebalance",
                                       heartbeat_interval=0.0)
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            sim.train_clients(sim.client_indices())  # residents built
            proc = backend._procs[0]
            proc.kill()
            proc.wait(timeout=10)
            # The pre-dispatch health probe sees the corpse, rebalances,
            # and the fresh shard rebuilds its residents from re-shipped
            # specs.
            second = sim.train_clients(sim.client_indices())
        finally:
            sim.close()
        _assert_updates_equal(serial_second, second)

    def test_double_shard_kill_same_batch_rebalances(self):
        """Regression: both shards SIGKILLed between batches recover
        under rebalance within the policy's attempt cap."""
        serial_second = _train_twice_serial()
        backend = ShardedSocketBackend(shards=2, on_failure="rebalance")
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            sim.train_clients(sim.client_indices())
            for slot in (0, 1):
                proc = backend._procs[slot]
                proc.kill()
                proc.wait(timeout=10)
            second = sim.train_clients(sim.client_indices())
        finally:
            sim.close()
        _assert_updates_equal(serial_second, second)

    def test_breaker_declares_flapping_shard_dead(self):
        """With breaker_threshold=1 a single strike retires the slot:
        its clients migrate and the slot never hosts work again."""
        sim = make_tiny_simulation()
        backend = sim.set_backend(
            "persistent", max_workers=2, on_shard_failure="rebalance",
            retry_policy=RetryPolicy(breaker_threshold=1))
        try:
            sim.train_clients(sim.client_indices())
            proc = backend._procs[0]
            proc.kill()
            proc.wait(timeout=10)
            sim.train_clients(sim.client_indices())
            assert 0 in backend._dead_slots
            assert all(slot != 0
                       for slot in backend._placement.values())
        finally:
            sim.close()

    def test_backend_knobs_reject_bad_values(self):
        with pytest.raises(ValueError, match="connect_timeout must be "
                                             "positive"):
            make_backend("sharded", connect_timeout=0.0)
        with pytest.raises(ValueError, match="retry_policy must be a "
                                             "RetryPolicy"):
            ShardedSocketBackend(retry_policy="aggressive", fork=True)
        with pytest.raises(ValueError, match="retry_policy only applies"):
            make_backend("serial", retry_policy={"max_attempts": 2})
        with pytest.raises(ValueError, match="connect_timeout only "
                                             "applies"):
            make_backend("serial", connect_timeout=5.0)

    def test_reconnect_attempts_drive_external_strikes(self):
        """An external shard survives the failure that killed its
        connection plus ``reconnect_attempts`` failed reconnects; the
        next failure declares its slot dead."""
        backend = ShardedSocketBackend(
            shards=["127.0.0.1:1", "127.0.0.1:2"],
            retry_policy=RetryPolicy(reconnect_attempts=3))
        try:
            for _ in range(3):
                assert backend._failover(_SlotFailed(0, "testing"))
                assert 0 not in backend._dead_slots
            assert backend._failover(_SlotFailed(0, "testing"))
            assert 0 in backend._dead_slots
        finally:
            backend.close()
