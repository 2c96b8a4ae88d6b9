"""Chaos engine tests: seeded fault plans, failure detection, degradation.

Three layers under test:

* the pure pieces — :class:`FaultPlan` validation and stream
  determinism;
* fault injection against live resident backends — scheduled shard
  kills recover bit-identically under ``rebalance`` and drop exactly
  the dead shard's clients under ``degrade``, across both resident
  backends (the tier-1 chaos suite of the acceptance criteria);
* the regression corners of the failure path — a slot that died
  between batches is found before anything is dispatched, a hung slot
  fails at the reply deadline, two shards SIGKILLed in the same batch,
  and the external-shard reconnect allowance.
"""

import os
import signal

import numpy as np
import pytest

from repro.fl import executor
from repro.fl.chaos import (ChaosController, FaultPlan, FrameFault,
                            ShardKill, StragglerWave)
from repro.fl.executor import (RECONNECT_ATTEMPTS, SerialBackend, ShardError,
                               ShardedSocketBackend, TrainingJob, _SlotFailed,
                               make_backend)

from ..conftest import local_train_jobs, make_tiny_simulation, train_clients


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
                    probe_health=False, **backend_kwargs):
    """Run ``strategy`` (default: Syn. FL) with ``plan``'s faults fired
    at the start of every cycle, each followed by a
    ``backend.check_health()`` if ``probe_health``; returns ``(history,
    events)``."""
    from repro.baselines import SynchronousFLStrategy

    strategy = strategy or SynchronousFLStrategy()
    sim = make_tiny_simulation(seed=seed)
    backend = sim.set_backend(backend_name, **backend_kwargs)
    controller = ChaosController(plan)
    backend.attach_chaos(controller)
    execute_cycle = strategy.execute_cycle

    def execute_chaos_cycle(cycle, sim):
        controller.begin_cycle(cycle)
        if probe_health:
            backend.check_health()
        return execute_cycle(cycle, sim)

    strategy.execute_cycle = execute_chaos_cycle
    try:
        history = sim.run(strategy, num_cycles=cycles)
    finally:
        sim.close()
    return history, controller.events


class _DroppingSerial(SerialBackend):
    """In-process replica of a degraded run: the clients ``drops[n]``
    names sit the ``n``-th fold batch out — no training, no RNG step, no
    factor in the fold — exactly as a dead slot's clients do."""

    def __init__(self, drops):
        self.drops = drops
        self.batches = 0
        self.dropped = ()

    def run_fold(self, clients, jobs, weight_factors, structure=None,
                 partial=True):
        self.batches += 1
        self.dropped = tuple(sorted(self.drops.get(self.batches, ())))
        kept = [position for position, job in enumerate(jobs)
                if job.index not in self.dropped]
        partials, kept_summaries = super().run_fold(
            clients, [jobs[position] for position in kept],
            [weight_factors[position] for position in kept],
            structure=structure, partial=partial)
        summaries = [None] * len(jobs)
        for position, summary in zip(kept, kept_summaries):
            summaries[position] = summary
        return partials, summaries

    def consume_dropped_clients(self):
        dropped, self.dropped = self.dropped, ()
        return dropped


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
        from the same snapshot.  Where the dropped jobs' share goes (over
        the survivors and AFO's kept global, in proportion to their
        factors) is the same on a SIGKILLed resident slot as in an
        in-process replica that drops the same clients."""
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
        replica_sim = make_tiny_simulation()
        replica_sim.set_backend(_DroppingSerial({2: wounded.dropped_clients}))
        replica = replica_sim.run(cls(aggregation_period=1), num_cycles=3)
        assert replica.records == history.records

    def test_dropped_share_spreads_over_survivors_and_kept_global(self):
        """The degrade contract in numbers: a dropped job leaves its
        factor out of the fold, and the finalize divides by the summed
        weight of what was folded — the survivors and the kept global."""
        sim = make_tiny_simulation()
        sim.set_backend(_DroppingSerial({1: (1,)}))
        start = sim.server.get_global_weights()
        twin = make_tiny_simulation()
        survivors = local_train_jobs(twin.clients, [
            TrainingJob(index=index, weights=start) for index in (0, 2)])
        factors, kept = [0.3, 0.2, 0.1], 0.4
        summaries = sim.train_and_aggregate(
            [0, 1, 2], client_weights=factors, keep_global=kept)
        assert [summary.index for summary in summaries] == [0, 2]
        share = factors[0] + factors[2] + kept
        for name, value in sim.server.get_global_weights().items():
            expected = (factors[0] * survivors[0].weights[name].astype(float)
                        + factors[2] * survivors[1].weights[name]
                        + kept * start[name].astype(float)) / share
            np.testing.assert_allclose(value, expected, rtol=1e-6,
                                       atol=1e-7, err_msg=name)

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
            on_shard_failure="rebalance")
        reference = _serial_histories(cycles=2)
        assert any(e["event"].startswith("frame_") for e in events)
        for ours, theirs in zip(history.records, reference.records):
            assert ours.global_accuracy == theirs.global_accuracy
            assert ours.mean_train_loss == theirs.mean_train_loss

    def test_health_probes_draw_no_frame_faults(self):
        """Only request frames consult the fault injector: pings sent
        between cycles leave a seeded run's fault log and history as
        they are.  A ping that drew from the stream would shift every
        later dispatch's fate, and a faulted one would log an event."""
        plan = FaultPlan(seed=1, frame_drop_probability=0.3,
                         connection_reset_probability=0.15)
        runs = [_run_with_chaos("persistent", plan, cycles=3,
                                max_workers=2, on_shard_failure="rebalance",
                                probe_health=probe)
                for probe in (False, True)]
        (history, events), (probed_history, probed_events) = runs
        assert any(e["event"].startswith("frame_") for e in events)
        assert probed_events == events
        assert probed_history.records == history.records


# ---------------------------------------------------------------------- #
# Retry substrate regressions
# ---------------------------------------------------------------------- #
def _train_twice_serial(seed=0):
    sim = make_tiny_simulation(seed=seed)
    train_clients(sim, sim.client_indices())
    second = train_clients(sim, sim.client_indices())
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


def _failure_contexts(backend, monkeypatch):
    """Record the context of every slot failure ``backend`` handles."""
    contexts = []
    recover = backend._recover_or_raise

    def recording(failure, attempts):
        contexts.append(failure.context)
        return recover(failure, attempts)

    monkeypatch.setattr(backend, "_recover_or_raise", recording)
    return contexts


class TestRetrySubstrate:
    def test_slot_dead_between_batches_fails_before_dispatch(
            self, monkeypatch):
        """A forked slot SIGKILLed between batches is found by the
        pre-batch readability check — before any slot is sent the
        batch, so no survivor trains for nothing — and the rebalanced
        retry stays bit-identical to serial (``TestHeartbeat`` in
        ``test_sharded.py`` covers TCP shards)."""
        serial_second = _train_twice_serial()
        backend = ShardedSocketBackend(fork=True, max_workers=2,
                                       on_failure="rebalance")
        contexts = _failure_contexts(backend, monkeypatch)
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())  # residents built
            proc = backend._procs[0]
            proc.kill()
            proc.wait(timeout=10)
            second = train_clients(sim, sim.client_indices())
        finally:
            sim.close()
        assert contexts == ["waiting for a batch"]
        _assert_updates_equal(serial_second, second)

    @pytest.mark.parametrize("fork", [True, False],
                             ids=["persistent", "sharded"])
    def test_hung_slot_fails_at_the_reply_deadline(self, fork, monkeypatch):
        """A SIGSTOPped slot is alive and connected but never answers:
        the reply deadline fails it, rebalance replaces it, and the
        retry stays bit-identical to serial."""
        monkeypatch.setattr(executor, "REPLY_DEADLINE_S", 1.0)
        serial_second = _train_twice_serial()
        backend = ShardedSocketBackend(
            **({"fork": True, "max_workers": 2} if fork else {"shards": 2}),
            on_failure="rebalance")
        contexts = _failure_contexts(backend, monkeypatch)
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            hung = backend._procs[0]
            os.kill(hung.pid, signal.SIGSTOP)
            second = train_clients(sim, sim.client_indices())
            assert backend._procs[0] is not hung
            assert hung.poll() is not None  # killed and reaped, not left
        finally:
            sim.close()
        assert contexts == ["running a batch"]
        _assert_updates_equal(serial_second, second)

    def test_double_shard_kill_same_batch_rebalances(self):
        """Regression: both shards SIGKILLed between batches recover
        under rebalance within the attempt cap."""
        serial_second = _train_twice_serial()
        backend = ShardedSocketBackend(shards=2, on_failure="rebalance")
        sim = make_tiny_simulation()
        sim.set_backend(backend)
        try:
            train_clients(sim, sim.client_indices())
            for slot in (0, 1):
                proc = backend._procs[slot]
                proc.kill()
                proc.wait(timeout=10)
            second = train_clients(sim, sim.client_indices())
        finally:
            sim.close()
        _assert_updates_equal(serial_second, second)

    def test_backend_knobs_reject_bad_values(self):
        with pytest.raises(ValueError, match="max_workers must be "
                                             "positive"):
            make_backend("sharded", max_workers=0)
        with pytest.raises(ValueError, match="unknown failure policy"):
            ShardedSocketBackend(on_failure="retry", fork=True)
        with pytest.raises(ValueError, match="on_shard_failure only "
                                             "applies"):
            make_backend("serial", on_shard_failure="rebalance")
        # Detection and retries are constants, not keywords.
        for knob in ("retry_policy", "heartbeat_interval",
                     "connect_timeout"):
            with pytest.raises(TypeError, match=knob):
                make_backend("sharded", **{knob: 1.0})

    def test_reconnect_attempts_drive_external_strikes(self):
        """An external shard survives the failure that killed its
        connection plus ``RECONNECT_ATTEMPTS`` failed reconnects; the
        next failure declares its slot dead."""
        backend = ShardedSocketBackend(
            shards=["127.0.0.1:1", "127.0.0.1:2"], on_failure="rebalance")
        try:
            for attempt in range(1, RECONNECT_ATTEMPTS + 1):
                backend._recover_or_raise(_SlotFailed(0, "testing"),
                                          attempt)
                assert backend._slots[0].state == "up"
            backend._recover_or_raise(_SlotFailed(0, "testing"),
                                      RECONNECT_ATTEMPTS + 1)
            assert backend._slots[0].state == "dead"
            assert backend._eligible_slots() == [1]
        finally:
            backend.close()


class TestSlotRecord:
    """The failure policies as transitions of one slot record."""

    @pytest.mark.parametrize(
        "policy, external, prior_failures, attempts, expected", [
            ("abort", False, 0, 1, "raise"),
            ("rebalance", False, 0, 1, "up"),
            # A local slot respawns however often it fails...
            ("rebalance", False, 9, 1, "up"),
            ("rebalance", True, 0, 1, "up"),
            # ...an external one only RECONNECT_ATTEMPTS times in a row.
            ("rebalance", True, RECONNECT_ATTEMPTS, 1, "dead"),
            ("degrade", False, 0, 1, "out"),
            ("degrade", True, RECONNECT_ATTEMPTS, 1, "out"),
            # Past the per-batch attempt cap every policy aborts.
            ("rebalance", False, 0, 9, "raise"),
            ("degrade", False, 0, 9, "raise"),
        ])
    def test_failure_moves_the_record(self, policy, external,
                                      prior_failures, attempts, expected):
        backend = ShardedSocketBackend(
            **({"shards": ["127.0.0.1:1", "127.0.0.1:2"]} if external
               else {"fork": True, "max_workers": 2}),
            on_failure=policy)
        backend._placement = {0: 0, 1: 1}
        backend._slots[0].failures = prior_failures
        try:
            if expected == "raise":
                with pytest.raises(ShardError) as excinfo:
                    backend._recover_or_raise(_SlotFailed(0, "testing"),
                                              attempts)
                assert excinfo.value.slot == 0
                # Aborting closes the backend: fresh records, no
                # placements.
                assert [slot.state for slot in backend._slots] == \
                    ["up", "up"]
                assert backend._placement == {}
                return
            backend._recover_or_raise(_SlotFailed(0, "testing"), attempts)
            slot = backend._slots[0]
            assert slot.state == expected
            assert slot.failures == prior_failures + 1
            assert slot.channel is None and slot.proc is None
            # Only a dead slot gives its clients up; an "out" slot keeps
            # them, which is what records them as dropped.
            assert (0 in backend._placement) == (expected != "dead")
        finally:
            backend.close()

    def test_out_returns_up_and_failures_reset_on_the_next_batch(self):
        backend = ShardedSocketBackend(fork=True, max_workers=2,
                                       on_failure="degrade")
        try:
            backend._recover_or_raise(_SlotFailed(0, "testing"), 1)
            assert backend._eligible_slots() == [1]
            assert backend._with_failover(lambda: "done") == "done"
            assert [(slot.state, slot.failures)
                    for slot in backend._slots] == [("up", 0), ("up", 0)]
        finally:
            backend.close()

    def test_no_slot_left_up_aborts(self):
        backend = ShardedSocketBackend(shards=["127.0.0.1:1"],
                                       on_failure="degrade")
        with pytest.raises(ShardError, match="testing"):
            backend._recover_or_raise(_SlotFailed(0, "testing"), 1)
