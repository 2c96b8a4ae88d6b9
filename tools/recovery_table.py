"""Recovery table: how the resident backends detect and recover faults.

Runs the three CI scenarios (``examples/scenario_*.json``, ``sharded``
over forked local slots) plus two faults they lack, on ``persistent``
slots, and prints one markdown row per run:

* ``failures`` — slot failures the failure policy handled;
* ``retries`` — the most recovery attempts one batch needed;
* ``detect_ms`` — from a scheduled kill or hang to the failure reaching
  the policy (``-`` for wire faults, which fail the send they strike);
* ``recover_ms`` — from the first failure of a batch to that batch's
  end, summed over the run's failed batches;
* ``digest`` — the run's history: ``=serial`` when it is bit-identical
  to the fault-free serial run (checked under ``rebalance``), else a
  short hash.

The extra rows are a slot SIGKILLed between batches while its neighbour
trains a slow batch (what a pre-batch liveness check saves is the
neighbour's wasted batch), and a SIGSTOPped slot — alive, connected and
silent, which only a reply deadline catches.  The hang rows shorten the
deadline to ``--hang-deadline`` seconds so the table finishes.  Exits 1
if a run raised or a ``rebalance`` run left the serial history.

    PYTHONPATH=src python tools/recovery_table.py
    PYTHONPATH=src python tools/recovery_table.py --rows hang --seeds 1,2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.experiments.scenario import compare_histories, run_scenario
from repro.experiments.spec import ScenarioSpec, load_spec
from repro.fl import executor
from repro.fl.chaos import ChaosController

ROOT = Path(__file__).resolve().parent.parent


def _inline(name: str, backend: str, faults: Dict[str, Any]
            ) -> ScenarioSpec:
    return load_spec({"name": name, "seed": 5, "cycles": 3,
                      "fleet": {"num_capable": 2, "num_stragglers": 1,
                                "samples_per_client": 24},
                      "strategy": {"name": "sync_fl"},
                      "backend": {"name": backend, "workers": 2,
                                  "on_failure": "rebalance"},
                      "faults": faults})


def rows() -> Dict[str, List[ScenarioSpec]]:
    """The row groups: the CI scenarios, a kill beside a busy slot, a hang."""
    return {
        "ci": [load_spec(ROOT / "examples" / name) for name in (
            "scenario_shard_kill.json", "scenario_degrade.json",
            "scenario_flaky_links.json")],
        # Both resident names fork their local slots: one backend times
        # the fork path.
        "kill": [_inline("kill-persistent", "persistent", {
                     "shard_kill": [{"cycle": 2, "slot": 1}],
                     "straggler_wave": [{"cycles": [2], "slots": [0],
                                         "seconds": 0.3}]})],
        # Scheduled like a kill; the probe turns it into a SIGSTOP.
        "hang": [_inline("hang-persistent", "persistent", {
                     "shard_kill": [{"cycle": 2, "slot": 0}]})],
    }


class _Probe:
    """Wall-clock taps on the failure path (measurement only)."""

    def __init__(self) -> None:
        self.faults: List[float] = []
        self.batches: List[Dict[str, Any]] = []
        self._current: Optional[Dict[str, Any]] = None

    @contextmanager
    def installed(self, hang: bool) -> Iterator["_Probe"]:
        backend_cls = executor.ShardedSocketBackend
        with_failover = backend_cls._with_failover
        recover = backend_cls._recover_or_raise
        kill_slot = ChaosController._kill_slot
        probe = self

        def timed_batch(backend: Any, attempt: Any) -> Any:
            record: Dict[str, Any] = {"failures": []}
            probe._current = record
            try:
                return with_failover(backend, attempt)
            finally:
                record["end"] = time.perf_counter()
                if record["failures"]:
                    probe.batches.append(record)

        def timed_recover(backend: Any, failure: Any, attempts: int) -> None:
            if probe._current is not None:
                probe._current["failures"].append(time.perf_counter())
            return recover(backend, failure, attempts)

        def timed_fault(controller: Any, slot: int) -> bool:
            if hang:
                proc = controller.backend._procs.get(slot)
                done = proc is not None and proc.poll() is None
                if done:
                    os.kill(proc.pid, signal.SIGSTOP)
            else:
                done = kill_slot(controller, slot)
            if done:
                probe.faults.append(time.perf_counter())
            return done

        backend_cls._with_failover = timed_batch
        backend_cls._recover_or_raise = timed_recover
        ChaosController._kill_slot = timed_fault
        try:
            yield self
        finally:
            backend_cls._with_failover = with_failover
            backend_cls._recover_or_raise = recover
            ChaosController._kill_slot = kill_slot

    def summary(self) -> Dict[str, Any]:
        detect = []
        for record in self.batches:
            first = record["failures"][0]
            before = [fault for fault in self.faults if fault <= first]
            if before:
                detect.append(first - max(before))
        return {
            "failures": sum(len(r["failures"]) for r in self.batches),
            "retries": max((len(r["failures"]) for r in self.batches),
                           default=0),
            "detect_ms": (1e3 * statistics.median(detect) if detect
                          else None),
            "recover_ms": 1e3 * sum(r["end"] - r["failures"][0]
                                    for r in self.batches),
        }


def _digest(history: Any) -> str:
    rows = [(r.global_accuracy, r.mean_train_loss, list(r.dropped_clients))
            for r in history.records]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:10]


def measure(spec: ScenarioSpec, seed: Optional[int], hang: bool,
            overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Run one scenario under the probe; one table row as a dict."""
    probe = _Probe()
    try:
        spec = load_spec(replace(spec, backend=replace(spec.backend,
                                                       **overrides)),
                         seed=seed)
        with probe.installed(hang):
            result = run_scenario(spec)
    except Exception as exc:  # a failed run is a row, not a crash
        return {"name": spec.name,
                "error": f"{type(exc).__name__}: {exc}"[:100]}
    row = {"name": result.name, "seed": result.seed,
           "backend": spec.backend.name,
           "policy": spec.backend.on_failure or "abort",
           **probe.summary(), "digest": _digest(result.history)}
    if row["policy"] == "rebalance":
        reference = run_scenario(spec.serial_reference())
        if not compare_histories(result.history, reference.history):
            row["digest"] = "=serial"
    return row


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.0f}"
    return str(value)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", default="ci,kill,hang",
                        help="comma-separated row groups (ci, kill, hang)")
    parser.add_argument("--seeds", default="",
                        help="comma-separated seeds (default: each spec's)")
    parser.add_argument("--hang-deadline", type=float, default=2.0,
                        help="reply deadline of the hang rows, seconds")
    parser.add_argument("--override", default="{}",
                        help="JSON of BackendConfig fields merged into "
                             "every backend")
    parser.add_argument("--json", action="store_true",
                        help="print one JSON object per row instead")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s] or [None]
    overrides = json.loads(args.override)
    groups = rows()
    columns = ("name", "seed", "backend", "policy", "failures", "retries",
               "detect_ms", "recover_ms", "digest")
    if not args.json:
        print("| " + " | ".join(columns) + " |")
        print("|" + "---|" * len(columns))
    deadline = executor.REPLY_DEADLINE_S
    status = 0
    for group in args.rows.split(","):
        hang = group == "hang"
        executor.REPLY_DEADLINE_S = args.hang_deadline if hang else deadline
        try:
            for spec in groups[group]:
                for seed in seeds:
                    row = measure(spec, seed, hang, overrides)
                    if "error" in row or (row["policy"] == "rebalance"
                                          and row["digest"] != "=serial"):
                        status = 1
                    if args.json:
                        print(json.dumps(row), flush=True)
                    elif "error" in row:
                        print(f"| {row['name']} | error: {row['error']} |",
                              flush=True)
                    else:
                        print("| " + " | ".join(_cell(row[c])
                                                for c in columns) + " |",
                              flush=True)
        finally:
            executor.REPLY_DEADLINE_S = deadline
    return status


if __name__ == "__main__":
    sys.exit(main())
