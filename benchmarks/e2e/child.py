"""One repetition of one workload, in an interpreter of its own.

Started by ``harness.py`` as a script; prints one JSON record as the
last line of standard output.  ``--t0`` is the parent's
``time.monotonic()`` just before the spawn (CLOCK_MONOTONIC is shared by
all processes of a Linux host), so ``setup_s`` covers interpreter start
and imports as well as building the simulation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
# Module level, not under the __main__ check: a worker process started
# by re-importing this file needs the same import path.
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from benchmarks.e2e import probes, workloads  # noqa: E402
from benchmarks.e2e.tracing import Tracer  # noqa: E402

_SHM_DIR = "/dev/shm"


def _shm_segments() -> set:
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:
        return set()


def _child_pids() -> List[int]:
    """Processes (zombies included) whose parent is this process."""
    me = str(os.getpid())
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                # pid (comm) state ppid ...; comm may contain spaces.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            children.append(int(entry))
    return children


def _digest(weights: Dict[str, Any], series: Sequence[float]) -> str:
    sha = hashlib.sha256()
    for name in sorted(weights):
        array = np.ascontiguousarray(weights[name])
        sha.update(f"{name}|{array.dtype}|{array.shape}|".encode())
        sha.update(array.tobytes())
    sha.update(np.asarray(series, dtype=np.float64).tobytes())
    return sha.hexdigest()


def _instrument(session, tracer, taps) -> None:
    """Set the traced wrappers on this repetition's instances."""
    sim = session.sim
    backend = sim.backend

    def after_batch(method):
        def record(args, kwargs, result):
            taps.batch_bytes.append((getattr(backend, "last_dispatch_bytes", 0),
                                     getattr(backend, "last_reply_bytes", 0)))
            taps.last_call = (method, args, kwargs)
            if method == "run_jobs":
                taps.updates = result
            elif backend.aggregation == "hierarchical":
                taps.partials = result[0]
        return record

    for method in ("run_jobs", "run_fold", "run_virtual_fold"):
        tracer.wrap(backend, method, "executor.batch",
                    after=after_batch(method))
    tracer.wrap(sim, "evaluate_global", "simulation.evaluate")
    tracer.wrap(sim.server, "aggregate", "aggregation.aggregate")
    tracer.wrap(sim.server, "install_partials", "aggregation.aggregate")
    for selector in getattr(session.strategy, "selectors", {}).values():
        tracer.wrap(selector, "select", "core.select")


def _timed_run(session, tracer, span, record: Dict[str, Any]) -> None:
    """The timed region.  Fills ``record``; on an exception the cycles
    that did finish are still accounted for."""
    sim = session.sim
    starts: List[float] = []
    series: List[float] = []
    samples = 0
    dropped = 0
    fractions: List[float] = []
    start = time.perf_counter()
    try:
        with span("simulation.run"):
            if session.fleet is None:
                timed = workloads.TimedStrategy(session.strategy, tracer)
                starts = timed.cycle_starts
                history = sim.run(timed, session.num_cycles)
            else:
                for cycle in range(1, session.num_cycles + 1):
                    starts.append(time.perf_counter())
                    if tracer is not None:
                        tracer.cycle = cycle
                    with span("simulation.cycle"):
                        loss, count = sim.run_virtual_cycle(session.fleet)
                    series.append(loss)
                    samples += count * session.samples_per_op(0)
                    dropped += session.ops_per_cycle - count
        end = time.perf_counter()
    except Exception:
        end = time.perf_counter()
        record["error"] = traceback.format_exc()
        starts = starts[:-1]          # the cycle that raised did not finish
        record["final_accuracy"] = 0.0
    else:
        if session.fleet is None:
            active = sim.client_indices()
            for cycle_record in history.records:
                trained = [index for index in active
                           if index not in cycle_record.dropped_clients]
                samples += sum(session.samples_per_op(index)
                               for index in trained)
                dropped += len(active) - len(trained)
                fractions.append(cycle_record.straggler_fraction_trained)
            series = history.accuracies() + history.losses()
            record["final_accuracy"] = history.final_accuracy()
        else:
            # One evaluation after the loop, outside the timed region.
            record["final_accuracy"] = sim.evaluate_global()
            series.append(record["final_accuracy"])
        record["digest"] = _digest(sim.server.get_global_weights(), series)
    edges = starts + [end]
    record["run_wall_s"] = end - start
    record["cycle_ms"] = [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]
    record["train_samples"] = samples
    record["ops_attempted"] = session.num_cycles * session.ops_per_cycle
    record["ops_failed"] = (
        (session.num_cycles - len(record["cycle_ms"])) * session.ops_per_cycle
        + dropped)
    record["straggler_fraction_trained"] = (
        statistics.fmean(fractions) if fractions else 1.0)


def _span_metrics(tracer, taps) -> Dict[str, float]:
    """The ``S`` and ``C`` metrics of the traced repetition."""
    def median_ms(name: str) -> float:
        spans = tracer.named(name)
        return statistics.median(span.ms for span in spans) if spans else 0.0

    def per_cycle_median(name: str, self_time: bool = False) -> float:
        totals = tracer.per_cycle_ms(name, self_time)
        return statistics.median(totals.values()) if totals else 0.0

    out = {
        "simulation.cycle_ms": median_ms("simulation.cycle"),
        "simulation.evaluate_ms": median_ms("simulation.evaluate"),
        "executor.batch_ms": median_ms("executor.batch"),
        "executor.spawn_ms": median_ms("executor.spawn"),
        "executor.teardown_ms": median_ms("executor.teardown"),
        "aggregation.aggregate_ms": median_ms("aggregation.aggregate"),
        "experiments.build_ms": median_ms("experiments.build"),
        # Per cycle: all of a cycle's selector calls together, and what
        # the cycle spent outside batch, aggregate and select.
        "core.select_ms": per_cycle_median("core.select"),
        "core.bookkeeping_ms": per_cycle_median("simulation.cycle",
                                                self_time=True),
        "trace.coverage_pct": tracer.coverage_pct("simulation.run"),
    }
    cold, warm = taps.batch_bytes[0], taps.batch_bytes[1:] or taps.batch_bytes
    for position, side in enumerate(("dispatch", "reply")):
        out[f"executor.{side}_bytes_cold"] = float(cold[position])
        out[f"executor.{side}_bytes_per_cycle"] = float(statistics.median(
            pair[position] for pair in warm))
    return out


def run_repetition(args: argparse.Namespace) -> Dict[str, Any]:
    shm_before = _shm_segments()
    tracer = Tracer(args.workload) if args.trace else None
    span = tracer.span if tracer is not None else workloads.no_span
    taps = probes.Taps()
    session = workloads.build(args.workload, args.seed, smoke=args.smoke,
                              backend=args.backend, span=span)
    if tracer is not None:
        _instrument(session, tracer, taps)
    record: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed,
        "traced": bool(args.trace), "backend": session.sim.backend.name,
        "error": None, "digest": None,
        "setup_s": time.monotonic() - args.t0,
    }
    try:
        _timed_run(session, tracer, span, record)
        if tracer is not None and record["error"] is None:
            batches = [s.ms for s in tracer.named("executor.batch")]
            warm_batch_ms = statistics.median(batches[1:] or batches)
            record["per_layer"] = probes.run_probes(
                session, taps, warm_batch_ms, args.smoke)
    finally:
        with span("executor.teardown"):
            session.sim.close()
    record["leaks"] = {"orphans": _child_pids(),
                       "shm": sorted(_shm_segments() - shm_before)}
    # getrusage, not os.times(): microsecond instead of 10 ms resolution.
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    record.update({
        "cpu_user_s": own.ru_utime + reaped.ru_utime,
        "cpu_sys_s": own.ru_stime + reaped.ru_stime,
        "parent_cpu_user_s": own.ru_utime,
        "worker_cpu_user_s": reaped.ru_utime,
        # ru_maxrss is KiB on Linux; RUSAGE_CHILDREN holds the largest
        # reaped child.
        "peak_rss_mb": (own.ru_maxrss + reaped.ru_maxrss) / 1024.0,
        "minor_faults": own.ru_minflt + reaped.ru_minflt,
    })
    if tracer is not None:
        if "per_layer" in record:
            record["per_layer"].update(_span_metrics(tracer, taps))
        record["self_time"] = tracer.self_time_table()
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    return record


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--backend", default=None,
                        help="'serial' builds the verification reference")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--fidelity", action="store_true",
                        help="run the Fig. 5 Helios-vs-Syn. FL pass instead")
    args = parser.parse_args(argv)
    if args.fidelity:
        record = workloads.fig5_fidelity(args.seed, smoke=args.smoke)
    else:
        record = run_repetition(args)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
