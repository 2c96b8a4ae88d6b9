"""Per-layer probes: public functions called directly and timed.

Run in the traced repetition after the timed run (so the workload's own
objects, updates and masks are at hand) and before ``sim.close()``.
Every probe reports the median of its iterations; a value of 0 means
the workload does not cross that layer.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.aggregation import (aggregate_partial, finalize_partials,
                                  fold_updates, merge_partials,
                                  normalize_weights)
from repro.fl.client import ClientUpdate, FLClient
from repro.fl.codec import KIND_RESULTS, decode_message, encode_message
from repro.fl.fusion import cluster_signature, train_cluster

from .workloads import Session

#: Clients the executor folds per chunk on the virtual path; the fold
#: and fusion probes of the virtual fleet use one chunk.
_VIRTUAL_CHUNK = 64
#: Capable clients the classic-vs-stacked probe trains at most.
_FUSION_CLIENTS = 16


@dataclass
class Taps:
    """What the traced run's wrappers keep for the probes."""

    #: ``(dispatch bytes, reply bytes)`` after each backend batch.
    batch_bytes: List[Tuple[int, int]] = field(default_factory=list)
    #: ``(method name, args, kwargs)`` of the last backend batch.
    last_call: Optional[Tuple[str, tuple, dict]] = None
    updates: Optional[List[ClientUpdate]] = None
    partials: Optional[list] = None


class Timer:
    """Median-of-N timing; ``iterations`` scales with the probe's cost."""

    def __init__(self, smoke: bool) -> None:
        self.smoke = smoke

    def median_s(self, fn: Callable[[], Any], iterations: int = 10,
                 budget_s: float = 2.0) -> float:
        """At least ``iterations`` calls — or, for a call so slow that
        they would exceed ``budget_s``, at least three."""
        if self.smoke:
            iterations = 2
        times: List[float] = []
        deadline = time.perf_counter() + budget_s
        for _ in range(iterations):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
            if len(times) >= 3 and time.perf_counter() > deadline:
                break
        return statistics.median(times)


def _capable_and_straggler(session: Session) -> Tuple[List[int], List[int]]:
    report = getattr(session.strategy, "report", None)
    stragglers = list(report.straggler_indices) if report else []
    capable = [index for index in session.sim.client_indices()
               if index not in stragglers]
    return capable, stragglers


def _replay_on_serial_twin(session: Session, taps: Taps, timer: Timer
                           ) -> Tuple[float, Optional[List[ClientUpdate]]]:
    """Time the traced run's last job batch on a serial-backend twin.

    Returns the median seconds and, for a fold batch, the per-client
    updates the serial fold saw (the resident backends never return
    them under hierarchical aggregation).
    """
    method, args, kwargs = taps.last_call
    twin = session.new_simulation()
    twin.set_backend("serial", aggregation=session.sim.backend.aggregation)
    seen: List[List[ClientUpdate]] = []
    if method == "run_fold":
        run_jobs = twin.backend.run_jobs

        def capturing_run_jobs(clients, jobs):
            seen.append(run_jobs(clients, jobs))
            return seen[-1]

        twin.backend.run_jobs = capturing_run_jobs
    # Every batch method but the virtual fold takes the fleet first.
    if method != "run_virtual_fold":
        args = (twin.clients,) + tuple(args[1:])
    batch = getattr(twin.backend, method)
    try:
        seconds = timer.median_s(lambda: batch(*args, **kwargs),
                                 iterations=5, budget_s=4.0)
    finally:
        twin.close()
    return seconds, (seen[-1] if seen else None)


def _train_rates(clients_a: Sequence[FLClient], clients_b: Sequence[FLClient],
                 weights: Dict[str, np.ndarray], timer: Timer
                 ) -> Tuple[float, float, List[ClientUpdate]]:
    """Clients/s of the per-client loop and of one stacked pass (0 when
    the fleet is not fusion-eligible), plus the loop's updates."""
    updates: List[ClientUpdate] = []

    def classic() -> None:
        updates[:] = [client.local_train(weights) for client in clients_a]

    classic_rate = len(clients_a) / timer.median_s(classic, iterations=5)
    members = [(client, SimpleNamespace(weights_ref=0, mask=None,
                                        local_epochs=None, base_cycle=0))
               for client in clients_b]
    signatures = {cluster_signature(client, SimpleNamespace(jobs=[job]),
                                    [weights]) for client, job in members}
    if len(signatures) != 1 or None in signatures:
        return classic_rate, 0.0, updates
    stacked_rate = len(members) / timer.median_s(
        lambda: train_cluster(members, [weights]), iterations=5)
    return classic_rate, stacked_rate, updates


def run_probes(session: Session, taps: Taps, warm_batch_ms: float,
               smoke: bool) -> Dict[str, float]:
    """All ``P`` metrics of one workload, keyed by metric name."""
    timer = Timer(smoke)
    sim, server, fleet = session.sim, session.sim.server, session.fleet
    backend = sim.backend
    structure = server.structure
    weights = server.get_global_weights()
    method, args, _ = taps.last_call
    jobs = args[1] if method in ("run_jobs", "run_fold") else None
    out: Dict[str, float] = {}

    # -- executor: the same batch on a serial twin -------------------- #
    updates = taps.updates
    if backend.name == "serial":
        out["executor.batch_serial_ms"] = warm_batch_ms
    else:
        seconds, twin_updates = _replay_on_serial_twin(session, taps, timer)
        out["executor.batch_serial_ms"] = seconds * 1e3
        updates = updates or twin_updates
    out["executor.speedup_vs_serial"] = (
        out["executor.batch_serial_ms"] / warm_batch_ms)

    # -- codec / transport -------------------------------------------- #
    out["codec.dispatch_encode_ms"] = 0.0 if jobs is None else 1e3 * (
        timer.median_s(lambda: backend.dispatch_payload_bytes(sim.clients,
                                                              jobs)))
    out["transport.ping_rtt_us"] = 0.0
    if hasattr(backend, "check_health"):
        def ping() -> None:
            dead = backend.check_health()
            if dead:
                raise RuntimeError(f"shards {dead} failed a health probe")
        out["transport.ping_rtt_us"] = 1e6 * timer.median_s(
            ping, iterations=50) / backend.num_slots

    # -- nn: local training, evaluation, classic vs stacked ----------- #
    capable, stragglers = _capable_and_straggler(session)
    if fleet is not None:
        chunk = [fleet.spec_for(index) for index in range(
            min(_VIRTUAL_CHUNK, fleet.num_clients))]
        full_spec = chunk[0]
        fusion_specs = chunk
    else:
        full_spec = sim.clients[capable[0]].spec
        fusion_specs = [sim.clients[index].spec
                        for index in capable[:_FUSION_CLIENTS]]
    full_client = full_spec.build()
    out["nn.local_train_full_ms"] = 1e3 * timer.median_s(
        lambda: full_client.local_train(weights))
    mask = None
    out["nn.local_train_masked_ms"] = out["nn.masked_train_ratio"] = 0.0
    if getattr(session.strategy, "selectors", None):
        straggler = stragglers[0]
        mask = next(job.mask for job in jobs if job.index == straggler)
        masked_client = sim.clients[straggler].spec.build()
        out["nn.local_train_masked_ms"] = 1e3 * timer.median_s(
            lambda: masked_client.local_train(weights, mask=mask))
        out["nn.masked_train_ratio"] = (out["nn.local_train_masked_ms"]
                                        / out["nn.local_train_full_ms"])
    out["nn.evaluate_ms"] = 1e3 * timer.median_s(server.evaluate)
    classic_rate, stacked_rate, chunk_updates = _train_rates(
        [spec.build() for spec in fusion_specs],
        [spec.build() for spec in fusion_specs], weights, timer)
    out["nn.classic_clients_per_s"] = classic_rate
    out["fusion.stacked_clients_per_s"] = stacked_rate
    if fleet is not None:
        # One in-shard fold chunk's worth of real virtual-client updates.
        updates = chunk_updates

    # -- codec reply + aggregation on one cycle's real updates -------- #
    frame = encode_message((KIND_RESULTS, updates))
    blob = frame.tobytes()
    out["codec.reply_frame_bytes"] = float(len(blob))
    out["codec.reply_encode_ms"] = 1e3 * timer.median_s(
        lambda: encode_message((KIND_RESULTS, updates)).tobytes())
    out["codec.reply_decode_ms"] = 1e3 * timer.median_s(
        lambda: decode_message(blob))
    factors = normalize_weights([float(update.num_samples)
                                 for update in updates])
    masked = any(update.mask is not None for update in updates)
    out["aggregation.partial_ms"] = 1e3 * timer.median_s(
        lambda: aggregate_partial(weights, updates, structure))
    out["aggregation.fold_ms"] = 1e3 * timer.median_s(
        lambda: fold_updates(updates, factors, structure=structure,
                             partial=masked))
    half = len(updates) // 2
    partials = taps.partials or [
        fold_updates(updates[:half], factors[:half], structure=structure,
                     partial=masked),
        fold_updates(updates[half:], factors[half:], structure=structure,
                     partial=masked)]
    out["aggregation.merge_ms"] = 1e3 * timer.median_s(
        lambda: merge_partials(partials))
    out["aggregation.finalize_ms"] = 1e3 * timer.median_s(
        lambda: finalize_partials(weights, partials, structure=structure))

    # -- per-client construction -------------------------------------- #
    out["data.virtual_dataset_ms"] = out["simulation.spec_for_ms"] = 0.0
    if fleet is not None:
        out["data.virtual_dataset_ms"] = 1e3 * timer.median_s(
            lambda: fleet.dataset_factory(7), iterations=50)
        out["simulation.spec_for_ms"] = 1e3 * timer.median_s(
            lambda: fleet.spec_for(7), iterations=50)
    out["client.build_ms"] = 1e3 * timer.median_s(full_spec.build,
                                                  iterations=50)

    # -- hardware cost model (the cached path bookkeeping pays) ------- #
    timed_index = stragglers[0] if mask is not None else 0
    out["hardware.cycle_seconds_us"] = 1e6 * timer.median_s(
        lambda: sim.client_cycle_seconds(timed_index, mask=mask),
        iterations=200)
    return out
