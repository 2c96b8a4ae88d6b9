"""Names, units, directions and bounds of every workload and metric.

This table is the single source of truth: ``BENCHMARK.json`` at the
repository root repeats it (``test_e2e_bench.py`` checks the two agree),
the harness prints by it and ``compare`` judges by it.  The module is
stdlib-only so the parent harness never imports NumPy.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence, Tuple

#: name -> one-line reason the workload exists (closed loop everywhere:
#: a cycle starts when the previous one finished; op = one client
#: training requested).
WORKLOADS: Dict[str, str] = {
    "fig5_lenet_serial":
        "Paper Fig. 5(a) Helios panel on LeNet, serial backend: all time "
        "is nn training + evaluation; executor, codec, transport idle.",
    "fleet32_persistent":
        "32 cheap MLP clients, Helios masks, 2 pipe workers, flat "
        "replies: dispatch encode, pipes, reply decode and parent-side "
        "aggregate_partial carry the cycle.",
    "fleet32_sharded_hier":
        "Same fleet under Syn. FL on 2 TCP shards with in-shard folds: "
        "sockets instead of pipes, one partial per shard, no masks; a "
        "flat-reply gain must read no change here.",
    "virtual2k_sharded":
        "2000 virtual clients per cycle on 2 shards, hierarchical: the "
        "parent is idle; all time is in-shard spec build, dataset "
        "synthesis, one-at-a-time training and fold.",
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Largest worsening that still counts as "no regression": a share
    #: of the baseline median, or an absolute difference when
    #: ``absolute`` is set.
    bound: float
    absolute: bool = False
    #: Whether the metric is in ``BENCHMARK.json`` (its contract wants
    #: relative bounds on values that are never 0, which rules out
    #: ``error_rate`` and the virtual fleet's chance-level accuracy).
    in_contract: bool = True


#: Bounds were fixed from measured spread, not from the issue's sketch
#: (10 % wall, 5 % CPU/RSS): on the shared 2-vCPU host the baseline was
#: taken on, identical work drifts by 15-25 % over minutes (README.md,
#: "Measured spread"), so a tighter bound would only flag the machine.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("run_wall_s", "s", "lower", 0.25),
    EndToEnd("cycle_p50_ms", "ms", "lower", 0.25),
    EndToEnd("train_samples_per_s", "samples/s", "higher", 0.25),
    EndToEnd("cpu_user_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.1),
    EndToEnd("final_accuracy", "fraction", "higher", 0.01,
             absolute=True, in_contract=False),
    EndToEnd("error_rate", "fraction", "lower", 0.0,
             absolute=True, in_contract=False),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


#: A value of 0 means "this workload does not cross that layer" (no
#: sockets on the pipe backend, no selector under Syn. FL, ...).
PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("simulation.cycle_ms", "ms", "lower"),
    PerLayer("simulation.cycle_tail_ms", "ms", "lower"),
    PerLayer("simulation.cycle_tail_pct", "%", "higher"),
    PerLayer("simulation.cycle_tail_n", "count", "higher"),
    PerLayer("simulation.evaluate_ms", "ms", "lower"),
    PerLayer("simulation.spec_for_ms", "ms", "lower"),
    PerLayer("executor.batch_ms", "ms", "lower"),
    PerLayer("executor.batch_serial_ms", "ms", "lower"),
    PerLayer("executor.speedup_vs_serial", "ratio", "higher"),
    PerLayer("executor.dispatch_bytes_per_cycle", "bytes", "lower"),
    PerLayer("executor.dispatch_bytes_cold", "bytes", "lower"),
    PerLayer("executor.reply_bytes_per_cycle", "bytes", "lower"),
    PerLayer("executor.reply_bytes_cold", "bytes", "lower"),
    PerLayer("executor.spawn_ms", "ms", "lower"),
    PerLayer("executor.teardown_ms", "ms", "lower"),
    PerLayer("codec.dispatch_encode_ms", "ms", "lower"),
    PerLayer("codec.reply_encode_ms", "ms", "lower"),
    PerLayer("codec.reply_decode_ms", "ms", "lower"),
    PerLayer("codec.reply_frame_bytes", "bytes", "lower"),
    PerLayer("transport.ping_rtt_us", "us", "lower"),
    PerLayer("aggregation.aggregate_ms", "ms", "lower"),
    PerLayer("aggregation.partial_ms", "ms", "lower"),
    PerLayer("aggregation.fold_ms", "ms", "lower"),
    PerLayer("aggregation.merge_ms", "ms", "lower"),
    PerLayer("aggregation.finalize_ms", "ms", "lower"),
    PerLayer("core.select_ms", "ms", "lower"),
    PerLayer("core.bookkeeping_ms", "ms", "lower"),
    PerLayer("core.helios_speedup_vs_sync", "ratio", "higher"),
    PerLayer("core.straggler_fraction_trained", "fraction", "lower"),
    PerLayer("nn.local_train_full_ms", "ms", "lower"),
    PerLayer("nn.local_train_masked_ms", "ms", "lower"),
    PerLayer("nn.masked_train_ratio", "ratio", "lower"),
    PerLayer("nn.evaluate_ms", "ms", "lower"),
    PerLayer("nn.classic_clients_per_s", "1/s", "higher"),
    PerLayer("fusion.stacked_clients_per_s", "1/s", "higher"),
    PerLayer("data.virtual_dataset_ms", "ms", "lower"),
    PerLayer("client.build_ms", "ms", "lower"),
    PerLayer("hardware.cycle_seconds_us", "us", "lower"),
    PerLayer("experiments.build_ms", "ms", "lower"),
    PerLayer("process.cpu_sys_s", "s", "lower"),
    PerLayer("process.sys_share", "fraction", "lower"),
    PerLayer("process.minor_faults", "count", "lower"),
    PerLayer("process.parent_cpu_user_s", "s", "lower"),
    PerLayer("process.worker_cpu_user_s", "s", "lower"),
    PerLayer("trace.coverage_pct", "%", "higher"),
    PerLayer("tracing_overhead_pct", "%", "lower"),
)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail_percentile(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` of the highest percentile that still
    has at least ten samples beyond it; with fewer than twenty samples
    no tail qualifies and the median is reported (``percentile`` 50)."""
    ordered: List[float] = sorted(values)
    count = len(ordered)
    if count < 20:
        return statistics.median(ordered), 50.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count
