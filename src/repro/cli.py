"""Command-line interface for running the paper's experiments.

Usage::

    python -m repro list
    python -m repro run table1 --scale fast
    python -m repro run fig5 --scale smoke --output results/fig5.txt
    python -m repro run fig6 --backend sharded --shards host1:7600,host2:7600
    python -m repro run fig6 --backend sharded --workers 3 \
        --on-shard-failure rebalance
    python -m repro shard-worker --host 0.0.0.0 --port 7600
    python -m repro scenario run examples/scenario_shard_kill.json \
        --assert-serial --events-out events.jsonl
    python -m repro scales
    python -m repro lint --format json

Every experiment prints the same rows/series the paper reports; the
optional ``--output`` flag additionally writes the formatted text to a
file.  ``shard-worker`` starts one shard server of the ``sharded``
execution backend (see :mod:`repro.fl.transport`); ``--backend sharded``
without ``--shards`` auto-spawns localhost shard workers instead.
"""

from __future__ import annotations

import argparse
import ctypes
import inspect
import json
import sys
from typing import List, Optional

from .experiments import (SCALES, available_experiments, get_experiment,
                          run_experiment)
from .fl.executor import (FAILURE_POLICIES, SHARD_ANNOUNCE_PREFIX,
                          BackendConfig, BackendOptionError,
                          available_backends)

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Helios (DAC 2021): run the paper's "
                    "tables and figures.")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list the available experiments")
    subparsers.add_parser("scales", help="list the available scale presets")

    run_parser = subparsers.add_parser(
        "run", help="run one experiment and print its table/series")
    run_parser.add_argument("experiment",
                            help="experiment id (see 'repro list')")
    run_parser.add_argument("--scale", default="fast",
                            choices=sorted(SCALES),
                            help="experiment scale preset (default: fast)")
    run_parser.add_argument("--seed", type=int, default=0,
                            help="random seed (default: 0)")
    run_parser.add_argument("--backend", default="serial",
                            choices=available_backends(),
                            help="execution backend for client trainings "
                                 "(default: serial; all backends produce "
                                 "bit-identical results; 'persistent' "
                                 "keeps clients resident in forked local "
                                 "shard servers and ships only "
                                 "weights/masks per cycle)")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="forked local slots of the persistent "
                                 "backend (default: the CPU count), or "
                                 "the number of auto-spawned localhost "
                                 "shards for sharded (default: 2)")
    run_parser.add_argument("--shards", default=None,
                            help="comma-separated host:port addresses of "
                                 "running 'repro shard-worker' servers "
                                 "(requires --backend sharded; omit to "
                                 "auto-spawn localhost shards)")
    run_parser.add_argument("--on-shard-failure", default=None,
                            choices=FAILURE_POLICIES,
                            help="what a dead worker/shard does to the run "
                                 "(sharded/persistent backends): 'abort' "
                                 "fails the batch naming the dead shard "
                                 "(default), 'rebalance' repairs the "
                                 "topology and retries the batch "
                                 "bit-identically, 'degrade' finishes the "
                                 "cycle without the dead shard's clients, "
                                 "re-weights aggregation over the "
                                 "survivors and records the drops in the "
                                 "history; detection and retries are "
                                 "fixed, see README 'Failure semantics'")
    run_parser.add_argument("--output", default=None,
                            help="also write the formatted output to a file")

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="execute a declarative chaos scenario (fault injection, "
             "fleet churn, failure policies) from a JSON spec")
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command")
    scenario_run = scenario_sub.add_parser(
        "run", help="run one scenario spec and print its event log")
    scenario_run.add_argument("spec",
                              help="path to the scenario JSON (see "
                                   "examples/scenario_*.json)")
    scenario_run.add_argument("--seed", type=int, default=None,
                              help="override the spec's seed")
    scenario_run.add_argument("--events-out", default=None, metavar="PATH",
                              help="write the per-run event log as JSON "
                                   "Lines to this file")
    scenario_run.add_argument("--assert-serial", action="store_true",
                              help="re-run the scenario on the serial "
                                   "backend without fault injection and "
                                   "fail unless both histories are "
                                   "bit-identical (requires a non-degrade "
                                   "failure policy)")
    scenario_run.add_argument("--output", default=None,
                              help="also write the printed summary to a "
                                   "file")

    shard_parser = subparsers.add_parser(
        "shard-worker",
        help="serve one shard of the 'sharded' execution backend to one "
             "parent at a time (a second parent is refused 'shard busy' "
             "while one is connected)")
    shard_parser.add_argument("--host", default="127.0.0.1",
                              help="interface to listen on "
                                   "(default: 127.0.0.1)")
    shard_parser.add_argument("--port", type=int, default=0,
                              help="port to listen on (default: 0 = let "
                                   "the OS pick; the bound port is "
                                   "announced on stdout)")
    shard_parser.add_argument("--max-frame-bytes", type=int, default=None,
                              help="reject protocol frames larger than "
                                   "this many bytes")
    shard_parser.add_argument("--read-deadline", type=float, default=None,
                              help="drop a connection that stalls "
                                   "mid-frame for this many seconds, "
                                   "with its residents (default: 600)")

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the AST invariant checkers (determinism, wire kinds, "
             "exception swallowing, resource lifecycles, architecture "
             "rules)")
    lint_parser.add_argument("paths", nargs="*",
                             help="files or directories to lint "
                                  "(default: the repro package)")
    lint_parser.add_argument("--format", default="text",
                             choices=("text", "json"), dest="output_format",
                             help="report format (default: text)")
    lint_parser.add_argument("--output", default=None,
                             help="also write the report to a file")
    return parser


def _print_experiment_list() -> None:
    for identifier in available_experiments():
        entry = get_experiment(identifier)
        print(f"{identifier:10s} {entry.description}")


def _print_scales() -> None:
    for name, scale in sorted(SCALES.items()):
        print(f"{name:6s} train={scale.num_train:<5d} "
              f"cycles={scale.num_cycles:<3d} "
              f"width={scale.width_multiplier}")


def _run(experiment: str, scale: str, seed: int,
         output: Optional[str], backend: str = "serial",
         workers: Optional[int] = None,
         shards: Optional[str] = None,
         on_shard_failure: Optional[str] = None) -> int:
    kwargs = {"scale": scale}
    entry = get_experiment(experiment)
    # Profiling-only experiments take neither a seed nor a training
    # backend; training experiments accept both.
    accepts = inspect.signature(entry.runner).parameters
    if "seed" in accepts:
        kwargs["seed"] = seed
    if backend == "serial" and workers is not None:
        print("warning: --workers has no effect with the serial backend",
              file=sys.stderr)
        workers = None
    try:
        config = BackendConfig(backend, workers, shards, on_shard_failure)
    except BackendOptionError as error:
        # --workers was always named by its flag, the others by
        # make_backend's keywords.
        if error.option == "workers":
            raise ValueError(error.naming("--workers")) from None
        raise
    if backend != "serial" and "backend" not in accepts:
        print(f"warning: experiment {experiment!r} runs no client "
              f"trainings; ignoring --backend/--workers/--shards/"
              f"--on-shard-failure",
              file=sys.stderr)
    # Nothing is spawned until the first batch.
    shared_backend = config.build()
    if "backend" in accepts:
        kwargs["backend"] = shared_backend
    try:
        _, text = run_experiment(experiment, **kwargs)
    finally:
        shared_backend.close()
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"\n(written to {output})")
    return 0


def _run_scenario(spec_path: str, seed: Optional[int],
                  events_out: Optional[str], assert_serial: bool,
                  output: Optional[str]) -> int:
    """Execute one chaos scenario spec; exit 1 on a serial mismatch."""
    # Imported lazily so the base CLI stays importable without the
    # chaos/scenario stack (and 'repro list' stays fast).
    from .experiments.scenario import compare_histories, run_scenario
    from .experiments.spec import load_spec

    spec = load_spec(spec_path, seed=seed)
    if assert_serial and spec.backend.on_failure == "degrade":
        raise ValueError(
            "--assert-serial requires a lossless failure policy "
            "('rebalance'); under 'degrade' the history legitimately "
            "diverges from the serial reference")
    result = run_scenario(spec)
    lines = [f"scenario {result.name!r} (seed {result.seed}): "
             f"{len(result.history.records)} cycles, "
             f"final accuracy {result.history.final_accuracy():.4f}"]
    for event in result.events:
        lines.append("  " + json.dumps(event, sort_keys=True))
    status = 0
    if assert_serial:
        reference = run_scenario(spec.serial_reference())
        problems = compare_histories(result.history, reference.history)
        if problems:
            lines.append("serial check FAILED:")
            lines.extend("  " + problem for problem in problems)
            status = 1
        else:
            lines.append("serial check passed: history is bit-identical "
                         "to the fault-free serial run")
    text = "\n".join(lines)
    print(text)
    if events_out:
        result.write_events(events_out)
        print(f"(event log written to {events_out})")
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"(written to {output})")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _print_experiment_list()
        return 0
    if args.command == "scales":
        _print_scales()
        return 0
    if args.command == "run":
        try:
            return _run(args.experiment, args.scale, args.seed, args.output,
                        backend=args.backend, workers=args.workers,
                        shards=args.shards,
                        on_shard_failure=args.on_shard_failure)
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "scenario":
        if args.scenario_command != "run":
            parser.parse_args(["scenario", "--help"])
            return 1
        try:
            return _run_scenario(args.spec, seed=args.seed,
                                 events_out=args.events_out,
                                 assert_serial=args.assert_serial,
                                 output=args.output)
        except (KeyError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.command == "shard-worker":
        return _serve_shard(args.host, args.port, args.max_frame_bytes,
                            args.read_deadline)
    if args.command == "lint":
        # Imported lazily: the analysis engine is stdlib-only and must
        # stay importable (and fast) without touching the fl stack.
        from .analysis.cli import run_lint
        return run_lint(args.paths, output_format=args.output_format,
                        output=args.output)
    parser.print_help()
    return 1


#: glibc allocator parameter numbers (``malloc.h``).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: A shard's allocator policy, measured on ``fleet32_sharded_hier``.  A
#: fresh interpreter starts from glibc's cold defaults, so a shard handed
#: the top of its heap (about 9 MiB of a batch's short-lived arrays) back
#: to the kernel after every batch and faulted it in again: 2 239 minor
#: faults and 6.5-8.5 ms of system time a batch, against 4-7 faults for
#: a forked ``persistent`` slot, which inherits its parent's warm heap.
#: With arrays up to 32 MiB served from the heap and up to 64 MiB of free
#: top kept mapped, a shard takes 3 faults a batch; with either one
#: alone, 9 800-10 800.
SHARD_MMAP_THRESHOLD = 32 << 20
SHARD_TRIM_THRESHOLD = 64 << 20


def _keep_heap(libc: Optional[object] = None) -> None:
    """Set a shard process's glibc allocator policy (see
    :data:`SHARD_MMAP_THRESHOLD`); a no-op where the C library has no
    ``mallopt``.  ``libc`` defaults to the running process's."""
    if libc is None:
        try:
            libc = ctypes.CDLL(None)
        except (OSError, TypeError):  # TypeError: Windows loads by name only
            return
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, SHARD_MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, SHARD_TRIM_THRESHOLD)


def _serve_shard(host: str, port: int, max_frame_bytes: Optional[int],
                 read_deadline: Optional[float] = None) -> int:
    """Run one shard server until it receives a shutdown message."""
    from .fl.transport import (DEFAULT_MAX_FRAME_BYTES,
                               DEFAULT_READ_DEADLINE_S, serve_shard)

    if max_frame_bytes is not None and not 0 < max_frame_bytes <= 0xFFFFFFFF:
        print("error: --max-frame-bytes must be positive and within the "
              "4-byte frame header's 4 GiB limit", file=sys.stderr)
        return 2
    if max_frame_bytes is None:
        max_frame_bytes = DEFAULT_MAX_FRAME_BYTES
    if read_deadline is not None and read_deadline <= 0:
        print("error: --read-deadline must be positive", file=sys.stderr)
        return 2
    if read_deadline is None:
        read_deadline = DEFAULT_READ_DEADLINE_S

    def announce(bound_host: str, bound_port: int) -> None:
        # The auto-spawn mode of ShardedSocketBackend parses this line.
        print(f"{SHARD_ANNOUNCE_PREFIX} {bound_host} {bound_port}",
              flush=True)

    _keep_heap()
    try:
        serve_shard(host, port, max_frame_bytes=max_frame_bytes,
                    read_deadline=read_deadline, ready=announce)
    except OSError as error:
        print(f"error: cannot serve shard on {host}:{port}: {error}",
              file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
