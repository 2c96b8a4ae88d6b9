"""Command line of the benchmark.

``python -m benchmarks.e2e [--seed N] [--out FILE] [--smoke]``
    the full set: four workloads, each 9 untraced repetitions + 1 traced
    + verification; prints every metric by name with its unit and exits
    non-zero if any output is wrong.
``python -m benchmarks.e2e compare A.json B.json``
    verdict per workload x end-to-end metric between two result files.
``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one time-boxed run of one workload, one JSON object as the last line
    (the command ``BENCHMARK.json`` names).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import compare as compare_mod
from . import harness
from .metrics import END_TO_END, PER_LAYER, WORKLOADS


def _log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def _compare(args: argparse.Namespace) -> int:
    sets = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    rows = compare_mod.compare_sets(*sets)
    print(compare_mod.format_rows(rows))
    print(compare_mod.format_host(sets, (args.a, args.b)))
    added = compare_mod.append_history(
        args.history, [compare_mod.history_line(result, path)
                       for result, path in zip(sets, (args.a, args.b))])
    print(f"{added} set(s) appended to {args.history}")
    bad = [row for row in rows
           if row["verdict"] in (compare_mod.REGRESSED,
                                 compare_mod.UNRESOLVED)]
    return 1 if bad else 0


def _run_value(metric, stat) -> float:
    """What a time-boxed run reports for one end-to-end metric: the
    quartile of its repetitions on the metric's better side.

    The shared host only ever adds time, in stretches of several
    repetitions, so from run to run the quieter repetitions move far
    less than the median does (README.md, "Measured spread").
    ``setup_s`` stays a median: the ``BENCHMARK.json`` contract says so.
    """
    if metric.name == "setup_s":
        return stat["median"]
    return stat["q1" if metric.better == "lower" else "q3"]


def _one_run(args: argparse.Namespace) -> int:
    """The ``BENCHMARK.json`` contract: one workload, one result line."""
    if args.trace:
        result = harness.run_workload(args.workload, args.seed,
                                      reps=harness.MIN_REPS, log=_log)
        if "per_layer" not in result:
            raise RuntimeError(f"traced repetition failed: "
                               f"{result['problems']}")
        units = {metric.name: metric.unit for metric in PER_LAYER}
        values = result["per_layer"]
    else:
        result = harness.run_workload(args.workload, args.seed,
                                      seconds=args.seconds, trace=False,
                                      log=_log)
        contract = [metric for metric in END_TO_END if metric.in_contract]
        units = {metric.name: metric.unit for metric in contract}
        values = {metric.name: _run_value(
            metric, result["end_to_end"][metric.name]) for metric in contract}
    print(json.dumps({
        "correct": not result["failed"] and not result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _full_set(args: argparse.Namespace) -> int:
    result = harness.run_set(args.seed, args.smoke, _log)
    print(harness.format_set(result))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"written {args.out}")
    return 0 if result["ok"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    harness.export_blas_env()
    if not os.path.isdir(os.path.join(harness.ROOT, "src", "repro")):
        _log("benchmarks.e2e: no src/repro next to the benchmark — "
             "nothing to measure")
        return 2
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
        parser.add_argument("a")
        parser.add_argument("b")
        parser.add_argument("--history", default=os.path.join(
            harness.RESULTS_DIR, "history.jsonl"))
        return _compare(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(prog="benchmarks.e2e",
                                     description=__doc__,
                                     formatter_class=argparse.
                                     RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="result JSON to write")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repetition, 2 cycles, 200 virtual clients")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload under the BENCHMARK.json "
                             "contract instead of the full set")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring window of a one-workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return _one_run(args)
    return _full_set(args)
