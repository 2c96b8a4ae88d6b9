"""Parent side of the benchmark: spawn repetitions, verify, summarise.

Single driver process; workloads and repetitions run one after another,
each repetition in a fresh interpreter (``child.py``).  This module
imports neither NumPy nor ``repro`` at load time.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from .metrics import (END_TO_END, PER_LAYER, WORKLOADS, quartiles,
                      tail_percentile)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS_DIR = os.path.join(HERE, "results")
_CHILD = os.path.join(HERE, "child.py")

#: One BLAS thread per process: the workloads parallelise over worker
#: processes, and a BLAS pool per process would oversubscribe 2 cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

#: Untraced repetitions of a full set (9, not the issue's 5: with 5 the
#: quartiles sit next to the extremes and one slow repetition widens the
#: spread ``compare`` judges by), and the fewest a time-boxed run makes
#: however slow they are.
FULL_SET_REPS = 9
MIN_REPS = 3
_CHILD_TIMEOUT_S = 150.0
#: The workload whose traced run also checks paper fidelity.
_FIDELITY_WORKLOAD = "fig5_lenet_serial"

Log = Callable[[str], None]


def export_blas_env() -> None:
    """Pin BLAS threads before any process of the benchmark imports
    NumPy (children, workers and shards inherit the environment)."""
    os.environ.update(BLAS_ENV)


def spawn(workload: str, seed: int, *flags: str) -> Dict[str, Any]:
    """Run ``child.py`` once; its JSON record, or ``{"error": ...}``
    when it crashed, hung or printed nothing."""
    cmd = [sys.executable, _CHILD, "--workload", workload,
           "--seed", str(seed), "--t0", repr(time.monotonic()), *flags]
    # A session of its own, so that a hung repetition's workers and
    # shards can be killed with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=_CHILD_TIMEOUT_S)
        failure = (None if proc.returncode == 0
                   else f"repetition exited with code {proc.returncode}")
    except subprocess.TimeoutExpired:
        failure = f"repetition exceeded {_CHILD_TIMEOUT_S:.0f} s"
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    lines = stdout.strip().splitlines()
    if failure is None:
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError):
            failure = "repetition printed no JSON record"
    return {"error": failure}


def _failure_of(record: Dict[str, Any], expected_digest: Optional[str]
                ) -> Optional[str]:
    """Why every op of this repetition counts as failed, if it does."""
    if record.get("error"):
        return record["error"].strip().splitlines()[-1]
    if record["digest"] != expected_digest:
        return (f"digest {record['digest'][:12]} differs from the "
                f"reference {str(expected_digest)[:12]}")
    leaks = record["leaks"]
    if leaks["orphans"]:
        return f"orphaned processes after close: {leaks['orphans']}"
    if leaks["shm"]:
        return f"leftover /dev/shm segments after close: {leaks['shm']}"
    return None


def run_workload(name: str, seed: int, *, reps: Optional[int] = None,
                 seconds: Optional[float] = None, smoke: bool = False,
                 trace: bool = True, trace_out: Optional[str] = None,
                 log: Log = lambda line: None) -> Dict[str, Any]:
    """Measure one workload: untraced repetitions (a fixed count, or as
    many as end within ``seconds``, at least ``MIN_REPS``), then one
    traced repetition, then the verification pass."""
    flags = ["--smoke"] if smoke else []
    untraced: List[Dict[str, Any]] = []
    window_start = time.monotonic()
    longest = 0.0
    while True:
        started = time.monotonic()
        untraced.append(spawn(name, seed, *flags))
        longest = max(longest, time.monotonic() - started)
        log(f"  {name} rep {len(untraced)}: "
            + (untraced[-1].get("error") or
               f"setup {untraced[-1]['setup_s']:.2f} s, "
               f"run {untraced[-1]['run_wall_s']:.2f} s"))
        if reps is not None:
            if len(untraced) >= reps:
                break
        # A repetition that would end after the window is not started.
        elif (len(untraced) >= MIN_REPS and
              time.monotonic() - window_start + longest > seconds):
            break
    traced = None
    if trace:
        trace_flags = ["--trace"]
        if trace_out:
            trace_flags += ["--trace-out", trace_out]
        traced = spawn(name, seed, *flags, *trace_flags)
        log(f"  {name} traced rep: {traced.get('error') or 'ok'}")

    # Verification, outside every timed region: all repetitions must
    # agree with a serial-backend run of the same inputs (the serial
    # workload is its own reference) ...
    measured = untraced + ([traced] if traced else [])
    completed = [r for r in measured if not r.get("error")]
    if completed and completed[0]["backend"] == "serial":
        reference = completed[0]
    else:
        reference = spawn(name, seed, *flags, "--backend", "serial")
    expected = reference.get("digest")
    # ... and the Fig. 5 panel must still show Helios ahead of Syn. FL.
    fidelity = None
    if trace and name == _FIDELITY_WORKLOAD:
        fidelity = spawn(name, seed, *flags, "--fidelity")

    problems: List[str] = []
    if reference.get("error"):
        problems.append(f"reference: {reference['error']}")
    if fidelity is not None and fidelity.get("error"):
        problems.append(f"fidelity: {fidelity['error']}")
    ops_per_rep = next((r["ops_attempted"] for r in measured
                        if "ops_attempted" in r), 1)
    attempted = failed = 0
    for index, record in enumerate(measured):
        ops = record.get("ops_attempted", ops_per_rep)
        attempted += ops
        why = _failure_of(record, expected)
        if why is not None:
            problems.append(f"rep {index + 1}: {why}")
            failed += ops
        else:
            failed += record["ops_failed"]
    log(f"  {name} verification: "
        + ("ok" if not problems and not failed else "; ".join(problems)))

    good = [r for r in untraced if not r.get("error")]
    if not good:
        raise RuntimeError(f"{name}: no repetition completed: {problems}")
    result: Dict[str, Any] = {
        "why": WORKLOADS[name], "reps": untraced, "traced": traced,
        "reference": reference, "fidelity": fidelity,
        "attempted": attempted, "failed": failed, "problems": problems,
        "end_to_end": _end_to_end(good, failed / attempted),
    }
    if traced is not None and "per_layer" in traced:
        result["per_layer"] = _per_layer(good, traced, fidelity)
    return result


def _stat(values: List[float], median: Optional[float] = None
          ) -> Dict[str, Any]:
    q1, q2, q3 = quartiles(values)
    return {"median": q2 if median is None else median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def _pooled_cycles(good: List[Dict[str, Any]]) -> List[float]:
    return [ms for record in good for ms in record["cycle_ms"]]


def _end_to_end(good: List[Dict[str, Any]], error_rate: float
                ) -> Dict[str, Dict[str, Any]]:
    stats = {
        "setup_s": _stat([r["setup_s"] for r in good]),
        "run_wall_s": _stat([r["run_wall_s"] for r in good]),
        # Pooled over repetitions; the quartiles are of the per-
        # repetition medians, which is what ``compare`` takes as spread.
        "cycle_p50_ms": _stat(
            [statistics.median(r["cycle_ms"]) for r in good],
            median=statistics.median(_pooled_cycles(good))),
        "train_samples_per_s": _stat(
            [r["train_samples"] / r["run_wall_s"] for r in good]),
        "cpu_user_s": _stat([r["cpu_user_s"] for r in good]),
        "peak_rss_mb": _stat([r["peak_rss_mb"] for r in good]),
        "final_accuracy": _stat([r["final_accuracy"] for r in good]),
        "error_rate": _stat([error_rate]),
    }
    for metric in END_TO_END:
        stats[metric.name]["unit"] = metric.unit
    return stats


def _per_layer(good: List[Dict[str, Any]], traced: Dict[str, Any],
               fidelity: Optional[Dict[str, Any]]) -> Dict[str, float]:
    def med(key: str) -> float:
        return statistics.median(record[key] for record in good)

    values = dict(traced["per_layer"])
    tail_ms, tail_pct, tail_n = tail_percentile(_pooled_cycles(good))
    untraced_wall = med("run_wall_s")
    values.update({
        "simulation.cycle_tail_ms": tail_ms,
        "simulation.cycle_tail_pct": tail_pct,
        "simulation.cycle_tail_n": float(tail_n),
        "process.cpu_sys_s": med("cpu_sys_s"),
        "process.sys_share": statistics.median(
            r["cpu_sys_s"] / (r["cpu_sys_s"] + r["cpu_user_s"])
            for r in good),
        "process.minor_faults": med("minor_faults"),
        "process.parent_cpu_user_s": med("parent_cpu_user_s"),
        "process.worker_cpu_user_s": med("worker_cpu_user_s"),
        "tracing_overhead_pct": 100.0 * (traced["run_wall_s"] - untraced_wall)
        / untraced_wall,
        "core.straggler_fraction_trained":
            traced["straggler_fraction_trained"],
        # 0 = not this workload, or the target was never reached.
        "core.helios_speedup_vs_sync": float(
            (fidelity or {}).get("helios_speedup_vs_sync") or 0.0),
    })
    return {metric.name: values[metric.name] for metric in PER_LAYER}


# ---------------------------------------------------------------------- #
# host metadata (full sets only)
# ---------------------------------------------------------------------- #

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return "unknown"


def calibration_ms() -> float:
    """A fixed NumPy + interpreter loop; timed before and after a set,
    it shows whether the machine changed speed under the benchmark."""
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    times = []
    for _ in range(15):
        start = time.perf_counter()
        x = a
        for _ in range(1000):
            x = np.tanh(x @ b * 0.1)
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def host_metadata() -> Dict[str, Any]:
    import numpy as np

    def git(*args: str) -> str:
        try:
            return subprocess.run(["git", *args], cwd=ROOT, check=True,
                                  capture_output=True, text=True
                                  ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    commit = git("rev-parse", "HEAD")
    if commit != "unknown" and git("status", "--porcelain",
                                   "--untracked-files=no"):
        commit += "+dirty"
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), "unknown")
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} "
                f"{blas.get('version', '')}".strip(),
        "blas_thread_env": BLAS_ENV,
        "thp": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------- #
# the full set
# ---------------------------------------------------------------------- #

def run_set(seed: int, smoke: bool, log: Log) -> Dict[str, Any]:
    """All four workloads: ``FULL_SET_REPS`` untraced repetitions (1 in
    smoke mode) + 1 traced + verification each."""
    result: Dict[str, Any] = {
        "schema": 1, "seed": seed, "smoke": smoke,
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_metadata(), "workloads": {},
    }
    before = calibration_ms()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    for name in WORKLOADS:
        log(f"[{name}]")
        result["workloads"][name] = run_workload(
            name, seed, reps=1 if smoke else FULL_SET_REPS, smoke=smoke,
            trace_out=os.path.join(RESULTS_DIR, f"trace-{name}.jsonl"),
            log=log)
    result["host"]["calibration_ms"] = {"before": before,
                                        "after": calibration_ms()}
    result["ok"] = all(not w["failed"] and not w["problems"]
                       for w in result["workloads"].values())
    return result


def format_set(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, one table per workload."""
    lines: List[str] = []
    bounds = {metric.name: metric for metric in END_TO_END}
    for name, workload in result["workloads"].items():
        lines += ["", f"== {name} ==", f"   {workload['why']}",
                  f"   {'end-to-end metric':<28}{'unit':<11}"
                  f"{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  bound"]
        for metric, stat in workload["end_to_end"].items():
            bound = bounds[metric]
            lines.append(
                f"   {metric:<28}{stat['unit']:<11}{stat['median']:>12.4f}"
                f"{stat['q1']:>12.4f}{stat['q3']:>12.4f}{stat['n']:>4}  "
                + (f"{bound.bound:g} abs" if bound.absolute
                   else f"{bound.bound:.0%}"))
        if "per_layer" in workload:
            units = {metric.name: metric.unit for metric in PER_LAYER}
            lines.append(f"   {'per-layer metric':<39}{'unit':<9}"
                         f"{'value':>14}")
            for metric, value in workload["per_layer"].items():
                lines.append(f"   {metric:<39}{units[metric]:<9}"
                             f"{value:>14.4f}")
            run_ms = workload["traced"]["run_wall_s"] * 1e3
            lines.append(f"   {'traced repetition, self time':<39}"
                         f"{'count':>6}{'self ms':>12}{'% of run':>10}")
            for row in workload["traced"]["self_time"]:
                lines.append(f"   {row['name']:<39}{row['count']:>6}"
                             f"{row['self_ms']:>12.2f}"
                             f"{100.0 * row['self_ms'] / run_ms:>10.1f}")
        for problem in workload["problems"]:
            lines.append(f"   !! {problem}")
    calibration = result["host"]["calibration_ms"]
    lines += ["", f"host.calibration_ms  before {calibration['before']:.2f}"
                  f"  after {calibration['after']:.2f}",
              "verification: " + ("ok" if result["ok"] else "FAILED")]
    return "\n".join(lines)
