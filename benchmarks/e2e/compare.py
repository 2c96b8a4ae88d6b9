"""``python -m benchmarks.e2e compare A.json B.json``.

One row per workload x end-to-end metric: the change of the median from
set A to set B, the metric's bound and a verdict.  Each compared set is
also appended (once) to ``results/history.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Tuple

from .metrics import END_TO_END, EndToEnd

OK, IMPROVED, REGRESSED, UNRESOLVED = ("ok", "improved", "regressed",
                                       "unresolved")


def verdict(metric: EndToEnd, a: Dict[str, Any], b: Dict[str, Any]
            ) -> Tuple[str, float, float]:
    """``(verdict, worsening, spread)`` of one metric from A to B.

    ``worsening`` is signed so that positive is worse, as a share of A's
    median (an absolute difference for ``metric.absolute``); ``spread``
    is the wider inter-quartile distance of the two sets on the same
    scale.  A change that cannot be told from run-to-run noise — spread
    beyond the bound while the two sets' runs overlap — is *unresolved*,
    never *ok*.
    """
    scale = 1.0 if metric.absolute else a["median"]
    sign = 1.0 if metric.better == "lower" else -1.0
    worsening = sign * (b["median"] - a["median"]) / scale
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / scale
    overlap = (min(a["values"]) <= max(b["values"])
               and min(b["values"]) <= max(a["values"]))
    if spread > metric.bound and overlap:
        return UNRESOLVED, worsening, spread
    if worsening > metric.bound:
        return REGRESSED, worsening, spread
    if worsening < -metric.bound:
        return IMPROVED, worsening, spread
    return OK, worsening, spread


def compare_sets(a: Dict[str, Any], b: Dict[str, Any]
                 ) -> List[Dict[str, Any]]:
    rows = []
    for name, workload in a["workloads"].items():
        other = b["workloads"][name]
        for metric in END_TO_END:
            stat_a = workload["end_to_end"][metric.name]
            stat_b = other["end_to_end"][metric.name]
            outcome, worsening, spread = verdict(metric, stat_a, stat_b)
            rows.append({
                "workload": name, "metric": metric.name,
                "unit": metric.unit, "a": stat_a["median"],
                "b": stat_b["median"], "worsening": worsening,
                "spread": spread, "bound": metric.bound,
                "absolute": metric.absolute, "verdict": outcome})
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<22}{'metric':<21}{'unit':<11}{'A':>11}{'B':>11}"
             f"{'worse by':>10}{'spread':>9}{'bound':>9}  verdict"]
    for row in rows:
        share = "{:+.4f}" if row["absolute"] else "{:+.1%}"
        lines.append(
            f"{row['workload']:<22}{row['metric']:<21}{row['unit']:<11}"
            f"{row['a']:>11.4f}{row['b']:>11.4f}"
            f"{share.format(row['worsening']):>10}"
            f"{share.format(row['spread']):>9}"
            f"{share.format(row['bound']):>9}  {row['verdict']}")
    return "\n".join(lines)


#: Calibration-loop times further apart than this mean the sets were
#: measured on machines of different speed.
HOST_DRIFT_LIMIT = 0.10


def format_host(sets: List[Dict[str, Any]], paths) -> str:
    """Each set's commit and calibration-loop times, and a flag when the
    host changed speed within or between the sets."""
    lines, times = [], []
    for result, path in zip(sets, paths):
        calibration = result["host"]["calibration_ms"]
        times += [calibration["before"], calibration["after"]]
        lines.append(f"{os.path.basename(path)}: commit "
                     f"{result['host']['commit']}, host.calibration_ms "
                     f"{calibration['before']:.2f} before / "
                     f"{calibration['after']:.2f} after")
    drift = max(times) / min(times) - 1.0
    if drift > HOST_DRIFT_LIMIT:
        lines.append(f"!! noisy host: the calibration loop ran {drift:.0%} "
                     f"slower at its slowest than at its fastest; timing "
                     f"rows above compare the machine as much as the code")
    return "\n".join(lines)


def history_line(result: Dict[str, Any], source: str) -> Dict[str, Any]:
    """The trajectory entry of one result set: medians only."""
    identity = hashlib.sha256(
        json.dumps(result, sort_keys=True).encode()).hexdigest()[:16]
    return {
        "set": identity, "file": os.path.basename(source),
        "when": result["when"], "commit": result["host"]["commit"],
        "seed": result["seed"], "smoke": result["smoke"],
        "ok": result["ok"],
        "calibration_ms": result["host"]["calibration_ms"],
        "medians": {name: {metric: stat["median"] for metric, stat
                           in workload["end_to_end"].items()}
                    for name, workload in result["workloads"].items()},
    }


def append_history(path: str, entries: List[Dict[str, Any]]) -> int:
    """Append the entries ``path`` does not hold yet; how many it did."""
    known = set()
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            known = {json.loads(line)["set"] for line in handle
                     if line.strip()}
    fresh = [entry for entry in entries if entry["set"] not in known]
    with open(path, "a", encoding="utf-8") as handle:
        for entry in fresh:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return len(fresh)
