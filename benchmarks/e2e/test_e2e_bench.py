"""Tier-1 checks of the benchmark itself: the smoke set runs clean and
prints every name ``BENCHMARK.json`` promises, and ``compare`` judges as
documented."""

import json
import os
import re
import subprocess
import sys

import pytest

from . import compare, harness, metrics

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark_json():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_repeats_the_metric_tables():
    spec = _benchmark_json()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        metrics.WORKLOADS.items())
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in metrics.END_TO_END if m.in_contract]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(_NAME.fullmatch(name) for name in names)


def test_smoke_set_prints_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "smoke.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(harness.ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke",
         "--out", str(out)],
        cwd=harness.ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = _benchmark_json()
    for workload in spec["workloads"]:
        assert f"== {workload['name']} ==" in proc.stdout
    # Every metric row: name, unit, then a number — once per workload.
    for metric in spec["end_to_end"] + spec["per_layer"]:
        rows = re.findall(
            rf"^\s+{re.escape(metric['name'])}\s+"
            rf"{re.escape(metric['unit'])}\s+-?\d", proc.stdout, re.M)
        assert len(rows) == len(spec["workloads"]), metric["name"]
    result = json.loads(out.read_text())
    assert result["ok"]
    for workload in result["workloads"].values():
        assert workload["end_to_end"]["error_rate"]["median"] == 0.0
        # The reference and every repetition agree on the digest.
        digests = {rep["digest"] for rep in
                   workload["reps"] + [workload["traced"],
                                       workload["reference"]]}
        assert len(digests) == 1 and None not in digests


# ---------------------------------------------------------------------- #
# compare: verdict logic
# ---------------------------------------------------------------------- #

def _stat(values):
    q1, median, q3 = metrics.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


_WALL = metrics.EndToEnd("run_wall_s", "s", "lower", 0.10)
_RATE = metrics.EndToEnd("train_samples_per_s", "samples/s", "higher", 0.10)
_ACCURACY = metrics.EndToEnd("final_accuracy", "fraction", "higher", 0.01,
                             absolute=True)
_ERRORS = metrics.EndToEnd("error_rate", "fraction", "lower", 0.0,
                           absolute=True)


@pytest.mark.parametrize("metric, a, b, expected", [
    # within the bound, tight runs
    (_WALL, [10.0, 10.1, 10.2], [10.4, 10.5, 10.6], compare.OK),
    # worse by 30 %, tight runs
    (_WALL, [10.0, 10.1, 10.2], [13.0, 13.1, 13.2], compare.REGRESSED),
    # better by 30 %
    (_WALL, [10.0, 10.1, 10.2], [7.0, 7.1, 7.2], compare.IMPROVED),
    # a higher-is-better metric that dropped
    (_RATE, [100.0, 101.0, 102.0], [80.0, 81.0, 82.0], compare.REGRESSED),
    # medians close, but the spread exceeds the bound and runs overlap
    (_WALL, [8.0, 10.0, 14.0], [9.0, 10.5, 13.0], compare.UNRESOLVED),
    # medians apart, spread wide, runs overlap: cannot be told either
    (_WALL, [8.0, 10.0, 14.0], [9.0, 13.5, 17.0], compare.UNRESOLVED),
    # spread wide but every run of B is beyond every run of A
    (_WALL, [8.0, 10.0, 12.0], [20.0, 24.0, 28.0], compare.REGRESSED),
    # absolute bounds
    (_ACCURACY, [0.90, 0.90], [0.895, 0.895], compare.OK),
    (_ACCURACY, [0.90, 0.90], [0.85, 0.85], compare.REGRESSED),
    (_ERRORS, [0.0], [0.0], compare.OK),
    (_ERRORS, [0.0], [0.2], compare.REGRESSED),
])
def test_verdict(metric, a, b, expected):
    assert compare.verdict(metric, _stat(a), _stat(b))[0] == expected


def _canned_spawn(corrupt_rep):
    """A ``harness.spawn`` that replays fixed records; repetition number
    ``corrupt_rep`` reports a different digest."""
    calls = {"count": 0}

    def spawn(workload, seed, *flags):
        calls["count"] += 1
        record = {
            "error": None, "digest": "a" * 64, "backend": "persistent",
            "setup_s": 1.0,
            "run_wall_s": 2.0, "cycle_ms": [100.0, 110.0],
            "train_samples": 1000, "ops_attempted": 64, "ops_failed": 0,
            "cpu_user_s": 1.5, "peak_rss_mb": 100.0, "final_accuracy": 0.9,
            "leaks": {"orphans": [], "shm": []},
        }
        if calls["count"] == corrupt_rep:
            record["digest"] = "b" * 64
        return record

    return spawn


def test_corrupted_digest_fails_its_repetition(monkeypatch):
    results = {}
    for label, corrupt_rep in (("clean", 0), ("corrupt", 2)):
        monkeypatch.setattr(harness, "spawn", _canned_spawn(corrupt_rep))
        results[label] = harness.run_workload(
            "fleet32_persistent", seed=0, reps=4, trace=False)
    clean, corrupt = results["clean"], results["corrupt"]
    assert clean["failed"] == 0 and not clean["problems"]
    # All 64 ops of the one bad repetition fail, none of the other three.
    assert corrupt["failed"] == 64 and corrupt["attempted"] == 4 * 64
    assert corrupt["end_to_end"]["error_rate"]["median"] == 0.25
    outcome, _, _ = compare.verdict(_ERRORS,
                                    clean["end_to_end"]["error_rate"],
                                    corrupt["end_to_end"]["error_rate"])
    assert outcome == compare.REGRESSED


def test_history_is_append_only_and_deduplicated(tmp_path):
    path = tmp_path / "history.jsonl"
    entries = [{"set": "one", "x": 1}, {"set": "two", "x": 2}]
    assert compare.append_history(str(path), entries) == 2
    assert compare.append_history(str(path), entries
                                  + [{"set": "three"}]) == 1
    assert [json.loads(line)["set"] for line in
            path.read_text().splitlines()] == ["one", "two", "three"]
