"""Tests of the benchmark harness itself (not of the package).

    python3 -m pytest bench/test_harness.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _last_json(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _check_result(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == run.WORKLOAD_NAMES


def test_metric_names_and_units_match_spec():
    common = ["--workload", "polytope-group", "--seed", "3", "--seconds",
              "0.1"]
    _check_result(_last_json(*common, "--trace", "0"), "end_to_end")
    _check_result(_last_json(*common, "--trace", "1"), "per_layer")


def test_work_counters_repeat_exactly_for_a_seed():
    keys = ["newton.box_points", "monoid.examined",
            "polytopes.decompose_coeff_abs_sum"]
    for workload in ["closure-mix", "factorization", "polytope-group"]:
        runs = [run.run_worker(workload, 7, 0, scale="tiny", trace=True)
                for _ in range(2)]
        counters = [{k: w["summary"]["counters"].get(k, 0) for k in keys}
                    for w in runs]
        calls = [{k: v["calls"] for k, v in w["summary"]["spans"].items()}
                 for w in runs]
        assert counters[0] == counters[1], workload
        assert calls[0] == calls[1], workload
        assert sum(counters[0].values()) > 0, workload


def test_overrun_guard_kills_an_oversized_decompose():
    t = time.monotonic()
    w = run.run_worker("oversized-decompose", 0, 0, limit=3.0)
    assert w["killed"]
    assert w["failed"] == w["n_ops"] == 1
    assert time.monotonic() - t < 20


def test_selftest_passes():
    assert run.selftest() == 0
