"""Benchmark driver for icm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Each repetition is a fresh worker process
(worker.py) with inputs made from the seed and the repetition index, a
closed loop with one client: the next op starts when the previous one
returns, and the next worker starts when the previous one exits.

--trace 0 starts workers until S seconds have passed and prints the
end-to-end metrics.  --trace 1 runs a fixed number of worker pairs, each
pair one untraced and one traced worker on the same inputs, and prints the
per-layer metrics: spans and work counters from the traced workers, and
the tracing overhead from the pair.  A fixed number keeps the work
counters identical between runs with the same seed.

End-to-end times are scaled to a reference CPU speed measured by a
calibration loop inside each worker (see worker.py), because the CPU speed
of a shared machine swings by more than any bound worth setting; the
unscaled medians are in the info line.  setup_s is the time from spawning a
worker to its first op (interpreter start, import icm, input generation),
median over the run's workers; ops_per_s is the median over workers of ops
per second of op time; op_p50_ms and op_tail_ms pool every op of the run;
peak_rss_mb is the median worker's peak RSS (for cli-readme, its largest
CLI child's).  Per-layer times are unscaled.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the Python
version, CPU count, seed, commit, source digest, tail percentile and
sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS  # noqa: E402

WORKLOAD_NAMES = ["closure-mix", "factorization", "polytope-group",
                  "cli-readme"]
# A worker that runs longer than this is killed and its unfinished ops
# count as failed; the whole run stops starting workers after RUN_DEADLINE_S.
WORKER_LIMIT_S = 60.0
RUN_DEADLINE_S = 150.0
# Highest tail percentile reported per workload, chosen so a run has at
# least ten samples beyond it; a run with fewer ops steps down the ladder.
TAIL_CAP = {"closure-mix": 98, "factorization": 98, "polytope-group": 99,
            "cli-readme": 80}
TAIL_LADDER = [99.9, 99.5, 99, 98, 97, 95, 90, 80, 75, 50]
TRACE_PAIRS = {"closure-mix": 2, "factorization": 2, "polytope-group": 3,
               "cli-readme": 2}
CLI_COMMANDS = ["closure", "closed", "star", "ord", "colon", "factor",
                "factorizations", "irreducible", "divides", "decompose2d",
                "phi", "colon-factor", "props"]


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"  # set iteration order, hence work counters
    return env


def run_worker(workload, seed, index, scale="full", trace=False,
               limit=WORKER_LIMIT_S):
    """Run one worker to completion or until `limit` seconds, then kill its
    process group.  Returns what it reported, with unfinished ops counted
    as failed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--scale", scale]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    killed = False
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        killed = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()

    header, summary, raw = None, None, []
    for line in out.splitlines():
        rec = json.loads(line)
        if "t0" in rec:
            header = rec
        elif "i" in rec:
            raw.append(rec["ms"])
        elif rec.get("done"):
            summary = rec
    n_ops = header["n_ops"] if header else 1
    setup_s = header["t0"] - spawned if header else None
    if summary is not None and proc.returncode == 0:
        failed = len(summary["failed"])
        latencies = summary["scaled_ms"]
        setup_s *= summary["setup_scale"]
    else:
        failed = max(n_ops - (len(raw) if summary is None else 0), 1)
        latencies = raw
    return {"setup_s": setup_s, "raw_setup_s": header and header["t0"] - spawned,
            "latencies_ms": latencies, "raw_ms": raw,
            "n_ops": n_ops, "failed": failed,
            "timed_s": sum(latencies) / 1e3, "killed": killed,
            "summary": summary, "returncode": proc.returncode,
            "stderr": err[-2000:]}


def tail(latencies, cap):
    """(percentile, value, samples beyond it): the highest percentile on
    the ladder, at most `cap`, with at least ten samples above its rank."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if p <= cap and n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 50, statistics.median(xs), n - math.ceil(n / 2)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    workers = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if workers and elapsed >= seconds:
            break
        limit = min(WORKER_LIMIT_S, RUN_DEADLINE_S - elapsed)
        if limit <= 0:
            break
        workers.append(run_worker(workload, seed, len(workers),
                                  limit=limit))
    lat = [x for w in workers for x in w["latencies_ms"]]
    done = [w for w in workers if w["summary"]]
    pct, tail_ms, beyond = tail(lat, TAIL_CAP[workload]) if lat else (0, 0, 0)
    metrics = {
        "setup_s": metric(statistics.median(
            w["setup_s"] for w in workers if w["setup_s"] is not None), "s"),
        # Median over workers, so one worker caught in a slow spell of a
        # shared machine does not move the run's figure.
        "ops_per_s": metric(statistics.median(
            len(w["latencies_ms"]) / w["timed_s"] for w in workers
            if w["timed_s"] > 0), "1/s"),
        "op_p50_ms": metric(statistics.median(lat), "ms"),
        "op_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(statistics.median(
            w["summary"]["peak_rss_kb"] for w in done) / 1024, "MB"),
    }
    raw = [x for w in workers for x in w["raw_ms"]]
    info = {"tail_percentile": pct, "tail_samples": len(lat),
            "tail_beyond": beyond, "raw_op_p50_ms": statistics.median(raw),
            "raw_ops_per_s": len(raw) / (sum(raw) / 1e3),
            "raw_setup_s": statistics.median(
                w["raw_setup_s"] for w in workers
                if w["raw_setup_s"] is not None),
            "speed_scale": statistics.median(
                x / r for x, r in zip(lat, raw) if r > 0)}
    if workload == "cli-readme":
        info["cli_traceback_exits"] = [
            w["summary"]["counters"].get("cli.traceback_exits") for w in done]
    return workers, metrics, info


def _cli_spawn_ms(code, repeats=5):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                       env=worker_env(), check=True)
        times.append((time.perf_counter() - t) * 1e3)
    return statistics.median(times)


def per_layer(workload, seed):
    workers, untraced_s, traced_s = [], 0.0, 0.0
    spans, counters, by_name = {}, {}, {}
    start = time.monotonic()
    for index in range(TRACE_PAIRS[workload]):
        pair = []
        for trace in (False, True):
            limit = min(WORKER_LIMIT_S,
                        RUN_DEADLINE_S - (time.monotonic() - start))
            pair.append(run_worker(workload, seed, index, trace=trace,
                                   limit=max(limit, 1.0)))
        plain, traced = pair
        workers += pair
        untraced_s += plain["timed_s"]
        traced_s += traced["timed_s"]
        summary = traced["summary"] or {"spans": {}, "counters": {},
                                        "names": []}
        for name, rec in summary["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "self_ms": 0.0})
            agg["calls"] += rec["calls"]
            agg["self_ms"] += rec["self_ms"]
        for name, n in summary["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, ms in zip(summary["names"], traced["raw_ms"]):
            by_name.setdefault(name, []).append(ms)

    metrics = {}
    for layer, fns in LAYERS.items():
        calls = self_ms = 0
        for fn in fns:
            rec = spans.get(f"{layer}.{fn}", {"calls": 0, "self_ms": 0.0})
            metrics[f"{layer}.{fn}.calls"] = metric(rec["calls"], "count")
            metrics[f"{layer}.{fn}.self_ms"] = metric(rec["self_ms"], "ms")
            calls += rec["calls"]
            self_ms += rec["self_ms"]
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.self_ms"] = metric(self_ms, "ms")
    examined = counters.get("monoid.examined", 0)
    yielded = counters.get("monoid.closed_supersets.yielded", 0)
    metrics.update({
        "newton.box_points": metric(counters.get("newton.box_points", 0),
                                    "count"),
        "monoid.examined": metric(examined, "count"),
        "monoid.closed_yielded": metric(yielded, "count"),
        "monoid.yield_ratio": metric(yielded / examined if examined else 0.0,
                                     "ratio"),
        "monoid.budget_exceeded": metric(
            counters.get("monoid.budget_exceeded", 0), "count"),
        "polytopes.decompose_coeff_abs_sum": metric(
            counters.get("polytopes.decompose_coeff_abs_sum", 0), "count"),
    })
    for name in CLI_COMMANDS:
        ms = by_name.get(name) if workload == "cli-readme" else None
        metrics[f"cli.{name}.ms"] = metric(
            statistics.median(ms) if ms else 0.0, "ms")
    metrics["cli.interpreter_ms"] = metric(_cli_spawn_ms("pass"), "ms")
    metrics["cli.import_ms"] = metric(_cli_spawn_ms("import icm"), "ms")
    metrics["cli.traceback_exits"] = metric(
        counters.get("cli.traceback_exits", 0), "count")
    metrics["trace.overhead_frac"] = metric(
        traced_s / untraced_s - 1 if untraced_s else 0.0, "ratio")
    attempted = sum(w["n_ops"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    metrics["failed_frac"] = metric(failed / attempted, "ratio")
    return workers, metrics, {}


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "icm").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def selftest():
    """Every workload once at tiny sizes, untraced and traced."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (False, True):
            w = run_worker(workload, 0, 0, scale="tiny", trace=trace)
            good = w["failed"] == 0 and not w["killed"]
            ok &= good
            print(json.dumps({"workload": workload, "trace": trace,
                              "ops": w["n_ops"], "failed": w["failed"],
                              "ok": good,
                              "errors": (w["summary"] or {}).get("errors"),
                              "stderr": w["stderr"][-300:] if not good
                              else ""}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "icm" / "__init__.py").is_file():
        print(f"run.py: no package source at {ROOT / 'src' / 'icm'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")

    if args.trace:
        workers, metrics, info = per_layer(args.workload, args.seed)
    else:
        workers, metrics, info = end_to_end(args.workload, args.seed,
                                            args.seconds)
    attempted = sum(w["n_ops"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    clean = all(w["summary"] and not w["killed"] and w["returncode"] == 0
                for w in workers)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "source_sha256": source_digest(),
        "workers": len(workers),
        "errors": [e for w in workers
                   for e in (w["summary"] or {}).get("errors", [])][:5]
        + [w["stderr"][-500:] for w in workers if not w["summary"]][:2],
    })
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": bool(clean and failed == 0),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
