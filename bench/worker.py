"""One benchmark worker: a fresh process that builds its inputs from a seed,
runs the workload's op list once, checks every answer, and reports.

    python3 bench/worker.py --workload NAME --seed N --index I
                            [--scale full|tiny] [--trace]

The driver (run.py) starts one worker per repetition, so every repetition
pays the package's cold start the way a CLI user does.  Output is JSON
lines on stdout, written unbuffered so that a worker killed for overrunning
still shows how far it got:

    {"t0": <CLOCK_MONOTONIC at the first op>, "n_ops": N}
    {"i": k, "ms": latency}                       one line per finished op
    {"done": true, ...}                           after the checks
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The CPU speed of a shared machine swings (by up to 1.7x within seconds
# on the 2-core VM this was written on), and a neighbour's load is no
# regression.  So each op is reported twice: raw, and scaled to a
# reference speed,
#     scaled = (raw - time spent calibrating during the op) * reference
#              / (mean of the calibration passes just before, during and
#                 just after the op).
# In-process workloads calibrate with a CPU loop run every CAL_EVERY_S
# from a timer signal, also in the middle of a long op; cli-readme, whose
# ops are mostly process start-up, with a bare interpreter start between
# ops.  The reference times are about the passes' fastest times on that
# machine, so scaled milliseconds read as milliseconds on it at full speed.
CAL_REF_S = 0.0004
CAL_EVERY_S = 0.05
SPAWN_REF_S = 0.035


def calibration_pass():
    """A fixed pure-Python loop of the kind the package runs (tuples, set
    lookups, integer arithmetic, generator sums); best of three."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        seen = set()
        acc = 0
        for i in range(600):
            p = (i % 37, i % 41)
            if p not in seen:
                seen.add(p)
            acc += sum(a * b for a, b in zip(p, (3, 5)))
        best = min(best, time.perf_counter() - t)
    return best


def spawn_pass():
    """Start and stop a bare interpreter: the calibration for ops that are
    CLI processes, whose time is mostly process start-up, which a CPU
    loop's speed tracks only in part."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t


class SpeedSampler:
    """Calibration passes, (midpoint, pass time, time taken from an op)
    each: the CPU pass on a SIGALRM timer, or spawn_pass between ops."""

    def __init__(self, spawn):
        self.spawn = spawn
        self.ref_s = SPAWN_REF_S if spawn else CAL_REF_S
        self.samples = []

    def sample(self, *_):
        t = time.perf_counter()
        c = spawn_pass() if self.spawn else calibration_pass()
        t1 = time.perf_counter()
        self.samples.append(((t + t1) / 2, c, 0 if self.spawn else t1 - t))

    def start(self):
        self.sample()
        if not self.spawn:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def between_ops(self):
        if self.spawn:
            self.sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if not self.spawn:
            self.sample()

    def scaled_ms(self, t0, t1):
        """An op that ran from t0 to t1, in reference milliseconds."""
        inside = [(c, h) for t, c, h in self.samples if t0 <= t <= t1]
        before = [c for t, c, _ in self.samples if t < t0][-1:]
        after = [c for t, c, _ in self.samples if t > t1][:1]
        near = before + [c for c, _ in inside] + after
        net = (t1 - t0) - sum(h for _, h in inside)
        return net * 1e3 * self.ref_s / (sum(near) / len(near))


def emit(obj):
    os.write(1, (json.dumps(obj) + "\n").encode())


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # One core for the worker and its CLI children, so the calibration
    # pass measures the core the work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import icm
    if Path(icm.__file__).resolve().parent != ROOT / "src" / "icm":
        sys.exit(f"worker: imported icm from {icm.__file__}, "
                 f"not from {ROOT / 'src'}")
    from spans import Tracer
    tracer = Tracer()
    if args.trace:
        tracer.install()  # before workloads binds the package's names
    from workloads import PROBE_WORKLOADS, WORKLOADS, cli_probes

    builders = {**WORKLOADS, **PROBE_WORKLOADS}
    rng = random.Random(f"{args.workload}/{args.seed}/{args.index}")
    ops = builders[args.workload](rng, args.scale, tracer)

    results = [None] * len(ops)
    errors = {}
    emit({"t0": time.monotonic(), "n_ops": len(ops)})
    sampler = SpeedSampler(spawn=args.workload == "cli-readme")
    sampler.start()
    spans = []
    tracer.enabled = args.trace
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            results[i] = op.run()
        except Exception as ex:  # a crash is a failed op, not a dead worker
            errors[i] = f"{op.name}: {ex!r}"
        now = time.perf_counter()
        spans.append((t, now))
        emit({"i": i, "ms": (now - t) * 1e3})
        sampler.between_ops()
    tracer.enabled = False
    sampler.stop()

    for i, op in enumerate(ops):
        if i in errors:
            continue
        try:
            ok = op.check(results[i], results)
        except Exception as ex:
            errors[i] = f"{op.name}: check raised {ex!r}"
            continue
        if not ok:
            errors[i] = f"{op.name}: wrong answer"

    if args.workload == "cli-readme":
        tracer.count("cli.traceback_exits", cli_probes(str(ROOT)))
        who = resource.RUSAGE_CHILDREN  # the largest CLI child
    else:
        who = resource.RUSAGE_SELF
    emit({"done": True,
          "names": [op.name for op in ops],
          "failed": sorted(errors),
          "errors": [errors[i] for i in sorted(errors)][:5],
          "scaled_ms": [sampler.scaled_ms(t0, t1) for t0, t1 in spans],
          "setup_scale": sampler.ref_s / sampler.samples[0][1],
          "peak_rss_kb": resource.getrusage(who).ru_maxrss,
          "counters": tracer.counters,
          "spans": tracer.snapshot()})


if __name__ == "__main__":
    main()
