"""Span-recording wrappers around the package's public functions.

The wrappers are installed from outside: every module attribute of the
package that is one of the listed functions is replaced, so calls between
modules (monoid.star calling newton.integral_closure, say) pass through the
wrapper too.  Nothing under src/ is edited.

Spans are aggregated as they close, per function: calls, total time and
self time (span time minus the time of child spans).  Keeping every span
would cost memory in proportion to the millions of tiny calls some
workloads make.  Hot leaf helpers (contains, dominates, box_points) are
deliberately not wrapped; their wrapper cost would swamp the spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns

LAYERS = {
    "ideals": ["product", "colon", "minimalize"],
    "feasibility": ["feasible_nonneg"],
    "newton": ["integral_closure", "is_integrally_closed", "member",
               "vertices", "np_equal"],
    "monoid": ["star", "closed_supersets", "divides", "is_star_irreducible",
               "factor_atoms", "all_factorizations"],
    "polytopes": ["hull", "p_mink_sum", "edge_vector_counts", "decompose_2d",
                  "phi", "colon_factorization_2d"],
}

PACKAGE_MODULES = ["icm", "icm.ideals", "icm.feasibility", "icm.newton",
                   "icm.monoid", "icm.polytopes", "icm.parsing",
                   "icm.properties", "icm.cli"]


class Tracer:
    """Aggregated spans plus the work counters measured at the same
    boundaries.  Recording happens only while `enabled` is true, so input
    generation and answer checks stay out of the numbers."""

    def __init__(self):
        self.enabled = False
        self.stats = {}     # "layer.fn" -> [calls, total_ns, self_ns]
        self.counters = {}
        self._children = []  # child-time accumulators of the open spans

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self):
        self._children.append(0)
        return perf_counter_ns()

    def _close(self, rec, t0):
        dt = perf_counter_ns() - t0
        child = self._children.pop()
        rec[1] += dt
        rec[2] += dt - child
        if self._children:
            self._children[-1] += dt

    def wrap(self, name, fn, after=None):
        rec = self.stats.setdefault(name, [0, 0, 0])
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn, rec)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec[0] += 1
            t0 = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, t0)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn, rec):
        """A generator's span is the sum of its resumptions; the time the
        consumer spends between items belongs to the consumer."""

        def drive(gen):
            while True:
                t0 = self._open()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(rec, t0)
                self.count(name + ".yielded")
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec[0] += 1
            return drive(fn(*args, **kwargs))

        return wrapper

    def install(self):
        """Wrap every listed function wherever the package binds it."""
        from icm.ideals import generator_box

        def box_points(tracer, args, result):
            n = 1
            for m in generator_box(args[0]):
                n *= m + 1
            tracer.count("newton.box_points", n)

        def coeff_abs_sum(tracer, args, result):
            tracer.count("polytopes.decompose_coeff_abs_sum",
                         sum(abs(c) for c in result.values()))

        after = {"newton.integral_closure": box_points,
                 "polytopes.decompose_2d": coeff_abs_sum}
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for layer, names in LAYERS.items():
            home = importlib.import_module("icm." + layer)
            for fn_name in names:
                original = getattr(home, fn_name)
                key = f"{layer}.{fn_name}"
                wrapped = self.wrap(key, original, after.get(key))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def snapshot(self):
        return {name: {"calls": c, "total_ms": t / 1e6, "self_ms": s / 1e6}
                for name, (c, t, s) in self.stats.items()}
