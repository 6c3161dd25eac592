"""Outside-in tracing of the fishburn package by attribute replacement.

``Tracer.install`` swaps each target function for a timing wrapper in every
loaded ``fishburn`` module that holds it, so calls through module globals and
through names imported with ``from ... import`` are both seen.  Spans are kept
in memory as ``[name, parent, start, end]`` and summarised or written out at the
end of the run.  Times come from the clock passed in, which is the corrected
clock of probe.Sampler.  An untraced run installs nothing and only reads the caches.
"""

from __future__ import annotations

import json
import sys

# (defining module, attribute, span name).  The span name's first part is the
# layer, which is the module.
TARGETS = (
    ("series", "_mul_into", "series.mul"),
    ("series", "_bv_mul_into", "series.bvmul"),
    ("series", "sum_product", "series.sum_product"),
    ("families", "family_series", "families.family_series"),
    ("families", "stat_profile", "families.stat_profile"),
    ("families", "stat_jet", "families.stat_jet"),
    ("families", "labeled_profile", "families.labeled_profile"),
    ("distributions", "distribution", "distributions.distribution"),
    ("distributions", "stat_mean_variance", "distributions.stat_mean_variance"),
    ("distributions", "limit_law_for", "distributions.limit_law_for"),
    ("saddle", "an_approx", "saddle.an_approx"),
    ("saddle", "solve_saddle", "saddle.solve_saddle"),
    ("saddle", "_phi_terms", "saddle.phi_terms"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("series", "families", "distributions", "saddle", "cli")

# Every lru_cache of the package, by layer.
CACHES = {
    "families": ("lambda_series", "family_series", "fishburn_numbers",
                 "stat_profile", "stat_jet", "labeled_profile"),
    "saddle": ("optimum", "solve_saddle", "_log_ank"),
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self.steps = 0  # sum_product factor callbacks

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _counting_sum_product(self, fn):
        def sum_product(factor, *args, **kwargs):
            def counted(j, room):
                self.steps += 1
                return factor(j, room)

            return fn(counted, *args, **kwargs)

        return sum_product

    def install(self):
        """Replace every target in every loaded fishburn module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "fishburn" or n.startswith("fishburn.")]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[f"fishburn.{module_name}"], attr)
            fn = original
            if span_name == "series.sum_product":
                fn = self._counting_sum_product(original)
            wrapper = self._wrap(span_name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def metrics(self) -> dict:
        """Per-layer times and counts from the spans of this run."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for _, _, name in TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
        for i, (name, parent, start, end) in enumerate(spans):
            out[name.split(".")[0] + ".self_s"] += (end - start) - child_time[i]
            out[f"{name}.calls"] += 1
            # Count a span's time once: skip it inside a span of the same name.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                out[f"{name}.s"] += end - start
        out["series.sum_product.steps"] = self.steps
        return out

    def write(self, path):
        """Write the spans as JSON, times relative to the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[name, parent, round(start - t0, 7), round(end - t0, 7)]
                for name, parent, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"schema": "perfbench.spans/1",
                       "columns": ["name", "parent", "start_s", "end_s"],
                       "spans": rows}, handle)


def cache_metrics(fishburn) -> dict:
    """Totals of ``cache_info()`` over each layer's lru_caches."""
    out = {}
    for layer, names in CACHES.items():
        module = getattr(fishburn, layer)
        infos = [getattr(module, name).cache_info() for name in names]
        hits = sum(i.hits for i in infos)
        misses = sum(i.misses for i in infos)
        out[f"{layer}.cache.hits"] = hits
        out[f"{layer}.cache.misses"] = misses
        out[f"{layer}.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out[f"{layer}.cache.entries"] = sum(i.currsize for i in infos)
    # Cache misses are the distinct (n, k) solved; this replaces the span count.
    out["saddle.solve_saddle.calls"] = fishburn.saddle.solve_saddle.cache_info().misses
    return out
