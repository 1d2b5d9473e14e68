"""In-memory span tracer that patches hesscoh's public functions by name.

`verify` and `cli` bind functions such as `buchberger` with
`from ... import`, so patching only the defining module would miss
their calls.  `Tracer.install` therefore replaces the function object
under every name, in every loaded `hesscoh` module (and on
`Polynomial` for methods), that is bound to the original.

A span is `[name, start, end, parent, task]`: `parent` is the index of
the enclosing traced span (-1 at top level) and `task` the index of the
enclosing task span, so the spans of one task share that identifier.
Spans stay in memory until `write` and `layer_metrics` read them.  Self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from math import factorial
from time import perf_counter

CHECK_RUNNERS = {
    "check_example_n4": "example-n4",
    "check_closed_form_at": "closed-form",
    "check_t_zero_at": "t-zero",
    "check_localization_vanishing": "localization",
    "check_fixed_point_exactness": "fixed-point-exactness",
    "check_peterson": "peterson",
    "check_flag_borel": "flag-borel",
    "check_hilbert": "hilbert",
    "negative_controls": "negative-controls",
}

TIMED_LAYERS = (
    "polyring.substitute",
    "polyring.mul",
    "polyring.evaluate",
    "hessenberg.fixed_points",
    "generators.ideal_generators",
    "groebner.buchberger",
    "groebner.normal_form",
    "groebner.hilbert_series",
)

COUNTERS = (
    "groebner.pairs_processed",
    "groebner.reductions_to_zero",
    "groebner.basis_size",
    "groebner.basis_terms",
    "groebner.cache.hits",
    "groebner.cache.misses",
)


def layer_metric_names() -> list[str]:
    """Every per-layer metric `layer_metrics` reports, in a fixed order."""
    names = []
    for layer in TIMED_LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s"]
    names += ["hessenberg.fixed_points.hit_ratio", *COUNTERS, "groebner.zero_reduction_ratio"]
    for check in CHECK_RUNNERS.values():
        names += [f"verify.{check}.tasks", f"verify.{check}.self_s"]
    names += ["verify.run_suite.self_s", "cli.main.self_s", "trace.overhead_ratio"]
    return names


def _rebind(original, replacement) -> None:
    """Replace original under every name bound to it in the loaded hesscoh
    modules and on Polynomial (`__rmul__` is the same function as `__mul__`)."""
    from hesscoh.polyring import Polynomial

    namespaces = [vars(m) for name, m in list(sys.modules.items())
                  if m is not None and (name == "hesscoh" or name.startswith("hesscoh."))]
    bound = False
    for namespace in namespaces:
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement
                bound = True
    for attr, value in list(vars(Polynomial).items()):
        if value is original:
            setattr(Polynomial, attr, replacement)
            bound = True
    if not bound:
        raise RuntimeError(f"nothing in hesscoh is bound to {original!r}")


def _cache_entries(cache_dir) -> int:
    return len(os.listdir(cache_dir)) if cache_dir is not None and os.path.isdir(cache_dir) else 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.points_returned = 0
        self.permutations_scanned = 0
        self._stack: list[int] = []
        self._task_names: set[str] = {"task"}

    # -- spans ------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        stack = self._stack
        parent = stack[-1] if stack else -1
        index = len(self.spans)
        if name in self._task_names:
            task = index
        else:
            task = self.spans[parent][4] if parent >= 0 else -1
        record = [name, 0.0, 0.0, parent, task]
        self.spans.append(record)
        stack.append(index)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            stack.pop()

    def _wrap(self, name: str, fn):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced layer under all the names that bind it."""
        import hesscoh.cli as cli
        import hesscoh.generators as generators
        import hesscoh.groebner as groebner
        import hesscoh.hessenberg as hessenberg
        import hesscoh.verify as verify
        from hesscoh.polyring import Polynomial

        for attr, layer in (("substitute", "substitute"), ("__mul__", "mul"),
                            ("evaluate", "evaluate")):
            fn = vars(Polynomial)[attr]
            _rebind(fn, self._wrap(f"polyring.{layer}", fn))
        for module, attr in ((generators, "ideal_generators"), (groebner, "normal_form"),
                             (groebner, "hilbert_series"), (verify, "run_suite"), (cli, "main")):
            fn = getattr(module, attr)
            _rebind(fn, self._wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", fn))
        _rebind(groebner.buchberger, self._traced_buchberger(groebner.buchberger))
        _rebind(hessenberg.fixed_points, self._traced_fixed_points(hessenberg.fixed_points))
        for runner, check in CHECK_RUNNERS.items():
            fn = getattr(verify, runner)
            self._task_names.add(f"verify.{check}")
            _rebind(fn, self._wrap(f"verify.{check}", fn))

    def _traced_buchberger(self, fn):
        span, counts = self.span, self.counts

        def traced(generators, *args, **kwargs):
            # signature: buchberger(generators, order, pair_budget, cache_dir)
            cache_dir = args[2] if len(args) > 2 else kwargs.get("cache_dir")
            before = _cache_entries(cache_dir)
            gb = span("groebner.buchberger", fn, generators, *args, **kwargs)
            # a miss is a new file in the cache dir across the call
            computed = cache_dir is None or _cache_entries(cache_dir) > before
            if cache_dir is not None:
                counts["groebner.cache.misses" if computed else "groebner.cache.hits"] += 1
            if computed:
                counts["groebner.pairs_processed"] += gb.stats.pairs_processed
                counts["groebner.reductions_to_zero"] += gb.stats.reductions_to_zero
            counts["groebner.basis_size"] += len(gb.basis)
            counts["groebner.basis_terms"] += sum(len(g) for g in gb.basis)
            return gb

        traced.__wrapped__ = fn
        return traced

    def _traced_fixed_points(self, fn):
        span = self.span

        def traced(h, *args, **kwargs):
            points = span("hessenberg.fixed_points", fn, h, *args, **kwargs)
            self.points_returned += len(points)
            self.permutations_scanned += factorial(h.n)
            return points

        traced.__wrapped__ = fn
        return traced

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self seconds per traced layer, plus the counters."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (name, start, end, _, _), children in zip(spans, child_time):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - children)

        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        scanned = self.permutations_scanned
        out["hessenberg.fixed_points.hit_ratio"] = self.points_returned / scanned if scanned else 0.0
        out.update(self.counts)
        pairs = self.counts["groebner.pairs_processed"]
        out["groebner.zero_reduction_ratio"] = (
            self.counts["groebner.reductions_to_zero"] / pairs if pairs else 0.0
        )
        for check in CHECK_RUNNERS.values():
            out[f"verify.{check}.tasks"] = calls.get(f"verify.{check}", 0)
            out[f"verify.{check}.self_s"] = self_s.get(f"verify.{check}", 0.0)
        out["verify.run_suite.self_s"] = self_s.get("verify.run_suite", 0.0)
        out["cli.main.self_s"] = self_s.get("cli.main", 0.0)
        return out

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "task": task}) + "\n")
