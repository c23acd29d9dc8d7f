"""Span and counter tracing of finslercheck, attached from outside the package.

``Tracer.instrument()`` replaces the layer boundaries listed in ``SPANS`` and
``JET_OPS``, every ``derivs`` of the 1-D catalog and the sampler's ``_draw``
with wrappers, in every finslercheck module namespace and class that holds
them, and ``Tracer.restore()`` puts the originals back.  The package's source
is never edited.

* A span wrapper records name, start, end and parent span.  Every span is
  folded into per-name statistics (calls, total time, self time, parent
  names); spans of the coarse boundaries are also kept whole, with ids and
  parent ids, for the trace file.
* A counter wrapper only counts.  It is used where a call takes about a
  microsecond, so that a span would cost more than the call.
* Wrappers keep a seeded reservoir of the arguments they saw.  ``replay`` times
  the original functions on those arguments with tracing off, which gives the
  per-call times of short functions without wrapper overhead.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
import time
from collections import Counter, defaultdict

perf_ns = time.perf_counter_ns

# (module, attribute) -> keep whole spans?  "Class.method" patches a class attribute.
SPANS = {
    ("cli", "main"): True,
    ("report", "emit_report"): True,
    ("report", "render_json"): True,
    ("report", "render_csv"): True,
    ("suite", "run_suite"): True,
    ("sampling", "sample_domain_detailed"): True,
    ("sampling", "seeded_unitary"): True,
    ("tensors", "levi_closed"): True,
    ("tensors", "levi_oracle"): True,
    ("tensors", "det_closed"): True,
    ("tensors", "pseudoconvexity_check"): True,
    ("tensors", "spray_coefficients"): True,
    ("tensors", "nonlinear_connection_fd"): True,
    ("tensors", "connection_coefficients"): True,
    ("tensors", "metric_scalars"): True,
    ("tensors", "k_scalars"): False,
    ("tensors", "invariants"): False,
    ("curvature", "uw"): False,
    ("curvature", "wk_residual_phi"): True,
    ("curvature", "wk_residual_uw"): True,
    ("curvature", "lemma_integrability_residual"): True,
    ("curvature", "k2_k3_identity_residual"): True,
    ("curvature", "holomorphic_curvature_direct"): True,
    ("curvature", "holomorphic_curvature_closed"): True,
    ("curvature", "holomorphic_curvature_wk"): True,
    ("curvature", "kahler_classify"): True,
    ("curvature", "curvature_report"): True,
    ("numerics", "wirtinger_gradient"): True,
    ("numerics", "wirtinger_mixed_hessian"): True,
    ("numerics", "wirtinger_second"): True,
    ("numerics", "hermitian_inverse_det"): True,
    ("numerics", "positive_definite"): True,
    ("numerics", "_probe"): False,
    ("profiles", "profile_from_descriptor"): True,
    ("profiles", "MetricProfile.value"): False,
    ("profiles", "MetricProfile.raw_jet"): False,
    ("profiles", "MetricProfile.jet"): False,
    ("profiles", "MetricProfile.jet_smooth"): False,
    ("profiles", "MetricProfile.is_valid"): False,
}

# counted boundaries: metric-name suffix -> Jet2 methods counted under it
JET_OPS = {
    "add": ("__add__", "__radd__"), "sub": ("__sub__", "__rsub__"), "neg": ("__neg__",),
    "mul": ("__mul__", "__rmul__"), "truediv": ("__truediv__",),
    "rtruediv": ("__rtruediv__",), "sqrt": ("sqrt",),
}

RESERVOIR = 64


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "finslercheck" or name.startswith("finslercheck.")]


class Tracer:
    """Spans and counters for one traced stretch of work."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.stack = []                  # open spans: [id, name, child_ns]
        self.spans = []                  # kept whole: (id, parent_id, name, start_ns, end_ns)
        self.stats = defaultdict(lambda: [0, 0, 0])   # name -> [calls, total_ns, self_ns]
        self.parents = defaultdict(Counter)           # name -> parent name -> calls
        self.counts = Counter()
        self.captured = defaultdict(list)             # name -> [(fn, args, kwargs)]
        self._seen = Counter()
        self.distinct_probes = 0
        self._probe_field = None
        self._probe_points = set()
        self._derivs_depth = 0
        self._next_id = 1
        self._patches = []
        self.missing = []

    # --- argument reservoir ---

    def _capture(self, name, fn, args, kwargs):
        self._seen[name] += 1
        seen = self._seen[name]
        box = self.captured[name]
        if len(box) < RESERVOIR:
            box.append((fn, args, kwargs))
        else:
            j = self.rng.randrange(seen)
            if j < RESERVOIR:
                box[j] = (fn, args, kwargs)

    # --- wrappers ---

    def _span(self, name, fn, keep):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._capture(name, fn, args, kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0]
            tracer._next_id += 1
            stack.append(frame)
            t0 = perf_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_ns()
                stack.pop()
                dur = t1 - t0
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                tracer.parents[name][parent[1] if parent else None] += 1
                if keep:
                    tracer.spans.append((frame[0], parent[0] if parent else 0, name, t0, t1))

        return wrapper

    def _probe_wrapper(self, fn):
        """``numerics._probe`` as a span that also counts bitwise-distinct stencil points."""
        span = self._span("numerics._probe", fn, keep=False)
        tracer = self

        def wrapper(field, point):
            if field is not tracer._probe_field:
                tracer._flush_probes()
                tracer._probe_field = field
            tracer._probe_points.add(point.tobytes())
            return span(field, point)

        return wrapper

    def _flush_probes(self):
        self.distinct_probes += len(self._probe_points)
        self._probe_points = set()
        self._probe_field = None

    def _count(self, name, fn, capture):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if capture:
                tracer._capture(name, fn, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _derivs_wrapper(self, fn):
        """Counts outermost ``derivs`` calls only (WkG, Scaled and SumFn nest them)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._derivs_depth:
                return fn(*args, **kwargs)
            tracer.counts["functions1d.derivs"] += 1
            tracer._capture("functions1d.derivs", fn, args, kwargs)
            tracer._derivs_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._derivs_depth -= 1

        return wrapper

    def _draw_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["sampling.draws"] += 1
            counts["sampling.accepted"] += result[0] is not None
            return result

        return wrapper

    # --- patching ---

    def _patch_everywhere(self, original, wrapper):
        for module in _modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_class(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def instrument(self):
        """Wrap every boundary; one that the package no longer has is listed in ``missing``."""
        mods = {name: importlib.import_module(f"finslercheck.{name}")
                for name in ("cli", "report", "suite", "sampling", "tensors", "curvature",
                             "numerics", "profiles", "jets", "functions1d")}
        self.missing = []
        for (mod, attr), keep in SPANS.items():
            name = f"{mod}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    self.missing.append(name)
                    continue
                self._patch_class(cls, meth, self._span(name, cls.__dict__[meth], keep))
                continue
            original = getattr(mods[mod], attr, None)
            if original is None:
                self.missing.append(name)
            elif attr == "_probe":
                self._patch_everywhere(original, self._probe_wrapper(original))
            else:
                self._patch_everywhere(original, self._span(name, original, keep))
        jet2 = mods["jets"].Jet2
        for op, methods in JET_OPS.items():
            for meth in methods:
                self._patch_class(jet2, meth, self._count(
                    f"jets.{op}", jet2.__dict__[meth], capture=op in ("mul", "truediv", "sqrt")))
        f1d = mods["functions1d"]
        for cls in vars(f1d).values():
            if isinstance(cls, type) and issubclass(cls, f1d.ScalarFunction1D) \
                    and "derivs" in cls.__dict__:
                self._patch_class(cls, "derivs", self._derivs_wrapper(cls.__dict__["derivs"]))
        original = getattr(mods["sampling"], "_draw", None)
        if original is None:
            self.missing.append("sampling._draw")
        else:
            self._patch_everywhere(original, self._draw_wrapper(original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._flush_probes()

    # --- read-out ---

    def calls(self, name: str) -> int:
        if name in self.stats:
            return self.stats[name][0]
        return self.counts[name]

    def summary(self) -> dict:
        """Per-name statistics with parent names, for the trace file."""
        return {name: {"calls": st[0], "total_ms": st[1] / 1e6, "self_ms": st[2] / 1e6,
                       "parents": {str(p): c for p, c in self.parents[name].items()}}
                for name, st in sorted(self.stats.items())}

    def replay(self, name: str, budget_s: float = 0.15, weight=None) -> float | None:
        """Mean seconds per call of the original function on the captured arguments.

        With ``weight``, seconds per unit of ``weight(result)`` instead.  Call
        only after ``restore``.  None when the function was never called.
        """
        box = list(self.captured.get(name, ()))
        if not box:
            return None
        self.rng.shuffle(box)
        units = 0
        start = time.perf_counter()
        while True:
            for fn, args, kwargs in box:
                result = fn(*args, **kwargs)
                units += weight(result) if weight else 1
                elapsed = time.perf_counter() - start
                if elapsed >= budget_s:
                    return elapsed / units
