"""Spans and counters recorded from outside codazzi, around the public functions of each layer.

Nothing under ``src/`` is edited.  ``install`` replaces each wrapped function
in every codazzi module (and module-level dict) that holds it, so a name
imported elsewhere (``spheres`` imports ``nabla_at`` from ``charts``, ``suites``
keeps its suite functions in a dict) is traced wherever it is called.  A
wrapped name that no longer exists is reported as absent, never as zero.

A span is ``[group, start, end, parent, outermost]``.  A group's inclusive
seconds sum only its outermost spans, so recursion (``nabla_at`` calls itself
through ``nabla_field``) is not counted twice; its self seconds subtract the
time covered by child spans of any group.  Scalar field evaluations and memo
lookups are counted, not timed.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import sys
import time

# (module, function, span group): every public function the spans cover
SPANNED = (
    ("charts", "christoffel_array", "charts.christoffel"),
    ("charts", "nabla_at", "charts.nabla"),
    ("charts", "curvature_hat_arrays", "charts.curvature"),
    ("spheres", "ros_residual", "spheres.ros"),
    ("spheres", "unit_bundle_functional", "spheres.bundle"),
    ("tensors", "frame_components", "tensors.frame_components"),
    ("suites", "sweep_trace_inequalities", "suites.sweep"),
    ("suites", "sweep_cubic_norm_bounds", "suites.sweep"),
    ("suites", "algebraic_suite", "suites.algebraic"),
    ("suites", "differential_suite", "suites.differential"),
    ("suites", "simons_suite", "suites.simons"),
    ("suites", "bounds_suite", "suites.bounds"),
    ("suites", "integral_suite", "suites.integral"),
    ("bounds", "discrete_max_probe", "bounds.max_probe"),
    ("generators", "generate", "generators.generate"),
    ("structures_io", "ingest", "structures_io.ingest"),
    ("structures_io", "emit", "structures_io.emit"),
    ("cli", "main", "cli.check"),
)

# every public function defined in codazzi.points joins this one group
POINTS_GROUP = "points.kernel"

# (name, unit, better): the per-layer metrics a traced run prints
PER_LAYER = (
    ("expressions.scalar_evals", "count", "lower"),
    ("charts.christoffel_calls", "count", "lower"),
    ("charts.christoffel_s", "s", "lower"),
    ("charts.christoffel_self_s", "s", "lower"),
    ("charts.nabla_calls", "count", "lower"),
    ("charts.nabla_s", "s", "lower"),
    ("charts.nabla_self_s", "s", "lower"),
    ("charts.curvature_calls", "count", "lower"),
    ("charts.curvature_s", "s", "lower"),
    ("charts.curvature_self_s", "s", "lower"),
    ("charts.memo_lookups", "count", "lower"),
    ("charts.memo_hit_ratio", "ratio", "higher"),
    ("spheres.ros_s", "s", "lower"),
    ("spheres.ros_self_s", "s", "lower"),
    ("spheres.bundle_s", "s", "lower"),
    ("spheres.bundle_self_s", "s", "lower"),
    ("spheres.lattice_points", "count", "lower"),
    ("spheres.fiber_node_evals", "count", "lower"),
    ("tensors.frame_components_calls", "count", "lower"),
    ("tensors.frame_components_s", "s", "lower"),
    ("points.kernel_calls", "count", "lower"),
    ("points.kernel_s", "s", "lower"),
    ("suites.sweep_s", "s", "lower"),
    ("suites.sweep_self_s", "s", "lower"),
    ("suites.sweep_samples", "count", "lower"),
    ("suites.sweep_bytes_computed", "bytes", "lower"),
    ("suites.algebraic_s", "s", "lower"),
    ("suites.differential_s", "s", "lower"),
    ("suites.simons_s", "s", "lower"),
    ("suites.bounds_s", "s", "lower"),
    ("suites.integral_s", "s", "lower"),
    ("bounds.max_probe_s", "s", "lower"),
    ("generators.generate_calls", "count", "lower"),
    ("generators.generate_s", "s", "lower"),
    ("structures_io.ingest_s", "s", "lower"),
    ("cli.check_s", "s", "lower"),
    ("setup.generators.generate_calls", "count", "lower"),
    ("setup.generators.generate_s", "s", "lower"),
    ("setup.structures_io.emit_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans_per_pass", "count", "lower"),
)

# counters, and the span groups or counters whose absence makes each absent
_COUNTERS = {
    "expressions.scalar_evals": ("expressions.scalar_evals",),
    "charts.memo_lookups": ("charts.memo_lookups",),
    "charts.memo_hits": ("charts.memo_lookups",),
    "spheres.lattice_points": ("spheres.ros", "spheres.bundle"),
    "spheres.fiber_node_evals": ("spheres.ros", "spheres.bundle"),
    "suites.sweep_samples": ("suites.sweep",),
    "suites.sweep_bytes_computed": ("suites.sweep",),
}


class Tracer:
    """In-memory spans and counters for one process; nothing is written until asked."""

    def __init__(self):
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counts: dict[str, int] = {name: 0 for name in _COUNTERS}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._restore: list[tuple] = []
        self._node_counts: dict[int, int] = {}

    def group_id(self, group: str) -> int:
        if group not in self._group_ids:
            self._group_ids[group] = len(self.groups)
            self.groups.append(group)
            self._depth.append(0)
        return self._group_ids[group]

    def reset(self) -> None:
        """Drop recorded spans and zero the counters (lists are cleared in place for the wrappers)."""
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0

    # -- wrappers ------------------------------------------------------------

    def spanned(self, group: str, fn, on_return=None):
        gid = self.group_id(group)
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            d = depth[gid]
            depth[gid] = d + 1
            record = [gid, clock(), 0.0, stack[-1] if stack else -1, d == 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                depth[gid] = d
            if on_return is not None:
                on_return(args, kwargs)
            return out

        return wrapper

    def _compile_counted(self, compile_fn):
        counts = self.counts

        @functools.wraps(compile_fn)
        def compile_wrapper(expr, *args, **kwargs):
            fn = compile_fn(expr, *args, **kwargs)

            def counted(*args, **kwargs):
                counts["expressions.scalar_evals"] += 1
                return fn(*args, **kwargs)

            return counted

        return compile_wrapper

    def _memo_counted(self, memo_fn):
        counts = self.counts

        @functools.wraps(memo_fn)
        def memo_wrapper(chart, *args):
            *key, compute = args
            missed = False

            def compute_on_miss():
                nonlocal missed
                missed = True
                return compute()

            out = memo_fn(chart, *key, compute_on_miss)
            counts["charts.memo_lookups"] += 1
            if not missed:
                counts["charts.memo_hits"] += 1
            return out

        return memo_wrapper

    def _lattice_counter(self, fn, spheres_mod):
        """Count lattice points and fiber node evaluations from a bundle integral's arguments."""
        signature = inspect.signature(fn)
        counts = self.counts

        def count(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            chart = bound.arguments["cs"]
            lattice = bound.arguments["lattice"]
            sizes = [lattice] * chart.n if isinstance(lattice, int) else list(lattice)
            points = 1
            for size in sizes:
                points *= int(size)
            quad = bound.arguments["quad"]
            if quad is None:
                if chart.n not in self._node_counts:
                    self._node_counts[chart.n] = spheres_mod.product_gauss(chart.n).node_count
                nodes = self._node_counts[chart.n]
            else:
                nodes = quad.node_count
            counts["spheres.lattice_points"] += points
            counts["spheres.fiber_node_evals"] += points * nodes

        return self._guarded(count, ("spheres.lattice_points", "spheres.fiber_node_evals"))

    def _sweep_counter(self, fn):
        """Count sweep samples and the bytes of their (count, n, n, n) float64 cubic batches."""
        signature = inspect.signature(fn)
        counts = self.counts

        def count(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            n, samples = int(bound.arguments["n"]), int(bound.arguments["count"])
            counts["suites.sweep_samples"] += samples
            counts["suites.sweep_bytes_computed"] += samples * n**3 * 8

        return self._guarded(count, ("suites.sweep_samples", "suites.sweep_bytes_computed"))

    def _guarded(self, count, names):
        """Run a counter hook; if the arguments it reads changed, mark its counters absent."""

        def on_return(args, kwargs):
            if names[0] in self.absent:
                return
            try:
                count(args, kwargs)
            except (TypeError, KeyError, AttributeError, ValueError):
                self.absent.update(names)

        return on_return

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary in all loaded codazzi modules; record absent ones."""
        modules = {}
        for short in ("expressions", "charts", "spheres", "tensors", "points", "suites",
                      "bounds", "generators", "structures_io", "cli"):
            try:
                modules[short] = importlib.import_module(f"codazzi.{short}")
            except ImportError:
                modules[short] = None
        loaded = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "codazzi" or name.startswith("codazzi."))]

        wrapped = {}  # id of an original function -> its wrapper
        for short, attr, group in SPANNED:
            self.group_id(group)
            fn = getattr(modules[short], attr, None) if modules[short] else None
            if not callable(fn):
                self.absent.add(group)
                continue
            on_return = None
            if group in ("spheres.ros", "spheres.bundle"):
                on_return = self._lattice_counter(fn, modules["spheres"])
            elif group == "suites.sweep":
                on_return = self._sweep_counter(fn)
            wrapped[id(fn)] = self.spanned(group, fn, on_return)

        self.group_id(POINTS_GROUP)
        points_mod = modules["points"]
        kernels = [
            value for name, value in (vars(points_mod).items() if points_mod else ())
            if inspect.isfunction(value) and not name.startswith("_")
            and value.__module__ == points_mod.__name__
        ]
        if not kernels:
            self.absent.add(POINTS_GROUP)
        for fn in kernels:
            wrapped.setdefault(id(fn), self.spanned(POINTS_GROUP, fn))

        for module in loaded:
            for name, value in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._set(value, key, item, wrapped[id(item)], is_dict=True)
                elif id(value) in wrapped:
                    self._set(module, name, value, wrapped[id(value)], is_dict=False)

        self._wrap_method(modules["expressions"], "Expr", "compile", self._compile_counted,
                          "expressions.scalar_evals")
        self._wrap_method(modules["charts"], "ChartStructure", "_memo", self._memo_counted,
                          "charts.memo_lookups")

    def _wrap_method(self, module, cls_name, method, make_wrapper, absent_key):
        cls = getattr(module, cls_name, None) if module else None
        fn = vars(cls).get(method) if isinstance(cls, type) else None
        if not inspect.isfunction(fn):
            self.absent.add(absent_key)
            return
        self._restore.append((cls, method, fn, False))
        setattr(cls, method, make_wrapper(fn))

    def _set(self, container, key, original, replacement, is_dict):
        self._restore.append((container, key, original, is_dict))
        if is_dict:
            container[key] = replacement
        else:
            setattr(container, key, replacement)

    def uninstall(self) -> None:
        while self._restore:
            container, key, original, is_dict = self._restore.pop()
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    # -- summaries -------------------------------------------------------------

    def group_stats(self, pauses=()) -> dict[str, float]:
        """``<group>_calls``, ``<group>_s`` (outermost inclusive) and ``<group>_self_s``.

        ``pauses`` are sorted ``(entered, left)`` intervals of a signal handler
        that is not part of the program; a handler runs between two bytecodes,
        so each interval lies wholly inside or wholly outside a span, and is
        left out of every span that contains it.
        """
        starts = [entered for entered, _ in pauses]
        paused = [0.0]
        for entered, left in pauses:
            paused.append(paused[-1] + left - entered)

        def duration(start, end):
            return end - start - (paused[bisect.bisect_left(starts, end)]
                                  - paused[bisect.bisect_left(starts, start)])

        k = len(self.groups)
        calls, inclusive, self_s = [0] * k, [0.0] * k, [0.0] * k
        durations = [duration(start, end) for _, start, end, _, _ in self.spans]
        covered = [0.0] * len(self.spans)
        for i, (gid, start, end, parent, outermost) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += durations[i]
        for i, (gid, start, end, parent, outermost) in enumerate(self.spans):
            calls[gid] += 1
            if outermost:
                inclusive[gid] += durations[i]
            self_s[gid] += durations[i] - covered[i]
        out = {}
        for gid, group in enumerate(self.groups):
            if group in self.absent:
                continue
            out[f"{group}_calls"] = calls[gid]
            out[f"{group}_s"] = inclusive[gid]
            out[f"{group}_self_s"] = self_s[gid]
        return out

    def layer_values(self, pauses=()) -> dict[str, float | None]:
        """Every available per-layer value of the current spans; ``None`` marks an absent layer."""
        out = self.group_stats(pauses)
        for name, requires in _COUNTERS.items():
            present = name not in self.absent and any(r not in self.absent for r in requires)
            out[name] = self.counts[name] if present else None
        lookups, hits = out["charts.memo_lookups"], out["charts.memo_hits"]
        if lookups is None:
            out["charts.memo_hit_ratio"] = None
        else:
            out["charts.memo_hit_ratio"] = hits / lookups if lookups else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def dump(self) -> dict:
        return {"groups": list(self.groups), "absent": sorted(self.absent),
                "fields": ["group", "start", "end", "parent", "outermost"],
                "spans": self.spans}

