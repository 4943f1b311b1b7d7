"""Per-layer spans and work counters, recorded from outside wordlab.

`Tracer.install()` rebinds public functions of wordlab's modules to
wrappers that record a span (name, layer, start, end, parent span, op id)
per call, and `uninstall()` puts the originals back.  A function imported
by name into another module is rebound there too, so calls made through
`from .measure import exact_distribution` are seen.  Nothing under `src/`
is edited.

Small hot calls (the table multiplier returned by `vector_multiplier`, and
`Group.pow`) get counters instead of spans, so that the cost of recording
does not distort the span times around them.  Spans stay in memory until
the run writes its trace file.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groups", "words", "measure", "lattice_walks", "group_walks", "generation",
          "harness")

# Functions that get a span, per module.  `cli` belongs to the harness layer.
SPANNED = {
    "groups": ("construct_group", "load_cayley_table", "_validate_cayley_table", "closure",
               "center", "commutator_subgroup", "quotient_group", "quotient_by_center"),
    "words": ("sample_word", "bezout_certificate"),
    "measure": ("exact_distribution", "monte_carlo_distribution", "image_and_power_coverage"),
    "generation": ("count_generating_tuples", "hall_max_power", "power_tuple_generates"),
    "group_walks": ("mixing_profile", "cyclic_obstruction"),
    "lattice_walks": ("sample_endpoints", "gcd_tail_estimate", "predicted_tail_probability",
                      "exact_mod_law", "return_probability"),
    "harness": ("run_density", "run_walk_gcd", "run_mixing", "run_generation",
                "ingest_cayley_table", "audit_report", "write_report", "write_density_csv",
                "write_walk_gcd_csv", "write_mod_law_csv", "write_mixing_outputs"),
    "cli": ("main",),
}

WRITERS = ("harness.write_report", "harness.write_density_csv", "harness.write_walk_gcd_csv",
           "harness.write_mod_law_csv", "harness.write_mixing_outputs")
STRUCTURE = ("groups.center", "groups.commutator_subgroup", "groups.quotient_group",
             "groups.quotient_by_center")

# Per-layer time metric -> the span names whose outermost calls it sums.
SPAN_TIMES = {
    "groups.construct_s": ("groups.construct_group",),
    "groups.table_build_s": ("groups.table_build",),
    "groups.closure_s": ("groups.closure",),
    "groups.cayley_validate_s": ("groups._validate_cayley_table",),
    "groups.structure_s": STRUCTURE,
    "words.sample_s": ("words.sample_word",),
    "words.bezout_s": ("words.bezout_certificate",),
    "measure.exact_s": ("measure.exact_distribution",),
    "measure.sampled_s": ("measure.monte_carlo_distribution",),
    "generation.count_s": ("generation.count_generating_tuples",),
    "generation.power_check_s": ("generation.power_tuple_generates",),
    "group_walks.profile_s": ("group_walks.mixing_profile",),
    "group_walks.obstruction_s": ("group_walks.cyclic_obstruction",),
    "lattice_walks.sample_s": ("lattice_walks.sample_endpoints",),
    "lattice_walks.tail_dp_s": ("lattice_walks.predicted_tail_probability",),
    "lattice_walks.mod_law_s": ("lattice_walks.exact_mod_law",),
    "harness.write_s": WRITERS,
    "harness.audit_s": ("harness.audit_report",),
}
# Per-layer count metric -> the span name whose calls it counts.
SPAN_CALLS = {
    "groups.closure_calls": "groups.closure",
    "words.sample_calls": "words.sample_word",
    "measure.exact_calls": "measure.exact_distribution",
    "measure.sampled_calls": "measure.monte_carlo_distribution",
    "generation.count_calls": "generation.count_generating_tuples",
}
# Metrics kept by the counter-only wrappers and the work-count hooks.
COUNTED = ("groups.vec_mul_calls", "groups.scalar_pow_calls", "measure.tuples_enumerated",
           "measure.samples_drawn", "group_walks.state_updates", "lattice_walks.endpoint_steps",
           "lattice_walks.tail_dp_states", "harness.report_bytes")
TIMED = ("groups.native_mul_vec_s", "groups.scalar_pow_s")
UNITS = {
    "measure.exact_per_cell": "ratio",
    "generation.closures_per_count": "ratio",
    "harness.report_bytes": "bytes",
}


def metric_unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def _tuples_enumerated(args, result) -> int:
    used = {abs(v) for v in args["word"].letters}
    return args["group"].order ** len(used) if used else 0


def _tail_dp_states(args, result) -> int:
    return (2 * result.box_radius + 1) ** args["d"] * args["n"]


def _bytes_written(args, result) -> int:
    paths = result if isinstance(result, list) else [result]
    return sum(os.path.getsize(p) for p in paths)


# Work counts derived from a spanned call's arguments and result.
WORK = {
    "measure.exact_distribution": ("measure.tuples_enumerated", _tuples_enumerated),
    "measure.monte_carlo_distribution": (
        "measure.samples_drawn", lambda a, r: a["samples"]),
    "group_walks.mixing_profile": (
        "group_walks.state_updates",
        # the loop runs n_max + 1 convolution rounds over every (state, step)
        lambda a, r: a["group"].order * len(a["steps"].support) * (a["n_max"] + 1)),
    "lattice_walks.sample_endpoints": (
        "lattice_walks.endpoint_steps", lambda a, r: a["samples"] * a["n"]),
    "lattice_walks.predicted_tail_probability": ("lattice_walks.tail_dp_states", _tail_dp_states),
    **{name: ("harness.report_bytes", _bytes_written) for name in WRITERS},
}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        # [name, layer, start, end, parent index or None, op id]
        self.spans = []
        self.counts = Counter()
        self.times = Counter()
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, layer: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[work[0]] += work[1](bound.arguments, result)
            return result

        return wrapper

    def _table_build(self, fn):
        @functools.wraps(fn)
        def mul_table(group):
            if group._table is not None:  # cached: no build, no span
                return fn(group)
            index = self.open("groups.table_build", "groups")
            try:
                return fn(group)
            finally:
                self.close(index)

        return mul_table

    def _pow(self, fn):
        counts, times, clock = self.counts, self.times, time.perf_counter

        @functools.wraps(fn)
        def pow(group, a, k):
            counts["groups.scalar_pow_calls"] += 1
            t0 = clock()
            try:
                return fn(group, a, k)
            finally:
                times["groups.scalar_pow_s"] += clock() - t0

        return pow

    def _vector_multiplier(self, fn):
        counts, times, clock = self.counts, self.times, time.perf_counter

        @functools.wraps(fn)
        def vector_multiplier(group):
            mul_vec = fn(group)
            if mul_vec is None:
                return None
            if getattr(mul_vec, "__self__", None) is group:  # the backend's own mul_vec
                def native(a, b):
                    counts["groups.vec_mul_calls"] += 1
                    t0 = clock()
                    try:
                        return mul_vec(a, b)
                    finally:
                        times["groups.native_mul_vec_s"] += clock() - t0
                return native

            def table(a, b):
                counts["groups.vec_mul_calls"] += 1
                return mul_vec(a, b)
            return table

        return vector_multiplier

    # -- installing -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name == "wordlab" or name.startswith("wordlab."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, wrapper)

    def install(self) -> None:
        for module_name, attrs in SPANNED.items():
            module = sys.modules["wordlab." + module_name]
            layer = "harness" if module_name == "cli" else module_name
            for attr in attrs:
                original = getattr(module, attr)
                name = "harness.cli_main" if module_name == "cli" else f"{layer}.{attr}"
                self._rebind_everywhere(original, self._spanned(name, layer, original))
        groups = sys.modules["wordlab.groups"]
        self._rebind_everywhere(groups.vector_multiplier,
                                self._vector_multiplier(groups.vector_multiplier))
        self._set(groups.Group, "pow", self._pow(groups.Group.pow))
        self._set(groups.Group, "mul_table", self._table_build(groups.Group.mul_table))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- one op -----------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> int:
        self.op = op_id
        return self.open("bench.op:" + name, "bench")

    def end_op(self, index: int) -> None:
        self.close(index)
        self.op = None

    def checkpoint(self) -> tuple:
        """Where the next pass starts: (span index, counts, times)."""
        return len(self.spans), Counter(self.counts), Counter(self.times)

    def since(self, mark: tuple, exact_cells: int) -> tuple:
        """Per-layer metrics and per-layer self times of the spans after `mark`."""
        first, counts0, times0 = mark
        counts = self.counts - counts0
        times = {k: self.times[k] - times0.get(k, 0.0) for k in TIMED}
        return summarize(self.spans, first, counts, times, exact_cells)


def _has_ancestor(spans: list, index: int, names, first: int) -> bool:
    parent = spans[index][4]
    while parent is not None and parent >= first:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][4]
    return False


def summarize(spans: list, first: int, counts, times: dict, exact_cells: int) -> tuple:
    """Reduce spans[first:] plus the counters to (metrics, layer self times)."""
    duration = {}
    child = defaultdict(float)
    by_name = defaultdict(list)
    for i in range(first, len(spans)):
        name, _, start, end, parent, _ = spans[i]
        duration[i] = end - start
        by_name[name].append(i)
        if parent is not None:
            child[parent] += end - start
    metrics = {}
    for metric, names in SPAN_TIMES.items():
        metrics[metric] = sum(duration[i] for n in names for i in by_name[n]
                              if not _has_ancestor(spans, i, names, first))
    for metric, name in SPAN_CALLS.items():
        metrics[metric] = len(by_name[name])
    metrics.update({k: counts.get(k, 0) for k in COUNTED})
    metrics.update(times)
    metrics["measure.coverage_self_s"] = sum(
        duration[i] - child[i] for i in by_name["measure.image_and_power_coverage"])
    metrics["measure.exact_per_cell"] = (
        metrics["measure.exact_calls"] / exact_cells if exact_cells else 0.0)
    counting = ("generation.count_generating_tuples",)
    closures_in_counts = sum(1 for i in by_name["groups.closure"]
                             if _has_ancestor(spans, i, counting, first))
    count_calls = metrics["generation.count_calls"]
    metrics["generation.closures_per_count"] = (
        closures_in_counts / count_calls if count_calls else 0.0)
    layer_self = defaultdict(float)
    for i, d in duration.items():
        layer_self[spans[i][1]] += d - child[i]
    metrics["harness.self_s"] = layer_self["harness"]
    return metrics, dict(layer_self)


PER_LAYER = tuple(sorted(
    list(SPAN_TIMES) + list(SPAN_CALLS) + list(COUNTED) + list(TIMED)
    + ["measure.coverage_self_s", "measure.exact_per_cell",
       "generation.closures_per_count", "harness.self_s"],
    key=lambda m: (LAYERS.index(m.split(".")[0]), m)))
