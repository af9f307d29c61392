"""Span recording for the traced benchmark run.

The traced run replaces public functions of the singlab modules with
wrappers that record one span per call: name, start, end, parent span,
pass id and a few work counts read from the call's arguments and result.
Spans stay in memory until the run ends.  Every replaced attribute is put
back when the ``traced`` context exits, so untraced passes measure the
unmodified program.

Self time of a span is its duration minus the part of it covered by its
child spans; over one pass the self times of all spans add up to the
duration of the root spans (the ``cli.run_experiment`` calls).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import itertools
import threading
import time

# Modules whose public functions are wrapped, named as in the metric names.
LAYERS = ("surfaces", "sampling", "metric", "separating", "covering", "cli")

# ``bootstrap_sum_se`` is imported by name into these modules, so it is
# wrapped where it is looked up, not in ``singlab.util``.
IMPORTED_BY_NAME = (("metric", "bootstrap_sum_se"), ("separating", "bootstrap_sum_se"))

EXPERIMENTS = (
    "mu-constancy", "slice-components", "separating", "thin-wedge",
    "monodromy", "lipschitz-bounds", "conicality", "density-anchors",
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from wrapped calls; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``name`` may be a function of the call."""

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                span_id = next(self._ids)
            label = name(args, kwargs) if callable(name) else name
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                self._add(Span(span_id, label, start, end, parent, self.pass_id, {}))
                raise
            end = time.perf_counter()
            stack.pop()
            counts = count(args, kwargs, result) if count is not None else {}
            self._add(Span(span_id, label, start, end, parent, self.pass_id, counts))
            return result

        return traced_call

    def _add(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _fiber_degree(surface, axis: int) -> int:
    return max(e[axis] for e, _ in surface.terms)


def _cloud_counts(axis_of):
    def count(args, kwargs, cloud):
        surface = _arg(args, kwargs, 0, "surface")
        axis = axis_of(kwargs)
        return {
            "draws": cloud.n_draws,
            "points": cloud.n_points,
            "rejected": cloud.n_rejected,
            "sheets": cloud.n_draws * _fiber_degree(surface, axis),
        }
    return count


def _len0(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) else 1
    return len(value)


# Work counts read at the layer boundaries, keyed by "module.function".
COUNTERS = {
    "surfaces.all_roots": lambda a, k, r: {
        "rows": _len0(r[1]), "ok": int(r[1].sum()),
    },
    "surfaces.track_root_system": lambda a, k, r: {"refinements": r.n_refinements},
    "surfaces.sphere_project": lambda a, k, r: {
        "points": 1 if r[0].ndim == 1 else int(r[0].shape[0]),
    },
    "sampling.sample_link": _cloud_counts(
        lambda kw: {"x": 0, "z": 2}[kw.get("fiber_axis", "x")]
    ),
    "sampling.sample_ball": _cloud_counts(lambda kw: 0),
    "separating.cone_density_report": lambda a, k, r: {
        "band_points": _arg(a, k, 0, "cloud").n_points,
    },
    "separating.bisector_gap": lambda a, k, r: {"queries": _len0(r[0])},
    "separating.classify_sides": lambda a, k, r: {
        "points": _len0(r), "discarded": int((r == 0).sum()),
    },
    "separating.conflict_set": lambda a, k, r: {"kept": r.n_points},
    "util.bootstrap_sum_se": lambda a, k, r: {"values": _len0(_arg(a, k, 0, "values"))},
    "metric.build_graph": lambda a, k, r: {"vertices": int(r.matrix.shape[0])},
    "covering.lift_loop": lambda a, k, r: {"solves": r.n_solves},
    "covering.graph_distortion": lambda a, k, r: {"pairs": _len0(r)},
}


def _experiment_span_name(args, kwargs):
    return f"cli.run_experiment.{_arg(args, kwargs, 0, 'cfg').experiment}"


def wrap_plan(package):
    """(module, attribute, span name) for every function the traced run wraps."""
    plan = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name == "cli.run_experiment":
                name = _experiment_span_name
            plan.append((module, attr, name))
    for layer, attr in IMPORTED_BY_NAME:
        plan.append((getattr(package, layer), attr, f"util.{attr}"))
    return plan


@contextlib.contextmanager
def traced(recorder: Recorder, package):
    """Install span wrappers on ``package``'s layers; restore them on exit."""
    saved = []
    try:
        for module, attr, name in wrap_plan(package):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            key = name if isinstance(name, str) else None
            setattr(module, attr, recorder.wrap(name, original, COUNTERS.get(key)))
        yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children.get(span.id, ())):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration - covered
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json lists."""
    own = self_times(spans)
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_s(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    m = {}
    n = "surfaces.all_roots"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.rows"] = count(n, "rows")
    m[f"{n}.self_s"] = self_s(n)
    m[f"{n}.rows_per_s"] = _ratio(count(n, "rows"), self_s(n))
    m[f"{n}.ok_ratio"] = _ratio(count(n, "ok"), count(n, "rows"))
    n = "surfaces.track_root_system"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.self_s"] = self_s(n)
    m[f"{n}.refinements"] = count(n, "refinements")
    n = "surfaces.slice_structure"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.total_s"] = total(n)
    n = "surfaces.sphere_project"
    m[f"{n}.points"] = count(n, "points")
    m[f"{n}.self_s"] = self_s(n)
    for n in ("sampling.sample_link", "sampling.sample_ball"):
        m[f"{n}.draws"] = count(n, "draws")
        m[f"{n}.total_s"] = total(n)
        m[f"{n}.draws_per_s"] = _ratio(count(n, "draws"), total(n))
        m[f"{n}.reject_share"] = _ratio(count(n, "rejected"), count(n, "sheets"))
    n = "sampling.branch_link_samples"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.total_s"] = total(n)
    n = "separating.cone_density_report"
    m[f"{n}.band_points"] = count(n, "band_points")
    m[f"{n}.self_s"] = self_s(n)
    n = "separating.bisector_gap"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.queries"] = count(n, "queries")
    m[f"{n}.self_s"] = self_s(n)
    n = "separating.classify_sides"
    m[f"{n}.points"] = count(n, "points")
    m[f"{n}.discard_share"] = _ratio(count(n, "discarded"), count(n, "points"))
    m[f"{n}.self_s"] = self_s(n)
    n = "separating.conflict_set"
    m[f"{n}.total_s"] = total(n)
    # Band points kept over the link points the conflict set drew.
    conflict_ids = {s.id for s in by_name.get(n, ())}
    link_points = sum(
        s.counts.get("points", 0)
        for s in by_name.get("sampling.sample_link", ())
        if s.parent in conflict_ids
    )
    m[f"{n}.band_keep_ratio"] = _ratio(count(n, "kept"), link_points)
    m["separating.flow_cone.self_s"] = self_s("separating.flow_cone")
    n = "util.bootstrap_sum_se"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.values"] = count(n, "values")
    m[f"{n}.self_s"] = self_s(n)
    n = "metric.build_graph"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.vertices"] = count(n, "vertices")
    m[f"{n}.self_s"] = self_s(n)
    n = "metric.distances_from"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.self_s"] = self_s(n)
    n = "metric.density_ladder"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.total_s"] = total(n)
    n = "covering.lift_loop"
    m[f"{n}.calls"] = calls(n)
    m[f"{n}.solves"] = count(n, "solves")
    m[f"{n}.self_s"] = self_s(n)
    n = "covering.graph_distortion"
    m[f"{n}.pairs"] = count(n, "pairs")
    m[f"{n}.self_s"] = self_s(n)
    for experiment in EXPERIMENTS:
        m[f"cli.run_experiment.{experiment}.wall_s"] = total(
            f"cli.run_experiment.{experiment}"
        )
    module_self: dict = {layer: 0.0 for layer in LAYERS + ("util",)}
    for span in spans:
        module_self[span.name.split(".", 1)[0]] += own[span.id]
    for layer, value in module_self.items():
        m[f"{layer}.self_s"] = value
    m["trace.spans"] = len(spans)
    return m


def self_time_balance(spans) -> tuple[float, float]:
    """(sum of all self times, sum of root-span durations) for one pass."""
    own = self_times(spans)
    roots = sum(s.duration for s in spans if s.parent is None)
    return sum(own.values()), roots


def spans_json(spans) -> list:
    return [dataclasses.asdict(span) for span in spans]


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name's last part."""
    last = name.rsplit(".", 1)[1]
    if last.endswith("_per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def better_of(name: str) -> str:
    """Direction in which a per-layer metric improves."""
    higher = ("rows_per_s", "draws_per_s", "ok_ratio", "band_keep_ratio")
    return "higher" if name.rsplit(".", 1)[1] in higher else "lower"
