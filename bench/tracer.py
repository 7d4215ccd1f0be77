"""Outside-in tracing of holonorm's layers.

The tracer replaces module attributes (and a few methods) of holonorm with
wrappers that record one span per call: layer, parent span, start and end.
Calls made inside the package go through module globals, so intra-module
calls are caught as well.  Private recursive helpers (``_eval_node``,
``_subst``) are deliberately left alone: wrapping them would double the
Python stack depth of deep expression trees and cost a span per node.

Spans stay in memory as flat arrays and are aggregated, or written out, at
the end.  A layer's self time is the duration of its spans minus the
duration of their child spans.  Counters are taken on the outermost span of
a layer, so nested calls of one layer count once (containment checks are
the exception, see COUNT_EVERY_CALL).
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

import numpy as np

from holonorm import cli, expr, linescan, metrics, normality, reports, sampling, series

# layer -> [(owner, attribute names)]; owner is a module or a class
LAYERS = {
    "expr.eval": [(expr, ("eval_jet_batch", "eval_values", "eval_jet", "eval_value"))],
    "expr.parse": [(expr, ("parse",))],
    "expr.substitute": [(expr, ("substitute",))],
    "expr.reciprocal": [(expr, ("reciprocal",))],
    "series.restrict": [(series, ("restrict_to_line",))],
    "series.radius": [(series, ("radius_estimate",))],
    "series.partial_sum": [(series, ("partial_sum",))],
    "series.load": [(series, ("load_series", "series_from_dict"))],
    "metrics.containment": [
        (metrics.DiscMap, ("contained_in_unit_ball", "boundary_max")),
        (metrics, ("require_contained", "_geometric_boundary_max")),
    ],
    "metrics.kobayashi_upper": [(metrics, (
        "kobayashi_upper", "_affine_candidate", "_extremal_parameters",
        "_truncated_geodesic_candidate", "_quadratic_candidate"))],
    "metrics.random_discs": [(metrics, ("random_disc_maps", "affine_disc"))],
    "metrics.automorphism": [
        (metrics, ("disc_automorphism", "ball_automorphism")),
        (metrics.BallAutomorphism, ("__call__", "jacobian", "pushforward")),
    ],
    "normality.sharp": [(normality, (
        "mu", "mu_batch", "sharp", "sharp_batch", "levi_form", "_levi_ratio_tables"))],
    "normality.reduce": [(normality, (
        "classify_trend", "_finite_or_raise", "marty_sup", "mu_local_boundedness",
        "weighted_sharp_sups", "yosida_bound", "lehto_virtanen_check",
        "lipschitz_ratio", "translate_orbit", "ball_orbit", "random_disc_params",
        "random_ball_params", "ball_normal_ratio", "kobayashi_normality_check",
        "disc_family_probe"))],
    "linescan": [(linescan, (
        "direction_set", "canonical_direction", "restrict_function", "_aggregate",
        "alexander_function_test", "_prefix_checkpoints", "_family_line_verdict",
        "alexander_family_test", "hartogs_test"))],
    "sampling": [(sampling, (
        "check_ladder", "annulus_radii", "first_rung_radii", "disc_ladder_grids",
        "disc_grid", "axis_directions", "unit_sphere_points", "uniform_ball_points",
        "uniform_disc_points", "ball_grid", "ball_ladder_grids"))],
    "reports": [(reports, ("canonical_json", "report_csv"))],
    "cli.main": [(cli, ("main",))],
}

#: Layers whose recursive calls are passed straight through: only the
#: outermost call gets a span.
OUTERMOST_ONLY = {"reports"}

#: Counted on every call: a containment check is often made from inside
#: another containment-layer call (require_contained), never from itself.
COUNT_EVERY_CALL = {"contained_in_unit_ball"}

LAYER_NAMES = list(LAYERS)


_CHILDREN = {expr.Add: ("left", "right"), expr.Sub: ("left", "right"),
             expr.Mul: ("left", "right"), expr.Div: ("left", "right"),
             expr.Pow: ("base",), expr.Call: ("arg",)}


def node_count(root) -> int:
    """Nodes of an expression tree, walked with an explicit stack because
    partial-sum trees are about a thousand levels deep.  Shared subtrees
    count once per occurrence, as the evaluator visits them."""
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        for slot in _CHILDREN.get(type(node), ()):
            stack.append(getattr(node, slot))
    return count


def _points(z, arity: int) -> int:
    a = np.asarray(z)
    if a.ndim == 2:
        return a.shape[0]
    if a.ndim == 1 and arity == 1:
        return a.shape[0]
    return 1


def _rows(result) -> int:
    if isinstance(result, np.ndarray):
        return result.shape[0] if result.ndim else 1
    if isinstance(result, list) and result and isinstance(result[-1], np.ndarray):
        return result[-1].shape[0]  # cumulative ladder grids: the last holds all
    return 0


def _samples(result) -> int:
    if isinstance(result, normality.Verdict):
        return result.estimate.samples
    if isinstance(result, normality.SupEstimate):
        return result.samples
    if isinstance(result, tuple) and len(result) == 4:  # weighted_sharp_sups
        return result[2]
    return 0


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.parent = array("l")
        self.layer = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_time = [0.0] * len(LAYER_NAMES)
        self.counts: dict = {}
        self._stack: list = []       # open span ids
        self._child: list = []       # child duration accumulated per open span
        self._depth = [0] * len(LAYER_NAMES)
        self._saved: list = []

    # -- counters -------------------------------------------------------

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, layer: str, name: str, args, result) -> None:
        if layer == "expr.eval":
            f, z = args[0], args[1]
            m = _points(z, f.arity)
            self._add("expr.eval.calls", 1)
            self._add("expr.eval.points", m)
            self._add("expr.eval.node_points", node_count(f.root) * m)
        elif layer == "expr.reciprocal":
            self._add("expr.reciprocal.calls", 1)
        elif layer == "series.restrict":
            self._add("series.restrict.term_lines", len(args[0].terms))
        elif layer == "metrics.containment" and name == "contained_in_unit_ball":
            self._add("metrics.containment.checks", 1)
            self._add("metrics.containment.passes", int(bool(result)))
        elif layer == "normality.reduce":
            self._add("normality.samples", _samples(result))
        elif layer == "linescan" and name in ("alexander_function_test",
                                              "alexander_family_test", "hartogs_test"):
            self._add("linescan.lines", len(result[1]))
        elif layer == "sampling":
            self._add("sampling.points", _rows(result))
        elif layer == "reports":
            self._add("reports.bytes", len(result))

    # -- spans ----------------------------------------------------------

    def _wrap(self, layer_idx: int, name: str, fn):
        layer = LAYER_NAMES[layer_idx]
        passthrough = layer in OUTERMOST_ONLY
        depth = self._depth
        stack, child = self._stack, self._child
        parent_ids, layers, starts, ends = self.parent, self.layer, self.start, self.end
        self_time = self.self_time

        def wrapper(*args, **kwargs):
            if passthrough and depth[layer_idx]:
                return fn(*args, **kwargs)
            sid = len(starts)
            parent_ids.append(stack[-1] if stack else -1)
            layers.append(layer_idx)
            starts.append(0.0)
            ends.append(0.0)
            outermost = depth[layer_idx] == 0
            depth[layer_idx] += 1
            stack.append(sid)
            child.append(0.0)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                inner = child.pop()
                depth[layer_idx] -= 1
                starts[sid], ends[sid] = t0, t1
                self_time[layer_idx] += t1 - t0 - inner
                if ok and (outermost or name in COUNT_EVERY_CALL):
                    self._count(layer, name, args, result)
                if child:
                    # the parent's self time excludes this span and its counting
                    child[-1] += perf_counter() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for idx, layer in enumerate(LAYER_NAMES):
            for owner, names in LAYERS[layer]:
                for name in names:
                    fn = owner.__dict__[name]
                    self._saved.append((owner, name, fn))
                    setattr(owner, name, self._wrap(idx, name, fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ---------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return self.self_time[LAYER_NAMES.index(layer)]

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, parent id, layer, start, end (s)."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps({
                    "id": sid, "parent": self.parent[sid],
                    "layer": LAYER_NAMES[self.layer[sid]],
                    "start": self.start[sid], "end": self.end[sid]}) + "\n")
