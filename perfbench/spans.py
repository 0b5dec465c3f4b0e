"""Spans around tropd4's public functions, for the traced benchmark run.

:func:`install` wraps each function in :data:`LAYERS` at every tropd4
module attribute that refers to it.  Callers look functions up by name at
call time, so ``subdivision_signature`` reaches the wrapper through
``hypersimplex.intersection_dim`` even though the function is defined in
``geometry``.  Each call appends one span ``[layer, start_ns, end_ns,
parent, repeat, value]`` to a list kept in memory; the list is written out
as JSON when the process exits.  :func:`layer_metrics` turns the span
files of a run into the per-layer metrics.

Nothing inside ``src/`` changes: the spans are recorded from outside, at
the layer boundaries the program already has.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """What to record for one function.

    ``kinds`` names the metrics reported for it; ``total_s`` includes the
    time of nested spans, ``self_s`` does not.  ``key`` maps the call's
    arguments to the value whose repetition ``repeat_share`` counts.
    ``value`` maps the result to a number: summed for ``cells_out``,
    averaged for ``true_share``.
    """

    kinds: tuple
    key: Callable | None = None
    value: Callable | None = None


def _shared_vertices(points, cell_a, cell_b):
    return frozenset(cell_a) & frozenset(cell_b)


def _vertex_list(vertices):
    return tuple(map(tuple, vertices))


def _hull_vertex_list(y, vertices):
    return _vertex_list(vertices)


_CALLS = ("calls", "self_s")
_SELF = ("self_s",)

VERIFY_CHECKS = (
    "check_enumeration", "check_cluster_complex", "check_symmetry_classes",
    "check_psi_rows", "check_compatibility_relations", "check_minors",
    "check_fan", "check_correspondence", "check_table1", "check_table2",
    "check_reflection_theorem", "check_interior_point_stability",
    "check_fan_covering",
)

# Span name (defining module, then qualified name) -> what to record.
LAYERS = {
    "geometry.regular_subdivision": Layer(_CALLS + ("cells_out",), value=len),
    "geometry.intersection_dim": Layer(_CALLS + ("repeat_share",),
                                       key=_shared_vertices),
    "geometry.polytope_f_vector": Layer(_CALLS + ("repeat_share",),
                                        key=_vertex_list),
    "geometry.point_in_hull": Layer(_CALLS + ("repeat_share", "true_share"),
                                    key=_hull_vertex_list, value=bool),
    "geometry.Fan.cones_containing": Layer(_CALLS),
    "geometry.cone_from_rays": Layer(_CALLS),
    "hypersimplex.induced_subdivision": Layer(_CALLS),
    "hypersimplex.is_matroid_basis_set": Layer(_CALLS + ("true_share",),
                                               value=bool),
    "hypersimplex.subdivision_signature": Layer(_CALLS),
    "hypersimplex.classify_signature": Layer(_CALLS),
    "fan.trop_phi2": Layer(_CALLS),
    "fan.compute_fan_f36": Layer(_SELF),
    "webmatrix.all_tropical_minors": Layer(_SELF),
    "hypersimplex.reference_signatures": Layer(_SELF),
    "correspondence.classify_all_cones": Layer(_SELF),
    "correspondence.cluster_classes": Layer(_SELF),
    "correspondence.verify_parity_reflection_theorem": Layer(_SELF),
    "correspondence.verify_cluster_fan_correspondence": Layer(_SELF),
    "clusters.enumerate_pseudotriangulations": Layer(_SELF),
    "clusters.flip_graph": Layer(_SELF),
    "clusters.cluster_complex": Layer(_SELF),
    # Self time leaves out the layers above; total time attributes the
    # report's wall time to its checks.
    **{f"verify.{name}": Layer(_SELF + ("total_s",))
       for name in VERIFY_CHECKS},
}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s",
         "cells_out": "count", "repeat_share": "ratio", "true_share": "ratio"}

# The modules whose callers look the layer functions up by name.
MODULES = ("geometry", "webmatrix", "fan", "hypersimplex", "clusters",
           "correspondence", "verify", "cli")


def metric_units():
    """``{metric name: unit}`` for every per-layer metric the spans give."""
    return {f"{name}.{kind}": UNITS[kind]
            for name, layer in LAYERS.items() for kind in layer.kinds}


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.names = list(LAYERS)
        self.missing = []
        self.spans = []
        self.stack = []

    def wrap(self, index, layer, fn):
        spans, stack = self.spans, self.stack
        seen = set()
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            repeat = None
            if layer.key is not None:
                key = layer.key(*args, **kwargs)
                repeat = key in seen
                seen.add(key)
            span = [index, 0, 0, stack[-1] if stack else -1, repeat, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if layer.value is not None:
                span[5] = layer.value(result)
            return result

        return functools.wraps(fn)(traced)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"layers": self.names, "missing": self.missing,
                       "spans": self.spans}, fh)


def install(path):
    """Wrap every layer function and write the spans to ``path`` at exit.

    A layer whose function is not found is listed as ``missing`` in the
    span file, so that a renamed function shows up in the run's
    environment record instead of failing the run.
    """
    modules = [importlib.import_module(f"tropd4.{m}") for m in MODULES]
    recorder = Recorder()
    for index, (name, layer) in enumerate(LAYERS.items()):
        module_name, *attrs = name.split(".")
        owner = importlib.import_module(f"tropd4.{module_name}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr, None)
        fn = getattr(owner, attrs[-1], None)
        if fn is None:
            recorder.missing.append(name)
            continue
        wrapped = recorder.wrap(index, layer, fn)
        if isinstance(owner, type):  # a method: callers find it on the class
            setattr(owner, attrs[-1], wrapped)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    atexit.register(recorder.dump, path)


def layer_metrics(paths):
    """Per-layer metrics summed over the span files ``paths``, and the
    sorted names of layers that were missing in any of them.

    A span's self time is its duration minus the durations of its child
    spans; calls nest on one thread, so the children never overlap.
    """
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    total_ns = dict.fromkeys(LAYERS, 0)
    repeats = dict.fromkeys(LAYERS, 0)
    values = dict.fromkeys(LAYERS, 0)
    missing = set()
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        missing.update(data["missing"])
        names = data["layers"]
        spans = data["spans"]
        child_ns = [0] * len(spans)
        for layer, start, end, parent, repeat, value in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (layer, start, end, _, repeat, value), inner in zip(spans,
                                                                 child_ns):
            name = names[layer]
            calls[name] += 1
            self_ns[name] += end - start - inner
            total_ns[name] += end - start
            repeats[name] += bool(repeat)
            values[name] += value or 0
    metrics = {}
    for name, layer in LAYERS.items():
        n = calls[name]
        derived = {"calls": n, "self_s": self_ns[name] / 1e9,
                   "total_s": total_ns[name] / 1e9,
                   "cells_out": values[name],
                   "repeat_share": repeats[name] / n if n else 0.0,
                   "true_share": values[name] / n if n else 0.0}
        for kind in layer.kinds:
            metrics[f"{name}.{kind}"] = derived[kind]
    return metrics, sorted(missing)
