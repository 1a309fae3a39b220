"""Span tracing from outside the program, for the per-layer metrics.

``Tracer.install`` replaces the public functions and methods of each
tanfam layer with wrappers that record a span (name, start, end, parent
span) per call, plus a few counters read from arguments and results.
Functions are replaced in every tanfam namespace that holds them, so
calls between modules are seen too.  Spans stay in memory; ``layer_totals``
turns them into per-layer call counts and self times, where a span's
self time is its duration minus the durations of its direct children
(the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

MODULES = ("jets", "linalg", "tangent", "families", "geometry", "emit", "selfcheck", "cli")

# layer name -> module-level functions it covers
FUNCTIONS = {
    "jets.compose": ("tanfam.jets", ("compose",)),
    "linalg.primitive_row": ("tanfam.linalg", ("primitive_row",)),
    "tangent.flatten": ("tanfam.tangent", ("flatten_triple",)),
    "tangent.build": (
        "tanfam.tangent",
        ("build_extended_tangent_space", "build_reduced_tangent_space"),
    ),
    "tangent.block": ("tanfam.tangent", ("contains_ideal_block",)),
    "tangent.miniversal": ("tanfam.tangent", ("miniversality_check",)),
    "tangent.sufficiency": ("tanfam.tangent", ("jet_sufficiency_step",)),
    "families.classify": ("tanfam.families", ("classify",)),
    "families.probe": ("tanfam.families", ("probe_branch_index",)),
    "geometry.trace": ("tanfam.geometry", ("trace_criminant",)),
    "geometry.cusps": ("tanfam.geometry", ("count_cusps",)),
    "geometry.envelope": ("tanfam.geometry", ("envelope_curves",)),
    "geometry.lift": ("tanfam.geometry", ("legendrian_lift",)),
    "emit": ("tanfam.emit", ("emit_svg", "emit_sweep", "emit_obj")),
    "selfcheck": ("tanfam.selfcheck", ("run_all",)),
    "cli.main": ("tanfam.cli", ("main",)),
}

# layer name -> (module, class, methods)
METHODS = {
    "jets.mul": ("tanfam.jets", "TruncatedPoly", ("__mul__",)),
    "jets.derive": ("tanfam.jets", "TruncatedPoly", ("derive",)),
    "jets.parse": ("tanfam.jets", "TruncatedPoly", ("from_text",)),
    "linalg.add": ("tanfam.linalg", "RowSpace", ("add",)),
    "linalg.contains": ("tanfam.linalg", "RowSpace", ("contains",)),
    "linalg.canonical": ("tanfam.linalg", "RowSpace", ("canonical_matrix",)),
    "geometry.eval": ("tanfam.geometry", "PlanarMap", ("__call__", "jacobian", "det")),
}

# Metrics every traced run reports, with units.  Counts read from
# arguments and results are added by the hooks below.
LAYER_METRICS = {
    "jets.mul.calls": "count",
    "jets.mul.self_s": "s",
    "jets.derive.self_s": "s",
    "jets.compose.self_s": "s",
    "jets.parse.self_s": "s",
    "linalg.add.calls": "count",
    "linalg.add.self_s": "s",
    "linalg.add.useful_ratio": "ratio",
    "linalg.primitive_row.calls": "count",
    "linalg.primitive_row.self_s": "s",
    "linalg.contains.calls": "count",
    "linalg.contains.self_s": "s",
    "linalg.canonical.self_s": "s",
    "linalg.max_bits": "bits",
    "tangent.build.calls": "count",
    "tangent.build.self_s": "s",
    "tangent.flatten.self_s": "s",
    "tangent.generators": "count",
    "tangent.block.self_s": "s",
    "tangent.block.queries": "count",
    "tangent.miniversal.self_s": "s",
    "tangent.sufficiency.self_s": "s",
    "families.classify.self_s": "s",
    "families.probe.self_s": "s",
    "families.probe.queries": "count",
    "geometry.eval.self_s": "s",
    "geometry.eval.points": "count",
    "geometry.trace.self_s": "s",
    "geometry.trace.cells": "count",
    "geometry.trace.branches": "count",
    "geometry.cusps.self_s": "s",
    "geometry.cusps.found": "count",
    "geometry.envelope.self_s": "s",
    "geometry.lift.self_s": "s",
    "emit.self_s": "s",
    "emit.bytes": "bytes",
    "selfcheck.self_s": "s",
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "cli.process_s": "s",
}


def _grid_cells(args, kwargs) -> int:
    grid = kwargs.get("grid", args[1] if len(args) > 1 else None)
    if grid is None:
        from tanfam.geometry import GridSpec

        grid = GridSpec()
    return (grid.resolution_xi - 1) * (grid.resolution_t - 1)


def _emitted_bytes(layer_fn: str, args, kwargs, result) -> int:
    if layer_fn == "emit_sweep":
        base = Path(kwargs.get("directory", args[1]))
        names = [entry["file"] for entry in result["frames"]] + ["manifest.json"]
        return sum((base / name).stat().st_size for name in names)
    return Path(result).stat().st_size


class Tracer:
    """Installs wrappers, records spans and counters, restores on exit."""

    def __init__(self):
        self.spans: list = []  # [layer, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _hook(self, layer: str, fn_name: str, args, kwargs, result, parent: int) -> None:
        if layer == "linalg.add":
            self._count("linalg.add.useful", 1 if result else 0)
            if self._has_ancestor(parent, "tangent.build"):
                self._count("tangent.generators", 1)
        elif layer == "linalg.contains":
            if self._has_ancestor(parent, "tangent.block"):
                self._count("tangent.block.queries", 1)
            if self._has_ancestor(parent, "families.probe"):
                self._count("families.probe.queries", 1)
        elif layer == "linalg.canonical":
            bits = max((abs(v).bit_length() for row in result for v in row), default=0)
            self.counters["linalg.max_bits"] = max(self.counters.get("linalg.max_bits", 0), bits)
        elif layer == "geometry.eval":
            if parent < 0 or self.spans[parent][0] != "geometry.eval":
                self._count("geometry.eval.points", int(np.size(args[1])))
        elif layer == "geometry.trace":
            self._count("geometry.trace.cells", _grid_cells(args, kwargs))
            self._count("geometry.trace.branches", result.branch_count)
        elif layer == "geometry.cusps":
            self._count("geometry.cusps.found", result.count)
        elif layer == "emit":
            self._count("emit.bytes", _emitted_bytes(fn_name, args, kwargs, result))

    def _has_ancestor(self, index: int, layer: str) -> bool:
        while index >= 0:
            span = self.spans[index]
            if span[0] == layer:
                return True
            index = span[3]
        return False

    def _wrap(self, layer: str, fn_name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((layer, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent)
            self._hook(layer, fn_name, args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", fn_name)
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> "Tracer":
        modules = [sys.modules["tanfam"]] + [
            sys.modules[f"tanfam.{name}"] for name in MODULES if f"tanfam.{name}" in sys.modules
        ]
        for layer, (home, names) in FUNCTIONS.items():
            if home not in sys.modules:
                continue
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapped = self._wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._restore.append((module, name, original))
                        setattr(module, name, wrapped)
        for layer, (home, cls_name, names) in METHODS.items():
            cls = getattr(sys.modules[home], cls_name)
            for name in names:
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, name, raw.__func__))
                else:
                    wrapped = self._wrap(layer, name, raw)
                self._restore.append((cls, name, raw))
                setattr(cls, name, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- reading ---------------------------------------------------------------

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def layer_totals(exports) -> dict[str, float]:
    """Per-layer calls and self times summed over one or more span exports."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    for export in exports:
        spans = export["spans"]
        child_time = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (layer, start, end, parent) in enumerate(spans):
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[k]
        for key, value in export["counters"].items():
            if key == "linalg.max_bits":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls.get(layer, 0)
        elif what == "self_s":
            out[name] = self_s.get(layer, 0.0)
        else:
            out[name] = counters.get(name, 0)
    adds = calls.get("linalg.add", 0)
    out["linalg.add.useful_ratio"] = counters.get("linalg.add.useful", 0) / adds if adds else 0.0
    return out
