"""Spans and counters around hopfchar's public functions, installed from outside.

``Tracer.install`` replaces each traced function or method with a wrapper that
records a span ``[name, start, end, parent, op]``.  A module-level function is
replaced in every ``hopfchar`` module that binds it, since several modules
import ``convolve``, ``character_violation`` and others by name.  Ring
arithmetic and polynomial products are only counted, on the ring and ``Poly``
classes, because a span per call would cost more than the call.

A call made while a span of the same name is open (recursion, ``to_json``
calling ``to_json_dict``) belongs to that span and is not recorded again, so
``calls`` counts outermost entries and ``s`` never counts a nanosecond twice.
``self_s`` is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

#: Span name -> (module, attribute) of module-level functions.
FUNCTIONS = {
    "trees.enumerate": [("trees", "enumerate_trees"), ("trees", "enumerate_forests")],
    "trees.ordered_subtrees": [("trees", "ordered_subtrees")],
    "trees.edge_partitions": [("trees", "edge_partitions")],
    "convolution.convolve": [("convolution", "convolve")],
    "convolution.conv_inverse": [("convolution", "conv_inverse")],
    "series.apply_series": [("series", "apply_series")],
    "characters.character_violation": [("characters", "character_violation")],
    "characters.infinitesimal_violation": [("characters", "infinitesimal_violation")],
    "characters.butcher_compose": [("characters", "butcher_compose")],
    "evolution.evolve_polynomials": [("evolution", "evolve_polynomials")],
    "ideals.symplectic_generators": [("ideals", "symplectic_generators")],
    "ideals.is_symplectic": [("ideals", "is_symplectic")],
    "ideals.annihilator_violation": [("ideals", "annihilator_violation")],
}

#: Span name -> (module, class, attribute) of methods.
METHODS = {
    "hopf.basis": [("hopf", "CKHopf", "basis"), ("hopf", "TensorHopf", "basis")],
    "hopf.coproduct": [("hopf", "CKHopf", "coproduct"), ("hopf", "TensorHopf", "coproduct")],
    "hopf.antipode": [("hopf", "CKHopf", "antipode"), ("hopf", "TensorHopf", "antipode")],
    "hopf.multiply": [("hopf", "HopfStructure", "multiply")],
    "convolution.precompose_antipode": [("convolution", "TruncatedFunctional", "precompose_antipode")],
    "convolution.evaluate": [("convolution", "TruncatedFunctional", "evaluate")],
    "convolution.codec": [
        ("convolution", "TruncatedFunctional", attr)
        for attr in ("to_json", "to_json_dict", "from_json", "from_json_dict")
    ],
}

#: Counter name -> (module, class, attribute) of methods that are only counted.
COUNTED = {
    "rings.mul.calls": [("rings", "RationalRing", "mul"), ("rings", "TruncatedSeriesRing", "mul")],
    "rings.add.calls": [("rings", "RationalRing", "add"), ("rings", "TruncatedSeriesRing", "add")],
    "rings.scale.calls": [("rings", "RationalRing", "scale"), ("rings", "TruncatedSeriesRing", "scale")],
    "evolution.poly_mul.calls": [("evolution", "Poly", "__mul__")],
}

#: Spans the CLI shim records around the import and ``main``.
CLI_SPANS = ("cli.import", "cli.main")

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS) + CLI_SPANS
TERM_COUNTS = ("hopf.coproduct.terms", "convolution.convolve.terms")

#: Layer -> the metrics whose sum says whether the layer did any work.
LAYERS = {
    layer: [f"{name}.calls" for name in SPAN_NAMES if name.startswith(layer + ".")]
    + [name for name in COUNTED if name.startswith(layer + ".")]
    for layer in ("trees", "hopf", "convolution", "series", "characters",
                  "rings", "evolution", "ideals", "cli")
}


def metric_units() -> dict:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in TERM_COUNTS + tuple(COUNTED):
        units[name] = "count"
    return units


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.op = -1
        self.paused = False
        self._convolve_terms: dict = {}

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str, start: float) -> list:
        rec = [name, start, start, self.stack[-1] if self.stack else -1, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.open[name] += 1
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()
        self.open[rec[0]] -= 1

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(args, result)`` runs once the span
        has closed, for counts that need the result."""
        tracer = self
        perf = time.perf_counter
        open_names = self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused or open_names[name]:
                return fn(*args, **kwargs)
            rec = tracer._enter(name, perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(rec)
            if after is not None:
                after(args, result)
            return result

        return traced

    def counter(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.paused:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def region(self, name: str):
        """Context manager recording one span (op boundaries, CLI main)."""
        return _Region(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self.stack[-1] if self.stack else -1, self.op])

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every loaded hopfchar module."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("hopfchar.") and mod is not None
        }
        everywhere = [mod for name, mod in sys.modules.items()
                      if mod is not None and (name == "hopfchar" or name.startswith("hopfchar."))]
        after = {
            "hopf.coproduct": self._count_coproduct,
            "convolution.convolve": self._count_convolve,
        }
        for name, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                original = getattr(mods[mod_name], attr)
                wrapped = self.span(name, original, after.get(name))
                for mod in everywhere:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        for name, targets in METHODS.items():
            for mod_name, cls_name, attr in targets:
                self._patch(getattr(mods[mod_name], cls_name), attr,
                            lambda fn, name=name: self.span(name, fn, after.get(name)))
        for name, targets in COUNTED.items():
            for mod_name, cls_name, attr in targets:
                self._patch(getattr(mods[mod_name], cls_name), attr,
                            lambda fn, name=name: self.counter(name, fn))

    @staticmethod
    def _patch(cls, attr: str, wrap) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(wrap(raw.__func__)))
        else:
            setattr(cls, attr, wrap(raw))

    def _count_coproduct(self, args, result) -> None:
        self.counts["hopf.coproduct.terms"] += len(result)

    def _count_convolve(self, args, result) -> None:
        """Coproduct triples one convolution visits: sum_b len(coproduct(b))."""
        hopf, n = result.hopf, result.truncation
        key = (hopf.key, n)
        terms = self._convolve_terms.get(key)
        if terms is None:
            self.paused = True
            try:
                terms = sum(len(hopf.coproduct(b)) for b in hopf.all_basis_upto(n))
            finally:
                self.paused = False
            self._convolve_terms[key] = terms
        self.counts["convolution.convolve.terms"] += terms

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics over every span so far, with the current counters."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            if name not in SPAN_NAMES:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[idx]
        for name in TERM_COUNTS + tuple(COUNTED):
            out[name] = self.counts.get(name, 0)
        return out

    def dump(self, path) -> None:
        """Write every span and counter as JSON."""
        names = sorted({rec[0] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "names": names,
                "spans": [[index[r[0]], round(r[1], 7), round(r[2], 7), r[3], r[4]]
                          for r in self.spans],
                "counts": dict(self.counts),
            }, handle, separators=(",", ":"))


class _Region:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.rec = self.tracer._enter(self.name, time.perf_counter())
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.rec)
        return False
