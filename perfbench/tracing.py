"""In-memory spans around calls into momcube's layers, recorded from outside.

The benchmark never edits the package.  It replaces a public function at the
place another module imported it (``momcube.cli.load_measure``,
``momcube.recomb.moment_vector``, ...) with a wrapper that records one span
per call, and restores the original when the traced pass ends.  Its own
calls into the library (``cubature_of_degree``, ``verify_cubature``,
``truncated_moment_feasible``, ``cli.main``) go through ``Tracer.call``.

Layers are the package's modules; the benchmark's ``cli.main`` calls belong
to "cli".  A span is a dict with an id, the id of the span that was open when it
started (its parent), a name, the layer it belongs to, start and end times
from ``time.perf_counter`` and a few counts read off the call's arguments
and result.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, Callable

def _reduction_attrs(args, kwargs, result) -> dict:
    _, report = result
    attrs = {
        "atoms": report.initial_atoms,
        "nodes": report.final_atoms,
        "eliminations": report.elimination_steps,
    }
    # reduce and reduce_streaming take the basis second; D comes from it.
    if hasattr(args[1], "dimension"):
        attrs["dim"] = args[1].dimension
    return attrs


def _verify_attrs(args, kwargs, result) -> dict:
    return {"max_residual_rel": result.max_residual_rel, "mass_gap_rel": result.mass_gap_rel}


def _feasibility_attrs(args, kwargs, result) -> dict:
    status = result[0].status if isinstance(result, tuple) else result.status
    return {"status": status.value}


# name -> (layer, function deriving span counts from (args, kwargs, result))
SPAN_KINDS: dict[str, tuple[str, Callable[..., dict] | None]] = {
    "load_measure": ("measure", lambda a, k, r: {"rows": r.num_atoms}),
    "moment_vector": ("measure", lambda a, k, r: {"atoms": a[0].num_atoms}),
    "embed_block": ("basis", lambda a, k, r: {"cells": int(r.size)}),
    "cubature_of_degree": ("recomb", _reduction_attrs),
    "reduce": ("recomb", _reduction_attrs),
    "reduce_streaming": ("recomb", _reduction_attrs),
    "verify_cubature": ("verify", _verify_attrs),
    "hull_membership": ("geometry", _feasibility_attrs),
    "truncated_moment_feasible": ("geometry", _feasibility_attrs),
    "cli": ("cli", None),
}

# (module, attribute) pairs wrapped during a traced pass: every place where
# one layer imports another layer's public function.
WRAP_SITES = (
    ("momcube.cli", "load_measure"),
    ("momcube.cli", "cubature_of_degree"),
    ("momcube.cli", "verify_cubature"),
    ("momcube.cli", "moment_vector"),
    ("momcube.recomb", "reduce"),
    ("momcube.recomb", "reduce_streaming"),
    ("momcube.recomb", "moment_vector"),
    ("momcube.measure", "embed_block"),
    ("momcube.verify", "moment_vector"),
    ("momcube.geometry", "embed_block"),
    ("momcube.geometry", "hull_membership"),
)


class Tracer:
    """Records nested spans; ``enabled=False`` makes every call a plain call."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, *args, attrs: dict | None = None, **kwargs) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        layer, derive = SPAN_KINDS[name]
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
            "attrs": dict(attrs or {}),
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if derive is not None:
            span["attrs"].update(derive(args, kwargs, result))
        return result

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site in WRAP_SITES for the duration of the block."""
        if not self.enabled:
            yield self
            return
        saved = []
        try:
            for module_name, attr in WRAP_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrapper(attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrapper(self, name: str, original: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        return traced


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


class SpanTree:
    """Queries over the spans of one traced pass."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.children: dict[int | None, list[dict]] = {}
        for span in spans:
            self.children.setdefault(span["parent"], []).append(span)
        self._by_id = {span["id"]: span for span in spans}

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def parent_layer(self, span: dict) -> str | None:
        parent = span["parent"]
        return None if parent is None else self._by_id[parent]["layer"]

    def outermost(self, layer: str) -> list[dict]:
        """Spans of ``layer`` not nested in another span of the same layer."""
        return [
            s for s in self.spans
            if s["layer"] == layer and self.parent_layer(s) != layer
        ]

    def foreign_time(self, span: dict) -> float:
        """Time inside ``span`` covered by spans of other layers.

        Children of the same layer are looked through; the first span of
        another layer on each path is counted whole.  Spans of one thread
        nest, so those intervals never overlap.
        """
        total = 0.0
        for child in self.children.get(span["id"], []):
            if child["layer"] == span["layer"]:
                total += self.foreign_time(child)
            else:
                total += _duration(child)
        return total

    def total_s(self, spans: list[dict]) -> float:
        return sum(_duration(s) for s in spans)

    def self_s(self, layer: str) -> float:
        """The layer's span time minus the child spans of other layers."""
        return sum(_duration(s) - self.foreign_time(s) for s in self.outermost(layer))

    @staticmethod
    def attr_sum(spans: list[dict], key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in spans)
