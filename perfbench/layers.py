"""Per-layer metrics derived from the spans of one traced pass.

Each metric is listed in PER_LAYER with its unit.  Times are sums of span
durations in seconds; a layer's ``self_s`` is its outermost spans minus the
child spans of other layers inside them (see ``SpanTree.self_s``).  A layer
the workload does not reach reports 0.
"""

from __future__ import annotations

from tracing import SpanTree

PER_LAYER = {
    # recomb: the Carathéodory sweep behind cubature_of_degree.
    "recomb.s": "s",
    "recomb.self_s": "s",
    "recomb.eliminations": "count",
    "recomb.us_per_elimination": "us",
    "recomb.us_per_atom": "us",
    "recomb.windows": "count",
    "recomb.streaming_share": "share",
    "recomb.nodes_per_dim": "ratio",
    "recomb.eliminations_per_removed_atom": "ratio",
    # measure: file ingest and compensated moment sums.
    "measure.load_measure.s": "s",
    "measure.load_measure.rows": "count",
    "measure.load_measure.us_per_row": "us",
    "measure.moment_vector.s": "s",
    "measure.moment_vector.atoms": "count",
    # basis: monomial embedding, wherever it is called from.
    "basis.embed_block.s": "s",
    "basis.embed_block.calls": "count",
    "basis.embed_block.cells": "count",
    "basis.embed_block.ns_per_cell": "ns",
    # verify: the independent re-check of a cubature.
    "verify.s": "s",
    "verify.max_residual_rel": "ratio",
    "verify.mass_gap_rel": "ratio",
    # geometry: certified hull membership by phase-1 simplex.
    "geometry.hull_membership.s": "s",
    "geometry.self_s": "s",
    "geometry.scattered_s": "s",
    "geometry.tensor_s": "s",
    "geometry.feasible": "count",
    "geometry.infeasible": "count",
    "geometry.indeterminate": "count",
    "geometry.decided_share": "share",
    # cli: argument handling, JSON output and the commands' own glue.
    "cli.reduce.s": "s",
    "cli.verify.s": "s",
    "cli.moments.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    # harness: the cost of tracing and the failures it saw.
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_share": "share",
    "trace.spans": "count",
    "failed_share": "share",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], bytes_written: int) -> dict[str, float]:
    """Every PER_LAYER metric except the harness ones, from one pass's spans."""
    t = SpanTree(spans)
    m: dict[str, float] = {}

    top = t.outermost("recomb")
    engines = t.named("reduce", "reduce_streaming")
    eliminations = t.attr_sum(top, "eliminations")
    atoms = t.attr_sum(top, "atoms")
    removed = atoms - t.attr_sum(top, "nodes")
    m["recomb.s"] = t.total_s(top)
    m["recomb.self_s"] = t.self_s("recomb")
    m["recomb.eliminations"] = eliminations
    m["recomb.us_per_elimination"] = 1e6 * _ratio(m["recomb.self_s"], eliminations)
    m["recomb.us_per_atom"] = 1e6 * _ratio(m["recomb.s"], atoms)
    # A window is one block of feature columns the sweep asks for.
    m["recomb.windows"] = sum(
        1 for s in t.named("embed_block") if t.parent_layer(s) == "recomb"
    )
    m["recomb.streaming_share"] = _ratio(
        t.total_s(t.named("reduce_streaming")), t.total_s(engines)
    )
    m["recomb.nodes_per_dim"] = _ratio(
        t.attr_sum(engines, "nodes"), t.attr_sum(engines, "dim")
    )
    m["recomb.eliminations_per_removed_atom"] = _ratio(eliminations, removed)

    loads = t.named("load_measure")
    rows = t.attr_sum(loads, "rows")
    m["measure.load_measure.s"] = t.total_s(loads)
    m["measure.load_measure.rows"] = rows
    m["measure.load_measure.us_per_row"] = 1e6 * _ratio(m["measure.load_measure.s"], rows)
    sums = t.named("moment_vector")
    m["measure.moment_vector.s"] = t.total_s(sums)
    m["measure.moment_vector.atoms"] = t.attr_sum(sums, "atoms")

    embeds = t.named("embed_block")
    cells = t.attr_sum(embeds, "cells")
    m["basis.embed_block.s"] = t.total_s(embeds)
    m["basis.embed_block.calls"] = len(embeds)
    m["basis.embed_block.cells"] = cells
    m["basis.embed_block.ns_per_cell"] = 1e9 * _ratio(m["basis.embed_block.s"], cells)

    checks = t.named("verify_cubature")
    m["verify.s"] = t.total_s(checks)
    for key in ("max_residual_rel", "mass_gap_rel"):
        m[f"verify.{key}"] = max((s["attrs"][key] for s in checks), default=0.0)

    queries = t.named("truncated_moment_feasible")
    verdicts = [s["attrs"]["status"] for s in queries]
    m["geometry.hull_membership.s"] = t.total_s(t.named("hull_membership"))
    m["geometry.self_s"] = t.self_s("geometry")
    for grid in ("scattered", "tensor"):
        m[f"geometry.{grid}_s"] = t.total_s([s for s in queries if s["attrs"]["grid"] == grid])
    for verdict in ("feasible", "infeasible", "indeterminate"):
        m[f"geometry.{verdict}"] = verdicts.count(verdict)
    m["geometry.decided_share"] = _ratio(
        len(verdicts) - verdicts.count("indeterminate"), len(verdicts)
    )

    commands = t.named("cli")
    for command in ("reduce", "verify", "moments"):
        m[f"cli.{command}.s"] = t.total_s(
            [s for s in commands if s["attrs"]["command"] == command]
        )
    m["cli.self_s"] = t.self_s("cli")
    m["cli.bytes_written"] = bytes_written
    return m
