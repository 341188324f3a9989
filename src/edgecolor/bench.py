"""Run colorings under a timer and report the results.

A run is (input graph, algorithm, seed).  One timer, on the monotonic
clock in integer microseconds, wraps coloring-state setup plus the
coloring call, the same region for every algorithm; graph loading,
statistics, and verification happen outside it.  The properness
verdict in every report comes from an independent full scan, never
from the algorithm's own bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from .coloring import ColoringReport, PartialColoring, verify_colors
from .graph import Graph, graph_stats
from .recursive import collect_level_stats, recursive_color_edges
from .sequential import color_edges, color_edges_deterministic

SCHEMA_VERSION = 1

ALGORITHMS = ("naive", "color-edges", "recursive")


@dataclass
class RunResult:
    """Raw outcome of one timed coloring call."""

    algorithm: str
    seed: int
    chi: PartialColoring
    wall_us: int
    level_stats: list[dict] | None = None
    step_summary: dict | None = None


def run_coloring(g: Graph, algorithm: str, seed: int, trace: bool = False) -> RunResult:
    """Dispatch one coloring run under a single timer.

    ``algorithm`` is one of ``naive`` (deterministic single-edge steps in
    edge-id order), ``color-edges`` (randomized single-edge steps) or
    ``recursive`` (split / merge / prune / repair).  The timed region
    covers coloring-state setup and the coloring call for every algorithm.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    work = rec_trace = None
    t0 = time.perf_counter_ns()
    if algorithm == "naive":
        chi = PartialColoring(g)
        work = color_edges_deterministic(g, chi)
    elif algorithm == "color-edges":
        chi = PartialColoring(g)
        work = color_edges(g, chi, Random(seed))
    else:
        rec_trace = [] if trace else None
        chi = recursive_color_edges(g, Random(seed), trace=rec_trace)
    wall = time.perf_counter_ns() - t0
    levels = collect_level_stats(rec_trace) if rec_trace is not None else None
    summary = None
    if trace and work is not None and work[0]:
        steps, fans, paths = work
        summary = {
            "calls": steps,
            "mean_fan_size": round(fans / steps, 6),
            "mean_path_length": round(paths / steps, 6),
        }
    return RunResult(algorithm, seed, chi, wall // 1000, levels, summary)


def build_report(g: Graph, result: RunResult, input_desc: dict) -> dict:
    """The report of a finished run, as printed by ``edgecolor color``.

    The output is re-verified by an independent scan: ``ok`` means it is
    a total proper coloring within the ``max_degree + 1`` palette.
    ``wall_us`` is the only timing field.  Traced runs add
    ``level_stats`` (recursive) or, when a step ran, ``step_summary``
    (naive, color-edges: steps, mean fan size and mean path length).
    """
    stats = graph_stats(g)
    verdict: ColoringReport = verify_colors(g, result.chi.color, result.chi.k)
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": input_desc,
        "algorithm": result.algorithm,
        "seed": result.seed,
        "wall_us": result.wall_us,
        "n": g.n,
        "m": g.m,
        "max_degree": stats.max_degree,
        "weight": stats.graph_weight,
        "degeneracy": stats.degeneracy,
        "palette": result.chi.k,
        "colors_used": verdict.colors_used,
        "max_color": verdict.max_color,
        "uncolored": verdict.uncolored,
        "proper": verdict.proper,
        "ok": verdict.proper and verdict.uncolored == 0 and verdict.max_color <= g.max_degree + 1,
    }
    if result.level_stats is not None:
        report["level_stats"] = result.level_stats
    if result.step_summary is not None:
        report["step_summary"] = result.step_summary
    return report
