"""Run colorings under a timer and report the results.

A run is (input graph, algorithm, seed).  One timer, on the monotonic
clock in integer microseconds, wraps coloring-state setup plus the
coloring call, the same region for every algorithm; graph loading,
statistics, and verification happen outside it.  The properness
verdict in every report comes from an independent full scan, never
from the algorithm's own bookkeeping.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from random import Random

from .coloring import ColoringReport, PartialColoring, verify_colors
from .graph import Graph, graph_stats
from .recursive import collect_level_stats, recursive_color_edges
from .sequential import StepTrace, color_edges, color_edges_deterministic

SCHEMA_VERSION = 1

ALGORITHMS = ("naive", "color-edges", "recursive")


@dataclass
class RunResult:
    """Raw outcome of one timed coloring call."""

    algorithm: str
    chi: PartialColoring
    wall_us: int
    level_stats: list[dict] | None = None
    step_traces: list[StepTrace] | None = None


def run_coloring(g: Graph, algorithm: str, seed: int, trace: bool = False) -> RunResult:
    """Dispatch one coloring run under a single timer.

    ``algorithm`` is one of ``naive`` (deterministic single-edge steps in
    edge-id order), ``color-edges`` (randomized single-edge steps) or
    ``recursive`` (split / merge / prune / repair).  The timed region
    covers coloring-state setup and the coloring call for every algorithm.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    steps = rec_trace = None
    t0 = time.perf_counter_ns()
    if algorithm == "naive":
        chi = PartialColoring(g)
        color_edges_deterministic(g, chi)
    elif algorithm == "color-edges":
        chi = PartialColoring(g)
        steps = color_edges(g, chi, Random(seed), trace=trace)
    else:
        rec_trace = [] if trace else None
        chi = recursive_color_edges(g, Random(seed), trace=rec_trace)
    wall = time.perf_counter_ns() - t0
    levels = collect_level_stats(rec_trace) if rec_trace is not None else None
    return RunResult(algorithm, chi, wall // 1000, level_stats=levels, step_traces=steps)


def summarize_steps(steps: list[StepTrace]) -> dict:
    """Mean fan size and path length over a step trace (no timing)."""
    return {
        "calls": len(steps),
        "mean_fan_size": round(statistics.fmean(s.fan_size for s in steps), 6),
        "mean_path_length": round(statistics.fmean(s.path_length for s in steps), 6),
    }


def build_report(g: Graph, result: RunResult, seed: int, input_desc: dict) -> dict:
    """The report of a finished run, as printed by ``edgecolor color``.

    The output is re-verified by an independent scan: ``ok`` means it is
    a total proper coloring within the ``max_degree + 1`` palette.
    ``wall_us`` is the only timing field.  Traced runs add
    ``level_stats`` (recursive) or ``step_summary`` (color-edges).
    """
    stats = graph_stats(g)
    verdict: ColoringReport = verify_colors(g, result.chi.color, result.chi.k)
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": input_desc,
        "algorithm": result.algorithm,
        "seed": seed,
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
    if result.step_traces:
        report["step_summary"] = summarize_steps(result.step_traces)
    return report
