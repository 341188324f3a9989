"""Run colorings under a timer and report the results.

A run is (input graph, algorithm, seed).  One timer, on the monotonic
clock in integer microseconds, wraps coloring-state setup plus the
coloring call, the same region for every algorithm; graph loading,
statistics, and verification happen outside it.  The properness
verdict in every report comes from an independent full scan, never
from the algorithm's own bookkeeping.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass
from random import Random

from .coloring import ColoringReport, PartialColoring, verify_colors
from .graph import Graph, graph_stats
from .recursive import LevelStats, RecursionTrace, collect_level_stats, recursive_color_edges
from .sequential import StepTrace, color_edges, color_edges_deterministic

SCHEMA_VERSION = 1

ALGORITHMS = ("naive", "color-edges", "recursive")


@dataclass
class RunResult:
    """Raw outcome of one timed coloring call."""

    algorithm: str
    chi: PartialColoring
    wall_us: int
    level_stats: list[LevelStats] | None = None
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
        rec_trace = RecursionTrace() if trace else None
        chi = recursive_color_edges(g, Random(seed), trace=rec_trace)
    wall = time.perf_counter_ns() - t0
    levels = collect_level_stats(rec_trace) if rec_trace is not None else None
    return RunResult(algorithm, chi, wall // 1000, level_stats=levels, step_traces=steps)


@dataclass(frozen=True)
class RunReport:
    """Everything one run reports; ``wall_us`` is the only timing field.

    ``ok`` means the output is a total proper coloring within the
    ``max_degree + 1`` palette, per the independent verification scan.
    """

    schema_version: int
    input: dict
    algorithm: str
    seed: int
    wall_us: int
    n: int
    m: int
    max_degree: int
    weight: int
    degeneracy: int
    palette: int
    colors_used: int
    max_color: int
    uncolored: int
    proper: bool
    ok: bool
    level_stats: list[dict] | None = None
    step_summary: dict | None = None

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["level_stats"] is None:
            del data["level_stats"]
        if data["step_summary"] is None:
            del data["step_summary"]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def summarize_steps(steps: list[StepTrace]) -> dict:
    """Mean fan size and path length over a step trace (no timing)."""
    return {
        "calls": len(steps),
        "mean_fan_size": round(statistics.fmean(s.fan_size for s in steps), 6),
        "mean_path_length": round(statistics.fmean(s.path_length for s in steps), 6),
    }


def build_report(g: Graph, result: RunResult, seed: int, input_desc: dict) -> RunReport:
    """Assemble the report for a finished run, re-verifying its output."""
    stats = graph_stats(g)
    verdict: ColoringReport = verify_colors(g, result.chi.color, result.chi.k)
    ok = verdict.proper and verdict.uncolored == 0 and verdict.max_color <= g.max_degree + 1
    level_stats = None
    if result.level_stats is not None:
        level_stats = [asdict(ls) for ls in result.level_stats]
    step_summary = None
    if result.step_traces:
        step_summary = summarize_steps(result.step_traces)
    return RunReport(
        schema_version=SCHEMA_VERSION,
        input=input_desc,
        algorithm=result.algorithm,
        seed=seed,
        wall_us=result.wall_us,
        n=g.n,
        m=g.m,
        max_degree=stats.max_degree,
        weight=stats.graph_weight,
        degeneracy=stats.degeneracy,
        palette=result.chi.k,
        colors_used=verdict.colors_used,
        max_color=verdict.max_color,
        uncolored=verdict.uncolored,
        proper=verdict.proper,
        ok=ok,
        level_stats=level_stats,
        step_summary=step_summary,
    )
