"""Run colorings under a timer and report the results.

A run is (input graph, algorithm, seed).  One timer, on the monotonic
clock in integer microseconds, wraps coloring-state setup plus the
coloring call, the same region for every algorithm; graph loading,
statistics, and verification happen outside it.  The properness
verdict in every report comes from an independent full scan, never
from the algorithm's own bookkeeping.

Benchmark manifests describe a matrix of generated graphs, algorithms,
and seeds; each cell is timed over a configurable number of repetitions
and reported as one CSV row with the median wall time.  A failing cell
produces a flagged row and the sweep continues.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from random import Random
from typing import TextIO

from .coloring import ColoringReport, PartialColoring, verify_colors
from .generators import GenSpec, generate
from .graph import Graph, graph_stats
from .recursive import LevelStats, RecursionTrace, collect_level_stats, recursive_color_edges
from .sequential import StepTrace, color_edges, color_edges_deterministic

SCHEMA_VERSION = 1

ALGORITHMS = ("naive", "color-edges", "recursive", "recursive-size-prune-ablation")

# Fixed CSV column order; tests pin it.
CSV_COLUMNS = (
    "family",
    "n",
    "m",
    "max_degree",
    "alpha_known",
    "degeneracy",
    "weight",
    "algo",
    "seed",
    "wall_ms",
    "status",
)

DEFAULT_REPS = 5


@dataclass
class RunResult:
    """Raw outcome of one timed coloring call."""

    algorithm: str
    chi: PartialColoring
    wall_us: int
    level_stats: list[LevelStats] | None = None
    step_traces: list[StepTrace] | None = None
    recursion_trace: RecursionTrace | None = None


def run_coloring(g: Graph, algorithm: str, seed: int, trace: bool = False) -> RunResult:
    """Dispatch one coloring run under a single timer.

    ``algorithm`` is one of ``naive`` (deterministic single-edge steps in
    edge-id order), ``color-edges`` (randomized single-edge steps),
    ``recursive`` (split / merge / prune / repair), or
    ``recursive-size-prune-ablation`` (recursive with classes pruned by
    size instead of weight).  The timed region covers coloring-state
    setup and the coloring call for every algorithm.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    steps = rec_trace = None
    t0 = time.perf_counter_ns()
    if algorithm == "naive":
        chi = PartialColoring(g, g.max_degree + 1)
        color_edges_deterministic(g, chi)
    elif algorithm == "color-edges":
        chi = PartialColoring(g, g.max_degree + 1)
        steps = color_edges(g, chi, Random(seed), trace=trace)
    else:
        rec_trace = RecursionTrace() if trace else None
        prune_by = "weight" if algorithm == "recursive" else "size"
        chi = recursive_color_edges(g, Random(seed), trace=rec_trace, prune_by=prune_by)
    wall = time.perf_counter_ns() - t0
    levels = collect_level_stats(rec_trace) if rec_trace is not None else None
    return RunResult(
        algorithm,
        chi,
        wall // 1000,
        level_stats=levels,
        step_traces=steps,
        recursion_trace=rec_trace,
    )


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


# -- benchmark manifests -------------------------------------------------------


@dataclass(frozen=True)
class BenchCell:
    """One (generated graph, algorithm, seed) cell of a benchmark matrix."""

    spec: GenSpec
    algorithm: str
    seed: int
    reps: int


def load_manifest(data: dict) -> list[BenchCell]:
    """Expand a manifest into cells, in deterministic order.

    Shape: ``{"entries": [entry, ...]}`` where each entry has a ``spec``
    (generator description), optional ``algos`` (default color-edges),
    optional ``seeds`` list or single ``seed`` (default 0), and optional
    ``reps`` (default 5, median reported).
    """
    if not isinstance(data, dict) or "entries" not in data:
        raise ValueError("manifest must be an object with an 'entries' list")
    cells: list[BenchCell] = []
    for i, entry in enumerate(data["entries"]):
        if not isinstance(entry, dict):
            raise ValueError(f"entry {i} is not an object")
        unknown = set(entry) - {"spec", "algos", "seeds", "seed", "reps"}
        if unknown:
            raise ValueError(f"entry {i}: unknown keys {sorted(unknown)}")
        if "spec" not in entry:
            raise ValueError(f"entry {i}: missing 'spec'")
        spec = GenSpec.from_dict(entry["spec"])
        algos = entry.get("algos", ["color-edges"])
        for algo in algos:
            if algo not in ALGORITHMS:
                raise ValueError(f"entry {i}: unknown algorithm {algo!r}")
        if "seeds" in entry and "seed" in entry:
            raise ValueError(f"entry {i}: give 'seeds' or 'seed', not both")
        seeds = entry.get("seeds", [entry.get("seed", 0)])
        reps = entry.get("reps", DEFAULT_REPS)
        if not isinstance(reps, int) or reps < 1:
            raise ValueError(f"entry {i}: reps must be a positive integer")
        for algo in algos:
            for seed in seeds:
                if not isinstance(seed, int):
                    raise ValueError(f"entry {i}: seeds must be integers")
                cells.append(BenchCell(spec, algo, seed, reps))
    return cells


def run_cell(cell: BenchCell) -> dict:
    """One CSV row: median wall time over the cell's repetitions.

    Any exception is captured into the status column so a bad cell does
    not abort the sweep.
    """
    row: dict = {c: "" for c in CSV_COLUMNS}
    row["family"] = cell.spec.family
    row["algo"] = cell.algorithm
    row["seed"] = cell.seed
    try:
        g = generate(cell.spec)
        stats = graph_stats(g)
        row["n"] = g.n
        row["m"] = g.m
        row["max_degree"] = stats.max_degree
        alpha = cell.spec.known_arboricity()
        row["alpha_known"] = "" if alpha is None else alpha
        row["degeneracy"] = stats.degeneracy
        row["weight"] = stats.graph_weight
        walls: list[int] = []
        ok = True
        for _ in range(cell.reps):
            result = run_coloring(g, cell.algorithm, cell.seed)
            walls.append(result.wall_us)
            verdict = verify_colors(g, result.chi.color, result.chi.k)
            if not (
                verdict.proper
                and verdict.uncolored == 0
                and verdict.max_color <= g.max_degree + 1
            ):
                ok = False
        row["wall_ms"] = f"{statistics.median(walls) / 1000:.3f}"
        row["status"] = "ok" if ok else "improper"
    except Exception as exc:  # noqa: BLE001 - flagged row, sweep continues
        row["status"] = f"error:{type(exc).__name__}"
    return row


def run_bench(manifest: dict, jobs: int = 1) -> list[dict]:
    """Run a whole manifest; rows come back in manifest order."""
    cells = load_manifest(manifest)
    workers = min(jobs, len(cells), os.cpu_count() or 1)
    if workers <= 1:
        return [run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, cells))


def write_csv(rows: list[dict], fh: TextIO) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
