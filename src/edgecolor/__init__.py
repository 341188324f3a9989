"""Randomized (max_degree + 1)-edge coloring, sensitive to graph density.

The coloring algorithms here run fast on sparse graphs regardless of the
maximum degree: the work per edge tracks the edge's *weight* (the lower
of its endpoint degrees), so the total tracks the graph weight, which is
small whenever the edges spread across few forests.

Layers, bottom up: :mod:`edgecolor.graph` (immutable graphs, weights,
degeneracy, edge-list I/O), :mod:`edgecolor.coloring` (mutable partial
coloring state with O(1) updates), :mod:`edgecolor.fanpath` (fans,
alternating paths, the single-edge extension), :mod:`edgecolor.sequential`
(randomized and deterministic full colorings), :mod:`edgecolor.recursive`
(Euler-partition recursion with prune and repair),
:mod:`edgecolor.generators` (seeded benchmark families),
:mod:`edgecolor.oracles` (brute-force cross-checks), :mod:`edgecolor.bench`
(timed runs and reports) and :mod:`edgecolor.cli` (command line).
"""

from .bench import ALGORITHMS, RunResult, build_report, run_coloring
from .coloring import (
    UNCOLORED,
    ColoringReport,
    PartialColoring,
    format_coloring,
    parse_coloring,
    verify_colors,
    verify_proper,
)
from .fanpath import (
    AlternatingPath,
    Fan,
    extend_coloring,
    make_primed_fan,
    maximal_alternating_path,
)
from .generators import FAMILIES, GenSpec, InfeasibleSpecError, generate
from .graph import (
    Graph,
    GraphStats,
    build_graph,
    degeneracy,
    edge_weight,
    graph_stats,
    graph_weight,
    read_edge_list,
    write_edge_list,
)
from .recursive import (
    EulerSplit,
    collect_level_stats,
    euler_partition,
    merge_colorings,
    prune_min_weight_colors,
    recursion_threshold,
    recursive_color_edges,
)
from .sequential import (
    color_edges,
    color_edges_deterministic,
    color_one_edge,
    color_one_edge_deterministic,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "UNCOLORED",
    "AlternatingPath",
    "ColoringReport",
    "EulerSplit",
    "FAMILIES",
    "Fan",
    "GenSpec",
    "Graph",
    "GraphStats",
    "InfeasibleSpecError",
    "PartialColoring",
    "RunResult",
    "build_graph",
    "build_report",
    "collect_level_stats",
    "color_edges",
    "color_edges_deterministic",
    "color_one_edge",
    "color_one_edge_deterministic",
    "degeneracy",
    "edge_weight",
    "euler_partition",
    "extend_coloring",
    "format_coloring",
    "generate",
    "graph_stats",
    "graph_weight",
    "make_primed_fan",
    "maximal_alternating_path",
    "merge_colorings",
    "parse_coloring",
    "prune_min_weight_colors",
    "read_edge_list",
    "recursion_threshold",
    "recursive_color_edges",
    "run_coloring",
    "verify_colors",
    "verify_proper",
    "write_edge_list",
]
