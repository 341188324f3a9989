"""The benchmark's hooks still find, and put back, every library name they wrap.

``edgebench/spans.py`` times the library by replacing module-level names
(``edgecolor.recursive.build_graph``, ``edgecolor.cli.run_coloring``,
...) with wrappers.  A library change that renames or stops calling one
of them breaks the benchmark; this catches it without a benchmark run.
"""

import importlib.util
from pathlib import Path
from random import Random

import edgecolor.bench
import edgecolor.cli
import edgecolor.recursive
import edgecolor.sequential
from edgecolor.coloring import PartialColoring
from edgecolor.generators import gen_star
from edgecolor.graph import write_edge_list
from edgecolor.recursive import recursive_color_edges

SPANS = Path(__file__).resolve().parents[1] / "edgebench" / "spans.py"
HOOKED = (
    edgecolor.bench, edgecolor.cli, edgecolor.recursive, edgecolor.sequential, PartialColoring
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("edgebench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return [dict(vars(owner)) for owner in HOOKED]


def test_benchmark_hooks_wrap_the_call_path_and_restore(tmp_path, capsys):
    graph_path = tmp_path / "star.edges"
    g = gen_star(40)  # max degree 39: splits
    graph_path.write_text(write_edge_list(g))
    before = _namespaces()
    build_graph = edgecolor.recursive.build_graph
    tracer = _load_spans().Tracer(0)
    try:
        tracer.install_stages()
        tracer.install_layers()
        assert edgecolor.recursive.build_graph is not build_graph
        code = edgecolor.cli.main(["color", str(graph_path), "--algo", "recursive",
                                   "--seed", "1", "--dump", str(tmp_path / "dump")])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    assert _namespaces() == before
    _incl, _own, calls = tracer.totals()
    for name in ("graph.read", "run_coloring", "report", "graph.stats", "coloring.verify",
                 "coloring.dump", "coloring.init", "coloring.missing_color", "recursive.node",
                 "recursive.split", "graph.build", "recursive.merge", "recursive.prune",
                 "recursive.base", "recursive.repair", "sequential.step", "fanpath.fan",
                 "fanpath.path", "fanpath.extend"):
        assert calls[name] > 0, name
    # Every recursion node colors through exactly one color_edges call, a
    # base or a repair, and every node that splits repairs.
    assert calls["recursive.base"] + calls["recursive.repair"] == calls["recursive.node"]
    assert calls["recursive.repair"] == calls["recursive.split"]
    # The hooked depth is read from _recurse's sixth positional argument;
    # it must be the deepest level of the same run.
    trace = []
    recursive_color_edges(g, Random(1), trace=trace)
    assert tracer.counts["depth"] == max(node.level for node in trace) == 3
