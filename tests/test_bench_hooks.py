"""The benchmark's hooks still find, and put back, every library name they wrap.

``edgebench/spans.py`` times the library by replacing module-level names
(``edgecolor.recursive.build_graph``, ``edgecolor.cli.run_coloring``,
...) with wrappers.  A library change that renames or stops calling one
of them breaks the benchmark; this catches it without a benchmark run.
"""

import importlib.util
import json
from pathlib import Path
from random import Random

import pytest

import edgecolor.bench
import edgecolor.cli
import edgecolor.recursive
import edgecolor.sequential
from edgecolor.coloring import PartialColoring
from edgecolor.generators import gen_erdos_renyi, gen_preferential_attachment, gen_star
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


STAGES = ("graph.read", "run_coloring", "report", "graph.stats", "coloring.verify",
          "coloring.dump", "coloring.init", "sequential.step", "fanpath.fan", "fanpath.extend")


def _hooked_color(tmp_path, capsys, g, algo, *extra):
    """One hooked ``edgecolor color`` call on ``g``: its tracer and report."""
    graph_path = tmp_path / "g.edges"
    graph_path.write_text(write_edge_list(g))
    before = _namespaces()
    build_graph = edgecolor.recursive.build_graph
    tracer = _load_spans().Tracer(0)
    try:
        tracer.install_stages()
        tracer.install_layers()
        assert edgecolor.recursive.build_graph is not build_graph
        code = edgecolor.cli.main(["color", str(graph_path), "--algo", algo, "--seed", "1",
                                   "--dump", str(tmp_path / "dump"), *extra])
    finally:
        tracer.restore()
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert _namespaces() == before
    return tracer, report


def test_benchmark_hooks_wrap_the_call_path_and_restore(tmp_path, capsys):
    # Max degree 39: splits.  Every step centers on a leaf whose only edge
    # is the one it colors, so no step draws a path color or walks a path;
    # the hooked color-edges run below reaches those two hooks.
    g = gen_star(40)
    tracer, _report = _hooked_color(tmp_path, capsys, g, "recursive")
    _incl, _own, calls = tracer.totals()
    for name in STAGES + ("recursive.node", "recursive.split", "graph.build",
                          "recursive.merge", "recursive.prune", "recursive.base",
                          "recursive.repair"):
        assert calls[name] > 0, name
    # Every recursion node colors through exactly one color_edges call, a
    # base or a repair, and every node that splits repairs.
    assert calls["recursive.base"] + calls["recursive.repair"] == calls["recursive.node"]
    assert calls["recursive.repair"] == calls["recursive.split"]
    # Each split's two children are built on demand, through the hooked name.
    assert calls["graph.build"] == 2 * calls["recursive.split"]
    # The hooked depth is read from _recurse's sixth positional argument;
    # it must be the deepest level of the same run.
    trace = []
    recursive_color_edges(g, Random(1), trace=trace)
    assert tracer.counts["depth"] == max(node.level for node in trace) == 3


@pytest.mark.parametrize("algo", ["naive", "color-edges"])
def test_benchmark_hooks_pass_the_step_work_through(tmp_path, capsys, algo):
    # The hooked step colorers and single-edge steps must hand back what
    # the library returns: the traced report sums it into step_summary.
    # Dense enough that some fans are primed by a color present at their
    # center, so color-edges draws path colors and walks paths.
    g = gen_erdos_renyi(30, 200, seed=2)
    tracer, report = _hooked_color(tmp_path, capsys, g, algo, "--trace")
    _incl, _own, calls = tracer.totals()
    hooks = STAGES + ("fanpath.path",)
    if algo == "color-edges":
        hooks += ("coloring.missing_color",)  # naive takes the free stack's top
    for name in hooks:
        assert calls[name] > 0, name
    assert calls["sequential.step"] == report["step_summary"]["calls"] == g.m
    assert tracer.counts["fan.sum"] == round(report["step_summary"]["mean_fan_size"] * g.m)
    assert tracer.counts["path.sum"] == round(report["step_summary"]["mean_path_length"] * g.m)


def test_benchmark_hooks_read_the_uncolored_edges_a_prune_leaves(tmp_path, capsys):
    # Here some merged nodes' prunes uncolor edges (pruned weight 81 over
    # all nodes at colorer seed 1), so the hooks read chi.uncolored and
    # uncolored_count of a partial coloring and count its repair steps.
    g = gen_preferential_attachment(1000, 10, seed=4)
    tracer, _report = _hooked_color(tmp_path, capsys, g, "recursive")
    _incl, _own, calls = tracer.totals()
    assert calls["recursive.repair"] > 0
    assert tracer.counts["repair.steps"] > 0
    assert 0 < tracer.counts["pruned_weight_over_bound"] <= 1
