"""The oracles themselves: enumeration, counting bounds, exhaustive replay."""

from dataclasses import replace
from random import Random

from _util import random_graph, random_partial
from edgecolor.coloring import PartialColoring, verify_proper
from edgecolor.fanpath import make_primed_fan, maximal_alternating_path
from edgecolor.generators import gen_erdos_renyi
from edgecolor.graph import build_graph
from edgecolor.oracles import (
    check_fan,
    check_edge_membership_bounds,
    enumerate_maximal_paths,
    exhaustive_extend_suite,
    sample_partial_coloring,
)
from edgecolor.recursive import recursive_color_edges
from edgecolor.sequential import color_edges


def test_enumerate_single_colored_edge():
    g = build_graph([(0, 1)], 2)
    chi = PartialColoring(g)
    chi.assign(0, 1)
    (path,) = enumerate_maximal_paths(g, chi)
    assert path.vertices == [0, 1]
    assert path.edge_ids == [0]
    assert (path.c0, path.c1) == (1, 2)


def test_enumerate_empty_coloring():
    g = build_graph([(0, 1), (1, 2)], 3)
    chi = PartialColoring(g)
    assert enumerate_maximal_paths(g, chi) == []


def _p4_fixture():
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    chi = PartialColoring(g)
    for e, c in enumerate((1, 2, 1)):
        chi.assign(e, c)
    return g, chi


def test_enumerate_p4_all_pairs():
    g, chi = _p4_fixture()
    paths = enumerate_maximal_paths(g, chi)
    summary = sorted((p.c0, p.c1, tuple(p.vertices)) for p in paths)
    assert summary == [
        (1, 2, (0, 1, 2, 3)),
        (1, 3, (0, 1)),
        (1, 3, (2, 3)),
        (2, 3, (1, 2)),
    ]


def test_enumerate_excludes_cycles():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    chi = PartialColoring(g)
    for e, c in enumerate((1, 2, 1, 2)):
        chi.assign(e, c)
    # the (1, 2) subgraph is one cycle: no terminals, no paths
    assert all({p.c0, p.c1} != {1, 2} for p in enumerate_maximal_paths(g, chi))


def test_enumerate_reports_each_component_once():
    g = build_graph([(0, 1), (1, 2)], 3)
    chi = PartialColoring(g)
    chi.assign(0, 1)
    chi.assign(1, 2)
    pair_paths = [p for p in enumerate_maximal_paths(g, chi) if (p.c0, p.c1) == (1, 2)]
    (path,) = pair_paths  # both terminals see the component; one report
    assert path.vertices == [0, 1, 2]


def test_enumerate_agrees_with_walker():
    rng = Random(42)
    for _ in range(20):
        g = random_graph(12, rng.randrange(4, 20), rng)
        chi = random_partial(g, rng)
        for p in enumerate_maximal_paths(g, chi):
            start = p.vertices[0]
            first = chi.color[p.edge_ids[0]]
            other = p.c0 if first == p.c1 else p.c1
            q = maximal_alternating_path(g, chi, start, other, first)
            assert q.vertices == p.vertices
            assert q.edge_ids == p.edge_ids
            # from the far endpoint the same component reads reversed
            last = chi.color[p.edge_ids[-1]]
            r = maximal_alternating_path(
                g, chi, p.vertices[-1], p.c0 if last == p.c1 else p.c1, last
            )
            assert r.vertices == p.vertices[::-1]


def test_membership_bounds_on_fixtures():
    g, chi = _p4_fixture()
    report = check_edge_membership_bounds(g, chi)
    assert report.ok and report.instances == 1

    k4 = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
    chi4 = PartialColoring(k4)
    color_edges(k4, chi4, Random(0))
    assert check_edge_membership_bounds(k4, chi4).ok


def test_membership_bounds_on_random_colorings():
    rng = Random(99)
    for _ in range(20):
        g = random_graph(12, rng.randrange(0, 25), rng)
        chi = random_partial(g, rng)
        report = check_edge_membership_bounds(g, chi)
        assert report.ok, report.violations[:3]


def test_membership_bounds_on_full_colorings():
    g = gen_erdos_renyi(40, 120, seed=6)
    chi = recursive_color_edges(g, Random(1))
    assert check_edge_membership_bounds(g, chi).ok


def test_sample_partial_coloring_is_proper():
    rng = Random(7)
    for _ in range(30):
        g = random_graph(10, rng.randrange(0, 20), rng)
        chi = sample_partial_coloring(g, rng)
        assert verify_proper(g, chi).proper
        assert all(c <= chi.k for c in chi.color)


def test_exhaustive_suite_tiny():
    report = exhaustive_extend_suite(n_max=4, colorings_per_graph=2, seed=1)
    assert report.ok, report.violations[:5]
    assert report.instances > 100


def test_check_fan_flags_tampering():
    g = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    chi = PartialColoring(g)
    chi.assign(1, 1)
    chi.assign(2, 2)
    fan = make_primed_fan(g, chi, 0, 0)
    assert check_fan(g, chi, fan) == []
    bad_color = replace(fan, primed_color=2, primed_index=None)
    assert any("last leaf" in p for p in check_fan(g, chi, bad_color))
    bad_leaves = replace(fan, leaves=list(reversed(fan.leaves)))
    assert check_fan(g, chi, bad_leaves) != []
