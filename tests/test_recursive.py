"""Euler splits, palette merging, pruning, and the recursive colorer."""

import hashlib
from random import Random

import pytest
from hypothesis import given, settings

from _util import all_pairs, graphs, random_graph
from edgecolor.coloring import PartialColoring, format_coloring, verify_colors
from edgecolor.generators import (
    gen_erdos_renyi,
    gen_forest_union,
    gen_grid,
    gen_preferential_attachment,
    gen_star,
    gen_star_plus_forests,
)
from edgecolor.graph import build_graph
from edgecolor.recursive import (
    EulerSplit,
    ImproperInputError,
    RecursionNode,
    collect_level_stats,
    euler_partition,
    merge_colorings,
    prune_min_weight_colors,
    recursion_threshold,
    recursive_color_edges,
)
from edgecolor.sequential import color_edges
from oracles import side_degrees, verify_proper


def _check_split(g, split: EulerSplit) -> None:
    assert split.left.m + split.right.m == g.m
    left_deg, right_deg = side_degrees(split)
    for v in range(g.n):
        dl = left_deg.get(v, 0)
        dr = right_deg.get(v, 0)
        assert dl + dr == g.degree[v]
        # left minus right: +-1 at an odd vertex, 0 or +2 at an even one
        assert dl - dr in ((-1, 1) if g.degree[v] & 1 else (0, 2))
    # every parent edge lands on one side, in id order, with its
    # endpoints intact
    assert sorted(split.left_edges + split.right_edges) == list(range(g.m))
    for child, vmap, eids in (
        (split.left, split.left_vertices, split.left_edges),
        (split.right, split.right_vertices, split.right_edges),
    ):
        assert eids == sorted(eids)
        assert len(eids) == child.m
        for ce, e in enumerate(eids):
            a, b = child.endpoints[ce]
            assert {vmap[a], vmap[b]} == set(g.endpoints[e])


def test_split_cycle4_into_matchings():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 0)], 4)
    split = euler_partition(g)
    _check_split(g, split)
    # even closed tour alternates perfectly: two matchings
    assert split.left.m == split.right.m == 2
    assert split.left.max_degree == split.right.max_degree == 1


def test_split_triangle_sizes():
    g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
    split = euler_partition(g)
    _check_split(g, split)
    assert {split.left.m, split.right.m} == {1, 2}


def test_split_empty_graph():
    g = build_graph([], 3)
    split = euler_partition(g)
    assert split.left.m == split.right.m == 0
    assert split.left_edges == split.right_edges == []


@given(graphs(max_n=8))
@settings(max_examples=200)
def test_split_balance_property(g):
    _check_split(g, euler_partition(g))


@pytest.mark.parametrize("reverse", [False, True], ids=["input-order", "reversed"])
def test_split_balance_on_every_small_graph(reverse):
    # every graph on at most 5 labeled vertices, its edges in both orders
    for n in range(6):
        pairs = all_pairs(n)
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            g = build_graph(edges[::-1] if reverse else edges, n)
            _check_split(g, euler_partition(g))


@pytest.mark.parametrize("seed", range(8))
def test_split_balance_on_random_graphs(seed):
    rng = Random(seed)
    g = random_graph(40 + 5 * seed, 120 + 20 * seed, rng)
    _check_split(g, euler_partition(g))


def test_merge_on_path_split():
    g = build_graph([(0, 1), (1, 2)], 3)
    split = euler_partition(g)
    assert split.left.m == split.right.m == 1
    chi_left = PartialColoring(split.left)
    chi_left.assign(0, 1)
    chi_right = PartialColoring(split.right)
    chi_right.assign(0, 1)
    colors, k = merge_colorings(g, split, chi_left, chi_right)
    assert k == 4  # disjoint palettes, right offset by k_left
    assert sorted(colors) == [1, 3]
    assert verify_colors(g, colors, k).proper


def test_merge_rejects_partial_input():
    g = build_graph([(0, 1), (1, 2)], 3)
    split = euler_partition(g)
    chi_left = PartialColoring(split.left)  # left edge left uncolored
    chi_right = PartialColoring(split.right)
    chi_right.assign(0, 1)
    with pytest.raises(ImproperInputError):
        merge_colorings(g, split, chi_left, chi_right)


@pytest.mark.parametrize("seed", range(10))
def test_merged_palette_bounds(seed):
    rng = Random(100 + seed)
    g = random_graph(30, 70 + 5 * seed, rng)
    split = euler_partition(g)
    sides = []
    for child in (split.left, split.right):
        chi = PartialColoring(child)
        color_edges(child, chi, rng)
        sides.append(chi)
    colors, k = merge_colorings(g, split, *sides)
    # each side needs at most ceil(max_degree / 2) + 2 colors, so the
    # merged palette sits in [max_degree + 2, max_degree + 4]
    assert g.max_degree + 2 <= k <= g.max_degree + 4
    rep = verify_colors(g, colors, k)
    assert rep.proper
    assert rep.uncolored == 0


def test_prune_weight_example():
    # 15 disjoint 3-vertex paths: max degree 2, so 3 classes survive, and
    # every edge has weight 1.  Class weights [10, 2, 7, 2, 9]: pruning
    # removes the two lightest (colors 2 and 4) and relabels the
    # survivors 1 -> 1, 3 -> 2, 5 -> 3.  Edge i and edge 15 + i share the
    # middle vertex of path i.
    g = build_graph([(3 * i, 3 * i + 1) for i in range(15)]
                    + [(3 * i + 1, 3 * i + 2) for i in range(15)], 45)
    colors = [1] * 10 + [2] * 2 + [3] * 7 + [4] * 2 + [5] * 9
    out = prune_min_weight_colors(g, colors, 5)
    assert out.k == 3
    remap = {1: 1, 3: 2, 5: 3}
    for e, old in enumerate(colors):
        if old in (2, 4):
            assert out.color[e] == 0
        else:
            assert out.color[e] == remap[old]
    assert sorted(out.uncolored) == [10, 11, 19, 20]


def _k4_fixture():
    # K4 (edge weight 3 each) plus two isolated edges (weight 1 each): max
    # degree 3, so 4 classes survive.  Class weights: 1 -> 6, 2 -> 6,
    # 3 -> 3, 4 -> 3, 5 -> 2; class 5 is the lightest.
    edges = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2), (4, 5), (6, 7)]
    return build_graph(edges, 8), [1, 1, 2, 2, 3, 4, 5, 5]


def test_prune_drops_the_lightest_class():
    g, colors = _k4_fixture()
    out = prune_min_weight_colors(g, colors, 5)
    assert out.k == 4
    assert sorted(out.uncolored) == [6, 7]
    assert out.color[:6] == [1, 1, 2, 2, 3, 4]


def test_prune_identity_when_palette_fits():
    g, _ = _k4_fixture()
    for colors, k in (([1, 1, 2, 2, 3, 3, 4, 4], 4), ([1, 1, 2, 2, 3, 3, 1, 1], 3)):
        out = prune_min_weight_colors(g, colors, k)
        assert out.k == g.max_degree + 1
        assert out.color == colors
        assert out.uncolored_count == 0


def test_prune_rejects_large_surplus():
    g, colors = _k4_fixture()
    with pytest.raises(ValueError, match="exceeds target"):
        prune_min_weight_colors(g, colors, 8)


def test_prune_rejects_partial_coloring():
    g, colors = _k4_fixture()
    colors[0] = 0
    with pytest.raises(ImproperInputError):
        prune_min_weight_colors(g, colors, 5)


def test_prune_rejects_improper_coloring():
    g, colors = _k4_fixture()
    clash = colors[:]
    clash[2] = 1  # edges 0 and 2 meet at vertex 0
    with pytest.raises(ImproperInputError, match="improper"):
        prune_min_weight_colors(g, clash, 5)
    with pytest.raises(ImproperInputError):
        prune_min_weight_colors(g, colors, 4)  # color 5 > k


def test_recursion_threshold_values():
    assert recursion_threshold(0) == float("inf")
    assert recursion_threshold(1) == float("inf")
    assert recursion_threshold(16) == pytest.approx(4.0)
    assert recursion_threshold(256) == pytest.approx(11.3137, abs=1e-4)
    assert recursion_threshold(2) == pytest.approx(2.8284, abs=1e-4)


def test_recursive_base_case_on_cycle():
    # max degree 2 never exceeds the threshold, so no split happens
    g = build_graph([(i, (i + 1) % 12) for i in range(12)], 12)
    trace = []
    chi = recursive_color_edges(g, Random(0), trace=trace)
    assert verify_proper(g, chi).proper
    assert chi.uncolored_count == 0
    assert len(trace) == 1
    node = trace[0]
    assert node.is_base and node.level == 0
    assert node.merged_palette is None and node.pruned_weight is None


def test_recursive_star_splits():
    g = gen_star(101)
    trace = []
    chi = recursive_color_edges(g, Random(3), trace=trace)
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.max_color <= g.max_degree + 1
    root = trace[-1]
    assert root.level == 0 and not root.is_base
    assert any(node.level > 0 for node in trace)
    assert g.max_degree + 2 <= root.merged_palette <= g.max_degree + 4


def test_recursive_node_invariants():
    g = gen_preferential_attachment(1500, 8, seed=5)
    trace = []
    recursive_color_edges(g, Random(11), trace=trace)
    internal = [node for node in trace if not node.is_base]
    assert internal, "expected at least one split on a heavy-tailed graph"
    for node in internal:
        assert node.max_degree + 2 <= node.merged_palette <= node.max_degree + 4
        # at most 3 of >= max_degree + 4 classes are pruned, and they are
        # the lightest, so repair weight <= 3 * W / (max_degree + 4)
        assert node.pruned_weight * (node.max_degree + 4) <= 3 * node.weight


CROSS_CASES = [
    ("star", lambda s: gen_star(1500)),
    ("mixed", lambda s: gen_star_plus_forests(1024, 3, seed=s)),
    ("er", lambda s: gen_erdos_renyi(800, 8000, seed=s)),
    ("pa", lambda s: gen_preferential_attachment(2000, 5, seed=s)),
    ("grid", lambda s: gen_grid(30, 30)),
]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name,make", CROSS_CASES, ids=[c[0] for c in CROSS_CASES])
def test_recursive_cross_validation(name, make, seed):
    g = make(seed)
    chi = recursive_color_edges(g, Random(seed * 7 + 1))
    rep = verify_proper(g, chi)
    assert rep.proper and rep.uncolored == 0
    assert rep.max_color <= g.max_degree + 1


def test_recursive_seed_determinism():
    g = gen_erdos_renyi(600, 6000, seed=2)
    runs = []
    for _ in range(2):
        trace = []
        chi = recursive_color_edges(g, Random(77), trace=trace)
        runs.append((chi.color[:], [(n.level, n.m, n.pruned_weight) for n in trace]))
    assert runs[0] == runs[1]
    other = recursive_color_edges(g, Random(78))
    assert other.color != runs[0][0]


def test_one_coloring_per_recursion_node(monkeypatch):
    builds = []
    init = PartialColoring.__init__

    def counting_init(self, g):
        builds.append(g.m)
        init(self, g)

    monkeypatch.setattr(PartialColoring, "__init__", counting_init)
    # On star-plus-forests no merged node prunes an edge; on preferential
    # attachment every merged node leaves edges to repair.
    for g, merged_nodes_color in (
        (gen_star_plus_forests(1024, 2, seed=1), False),
        (gen_preferential_attachment(1000, 10, seed=4), True),
    ):
        builds.clear()
        trace = []
        chi = recursive_color_edges(g, Random(1), trace=trace)
        # A base node colors every edge and a merged node only what its
        # prune left uncolored; only a node that colors builds an index.
        colors_here = [node.is_base or node.pruned_weight > 0 for node in trace]
        assert colors_here.count(False) == (0 if merged_nodes_color else 63)
        assert len(builds) == colors_here.count(True)
        assert (type(chi) is PartialColoring) == merged_nodes_color
        assert verify_proper(g, chi).proper and not chi.uncolored


# sha256 of the coloring dump, keyed by the class cost that prune ranks
# by.  Any change to split, merge, prune or repair that alters the output
# for a seed shows here; repair runs on this graph (pruned weight 113 in
# total).
GOLDEN_DUMPS = {
    "weight": "6230580e0f2dac717936cbc3b294b457d6d941bd0a9f81f8b153f5461b78c474",
}


@pytest.mark.parametrize("prune_key", sorted(GOLDEN_DUMPS))
def test_recursive_golden_dump(prune_key):
    g = gen_preferential_attachment(1000, 10, seed=4)
    chi = recursive_color_edges(g, Random(42))
    digest = hashlib.sha256(format_coloring(chi).encode()).hexdigest()
    assert digest == GOLDEN_DUMPS[prune_key]


# sha256 of each split's four id lists, on every generator family at sizes
# with max degree > 2: open tours (stars), odd closed tours (erdos-renyi,
# preferential attachment) and even ones (grids).  Any change to the tour
# walk or the side choices shows here.
GOLDEN_SPLITS = [
    (gen_star, (9,), "9c27cb88e8db2d2205e8ddc722c3be72080257183fb651c616560e90e98d4294"),
    (gen_star, (200,), "cd4231ef6334bd80883274a5bc6dfa5b6204deb5ba306e964bd433f04512816a"),
    (gen_forest_union, (300, 3, 1),
     "0b8e2ffc1729a6f24050a94a099c6bcff24dd607cfcdf966b0b3edf1b47b2216"),
    (gen_forest_union, (800, 5, 2),
     "aedb4cd39cf63f6f2f4cbdf58aa4b85ecf45f3ee710ad5bbc942317a62a3f21a"),
    (gen_star_plus_forests, (256, 2, 1),
     "9f2202e13ee7dd6191bc06637d94328af161423051b7272a16452faadff3a7b6"),
    (gen_star_plus_forests, (1024, 3, 2),
     "2468b1d6eece72537b521c8299a2a3154f1904764fb46a5ae055ca7bb7c5726b"),
    (gen_erdos_renyi, (100, 400, 1),
     "5a84dc8f460f9b23964223e52c68908b9c05daa170a304c4bf4b49cd8992f215"),
    (gen_erdos_renyi, (100, 400, 5),
     "377e4ebc4ebeebcfaf0880478ff356ac25472dc1935764ab205279ea7ca1f191"),
    (gen_erdos_renyi, (500, 3000, 2),
     "0a4e42561a33b3bd37927410211f52866fd90f0b12fbac5fc27df286207cf588"),
    (gen_preferential_attachment, (200, 3, 1),
     "23cd3daab4f4e088acc7a16340e67151f31b458c8de6e6e45ba49a54781cdee1"),
    (gen_preferential_attachment, (1000, 8, 2),
     "25a415b9acb8b15e361664bb8d06fb8b31c9a0077b1f025e3d70533836a46d00"),
    (gen_grid, (5, 7), "60d93d2afcced50a2a5b6b792714a7490daceee6c02022966155b0abdb06a962"),
    (gen_grid, (20, 13), "dec1034f7655c188c75e634e8d8646331e55ea35501cb56b04249c927919f14c"),
]


def test_euler_split_golden():
    got, want = {}, {}
    for make, args, digest in GOLDEN_SPLITS:
        split = euler_partition(make(*args))
        ids = (split.left_edges, split.right_edges, split.left_vertices, split.right_vertices)
        got[make.__name__, args] = hashlib.sha256(repr(ids).encode()).hexdigest()
        want[make.__name__, args] = digest
    assert got == want


def test_level_stats_on_clean_runs():
    for g, seed in (
        (gen_star_plus_forests(1024, 2, seed=6), 21),
        (gen_preferential_attachment(1500, 8, seed=3), 22),
        (gen_erdos_renyi(500, 7000, seed=1), 23),
    ):
        trace = []
        recursive_color_edges(g, Random(seed), trace=trace)
        stats = collect_level_stats(trace)
        assert stats and stats[0]["level"] == 0
        assert stats[0]["delta_ref"] == g.max_degree
        assert len(stats[0]["subgraphs"]) == 1
        for level in stats:
            assert level["violations"] == []
        # levels halve the degree reference
        for a, b in zip(stats, stats[1:]):
            assert b["delta_ref"] == pytest.approx(a["delta_ref"] / 2)


def test_level_stats_flags_synthetic_violations():
    trace = [
        RecursionNode(
            level=2,
            m=1,
            max_degree=10,  # not halved
            weight=40,  # not halved
            vertices=[1],  # vertex 0 (degree 10) is missing
            degrees=[2],
            is_base=True,
            merged_palette=None,
            pruned_weight=None,
        ),
        RecursionNode(
            level=0,
            m=10,
            max_degree=10,
            weight=40,
            vertices=[0, 1],
            degrees=[10, 2],
            is_base=False,
            merged_palette=None,
            pruned_weight=None,
        ),
    ]
    root_stats, stats = collect_level_stats(trace)
    assert root_stats["level"] == 0 and root_stats["violations"] == []
    assert stats["level"] == 2
    text = "\n".join(stats["violations"])
    assert "max degree" in text
    assert "weight sum" in text
    assert "is absent" in text


def test_level_stats_degree_bounds_are_inclusive():
    # At level 2 a root degree of 12 halves twice to 3, so degrees and max
    # degrees 1 and 5 sit exactly on the +-2 bounds; 0 and 6 are past them.
    def node(level, degree, max_degree):
        return RecursionNode(level, degree, max_degree, degree, [0], [degree], level > 0, None, None)

    trace = [node(2, 1, 1), node(2, 5, 5), node(2, 0, 1), node(2, 6, 5), node(0, 12, 12)]
    root_stats, stats = collect_level_stats(trace)
    assert root_stats["violations"] == []
    assert stats["violations"] == [
        "level 2 subgraph 2: vertex 0 degree 0 outside 12/4 +- 2",
        "level 2 subgraph 3: vertex 0 degree 6 outside 12/4 +- 2",
    ]


def test_level_stats_empty_trace():
    assert collect_level_stats([]) == []
