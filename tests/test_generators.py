"""Graph family generators: shapes, bounds, determinism, spec parsing."""

import hashlib
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import edgecolor.generators
from _util import graphs
from edgecolor.generators import (
    FAMILIES,
    GenSpec,
    InfeasibleSpecError,
    _grow_forest,
    gen_erdos_renyi,
    gen_forest_union,
    gen_grid,
    gen_preferential_attachment,
    gen_star,
    gen_star_plus_forests,
    generate,
)
from edgecolor.graph import (
    build_graph,
    canonical_edge_list,
    degeneracy,
    graph_weight,
    write_edge_list,
)


def test_star_shapes():
    assert gen_star(1).m == 0
    g = gen_star(4)
    assert canonical_edge_list(g) == [(0, 1), (0, 2), (0, 3)]
    assert g.max_degree == 3
    assert graph_weight(g) == 3  # every edge has a degree-1 endpoint


def test_star_weight_is_n_minus_1():
    for n in (2, 17, 400):
        assert graph_weight(gen_star(n)) == n - 1


def test_forest_union_single_forest():
    g = gen_forest_union(100, 1, seed=3)
    assert g.m == 99
    assert degeneracy(g) <= 1


def test_forest_union_alpha2():
    g = gen_forest_union(100, 2, seed=7)
    assert g.m == 198  # both forests reached n - 1 edges
    assert degeneracy(g) <= 3  # union of alpha forests: <= 2 * alpha - 1
    assert graph_weight(g) <= 2 * g.m * 2


def test_forest_union_determinism():
    a = gen_forest_union(200, 3, seed=11)
    b = gen_forest_union(200, 3, seed=11)
    assert write_edge_list(a) == write_edge_list(b)
    c = gen_forest_union(200, 3, seed=12)
    assert write_edge_list(a) != write_edge_list(c)


def test_star_plus_forests_default():
    g = gen_star_plus_forests(256, 3, seed=9)
    assert g.degree[0] == 255  # the star saturates vertex 0
    assert g.max_degree == 255
    assert g.m <= 3 * 255
    assert degeneracy(g) <= 5
    assert graph_weight(g) <= 2 * g.m * 3


def test_star_plus_forests_hub_graph_is_pinned():
    # The benchmark's hub workload; any change to its generator shows here.
    g = gen_star_plus_forests(2**11, 2, seed=1)
    digest = hashlib.sha256(write_edge_list(g).encode()).hexdigest()
    assert digest == "b8352089bb5d2e053f615829af1af4911b663f3df8567fffa852f8593dc88c7d"


def test_erdos_renyi_flat_graph_is_pinned():
    # The benchmark's flat workload; any change to its generator or to the
    # edge-list bytes shows here.
    g = gen_erdos_renyi(3000, 15000, seed=1)
    digest = hashlib.sha256(write_edge_list(g).encode()).hexdigest()
    assert digest == "061efa2cb05af967f02751462df99f8562e611eccd8a99466a440d46e98b7a37"


@pytest.mark.parametrize("alpha", [2, 3])
def test_star_plus_forests_forests_reach_their_target(monkeypatch, alpha):
    # With a full star, vertex 0 has every pair taken and gets no forest
    # edge; each forest still spans the other n - 1 vertices.
    n = 2048
    added = []
    grow = edgecolor.generators._grow_forest

    def recording_grow(n, rng, taken, out, target):
        added.append(grow(n, rng, taken, out, target))
        return added[-1]

    monkeypatch.setattr(edgecolor.generators, "_grow_forest", recording_grow)
    g = gen_star_plus_forests(n, alpha, seed=1)
    assert added == [n - 2] * (alpha - 1)
    assert g.degree[0] == n - 1


@given(graphs(min_n=1, max_n=12), st.integers(0, 14), st.integers(0, 2**32 - 1))
def test_grow_forest_adds_a_forest_of_free_pairs(g, target, seed):
    before = set(g.endpoints)
    taken, out = set(before), []
    added = _grow_forest(g.n, Random(seed), taken, out, target)
    assert added == len(out) <= target
    assert not before & set(out)
    assert taken == before | set(out)
    assert degeneracy(build_graph(out, g.n)) <= 1  # acyclic


@given(st.integers(1, 300), st.integers(0, 400), st.integers(0, 2**32 - 1))
def test_grow_forest_with_nothing_taken_reaches_its_target(n, target, seed):
    out = []
    assert _grow_forest(n, Random(seed), set(), out, target) == min(target, n - 1)
    assert degeneracy(build_graph(out, n)) <= 1


def test_star_plus_forests_knobs():
    g = gen_star_plus_forests(1000, 2, seed=5, star_leaves=100, forest_edges=500)
    assert g.m == 600
    assert g.degree[0] >= 100  # star leaves, plus any forest hits on 0
    assert g.max_degree >= 100
    assert degeneracy(g) <= 3


def test_star_plus_forests_knob_validation():
    with pytest.raises(InfeasibleSpecError, match="star_leaves"):
        gen_star_plus_forests(10, 2, seed=0, star_leaves=10)
    with pytest.raises(InfeasibleSpecError, match="star_leaves"):
        gen_star_plus_forests(10, 2, seed=0, star_leaves=0)
    with pytest.raises(InfeasibleSpecError, match="forest_edges"):
        gen_star_plus_forests(10, 2, seed=0, forest_edges=-1)


def test_erdos_renyi_dense_is_complete():
    g = gen_erdos_renyi(10, 45, seed=1)
    assert g.m == 45
    assert canonical_edge_list(g) == [(u, v) for u in range(10) for v in range(u + 1, 10)]


def test_erdos_renyi_sparse():
    g = gen_erdos_renyi(30, 50, seed=2)
    assert g.m == 50
    assert g.n == 30  # build_graph enforces simplicity


def test_erdos_renyi_infeasible():
    with pytest.raises(InfeasibleSpecError, match="45 possible"):
        gen_erdos_renyi(10, 46, seed=0)


def test_erdos_renyi_determinism():
    a = gen_erdos_renyi(50, 200, seed=4)
    b = gen_erdos_renyi(50, 200, seed=4)
    assert write_edge_list(a) == write_edge_list(b)


def test_preferential_attachment_edge_count():
    g = gen_preferential_attachment(100, 3, seed=0)
    assert g.m == 3 + 97 * 3  # triangle seed, then min(3, v) per newcomer
    assert g.n == 100
    g2 = gen_preferential_attachment(6, 4, seed=0)
    assert g2.m == 3 + min(4, 3) + min(4, 4) + min(4, 5)


def test_preferential_attachment_determinism():
    a = gen_preferential_attachment(300, 4, seed=8)
    b = gen_preferential_attachment(300, 4, seed=8)
    assert write_edge_list(a) == write_edge_list(b)


def test_grid_2x2_is_a_cycle():
    g = gen_grid(2, 2)
    assert canonical_edge_list(g) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert g.max_degree == 2


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 7), (3, 4), (10, 10)])
def test_grid_edge_count(rows, cols):
    g = gen_grid(rows, cols)
    assert g.n == rows * cols
    assert g.m == rows * (cols - 1) + cols * (rows - 1)
    assert degeneracy(g) <= (1 if rows == 1 or cols == 1 else 2)


def test_generate_dispatch_covers_all_families():
    specs = {
        "star": GenSpec(family="star", n=5),
        "forest-union": GenSpec(family="forest-union", n=20, alpha=2, seed=1),
        "star-plus-forests": GenSpec(family="star-plus-forests", n=20, alpha=2, seed=1),
        "erdos-renyi": GenSpec(family="erdos-renyi", n=20, m=30, seed=1),
        "preferential-attachment": GenSpec(
            family="preferential-attachment", n=20, degree=2, seed=1
        ),
        "grid": GenSpec(family="grid", rows=4, cols=5),
    }
    assert set(specs) == set(FAMILIES)
    for spec in specs.values():
        g = generate(spec)
        assert g.m > 0


@pytest.mark.parametrize(
    "spec",
    [
        GenSpec(family="nonsense", n=4),
        GenSpec(family="star"),
        GenSpec(family="star", n=0),
        GenSpec(family="forest-union", n=5),
        GenSpec(family="star-plus-forests", n=5, alpha=1),
        GenSpec(family="erdos-renyi", n=5),
        GenSpec(family="erdos-renyi", n=5, m=-1),
        GenSpec(family="preferential-attachment", n=2, degree=1),
        GenSpec(family="grid", rows=0, cols=3),
    ],
)
def test_generate_rejects_bad_specs(spec):
    with pytest.raises(InfeasibleSpecError):
        generate(spec)


def test_genspec_round_trip():
    spec = GenSpec(family="erdos-renyi", n=10, m=20, seed=3)
    d = spec.to_dict()
    assert d == {"family": "erdos-renyi", "n": 10, "m": 20, "seed": 3}


def test_known_arboricity():
    assert GenSpec(family="star", n=9).known_arboricity() == 1
    assert GenSpec(family="forest-union", n=9, alpha=4).known_arboricity() == 4
    assert GenSpec(family="star-plus-forests", n=9, alpha=2).known_arboricity() == 2
    assert GenSpec(family="grid", rows=3, cols=3).known_arboricity() == 2
    assert GenSpec(family="grid", rows=1, cols=9).known_arboricity() == 1
    assert GenSpec(family="erdos-renyi", n=9, m=3).known_arboricity() is None
    assert GenSpec(family="preferential-attachment", n=9, degree=2).known_arboricity() is None
