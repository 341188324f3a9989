"""Graph construction, weights, degeneracy, and edge-list round trips."""

import gc
import io
import tracemalloc
from random import Random

import pytest
from hypothesis import given

from _util import graphs, random_graph
from edgecolor.cli import main
from edgecolor.generators import GenSpec, gen_erdos_renyi, gen_forest_union, generate
from edgecolor.graph import (
    DuplicateEdgeError,
    EdgeError,
    GraphError,
    ParseError,
    SelfLoopError,
    VertexOutOfRangeError,
    build_graph,
    degeneracy,
    edge_weight,
    graph_stats,
    graph_weight,
    randbelow,
    read_edge_list,
    write_edge_list,
)
from edgecolor.recursive import euler_partition
from oracles import canonical_edge_list

TRIANGLE = [(0, 1), (1, 2), (2, 0)]


def test_empty_graph():
    g = build_graph([], 3)
    assert (g.n, g.m, g.max_degree) == (3, 0, 0)
    assert g.degree == [0, 0, 0]


def test_triangle():
    g = build_graph(TRIANGLE, 3)
    assert g.max_degree == 2
    assert g.degree == [2, 2, 2]
    assert g.endpoints[1] == (1, 2)
    # every edge id appears exactly twice across adjacency lists
    seen = [eid for adj in g.adjacency for eid in adj]
    assert sorted(seen) == [0, 0, 1, 1, 2, 2]


def test_duplicate_edge_rejected():
    with pytest.raises(DuplicateEdgeError) as err:
        build_graph([(0, 1), (0, 1)], 2)
    assert err.value.index == 1
    with pytest.raises(DuplicateEdgeError):
        build_graph([(0, 1), (1, 0)], 2)  # unordered duplicate


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError) as err:
        build_graph([(0, 1), (2, 2)], 3)
    assert err.value.index == 1
    assert err.value.edge == (2, 2)


def test_vertex_out_of_range_rejected():
    with pytest.raises(VertexOutOfRangeError):
        build_graph([(0, 3)], 3)
    with pytest.raises(VertexOutOfRangeError):
        build_graph([(-1, 0)], 3)


def test_other_endpoint():
    g = build_graph([(4, 2)], 5)
    assert g.other_endpoint(0, 4) == 2
    assert g.other_endpoint(0, 2) == 4
    with pytest.raises(ValueError):
        g.other_endpoint(0, 1)


@given(graphs())
def test_degree_sum_is_twice_m(g):
    assert sum(g.degree) == 2 * g.m
    assert g.max_degree == max(g.degree, default=0)
    assert all(len(g.adjacency[v]) == g.degree[v] for v in range(g.n))


def test_edge_weight_examples():
    star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    assert [edge_weight(star, e) for e in range(3)] == [1, 1, 1]
    tri = build_graph(TRIANGLE, 3)
    assert [edge_weight(tri, e) for e in range(3)] == [2, 2, 2]
    path = build_graph([(0, 1), (1, 2)], 3)
    assert edge_weight(path, 0) == 1  # min(d=1, d=2)


def test_graph_weight_examples():
    star = build_graph([(0, 1), (0, 2), (0, 3)], 4)
    assert graph_weight(star) == 3
    tri = build_graph(TRIANGLE, 3)
    assert graph_weight(tri) == 6
    assert graph_weight(tri) <= 2 * tri.m * 2  # arboricity 2


def test_graph_weight_forest_union_oracle():
    g = gen_forest_union(10, 2, seed=3)
    # naive per-edge recomputation from adjacency lengths
    naive = sum(min(len(g.adjacency[u]), len(g.adjacency[v])) for u, v in g.endpoints)
    assert graph_weight(g) == naive
    assert graph_weight(g) <= 2 * g.m * 2 <= 72


@given(graphs())
def test_graph_weight_matches_naive(g):
    naive = sum(min(g.degree[u], g.degree[v]) for u, v in g.endpoints)
    assert graph_weight(g) == naive


def _degeneracy_naive(g):
    """Quadratic reference: repeatedly delete a minimum-degree vertex."""
    deg = list(g.degree)
    alive = set(range(g.n))
    best = 0
    while alive:
        v = min(alive, key=lambda x: (deg[x], x))
        best = max(best, deg[v])
        alive.remove(v)
        for e in g.adjacency[v]:
            u = g.other_endpoint(e, v)
            if u in alive:
                deg[u] -= 1
    return best


def test_degeneracy_examples():
    forest = build_graph([(0, 1), (1, 2), (3, 4)], 5)
    assert degeneracy(forest) == 1
    assert degeneracy(build_graph(TRIANGLE, 3)) == 2
    k5 = build_graph([(u, v) for u in range(5) for v in range(u + 1, 5)], 5)
    assert degeneracy(k5) == 4
    assert degeneracy(build_graph([], 0)) == 0


@given(graphs())
def test_degeneracy_matches_naive(g):
    assert degeneracy(g) == _degeneracy_naive(g)


def test_degeneracy_matches_naive_larger_seeded():
    for seed in range(10):
        rng = Random(seed)
        n = rng.randrange(10, 40)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = random_graph(n, m, rng)
        assert degeneracy(g) == _degeneracy_naive(g)


def test_graph_stats():
    tri = build_graph(TRIANGLE, 3)
    s = graph_stats(tri)
    assert (s.max_degree, s.graph_weight, s.degeneracy) == (2, 6, 2)
    empty = graph_stats(build_graph([], 2))
    assert (empty.max_degree, empty.graph_weight, empty.degeneracy) == (0, 0, 0)


def test_read_edge_list_basic():
    g = read_edge_list("3 2\n0 1\n1 2\n")
    assert canonical_edge_list(g) == [(0, 1), (1, 2)]
    withcomments = read_edge_list("# a path\n\n3 2  # header\n0 1\n\n1 2\n")
    assert canonical_edge_list(withcomments) == [(0, 1), (1, 2)]


def test_read_edge_list_structural_errors():
    with pytest.raises(SelfLoopError):
        read_edge_list("2 1\n0 0\n")
    with pytest.raises(VertexOutOfRangeError):
        read_edge_list("2 1\n0 5\n")


def test_read_edge_list_parse_errors():
    with pytest.raises(ParseError) as err:
        read_edge_list("3 2\n0 1\nbogus line\n")
    assert err.value.line_no == 3
    with pytest.raises(ParseError):
        read_edge_list("")  # missing header
    with pytest.raises(ParseError):
        read_edge_list("3 2\n0 1\n")  # fewer edges than promised
    with pytest.raises(ParseError):
        read_edge_list("3 1\n0 1\n1 2\n")  # more edges than promised
    with pytest.raises(ParseError):
        read_edge_list("3\n")  # header needs two fields
    assert issubclass(ParseError, GraphError)


def test_read_edge_list_errors_name_their_line():
    with pytest.raises(SelfLoopError) as err:
        read_edge_list("# g\n3 2\n0 1\n\n1 1\n")
    assert str(err.value) == "line 5: edge 1 (1, 1) is a self-loop"
    assert (err.value.index, err.value.edge) == (1, (1, 1))
    with pytest.raises(DuplicateEdgeError, match="^line 3: edge 1 "):
        read_edge_list("3 2\n0 1\n1 0\n")
    with pytest.raises(VertexOutOfRangeError, match="^line 4: edge 0 "):
        read_edge_list("2 1\n\n\n0 5\n")
    for cls in (SelfLoopError, DuplicateEdgeError, VertexOutOfRangeError):
        assert issubclass(cls, EdgeError)
    # The count mismatch names the header's own line.
    with pytest.raises(ParseError, match="^line 3: header promises 2 edges, found 1$"):
        read_edge_list("# c\n# d\n3 2\n0 1\n")
    with pytest.raises(ParseError, match="^line 4: more than 1 edge lines$"):
        read_edge_list("3 1\n0 1\n\n1 2\n")
    with pytest.raises(ParseError, match="^line 2: header counts must be non-negative$"):
        read_edge_list("# x\n-1 0\n")
    with pytest.raises(ParseError, match="^line 1: missing 'n m' header$"):
        read_edge_list("# only a comment\n\n")
    # Integers are ASCII decimal: no Arabic-Indic digits, no "+", no "_".
    for bad in ("\u0660 \u0661", "+1 2", "1 0_2"):
        with pytest.raises(ParseError, match="^line 3: expected two integers, got "):
            read_edge_list(f"3 2\n0 1\n{bad}\n")
    with pytest.raises(ParseError, match="^line 2: not valid UTF-8$"):
        read_edge_list("3 1\n# caf\udce9\n0 1\n")


def test_read_edge_list_from_a_file(tmp_path):
    text = "# a path\n3 2\r\n0 1\n\n1 2  # last\n"
    path = tmp_path / "p.edges"
    path.write_text(text)
    with path.open() as fh:
        g = read_edge_list(fh)
    assert write_edge_list(g) == write_edge_list(read_edge_list(text)) == "3 2\n0 1\n1 2\n"
    path.write_text("3 2\n0 1\n\n1 1\n")
    with path.open() as fh, pytest.raises(SelfLoopError, match="^line 4: "):
        read_edge_list(fh)


def test_read_edge_list_stops_at_the_first_bad_line():
    fh = io.StringIO("3 2\n1 1\n0 1\nnot read\n")
    with pytest.raises(SelfLoopError, match="^line 2: "):
        read_edge_list(fh)
    assert fh.readline() == "0 1\n"


def test_read_edge_list_bounds_n_by_the_edges(tmp_path, capsys):
    # Only isolated vertices lie beyond 2m, so a header may declare at
    # most 2**20 of them; a bigger n fails before any allocation.
    tracemalloc.start()
    try:
        just_over = f"# big\n{2 * 2 + 2**20 + 1} 2\n0 1\n2 3\n"
        for text, line in (("10000000000 0\n", 1), (just_over, 2)):
            with pytest.raises(ParseError, match=f"^line {line}: header n=\\d+ exceeds 2\\*m"):
                read_edge_list(text)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert read_edge_list("5 0\n").n == 5
    graph_path = tmp_path / "huge.edges"
    graph_path.write_text("10000000000 0\n")
    assert main(["color", str(graph_path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: header n=10000000000 exceeds 2*m + 1048576\n"
    )
    assert not graph_path.with_suffix(".colors").exists()


@given(graphs())
def test_write_read_round_trip(g):
    back = read_edge_list(write_edge_list(g))
    assert back.n == g.n
    assert canonical_edge_list(back) == canonical_edge_list(g)
    # second round trip is byte-identical
    assert write_edge_list(back) == write_edge_list(g)


@pytest.mark.parametrize("seed", range(5))
def test_randbelow_draws_what_randrange_draws(seed):
    # randbelow runs randrange's own getrandbits rejection loop, so a seed
    # gives the same values; this is why the golden digests of the seeded
    # generators and colorers did not move when they switched to it.
    for n in (1, 2, 3, 7, 8, 9, 255, 256, 257, 3000, 2**32, 2**32 + 1, 10**20):
        ours, theirs = Random(seed), Random(seed)
        assert [randbelow(ours, n) for _ in range(200)] == [
            theirs.randrange(n) for _ in range(200)
        ]


@pytest.mark.parametrize("n", [0, -1])
def test_randbelow_rejects_an_empty_range(n):
    # getrandbits(0) is always 0, so without the check the loop never ends.
    with pytest.raises(ValueError):
        randbelow(Random(0), n)


# The benchmark's two workloads (edgebench/run.py), at seed 1.
WORKLOADS = {
    "hub": GenSpec(family="star-plus-forests", n=2**11, alpha=2, seed=1),
    "flat": GenSpec(family="erdos-renyi", n=3_000, m=15_000, seed=1),
}


@pytest.mark.parametrize("spec", WORKLOADS.values(), ids=WORKLOADS.keys())
def test_graphs_hold_one_int_object_per_vertex_id(spec):
    # build_graph reuses the first int object it sees for each vertex id,
    # whether the ids were drawn, parsed or renumbered by a split.
    g = generate(spec)
    split = euler_partition(g)
    for h in (g, read_edge_list(write_edge_list(g)), split.left, split.right):
        ids = [x for pair in h.endpoints for x in pair]
        assert len({id(x) for x in ids}) == len(set(ids))


def test_read_edge_list_keeps_the_flat_graph_under_150_bytes_per_edge():
    # One int object per endpoint, as each parsed pair brings, costs
    # about 180 bytes per edge here; shared vertex ids about 133.
    text = write_edge_list(gen_erdos_renyi(3_000, 15_000, seed=1))
    gc.collect()
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        g = read_edge_list(text)
        after, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (after - before) / g.m <= 150
