"""Graph container, generators, and matching plumbing."""

import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awakesim import graphs
from awakesim.graphs import (Graph, Matching, canon, complete_graph,
                             cycle_graph, gen_bipartite, gen_gnp, path_graph,
                             petersen_graph, star_graph)
from awakesim.rng import node_rng, uniform01
from test_mis import small_graphs


def test_canon_orders_endpoints():
    assert canon(3, 1) == (1, 3)
    assert canon(1, 3) == (1, 3)


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)])
    assert g.m == 3
    assert g.neighbors(1) == (0, 2)
    assert g.degree(2) == 2
    assert g.max_degree == 2
    assert g.has_edge(1, 0) and not g.has_edge(0, 3)
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1)], sides=[0, 2])


def test_induced_keeps_sides_and_ids():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)], sides=[0, 1, 0, 1, 0])
    sub, ids = g.induced([1, 2, 4])
    assert ids == (1, 2, 4)
    assert sub.n == 3
    assert sub.edges() == [(0, 1)]  # the 1-2 edge survives
    assert sub.sides == (1, 0, 0)


def test_induced_rejects_ids_out_of_range():
    for g in (path_graph(4), Graph(4, np.array([(0, 1), (1, 2), (2, 3)]))):
        for nodes, bad in (([-1, 0], -1), ([0, 4], 4), ([2, -5, 9], -5)):
            with pytest.raises(ValueError, match=f"node {bad} out of range for n=4"):
                g.induced(nodes)


@st.composite
def edge_lists(draw):
    """``(n, pairs, sides)`` with repeated edges in both orientations; node
    ids above 256 are not interned by Python."""
    n = draw(st.integers(0, 12) | st.integers(250, 300))
    node = st.integers(0, max(n - 1, 0))
    pairs = [] if n < 2 else draw(st.lists(
        st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=40))
    if pairs:
        repeats = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                                max_size=10))
        pairs += [(v, u) if flip else (u, v) for (u, v), flip in repeats]
    sides = draw(st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, pairs, sides


def _both_backings(n, pairs, sides):
    return (Graph(n, pairs, sides=sides),
            Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2), sides=sides))


def _assert_same_graph(a, b):
    assert (b.n, b.m, b.max_degree) == (a.n, a.m, a.max_degree)
    assert type(b.m) is int and type(b.max_degree) is int
    assert b.edge_set == a.edge_set and b.adj == a.adj and b.edges() == a.edges()
    # both views hold one int object per node, not one per entry
    shared = {id(w) for nbrs in b.adj for w in nbrs}
    assert all(id(u) in shared and id(v) in shared for u, v in b.edge_set)
    assert sys.getsizeof(b.edge_set) == sys.getsizeof(a.edge_set)
    for x, y in zip(b.csr(), a.csr()):
        assert x.dtype == y.dtype == np.int64 and x.tolist() == y.tolist()
    assert b.sides == a.sides and b.to_text() == a.to_text()
    assert b == a and hash(b) == hash(a)


@settings(max_examples=200, deadline=None)
@given(case=edge_lists(), data=st.data())
def test_array_and_pair_backings_agree(case, data):
    n, pairs, sides = case
    _assert_same_graph(*_both_backings(n, pairs, sides))
    by_pairs, by_array = _both_backings(n, pairs, sides)
    nodes = [] if n == 0 else data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    sub_a, ids_a = by_pairs.induced(nodes)
    sub_b, ids_b = by_array.induced(nodes)
    # each graph took its own path, and neither built the other's backing
    assert by_pairs._csr is None and by_array._adj is None and sub_b._adj is None
    assert ids_b == ids_a and all(type(i) is int for i in ids_b)
    _assert_same_graph(sub_a, sub_b)


@settings(max_examples=100, deadline=None)
@given(case=edge_lists(), data=st.data())
def test_csr_view_keeps_a_pair_built_graph_on_the_pair_path(case, data):
    n, pairs, sides = case
    nodes = [] if n == 0 else data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    g = Graph(n, pairs, sides=sides)
    sub_a, ids_a = g.induced(nodes)
    g.csr()
    sub_b, ids_b = g.induced(nodes)
    # the pair path builds its subgraph from pairs, so with no CSR
    assert sub_a._csr is None and sub_b._csr is None
    assert ids_b == ids_a and sub_b.sides == sub_a.sides
    _assert_same_graph(sub_a, sub_b)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 6),
       pairs=st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=8))
def test_array_backing_raises_the_pair_loops_errors(n, pairs):
    def error(edges):
        try:
            Graph(n, edges)
        except ValueError as e:
            return str(e)
        return None

    assert error(np.array(pairs, dtype=np.int64).reshape(-1, 2)) == error(pairs)


@pytest.mark.parametrize("edges", [np.zeros(4, dtype=np.int64),
                                   np.zeros((2, 3), dtype=np.int64),
                                   np.zeros((1, 2, 2), dtype=np.int64),
                                   np.array([[0.0, 1.0]]),
                                   np.array([[True, False]])])
def test_edge_array_must_be_int_pairs(edges):
    with pytest.raises(ValueError, match=r"shape \(m, 2\)"):
        Graph(4, edges)


def test_text_round_trip():
    g = gen_gnp(17, 0.3, seed=4)
    back = Graph.from_text(g.to_text())
    assert back == g
    assert back.to_text() == g.to_text()


@settings(max_examples=100, deadline=None)
@given(g=small_graphs())
def test_text_round_trip_on_arbitrary_graphs(g):
    for h in (g, Graph(g.n)):  # and the edgeless graph on the same nodes
        back = Graph.from_text(h.to_text())
        assert (back.n, back.edge_set) == (h.n, h.edge_set)


def test_text_rejects_duplicates_and_trailing_lines():
    assert Graph.from_text("3 2\n0 1\n\n1 2\n\n") == path_graph(3)
    with pytest.raises(ValueError, match="line 3: duplicate edge 1 0"):
        Graph.from_text("3 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="line 4: unexpected text"):
        Graph.from_text("3 2\n0 1\n1 2\n0 2\n")
    with pytest.raises(ValueError, match="expected 2 edge lines, found 1"):
        Graph.from_text("3 2\n0 1\n")
    with pytest.raises(ValueError, match="line 3: expected 'u v', got '1 2 0'"):
        Graph.from_text("3 2\n0 1\n1 2 0\n")
    with pytest.raises(ValueError, match="line 1: expected 'n m'"):
        Graph.from_text("three 2\n")
    with pytest.raises(ValueError, match="line 1: edge count -1 is negative"):
        Graph.from_text("3 -1\n0 1")
    with pytest.raises(ValueError, match="line 1: edge count -2 is negative"):
        Graph.from_text("3 -2\n0 1\n1 2")


def test_gnp_deterministic_and_plausible():
    g1 = gen_gnp(200, 0.05, seed=9)
    g2 = gen_gnp(200, 0.05, seed=9)
    assert g1 == g2
    assert g1 != gen_gnp(200, 0.05, seed=10)
    expected = 0.05 * 200 * 199 / 2
    assert 0.6 * expected < g1.m < 1.4 * expected
    assert gen_gnp(50, 0.0, seed=1).m == 0
    assert gen_gnp(10, 1.0, seed=1).m == 45


def test_bipartite_sides_and_edges():
    g = gen_bipartite(6, 9, 0.4, seed=2)
    assert g.n == 15
    assert g.sides == tuple([0] * 6 + [1] * 9)
    for u, v in g.edges():
        assert g.sides[u] != g.sides[v]


# -- scalar reference generators ---------------------------------------------
# The per-edge generators that the block-vectorised ones replaced, kept as
# they were: one scalar draw and one binary search per edge.


def _pair_from_index(idx, n):
    # Decode a linear index over the upper triangle: row u holds pairs
    # (u, u+1)..(u, n-1).  Solve for the row with integer arithmetic.
    # Start of row u is S(u) = u*n - u*(u+1)/2.
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * n - mid * (mid + 1) // 2 <= idx:
            lo = mid
        else:
            hi = mid - 1
    u = lo
    start = u * n - u * (u + 1) // 2
    return (u, u + 1 + (idx - start))


def _skip_sample(total, p, seed, label):
    """Yield indices of a Bernoulli(p) subset of range(total) by skip lengths."""
    if total <= 0 or p <= 0.0:
        return
    if p >= 1.0:
        yield from range(total)
        return
    log1mp = math.log1p(-p)
    idx = -1
    k = 0
    while True:
        u = uniform01(node_rng(seed, 0, label, k))
        k += 1
        skip = int(math.log1p(-u) / log1mp)
        idx += 1 + skip
        if idx >= total:
            return
        yield idx


def _ref_indices(total, p, seed, label):
    # For p below about 1e-307 a gap is an infinite float and int() raises;
    # an infinite gap ends the stream.
    try:
        yield from _skip_sample(total, p, seed, label)
    except OverflowError:
        return


def ref_gen_gnp(n, p, seed):
    total = n * (n - 1) // 2
    edges = [_pair_from_index(i, n) for i in _ref_indices(total, p, seed, "gnp")]
    return Graph(n, edges)


def ref_gen_bipartite(nl, nr, p, seed):
    edges = []
    for idx in _ref_indices(nl * nr, p, seed, "gbip"):
        u, r = divmod(idx, nr)
        edges.append((u, nl + r))
    sides = [0] * nl + [1] * nr
    return Graph(nl + nr, edges, sides=sides)


probabilities = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 5e-324, 1e-9]),
                          st.floats(0.0, 1.0))
seeds = st.integers(0, 2 ** 63)


@pytest.mark.parametrize("block", [None, 1, 2, 7])
@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 60), nl=st.integers(0, 30), nr=st.integers(0, 30),
       p=probabilities, seed=seeds)
def test_generators_equal_scalar_reference(block, n, nl, nr, p, seed):
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graphs, "_SKIP_BLOCK", block)
        g, ref = gen_gnp(n, p, seed), ref_gen_gnp(n, p, seed)
        assert (g.n, g.edge_set) == (ref.n, ref.edge_set)
        b, ref = gen_bipartite(nl, nr, p, seed), ref_gen_bipartite(nl, nr, p, seed)
        assert (b.n, b.edge_set, b.sides) == (ref.n, ref.edge_set, ref.sides)


def test_generator_tiny_p_and_empty_sides():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gen_gnp(5000, 1e-300, 1).m == 0
        # the scalar loop raised OverflowError here: log1p(-u)/log1p(-p) is inf
        assert gen_gnp(5000, 5e-324, 1).m == 0
    g = gen_bipartite(0, 5, 0.5, 1)
    assert (g.n, g.m, g.sides) == (5, 0, (1,) * 5)
    g = gen_bipartite(5, 0, 0.5, 1)
    assert (g.n, g.m, g.sides) == (5, 0, (0,) * 5)


def test_skip_sample_rejects_index_space_that_could_wrap(monkeypatch):
    with pytest.raises(ValueError, match="too large"):
        graphs._skip_sample(1 << 62, 1e-300, 1, "gnp")
    monkeypatch.setattr(graphs, "_SKIP_BLOCK", 1)
    with pytest.raises(ValueError, match="too large"):
        graphs._skip_sample((1 << 62) - 1, 1e-300, 1, "gnp")
    idx = graphs._skip_sample(1 << 61, 1e-300, 1, "gnp")
    assert idx.dtype == "int64" and len(idx) == 0


def _generator_digest():
    h = hashlib.sha256()

    def feed(tag, g):
        h.update(f"{tag} n={g.n} sides={g.sides}\n".encode())
        h.update(repr(sorted(g.edge_set)).encode())

    for seed in (1, 7, 2 ** 63 - 5):
        for n in (0, 1, 2, 3, 7, 40, 257):
            for p in (0.0, 1e-300, 1e-9, 0.05, 0.5, 0.999, 1.0):
                feed(f"gnp {n} {p!r} {seed}", gen_gnp(n, p, seed))
        for nl, nr in ((0, 5), (5, 0), (3, 7), (40, 40), (256, 256)):
            for p in (0.0, 1e-9, 0.01, 0.3, 1.0):
                feed(f"gbip {nl} {nr} {p!r} {seed}", gen_bipartite(nl, nr, p, seed))
        feed(f"gnp 4096 10/n {seed}", gen_gnp(4096, 10 / 4096, seed))
    feed("gnp 2^16 10/n 1", gen_gnp(2 ** 16, 10 / 2 ** 16, 1))
    return h.hexdigest()


def test_generator_golden_digest():
    """Sorted edges and sides of a fixed generator corpus, including one
    G(2^16, 10/n), as computed by the scalar per-edge generators."""
    assert _generator_digest() == (
        "4ccc7fe0af2efada4604bf4132ab12c912b514c4f6e1a04a4ee04676471d87a6")


def test_named_families():
    assert cycle_graph(5).m == 5
    assert path_graph(5).m == 4
    assert complete_graph(5).m == 10
    assert star_graph(7).m == 7 and star_graph(7).degree(0) == 7
    p = petersen_graph()
    assert p.n == 10 and p.m == 15 and p.max_degree == 3


def test_matching_validates_disjointness():
    m = Matching([(0, 1), (2, 3)])
    assert len(m) == 2
    assert (1, 0) in m
    assert m.partner_map()[3] == 2
    with pytest.raises(ValueError):
        Matching([(0, 1), (1, 2)])


def test_matching_is_valid_in():
    g = path_graph(4)
    assert Matching([(0, 1), (2, 3)]).is_valid_in(g)
    assert not Matching([(0, 2)]).is_valid_in(g)  # not an edge of g
