"""Graph container, generators, and matching plumbing."""

import pytest
from hypothesis import given, settings

from awakesim.graphs import (Graph, Matching, canon, complete_graph,
                             cycle_graph, gen_bipartite, gen_gnp, path_graph,
                             petersen_graph, star_graph)
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
