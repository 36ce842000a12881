"""Exact solvers and verifiers, cross-checked against hand values and
a brute-force subset enumerator."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awakesim.errors import OracleTooLarge
from awakesim.graphs import (Graph, Matching, complete_graph, cycle_graph,
                             gen_bipartite, gen_gnp, path_graph,
                             petersen_graph, star_graph)
from awakesim.oracles import (exact_max_matching, exact_min_vertex_cover,
                              find_short_augmenting_path,
                              greedy_maximal_matching, max_bipartite_matching,
                              two_coloring, verify_matching, verify_mis,
                              verify_vertex_cover)
from test_mis import small_graphs


def brute_max_matching(g):
    """Reference by enumeration; only for very small graphs."""
    edges = g.edges()
    best = 0
    for k in range(len(edges), 0, -1):
        if k <= best:
            break
        for combo in combinations(edges, k):
            nodes = [v for e in combo for v in e]
            if len(nodes) == len(set(nodes)):
                best = max(best, k)
                break
    return best


def brute_min_cover(g):
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            s = set(combo)
            if all(u in s or v in s for u, v in g.edges()):
                return k
    return g.n


def ref_verify_mis(g, s):
    """Reference: the per-node loops that ``verify_mis`` replaced."""
    ss = set(s)
    if not all(0 <= v < g.n for v in ss):
        return False
    for v in ss:
        for w in g.adj[v]:
            if w in ss:
                return False
    for v in range(g.n):
        if v not in ss and not any(w in ss for w in g.adj[v]):
            return False
    return True


@st.composite
def mis_candidates(draw):
    """A graph and an id list: a greedy MIS, perhaps with one id dropped or
    added, or arbitrary ids, some negative or out of range; then perhaps
    repeated ids and numpy integers."""
    g = draw(small_graphs())
    kind = draw(st.sampled_from(("greedy", "dropped", "added", "ids")))
    if kind == "ids":
        s = draw(st.lists(st.integers(-3, g.n + 3), max_size=g.n + 2))
    else:
        s = []
        for v in draw(st.permutations(range(g.n))):
            if not any(w in s for w in g.adj[v]):
                s.append(v)
        if kind == "dropped" and s:
            s.pop(draw(st.integers(0, len(s) - 1)))
        elif kind == "added":
            s.append(draw(st.integers(-1, g.n)))
    if s and draw(st.booleans()):
        s += draw(st.lists(st.sampled_from(s), min_size=1, max_size=3))
    if draw(st.booleans()):
        s = [np.int64(v) for v in s]
    return g, s


@settings(max_examples=200, deadline=None)
@given(case=mis_candidates())
def test_verify_mis_matches_the_loop_reference(case):
    g, s = case
    assert verify_mis(g, s) == ref_verify_mis(g, s)


def test_verify_mis_hand_cases():
    g = cycle_graph(5)
    assert verify_mis(g, {0, 2})
    assert not verify_mis(g, {0, 1})      # adjacent
    assert not verify_mis(g, {0})         # 2 and 3 uncovered
    assert verify_mis(Graph(3), {0, 1, 2})  # edgeless: everyone joins
    assert verify_mis(Graph(0), []) and not verify_mis(Graph(0), [0])
    assert not verify_mis(g, {0, 2, -3})  # -3 must not wrap round to node 2
    assert verify_mis(g, [np.int64(0), 2, 2])


def test_verify_matching_and_cover():
    g = path_graph(4)
    assert verify_matching(g, Matching([(0, 1), (2, 3)]))
    assert not verify_matching(g, [(0, 2)])
    assert verify_vertex_cover(g, {1, 2})
    assert not verify_vertex_cover(g, {1})


def test_two_coloring():
    g = gen_bipartite(5, 7, 0.5, seed=1)
    colors = two_coloring(g)
    assert colors is not None
    assert all(colors[u] != colors[v] for u, v in g.edges())
    assert two_coloring(cycle_graph(5)) is None
    assert two_coloring(cycle_graph(6)) is not None


def test_petersen_values():
    # 3-regular, 10 nodes: perfect matching of size 5, min cover 6
    p = petersen_graph()
    assert len(exact_max_matching(p)) == 5
    assert len(exact_min_vertex_cover(p)) == 6


def test_small_family_values():
    assert len(exact_max_matching(cycle_graph(5))) == 2
    assert len(exact_min_vertex_cover(cycle_graph(5))) == 3
    assert len(exact_max_matching(complete_graph(6))) == 3
    assert len(exact_max_matching(star_graph(5))) == 1
    assert len(exact_min_vertex_cover(star_graph(5))) == 1


def test_exact_matching_against_enumeration():
    for seed in range(12):
        g = gen_gnp(9, 0.35, seed=seed)
        m = exact_max_matching(g)
        assert verify_matching(g, m)
        assert len(m) == brute_max_matching(g)


def test_exact_cover_against_enumeration():
    for seed in range(10):
        g = gen_gnp(9, 0.3, seed=100 + seed)
        c = exact_min_vertex_cover(g)
        assert verify_vertex_cover(g, c)
        assert len(c) == brute_min_cover(g)


def test_hopcroft_karp_matches_branch_and_bound():
    for seed in range(10):
        g = gen_bipartite(8, 8, 0.3, seed=seed)
        hk = max_bipartite_matching(g)
        assert verify_matching(g, hk)
        assert len(hk) == len(exact_max_matching(g))


def test_koenig_on_bipartite():
    # min cover size equals max matching size on bipartite graphs
    for seed in range(8):
        g = gen_bipartite(7, 7, 0.35, seed=40 + seed)
        cover = exact_min_vertex_cover(g)
        assert verify_vertex_cover(g, cover)
        assert len(cover) == len(max_bipartite_matching(g))


def test_oracle_size_caps():
    big = gen_gnp(30, 0.2, seed=1)
    with pytest.raises(OracleTooLarge):
        exact_max_matching(big)
    with pytest.raises(OracleTooLarge):
        exact_min_vertex_cover(big)


def test_find_short_augmenting_path():
    g = path_graph(4)
    m = Matching([(1, 2)])
    assert find_short_augmenting_path(g, m, 1) is None
    path = find_short_augmenting_path(g, m, 3)
    assert path == [0, 1, 2, 3] or path == [3, 2, 1, 0]
    # empty matching: any edge is a length-1 augmenting path
    p1 = find_short_augmenting_path(g, Matching(), 1)
    assert p1 is not None and len(p1) == 2
    # perfect matching: nothing to find
    assert find_short_augmenting_path(g, Matching([(0, 1), (2, 3)]), 9) is None


def test_greedy_maximal_matching():
    m = greedy_maximal_matching(path_graph(4))
    assert m == Matching([(0, 1), (2, 3)])
    for seed in range(10):
        g = gen_gnp(20, 0.2, seed=seed)
        m = greedy_maximal_matching(g)
        assert verify_matching(g, m)
        assert find_short_augmenting_path(g, m, 1) is None  # maximal
