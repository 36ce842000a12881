"""Exact solvers and verification predicates.

These are the independent reference implementations the randomized algorithms
are graded against.  The general-graph solvers are branch-and-bound searches
with a small size cap; bipartite graphs get exact polynomial algorithms with
no cap.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from .errors import OracleTooLarge
from .graphs import Edge, Graph, Matching, canon

ORACLE_NODE_CAP = 24


def verify_mis(g: Graph, s: Iterable[int]) -> bool:
    """True iff ``s`` is an independent set and no node can be added."""
    ss = set(s)
    if not all(0 <= v < g.n for v in ss):
        return False
    in_s = np.zeros(g.n, dtype=bool)
    in_s[np.fromiter(ss, dtype=np.int64, count=len(ss))] = True
    indptr, indices = g.csr()
    owner = np.repeat(np.arange(g.n), np.diff(indptr))
    if (in_s[owner] & in_s[indices]).any():
        return False
    covered = in_s.copy()
    covered[owner[in_s[indices]]] = True
    return bool(covered.all())


def verify_matching(g: Graph, m) -> bool:
    """True iff ``m`` is a set of node-disjoint edges of ``g``."""
    edges = m.edge_set if isinstance(m, Matching) else {canon(u, v) for u, v in m}
    seen: Set[int] = set()
    for u, v in edges:
        if (u, v) not in g.edge_set:
            return False
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def verify_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    """True iff every edge of ``g`` has at least one endpoint in ``cover``."""
    cs = set(cover)
    if not all(0 <= v < g.n for v in cs):
        return False
    return all(u in cs or v in cs for u, v in g.edge_set)


def two_coloring(g: Graph) -> Optional[List[int]]:
    """BFS 2-coloring; returns side labels, or None if an odd cycle exists."""
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = [root]
        while queue:
            v = queue.pop()
            for w in g.adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def _bipartite_sides(g: Graph) -> Optional[List[int]]:
    if g.sides is not None:
        return list(g.sides)
    return two_coloring(g)


def max_bipartite_matching(g: Graph, sides: Optional[List[int]] = None) -> Matching:
    """Maximum matching in a bipartite graph via repeated shortest augmentation."""
    if sides is None:
        sides = _bipartite_sides(g)
    if sides is None:
        raise ValueError("graph is not bipartite")
    left = [v for v in range(g.n) if sides[v] == 0]
    INF = float("inf")
    pair: List[int] = [-1] * g.n
    dist: Dict[int, float] = {}

    def bfs() -> bool:
        queue = []
        for u in left:
            if pair[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        reachable_free = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for w in g.adj[u]:
                nxt = pair[w]
                if nxt == -1:
                    reachable_free = True
                elif dist.get(nxt, INF) == INF:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        return reachable_free

    def dfs(u: int) -> bool:
        for w in g.adj[u]:
            nxt = pair[w]
            if nxt == -1 or (dist.get(nxt, INF) == dist[u] + 1 and dfs(nxt)):
                pair[u] = w
                pair[w] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in left:
            if pair[u] == -1:
                dfs(u)
    return Matching((u, pair[u]) for u in left if pair[u] != -1)


def _greedy_matching_size(adj_mask: List[int], avail: int) -> int:
    """Greedy matching size on the bitmask graph, used as a warm lower bound."""
    size = 0
    rem = avail
    v = 0
    while rem:
        low = rem & -rem
        v = low.bit_length() - 1
        rem ^= low
        nbrs = adj_mask[v] & rem
        if nbrs:
            u = (nbrs & -nbrs).bit_length() - 1
            rem &= ~(1 << u)
            size += 1
    return size


def exact_max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching.

    Bipartite graphs (detected or labeled) are solved exactly at any size.
    General graphs use branch and bound and must have at most
    ``ORACLE_NODE_CAP`` nodes; larger inputs raise :class:`OracleTooLarge`.
    """
    sides = _bipartite_sides(g)
    if sides is not None:
        return max_bipartite_matching(g, sides)
    if g.n > ORACLE_NODE_CAP:
        raise OracleTooLarge(f"general graph has {g.n} > {ORACLE_NODE_CAP} nodes")

    adj_mask = [0] * g.n
    for u, v in g.edge_set:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u

    best_size = 0
    best_edges: List[Edge] = []
    stack_edges: List[Edge] = []

    def upper_bound(avail: int) -> int:
        cnt = 0
        rem = avail
        while rem:
            low = rem & -rem
            v = low.bit_length() - 1
            rem ^= low
            if adj_mask[v] & avail:
                cnt += 1
        return cnt // 2

    def rec(avail: int, cur: int) -> None:
        nonlocal best_size, best_edges
        if cur > best_size:
            best_size = cur
            best_edges = list(stack_edges)
        if cur + upper_bound(avail) <= best_size:
            return
        # pick the lowest available node that still has an available neighbor
        rem = avail
        v = -1
        while rem:
            low = rem & -rem
            cand = low.bit_length() - 1
            rem ^= low
            if adj_mask[cand] & avail:
                v = cand
                break
        if v == -1:
            return
        nbrs = adj_mask[v] & avail
        while nbrs:
            lowu = nbrs & -nbrs
            u = lowu.bit_length() - 1
            nbrs ^= lowu
            stack_edges.append(canon(v, u))
            rec(avail & ~((1 << v) | (1 << u)), cur + 1)
            stack_edges.pop()
        # branch with v unmatched
        rec(avail & ~(1 << v), cur)

    full = (1 << g.n) - 1
    best_size = _greedy_matching_size(adj_mask, full) - 1
    rec(full, 0)
    return Matching(best_edges)


def exact_min_vertex_cover(g: Graph) -> Set[int]:
    """Minimum vertex cover; Konig construction on bipartite graphs, branch
    and bound (cap ``ORACLE_NODE_CAP``) otherwise."""
    sides = _bipartite_sides(g)
    if sides is not None:
        return _koenig_cover(g, sides)
    if g.n > ORACLE_NODE_CAP:
        raise OracleTooLarge(f"general graph has {g.n} > {ORACLE_NODE_CAP} nodes")

    adj_mask = [0] * g.n
    for u, v in g.edge_set:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u

    best_cover: Set[int] = set(range(g.n))

    def matching_lb(active_edges: List[Edge], in_cover: Set[int]) -> int:
        used: Set[int] = set()
        size = 0
        for u, v in active_edges:
            if u in in_cover or v in in_cover:
                continue
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                size += 1
        return size

    all_edges = g.edges()

    def rec(cover: Set[int]) -> None:
        nonlocal best_cover
        if len(cover) >= len(best_cover):
            return
        uncovered = None
        for u, v in all_edges:
            if u not in cover and v not in cover:
                uncovered = (u, v)
                break
        if uncovered is None:
            best_cover = set(cover)
            return
        if len(cover) + matching_lb(all_edges, cover) >= len(best_cover):
            return
        u, v = uncovered
        cover.add(u)
        rec(cover)
        cover.discard(u)
        cover.add(v)
        rec(cover)
        cover.discard(v)

    rec(set())
    return best_cover


def _koenig_cover(g: Graph, sides: List[int]) -> Set[int]:
    m = max_bipartite_matching(g, sides)
    pm = m.partner_map()
    left = {v for v in range(g.n) if sides[v] == 0}
    free_left = [v for v in left if v not in pm]
    # alternating reachability: unmatched edges left->right, matched right->left
    visited: Set[int] = set(free_left)
    stack = list(free_left)
    while stack:
        v = stack.pop()
        if sides[v] == 0:
            for w in g.adj[v]:
                if pm.get(v) != w and w not in visited:
                    visited.add(w)
                    stack.append(w)
        else:
            w = pm.get(v)
            if w is not None and w not in visited:
                visited.add(w)
                stack.append(w)
    return {v for v in left if v not in visited} | {
        v for v in range(g.n) if sides[v] == 1 and v in visited
    }


def find_short_augmenting_path(g: Graph, m, max_len: int) -> Optional[List[int]]:
    """Exhaustive search for an augmenting path with at most ``max_len`` edges.

    Paths alternate non-matching and matching edges, start and end at free
    nodes, and are returned as node lists.  Returns None when no such path
    exists.  Correct on general graphs because it enumerates simple paths
    rather than layering.
    """
    pm = m.partner_map() if isinstance(m, Matching) else Matching(m).partner_map()
    if max_len < 1:
        return None
    free = [v for v in range(g.n) if v not in pm]

    def dfs(v: int, visited: Set[int], length: int, path: List[int]) -> Optional[List[int]]:
        # v is the current endpoint reached by a matching edge (or the start);
        # next step must use a non-matching edge.
        for w in g.adj[v]:
            if w in visited or pm.get(v) == w:
                continue
            if w not in pm:
                return path + [w]
            if length + 2 > max_len:
                continue
            x = pm[w]
            if x in visited:
                continue
            found = dfs(x, visited | {w, x}, length + 2, path + [w, x])
            if found is not None:
                return found
        return None

    for s in free:
        found = dfs(s, {s}, 1, [s])
        if found is not None:
            return found
    return None


def greedy_maximal_matching(g: Graph) -> Matching:
    """Deterministic maximal matching: scan edges in canonical order."""
    used: Set[int] = set()
    out: List[Edge] = []
    for u, v in g.edges():
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            out.append((u, v))
    return Matching(out)
