"""Immutable graph and matching types plus seeded generators.

Nodes are dense integers ``0..n-1``.  Edges are canonical ``(u, v)`` tuples
with ``u < v``.  Graphs are immutable after construction; algorithms that
shrink a graph work on induced subgraphs and map node ids back at the end.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .rng import node_rng, uniform01

Edge = Tuple[int, int]
VertexSet = Set[int]


def canon(u: int, v: int) -> Edge:
    """Canonical form of an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph on nodes ``0..n-1``.

    Parameters
    ----------
    n : int
        Number of nodes.
    edges : iterable of pairs
        Edges in any orientation; canonicalized and deduplicated.
    sides : optional sequence of 0/1
        Bipartition labels, populated by :func:`gen_bipartite` and by
        algorithms that build two-sided instances.
    """

    __slots__ = ("n", "edge_set", "adj", "sides", "_adj_np", "_csr", "_max_degree")

    def __init__(self, n: int, edges: Iterable[Edge] = (), sides: Optional[Sequence[int]] = None):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        es = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            es.add(canon(u, v))
        self.edge_set = frozenset(es)
        adj: List[List[int]] = [[] for _ in range(n)]
        for u, v in es:
            adj[u].append(v)
            adj[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in adj)
        if sides is not None:
            sides = tuple(int(s) for s in sides)
            if len(sides) != n or any(s not in (0, 1) for s in sides):
                raise ValueError("sides must assign 0 or 1 to every node")
        self.sides = sides
        self._adj_np = None
        self._csr = None
        self._max_degree = max((len(a) for a in self.adj), default=0)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edge_set)

    @property
    def max_degree(self) -> int:
        return self._max_degree

    def nodes(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> Tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> List[Edge]:
        """Edges in sorted canonical order."""
        return sorted(self.edge_set)

    def has_edge(self, u: int, v: int) -> bool:
        return canon(u, v) in self.edge_set

    def adj_arrays(self) -> List[np.ndarray]:
        """Per-node neighbor arrays (int64), built lazily for bulk delivery."""
        if self._adj_np is None:
            self._adj_np = [np.array(a, dtype=np.int64) for a in self.adj]
        return self._adj_np

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Compressed adjacency ``(indptr, indices)`` (int64), built lazily:
        node ``v``'s sorted neighbours are ``indices[indptr[v]:indptr[v + 1]]``."""
        if self._csr is None:
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum([len(a) for a in self.adj], out=indptr[1:])
            indices = np.fromiter(chain.from_iterable(self.adj), dtype=np.int64,
                                  count=int(indptr[-1]))
            self._csr = (indptr, indices)
        return self._csr

    # -- derived graphs ---------------------------------------------------

    def induced(self, nodes: Iterable[int]) -> Tuple["Graph", Tuple[int, ...]]:
        """Induced subgraph on ``nodes``; returns (subgraph, original_ids).

        ``original_ids[i]`` is the id in this graph of subgraph node ``i``.
        Side labels are carried over when present.
        """
        ids = tuple(sorted(set(nodes)))
        index = {orig: i for i, orig in enumerate(ids)}
        sub_edges = []
        for i, orig in enumerate(ids):
            for w in self.adj[orig]:
                if w > orig and w in index:
                    sub_edges.append((i, index[w]))
        sides = tuple(self.sides[orig] for orig in ids) if self.sides is not None else None
        return Graph(len(ids), sub_edges, sides=sides), ids

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        """Serialize as ``n m`` followed by one sorted ``u v`` line per edge."""
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        """Parse :meth:`to_text` output.  Blank lines are skipped; a line that is
        not two integers, a repeated edge, or any text after the ``m`` edge
        lines is an error naming the line."""
        rows = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
        if not rows:
            raise ValueError("empty graph text")

        def pair(lineno: int, ln: str, what: str) -> Tuple[int, int]:
            try:
                a, b = (int(x) for x in ln.split())
            except ValueError:
                raise ValueError(f"line {lineno}: expected {what}, "
                                 f"got {ln.strip()!r}") from None
            return a, b

        n, m = pair(*rows[0], "'n m'")
        if len(rows) - 1 < m:
            raise ValueError(f"expected {m} edge lines, found {len(rows) - 1}")
        first_line: Dict[Edge, int] = {}
        for lineno, ln in rows[1 : m + 1]:
            u, v = pair(lineno, ln, "'u v'")
            e = canon(u, v)
            if e in first_line:
                raise ValueError(f"line {lineno}: duplicate edge {u} {v} "
                                 f"(first on line {first_line[e]})")
            first_line[e] = lineno
        if len(rows) > m + 1:
            lineno, ln = rows[m + 1]
            raise ValueError(f"line {lineno}: unexpected text after the {m} "
                             f"edge lines: {ln.strip()!r}")
        return cls(n, list(first_line))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edge_set == other.edge_set
            and self.sides == other.sides
        )

    def __hash__(self):
        return hash((self.n, self.edge_set))


class Matching:
    """A set of pairwise node-disjoint edges."""

    __slots__ = ("edge_set",)

    def __init__(self, edges: Iterable[Edge] = ()):
        es = frozenset(canon(u, v) for u, v in edges)
        seen: Set[int] = set()
        for u, v in es:
            if u in seen or v in seen:
                raise ValueError(f"edges share endpoint at ({u}, {v})")
            seen.add(u)
            seen.add(v)
        self.edge_set = es

    def __len__(self) -> int:
        return len(self.edge_set)

    def __iter__(self):
        return iter(sorted(self.edge_set))

    def __contains__(self, edge) -> bool:
        u, v = edge
        return canon(u, v) in self.edge_set

    def __eq__(self, other):
        return isinstance(other, Matching) and self.edge_set == other.edge_set

    def __hash__(self):
        return hash(self.edge_set)

    def __repr__(self):
        return f"Matching({sorted(self.edge_set)})"

    def nodes(self) -> VertexSet:
        out: Set[int] = set()
        for u, v in self.edge_set:
            out.add(u)
            out.add(v)
        return out

    def partner_map(self) -> Dict[int, int]:
        pm: Dict[int, int] = {}
        for u, v in self.edge_set:
            pm[u] = v
            pm[v] = u
        return pm

    def is_valid_in(self, g: Graph) -> bool:
        return self.edge_set <= g.edge_set


# -- generators -----------------------------------------------------------


def _pair_from_index(idx: int, n: int) -> Edge:
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


def _skip_sample(total: int, p: float, seed: int, label: str):
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


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with edges drawn from the seeded stream."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    total = n * (n - 1) // 2
    edges = [_pair_from_index(i, n) for i in _skip_sample(total, p, seed, "gnp")]
    return Graph(n, edges)


def gen_bipartite(nl: int, nr: int, p: float, seed: int) -> Graph:
    """Random bipartite graph; left nodes 0..nl-1, right nodes nl..nl+nr-1."""
    if nl < 0 or nr < 0:
        raise ValueError("side sizes must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    edges = []
    for idx in _skip_sample(nl * nr, p, seed, "gbip"):
        u, r = divmod(idx, nr)
        edges.append((u, nl + r))
    sides = [0] * nl + [1] * nr
    return Graph(nl + nr, edges, sides=sides)


def cycle_graph(n: int) -> Graph:
    if n == 2:
        return Graph(2, [(0, 1)])
    return Graph(n, [(i, (i + 1) % n) for i in range(n)] if n >= 3 else [])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    """Star with center 0 and the given number of leaves."""
    return Graph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)
