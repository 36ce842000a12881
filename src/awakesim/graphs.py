"""Immutable graph and matching types plus seeded generators.

Nodes are dense integers ``0..n-1``.  Edges are canonical ``(u, v)`` tuples
with ``u < v``.  Graphs are immutable after construction; algorithms that
shrink a graph work on induced subgraphs and map node ids back at the end.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

# node_rng is unused here but stays importable as graphs.node_rng, which the
# perfbench tracer patches.
from .rng import node_rng, node_rng_array  # noqa: F401

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
    edges : iterable of pairs, or an int array of shape ``(m, 2)``
        Edges in any orientation; canonicalized and deduplicated.  An array
        is turned into the CSR adjacency by a few numpy calls, and ``adj``
        and ``edge_set`` are built from that on first use.  Pairs take a
        Python loop, which is the faster of the two on tiny graphs; such a
        graph builds its CSR only when :meth:`csr` is first called.  The
        kind of input also fixes the path :meth:`induced` takes, so a view
        built later never moves a graph onto the other path.
    sides : optional sequence of 0/1
        Bipartition labels, populated by :func:`gen_bipartite` and by
        algorithms that build two-sided instances.
    """

    __slots__ = ("n", "m", "max_degree", "sides", "_adj", "_edge_set", "_adj_np", "_csr",
                 "_from_array")

    def __init__(self, n: int, edges: Iterable[Edge] = (), sides: Optional[Sequence[int]] = None):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        self._from_array = isinstance(edges, np.ndarray)
        if self._from_array:
            indptr, indices, self.max_degree = _csr_from_array(n, edges)
            self._csr = (indptr, indices)
            self.m = len(indices) // 2
            self._adj = self._edge_set = None
        else:
            es = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"self-loop at node {u}")
                if not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
                es.add(canon(u, v))
            self._edge_set = frozenset(es)
            adj: List[List[int]] = [[] for _ in range(n)]
            for u, v in es:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = tuple(tuple(sorted(a)) for a in adj)
            self._csr = None
            self.m = len(es)
            self.max_degree = max((len(a) for a in self._adj), default=0)
        if sides is not None:
            sides = tuple(int(s) for s in sides)
            if len(sides) != n or any(s not in (0, 1) for s in sides):
                raise ValueError("sides must assign 0 or 1 to every node")
        self.sides = sides
        self._adj_np = None

    # -- basic accessors -------------------------------------------------

    @property
    def adj(self) -> Tuple[Tuple[int, ...], ...]:
        """Sorted neighbour tuple of every node."""
        if self._adj is None:
            self._build_views()
        return self._adj

    @property
    def edge_set(self) -> FrozenSet[Edge]:
        """Canonical ``(u, v)`` tuples, ``u < v``."""
        if self._edge_set is None:
            self._build_views()
        return self._edge_set

    def _build_views(self) -> None:
        # Both views index one int object per node, so a large graph does not
        # hold a fresh int for every entry of every tuple.
        indptr, indices = self._csr
        ids = tuple(range(self.n))
        flat = tuple(map(ids.__getitem__, indices.tolist()))
        bounds = indptr.tolist()
        self._adj = tuple(flat[a:b] for a, b in zip(bounds, bounds[1:]))
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(indptr))
        up = indices > rows
        # frozenset of a set gets a table sized to fit; of an iterator, one
        # grown in steps of four, up to twice as large
        self._edge_set = frozenset(set(zip(map(ids.__getitem__, rows[up].tolist()),
                                           map(ids.__getitem__, indices[up].tolist()))))

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
        """Per-node neighbor arrays (int64 views of the CSR), built lazily for
        envelope delivery (``engine._deliver``).  Nothing in the package calls
        it: only the hook-style test reference of the sampled matcher and
        perfbench's tracer use it."""
        if self._adj_np is None:
            indptr, indices = self.csr()
            bounds = indptr.tolist()
            self._adj_np = [indices[a:b] for a, b in zip(bounds, bounds[1:])]
        return self._adj_np

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Compressed adjacency ``(indptr, indices)`` (int64): node ``v``'s
        sorted neighbours are ``indices[indptr[v]:indptr[v + 1]]``.  A graph
        built from pairs builds it lazily from ``adj``."""
        if self._csr is None:
            bounds = list(accumulate(map(len, self.adj), initial=0))
            indices = np.fromiter(chain.from_iterable(self.adj), dtype=np.int64,
                                  count=bounds[-1])
            self._csr = (np.array(bounds, dtype=np.int64), indices)
        return self._csr

    # -- derived graphs ---------------------------------------------------

    def induced(self, nodes: Iterable[int]) -> Tuple["Graph", Tuple[int, ...]]:
        """Induced subgraph on ``nodes``; returns (subgraph, original_ids).

        ``original_ids[i]`` is the id in this graph of subgraph node ``i``.
        Side labels are carried over when present.  The path follows how
        the graph was built, not which views it holds: one built from an
        edge array relabels its CSR with numpy, and one built from pairs
        loops over ``adj``, which is faster on tiny graphs, even after
        :meth:`csr` has been called on it.
        """
        ids = tuple(sorted(set(nodes)))
        if ids and not (0 <= ids[0] and ids[-1] < self.n):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise ValueError(f"node {bad} out of range for n={self.n}")
        sides = tuple(self.sides[orig] for orig in ids) if self.sides is not None else None
        if self._from_array:
            indptr, indices = self._csr
            new = np.full(self.n, -1, dtype=np.int64)
            new[np.fromiter(ids, dtype=np.int64, count=len(ids))] = np.arange(len(ids))
            rows = np.repeat(new, np.diff(indptr))
            cols = new[indices]
            keep = (rows >= 0) & (cols > rows)
            return Graph(len(ids), np.stack((rows[keep], cols[keep]), axis=1), sides=sides), ids
        adj = self.adj
        index = {orig: i for i, orig in enumerate(ids)}
        sub_edges = []
        for i, orig in enumerate(ids):
            for w in adj[orig]:
                if w > orig and w in index:
                    sub_edges.append((i, index[w]))
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
        not two integers, a negative edge count, a repeated edge, or any text
        after the ``m`` edge lines is an error naming the line."""
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
        if m < 0:
            raise ValueError(f"line {rows[0][0]}: edge count {m} is negative")
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


def _csr_from_array(n: int, edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(indptr, indices, max_degree)`` of an ``(m, 2)`` int array of edges.

    Rows are checked in order with the pair loop's messages: the first bad
    row is reported, as a self-loop if it is one, else as out of range.
    """
    if edges.ndim != 2 or edges.shape[1] != 2 or edges.dtype.kind not in "iu":
        raise ValueError(f"edge array must be integer with shape (m, 2), "
                         f"got {edges.dtype} with shape {edges.shape}")
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
    if bad.any():
        a, b = (int(x) for x in edges[int(bad.argmax())])
        if a == b:
            raise ValueError(f"self-loop at node {a}")
        raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
    # Each edge as two keys row*n + col.  Sorted, they list the CSR rows in
    # order, every row's neighbours ascending, with repeats side by side.
    # (np.unique would do, but its first call loads far more code.)
    keys = np.sort(np.concatenate((u * n + v, v * n + u)))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    rows, indices = np.divmod(keys[first], n)
    deg = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return indptr, indices, int(deg.max(initial=0))


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


# Cap on the draws one block of _skip_sample takes from the seeded stream.
_SKIP_BLOCK = 1 << 16


def _skip_sample(total: int, p: float, seed: int, label: str) -> np.ndarray:
    """Increasing ``int64`` indices of a Bernoulli(p) subset of range(total).

    Skip lengths (Batagelj and Brandes 2005): draw ``k`` of stream ``label``
    gives ``u = uniform01(node_rng(seed, 0, label, k))`` and the gap
    ``int(log1p(-u) / log1p(-p))`` before the next index.  Draws are taken in
    numpy blocks and equal that scalar recipe bit for bit: ``log1p`` is
    ``math.log1p`` mapped over the block, since ``np.log1p`` may differ from
    it in the last ulp.
    """
    if total <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    log1mp = math.log1p(-p)
    # A gap of total or more ends the stream.  Clipping gaps at a float just
    # above total keeps them finite and exact in int64; the check below keeps
    # one block's positions from wrapping.
    cap = math.nextafter(float(total), math.inf)
    block = min(_SKIP_BLOCK, int(total * p * 1.05) + 64)
    if (int(cap) + 1) * (block + 1) >= 1 << 63:
        raise ValueError(f"index space of {total} is too large to sample")
    chunks = []
    last = -1
    k = 0
    while True:
        r = node_rng_array(seed, 0, label, np.arange(k, k + block, dtype=np.uint64))
        k += block
        u = (r >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        logs = np.fromiter(map(math.log1p, (-u).tolist()), dtype=np.float64, count=block)
        with np.errstate(over="ignore"):  # subnormal p: the gap is inf, then cap
            skip = np.minimum(logs / log1mp, cap).astype(np.int64)
        pos = last + np.cumsum(skip + 1)
        stop = int(np.searchsorted(pos, total))
        chunks.append(pos[:stop])
        if stop < block:
            return np.concatenate(chunks)
        last = int(pos[-1])


def gen_gnp(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with edges drawn from the seeded stream."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    idx = _skip_sample(n * (n - 1) // 2, p, seed, "gnp")
    # Index idx lies in row u of the upper triangle, the largest u whose
    # row start S(u) = u*n - u*(u+1)/2 is at most idx; row u holds pairs
    # (u, u+1)..(u, n-1).
    rows = np.arange(n, dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    u = np.searchsorted(starts, idx, side="right") - 1
    v = u + 1 + idx - starts[u]
    return Graph(n, np.stack((u, v), axis=1))


def gen_bipartite(nl: int, nr: int, p: float, seed: int) -> Graph:
    """Random bipartite graph; left nodes 0..nl-1, right nodes nl..nl+nr-1."""
    if nl < 0 or nr < 0:
        raise ValueError("side sizes must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    u, r = np.divmod(_skip_sample(nl * nr, p, seed, "gbip"), nr)
    sides = [0] * nl + [1] * nr
    return Graph(nl + nr, np.stack((u, r + nl), axis=1), sides=sides)


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
