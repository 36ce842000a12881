"""Black-box matching amplification.

A constant-approximation matcher (the "box") is amplified to a (1+eps)
approximation: delta-maximal matchings by repeated invocation, a layer-graph
procedure that finds a maximal set of short augmenting paths, a bipartite
loop that raises the minimum augmenting-path length level by level, and a
random-bipartition wrapper for general graphs.  Every path extension is a
delta-maximal matching; a maximal box (exact, greedy) ends one after a
single call, because its residual graph has no edge left.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import fractional
from .engine import AwakeLedger
from .errors import InvalidPath, PreconditionViolated
from .graphs import Graph, Matching, canon
from .oracles import exact_max_matching, greedy_maximal_matching, verify_matching
from .rng import node_rng, node_rng_array

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# MatchBox


class MatchBox:
    """A matcher with a declared approximation mode.

    mode "exact" (c=1) and "greedy" (c=2) produce maximal matchings and are
    meant for isolating layer logic; mode "sleeping" (c=8) runs the
    low-awake fractional matcher plus randomized rounding, is only
    approximate in expectation, and accumulates awake charges into
    ``ledger`` (host node ids) when one is attached.

    The sleeping box keeps the fractional run of the last graph it saw when
    that run read no seed (analytic stop round 0, as for every practical
    n), and reuses it when called on the same graph object again.  Every
    call still draws its own rounding seed and merges the run's ledger, so
    each call is charged as the distributed run it stands for.  A node
    without an edge in the instance never wakes in that run, so it is
    charged nothing for it, and a graph without an edge is never run.
    """

    _MODES = {"exact": 1, "greedy": 2, "sleeping": 8}
    eps = Fraction(1, 10)  # accuracy of the sleeping box's fractional matcher

    def __init__(self, mode: str = "greedy", *, master_seed: int = 0,
                 host_n: int = 0):
        if mode not in self._MODES:
            raise ValueError(f"unknown box mode {mode!r}")
        self.mode = mode
        self.c = self._MODES[mode]
        self.master_seed = master_seed
        self.calls = 0
        self.ledger: Optional[AwakeLedger] = AwakeLedger(host_n) if host_n else None
        # (graph, assignment, ledger) of the last seed-free fractional run
        self._memo: Optional[Tuple[Graph, fractional.FractionalAssignment,
                                   AwakeLedger]] = None

    def __call__(self, g: Graph, orig_ids: Optional[Sequence[int]] = None) -> Matching:
        self.calls += 1
        if g.m == 0:
            return Matching()
        if self.mode == "exact":
            m = exact_max_matching(g)
        elif self.mode == "greedy":
            m = greedy_maximal_matching(g)
        else:
            s2 = node_rng(self.master_seed, 0, "box", 2 * self.calls + 1)
            if self._memo is not None and self._memo[0] is g:
                _, asg, led = self._memo
            else:
                s1 = node_rng(self.master_seed, 0, "box", 2 * self.calls)
                asg, led, diag = fractional.sampled_fractional(g, self.eps, s1)
                self._memo = (g, asg, led) if diag.stop_round == 0 else None
            m = fractional.round_matching(asg, s2)
            if self.ledger is not None:
                self.ledger.merge(led, id_map=orig_ids)
        assert verify_matching(g, m)
        return m


def delta_maximal(g: Graph, box: MatchBox, delta, *,
                  iterations: Optional[int] = None,
                  orig_ids: Optional[Sequence[int]] = None) -> Matching:
    """Union of box matchings on shrinking residual graphs.

    Runs ceil(3*c*ln(1/delta)) rounds (or ``iterations`` >= 1): apply
    the box to the graph induced by still-unmatched nodes and keep
    everything it returns, until the residual graph has no edge.  The
    output M is delta-maximal: the residual graph G - V(M) has maximum
    matching at most delta*|M|.  A maximal box leaves no residual edge, so
    it is called exactly once.

    The residual is rebuilt only after a call that matched something; after
    an empty call the box gets the same graph object again, and the
    sleeping box then reuses its seed-free fractional run while still
    charging the call.
    """
    if not 0 < delta < 1:
        raise PreconditionViolated("delta must lie in (0, 1)")
    if iterations is None:
        iterations = math.ceil(3 * box.c * math.log(1 / float(delta)))
    if iterations < 1:
        raise ValueError(f"delta_maximal needs iterations >= 1, got {iterations}")
    remaining = set(range(g.n))
    out: List[Edge] = []
    # nothing is matched before the first call, so it needs no copy
    sub: Graph = g
    ids: Sequence[int] = range(g.n)
    matched = False
    for it in range(iterations):
        if matched:
            sub, ids = g.induced(sorted(remaining))
        if it == 0 or matched:
            sub_orig = ([orig_ids[i] for i in ids] if orig_ids is not None
                        else list(ids))
        if sub.m == 0:
            break
        m = box(sub, orig_ids=sub_orig)
        for (a_, b_) in m:
            u, v = ids[a_], ids[b_]
            out.append(canon(u, v))
            remaining.discard(u)
            remaining.discard(v)
        matched = len(m) > 0
    return Matching(out)


# ---------------------------------------------------------------------------
# Layer graphs


class LayerGraph:
    """Alternating BFS layers of a bipartite host at level i.

    ``layers[k]`` lists host ids at depth k; ``succ[v]`` the layer-respecting
    out-neighbors of v (non-matching edges on even depths, the single
    matching edge on odd depths).  ``complete`` is False when the BFS
    frontier died before the top layer, which also rules out longer
    augmenting paths at every later level.
    """

    __slots__ = ("host", "matching", "level", "layers", "layer_of", "succ",
                 "complete")

    def __init__(self, host: Graph, matching: Matching, level: int,
                 layers: List[List[int]], layer_of: Dict[int, int],
                 succ: Dict[int, List[int]], complete: bool):
        self.host = host
        self.matching = matching
        self.level = level
        self.layers = layers
        self.layer_of = layer_of
        self.succ = succ
        self.complete = complete

    @property
    def top(self) -> List[int]:
        k = 2 * self.level + 1
        return self.layers[k] if len(self.layers) > k else []


def build_layer_graph(h: Graph, m: Matching, i: int) -> LayerGraph:
    """BFS from the unmatched left vertices, depth 2i+1.

    Non-matching edges are oriented left-to-right and matching edges
    right-to-left, so consecutive layers alternate free choice and forced
    matched partner.  The top layer keeps only unmatched vertices.  Raises
    PreconditionViolated if a free vertex shows up at an earlier odd depth:
    that is an augmenting path of length <= 2i-1, which the caller promised
    does not exist.
    """
    if h.sides is None:
        raise PreconditionViolated("layer graphs need a bipartite host with sides")
    partner = m.partner_map()
    top_depth = 2 * i + 1
    l0 = [v for v in range(h.n) if h.sides[v] == 0 and v not in partner
          and h.degree(v) > 0]
    layers: List[List[int]] = [l0]
    seen: Set[int] = set(l0)
    complete = True
    for depth in range(1, top_depth + 1):
        cur = layers[depth - 1]
        if depth % 2 == 1:
            nxt_set: Set[int] = set()
            for u in cur:
                for w in h.neighbors(u):
                    if w not in seen and partner.get(u) != w:
                        nxt_set.add(w)
            if depth < top_depth:
                for w in nxt_set:
                    if w not in partner:
                        raise PreconditionViolated(
                            f"augmenting path of length {depth} exists; "
                            f"level {i} assumes none shorter than {top_depth}")
            else:
                nxt_set = {w for w in nxt_set if w not in partner}
            nxt = sorted(nxt_set)
        else:
            nxt = sorted(partner[w] for w in cur
                         if w in partner and partner[w] not in seen)
        layers.append(nxt)
        seen.update(nxt)
        if not nxt:
            complete = False
            break

    succ: Dict[int, List[int]] = {}
    layer_of = {v: k for k, layer in enumerate(layers) for v in layer}
    for k, layer in enumerate(layers):
        if k >= top_depth:
            break
        if k % 2 == 0:
            for u in layer:
                succ[u] = sorted(w for w in h.neighbors(u)
                                 if layer_of.get(w) == k + 1)
        else:
            for w in layer:
                p = partner.get(w)
                succ[w] = [p] if p is not None and layer_of.get(p) == k + 1 else []
    return LayerGraph(h, m, i, layers, layer_of, succ, complete)


# ---------------------------------------------------------------------------
# Maximal augmenting-path sets


def _extension_instance(endpoints: List[int], lg: LayerGraph,
                        blocked: Set[int]) -> Tuple[Graph, List[int]]:
    """Bipartite matching instance between active endpoints (instance nodes
    0..len-1) and the unused next-layer vertices each can reach (the
    returned targets, after them)."""
    targets: List[int] = []
    t_index: Dict[int, int] = {}
    edges: List[Edge] = []
    nl = len(endpoints)
    for li, u in enumerate(endpoints):
        for w in lg.succ.get(u, ()):
            if w in blocked:
                continue
            if w not in t_index:
                t_index[w] = nl + len(targets)
                targets.append(w)
            edges.append((li, t_index[w]))
    sides = [0] * nl + [1] * len(targets)
    return Graph(nl + len(targets), edges, sides=sides), targets


@lru_cache(maxsize=64)
def _extension_delta(epsf: float) -> Fraction:
    """delta = eps^5 / 32, exact over eps's shortest decimal form."""
    return Fraction(1, 32) * Fraction(str(epsf)) ** 5


def find_maximal_paths(lg: LayerGraph, box: MatchBox, eps, *,
                       delta_iterations: Optional[int] = None
                       ) -> Tuple[List[List[int]], Graph, Set[Edge]]:
    """Maximal set of disjoint augmenting paths of length 2*level+1.

    Iteratively extends candidate paths by one delta-maximal matching step
    (delta = eps^5 / 32) between the active endpoints and the next layers;
    unmatched length-0 paths are dropped, longer ones backtrack and
    deactivate their last two vertices.  Returns (paths, H', removed_edges):
    H' is the host minus all vertices on still-active paths (deactivated
    vertices stay) and minus removed_edges, the extension edges whose
    endpoints both stayed unmatched; their union cannot hide a large
    matching.  A maximal box removes no edge.
    """
    epsf = float(eps)
    h = lg.host
    budget = math.ceil(10 / epsf ** 3)
    delta = _extension_delta(epsf)

    active: List[List[int]] = [[v] for v in lg.layers[0]]
    done: List[List[int]] = []
    on_path: Set[int] = set(lg.layers[0])
    dead: Set[int] = set()
    removed_edges: Set[Edge] = set()
    top_depth = 2 * lg.level + 1
    updates = 0
    m_size = max(1, len(lg.matching))
    l0_size = len(lg.layers[0])

    for _ in range(budget):
        if not active:
            break
        endpoints = [p[-1] for p in active]
        inst, targets = _extension_instance(endpoints, lg, on_path | dead)
        ids = endpoints + targets
        ext = (delta_maximal(inst, box, delta, iterations=delta_iterations,
                             orig_ids=ids)
               if inst.m else Matching())
        ext_map = ext.partner_map()
        # edges whose endpoints both stay unmatched can no longer be used;
        # recording them keeps the disconnection argument valid
        for (a_, b_) in inst.edges():
            if a_ not in ext_map and b_ not in ext_map:
                removed_edges.add(canon(ids[a_], ids[b_]))

        nxt_active: List[List[int]] = []
        for li, path in enumerate(active):
            mate = ext_map.get(li)
            if mate is not None:
                w = ids[mate]
                assert lg.layer_of[w] == lg.layer_of[path[-1]] + 1
                if lg.layer_of[w] == top_depth:
                    path.append(w)
                    on_path.add(w)
                    done.append(path)
                    updates += 1
                else:
                    w2 = lg.succ[w][0]
                    path.extend((w, w2))
                    on_path.add(w)
                    on_path.add(w2)
                    updates += 2
                    nxt_active.append(path)
            elif len(path) == 1:
                on_path.discard(path[0])
                dead.add(path[0])
                updates += 1
            else:
                x, y = path.pop(), path.pop()
                on_path.discard(x)
                on_path.discard(y)
                dead.add(x)
                dead.add(y)
                updates += 2
                nxt_active.append(path)
        active = nxt_active
    assert updates <= 6 * m_size + l0_size, "path-update budget exceeded"

    gone = {v for p in active for v in p}
    kept = [e for e in h.edges()
            if e[0] not in gone and e[1] not in gone and e not in removed_edges]
    h_prime = Graph(h.n, kept, sides=h.sides)
    return done, h_prime, removed_edges


def augment(m: Matching, paths: List[List[int]]) -> Matching:
    """Flip each path: odd edges enter the matching, even edges leave it.

    Output size is |m| + len(paths).  Raises InvalidPath unless every path
    alternates correctly, has free endpoints, and the paths are disjoint.
    """
    pm = m.partner_map()
    seen: Set[int] = set()
    add: List[Edge] = []
    drop: Set[Edge] = set()
    for path in paths:
        if len(path) < 2 or len(path) % 2 != 0:
            raise InvalidPath(f"path {path} has even length")
        if path[0] in pm or path[-1] in pm:
            raise InvalidPath(f"path {path} endpoint is matched")
        if seen & set(path):
            raise InvalidPath("paths share a vertex")
        seen.update(path)
        for k in range(len(path) - 1):
            u, v = path[k], path[k + 1]
            e = canon(u, v)
            if k % 2 == 0:
                if pm.get(u) == v:
                    raise InvalidPath(f"edge {e} should be unmatched")
                add.append(e)
            else:
                if pm.get(u) != v:
                    raise InvalidPath(f"edge {e} should be matched")
                drop.add(e)
    out = [e for e in m if e not in drop] + add
    result = Matching(out)
    assert len(result) == len(m) + len(paths)
    return result


# ---------------------------------------------------------------------------
# Bipartite and general amplification loops


def bipartite_one_plus_eps(h: Graph, box: MatchBox, eps, *,
                           on_level: Optional[Callable] = None,
                           delta_iterations: Optional[int] = None) -> Matching:
    """Level loop: after level i the working graph has no augmenting path of
    length <= 2i+1, so ceil(2/eps)+1 levels give a (1+7eps) approximation
    relative to the original host.

    Levels whose layer graph cannot reach a free vertex are skipped without
    touching the graph (the progress property already holds there), and the
    loop stops early once the BFS frontier dies, which rules out augmenting
    paths of every longer length.  ``on_level(i, h_cur, m)`` is called after
    each level with the new working graph and matching.
    """
    if h.sides is None:
        raise PreconditionViolated("amplification host must carry side labels")
    epsf = float(eps)
    if not 0 < epsf:
        raise PreconditionViolated("eps must be positive")
    levels = min(math.ceil(2 / epsf) + 1, h.n // 2 + 1)  # longer paths cannot exist

    m = Matching()
    h_cur = h
    for i in range(levels):
        lg = build_layer_graph(h_cur, m, i)
        if lg.top:
            paths, h_next, _removed = find_maximal_paths(
                lg, box, eps, delta_iterations=delta_iterations)
            if paths:
                m = augment(m, paths)
            # matched edges on a removed (still-active) path leave with it;
            # both their endpoints are gone, so no new short path appears
            m = Matching([e for e in m if e in h_next.edge_set])
            h_cur = h_next
        if on_level is not None:
            on_level(i, h_cur, m)
        if not lg.complete:
            break
    return m


def _bipartition(n: int, seed: int, t: int) -> List[int]:
    return (node_rng_array(seed, np.arange(n), "bipartition", t)
            >> np.uint64(63)).tolist()


def _crossing_graph(g: Graph, sides: List[int],
                    protect: Optional[Matching] = None) -> Graph:
    """Edges across the bipartition; when ``protect`` is given, endpoints of
    its same-side edges are deleted so those matched edges stay untouchable."""
    banned: Set[int] = set()
    if protect is not None:
        for (u, v) in protect:
            if sides[u] == sides[v]:
                banned.add(u)
                banned.add(v)
    edges = [e for e in g.edges()
             if sides[e[0]] != sides[e[1]]
             and e[0] not in banned and e[1] not in banned]
    return Graph(g.n, edges, sides=sides)


def general_one_plus_eps(g: Graph, box: MatchBox, eps, seed: int, *,
                         improve_iterations: Optional[int] = None,
                         delta_iterations: Optional[int] = None) -> Matching:
    """Random-bipartition amplification for general graphs.

    Each iteration keeps the crossing edges of a fresh bipartition, protects
    matched same-side edges by deleting their endpoints, re-solves the
    bipartite instance to near-optimality, and merges.  The result is kept
    only when strictly larger, so the matching size never decreases; the
    loop ends after ``improve_iterations`` iterations (at least 0; by
    default ceil(2^(8/eps)), at most 10^4) or once ceil(4/eps) consecutive
    iterations bring no improvement.
    """
    epsf = float(eps)
    if not 0 < epsf:
        raise PreconditionViolated("eps must be positive")
    if improve_iterations is None:
        improve_iterations = min(10 ** 4, math.ceil(2 ** min(64.0, 8 / epsf)))
    if improve_iterations < 0:
        raise ValueError(f"improve_iterations must be >= 0, got {improve_iterations}")
    ell = 8 / epsf + 1
    slack = max(epsf / 8 * 2 ** -ell, epsf / 64)
    inner_eps = slack / 7

    sides0 = _bipartition(g.n, seed, 0)
    m = box(_crossing_graph(g, sides0))
    stall = 0
    window = math.ceil(4 / epsf)
    for t in range(1, improve_iterations + 1):
        sides = _bipartition(g.n, seed, t)
        h = _crossing_graph(g, sides, protect=m)
        keep = Matching([e for e in m if e not in h.edge_set])
        mh = bipartite_one_plus_eps(h, box, inner_eps,
                                    delta_iterations=delta_iterations)
        cand = Matching(list(keep) + list(mh))
        assert verify_matching(g, cand)
        if len(cand) > len(m):
            m = cand
            stall = 0
        else:
            stall += 1
            if stall >= window:
                break
    return m


def full_matching_pipeline(g: Graph, eps, seed: int, *,
                           improve_iterations: Optional[int] = None,
                           delta_iterations: int = 12
                           ) -> Tuple[Matching, AwakeLedger]:
    """End-to-end (1+eps) matching with the low-awake box inside the
    general-graph wrapper; the returned ledger aggregates awake rounds over
    every box invocation, mapped back to host node ids."""
    box = MatchBox("sleeping", master_seed=seed, host_n=max(1, g.n))
    m = general_one_plus_eps(g, box, eps, seed,
                             improve_iterations=improve_iterations,
                             delta_iterations=delta_iterations)
    assert verify_matching(g, m)
    return m, box.ledger
