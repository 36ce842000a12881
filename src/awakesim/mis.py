"""Maximal-independent-set protocols with low node-averaged awake time.

Three composable stages:

1. ``greedy_partial_mis``, a sampled partial run of randomized greedy MIS.
   Only a p-fraction of nodes participate; everyone else sleeps through the
   competition and wakes once for a final announcement round.
2. ``part2_reduce``, iterated doubling-probability marking on the residual
   graph under degree bound ``max(2, residual max degree)``.  An undecided
   node is awake only in the rounds it marks itself and in each
   iteration's cleanup round.  A node that joins the set wakes at each
   neighbour's first mark after its join, to tell that neighbour, which
   terminates; it reads those marks from its neighbours' ids and the
   master seed.
3. ``luby_mis``, the classic one-fresh-key-per-round protocol, used both as
   a standalone baseline and as the cleanup stage.

Each protocol posts its nodes' wakes into the engine's wake plan, and each
round is a few array operations over that round's awake nodes and one
gather of their neighbourhoods (``engine.heard`` for announcements,
``engine.least_heard`` for key and id competitions).  Each protocol's
``outputs`` is its own state array, and the stage functions read each
result set with one mask.

Stages 1 and 2 return their residual graph together with ``residual_ids``,
the residual's node ids in their input graph.  ``awake_mis`` is the
composition of the three stage functions: it maps every stage's output back
through those id maps and returns a verified MIS together with a per-stage
awake ledger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Optional, Set, Tuple

import numpy as np

from .engine import (AwakeLedger, Protocol, RunMetrics, gather_neighbours, heard,
                     least_heard, run)
from .graphs import Graph
from .oracles import verify_mis
from . import rng
from .rng import below, coins, node_rng_array

log = logging.getLogger(__name__)


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for x >= 1."""
    return (int(x) - 1).bit_length()


def _clog2(n: int) -> int:
    # log-type protocol parameters never go below 1
    return max(1, ceil_log2(n))


@dataclass
class MisParams:
    """Tunables for the three-stage MIS; ``None`` means the size-derived default."""

    p: Optional[Fraction] = None          # participation fraction, default 1/ceil(log2 n)
    C: int = 4                            # phase-length constant in stage 2
    K: Optional[int] = None               # stage-2 iterations, default 2*ceil(log2 log2 n)
    part1_window: Optional[int] = None    # fixed competition length of stage 1

    def __post_init__(self):
        if self.p is not None and not (0 < self.p <= 1):
            raise ValueError("p must lie in (0, 1]")
        if self.C < 1:
            raise ValueError("C must be >= 1")
        if self.K is not None and self.K < 1:
            raise ValueError("K must be >= 1")
        if self.part1_window is not None and self.part1_window < 0:
            raise ValueError("part1_window must be >= 0")


def default_participation(n: int) -> Fraction:
    return Fraction(1, _clog2(n))


def default_part1_window(n: int) -> int:
    # fixed schedule length: all participants decide well within this w.h.p.
    return 4 * _clog2(n) + 4


def default_degree_bound(n: int) -> int:
    """ceil((log2 n)^2); ``awake_mis`` reports ``d_raised`` when the residual
    max degree exceeds it."""
    return max(2, math.ceil(math.log2(max(2, n)) ** 2))


def default_iterations(n: int) -> int:
    if n < 3:
        return 1
    return max(1, 2 * math.ceil(math.log2(math.log2(n))))


def part2_schedule(d: int, C: int = 4):
    """Per-iteration marking schedule for degree bound d.

    Returns (phase_rounds, probabilities) where phase_rounds[j] is the length
    of phase j+1 and probabilities[o] is the ``Fraction`` with which a node
    marks itself at marking-round offset o.  Phase i of P = ceil(log2 d)
    marks with probability min(1, 2^i/d) and lasts max(1, C*(P-i)^2) rounds.
    """
    d = max(2, int(d))
    P = _clog2(d)
    phase_rounds = [max(1, C * (P - i) ** 2) for i in range(1, P + 1)]
    probabilities = [Fraction(min(2 ** i, d), d)
                     for i, r in enumerate(phase_rounds, 1) for _ in range(r)]
    return phase_rounds, probabilities


def part2_round_count(d: int, K: int, C: int = 4) -> int:
    """Exact full-schedule round count: K iterations of (marking rounds + 1 cleanup)."""
    phase_rounds, _ = part2_schedule(d, C)
    return K * (sum(phase_rounds) + 1)


# ---------------------------------------------------------------------------
# Luby baseline / cleanup


# Width of a one-character announcement ("I", "S", "A"), as ``payload_bits``
# measures it.
_TOKEN_BITS = 8


def _join_set(csr, member: np.ndarray, code, joiners: np.ndarray) -> np.ndarray:
    """The ``joiners`` enter the set: ``member[joiners] = code``.  No joiner
    may neighbour the set, the other joiners of its round included: after
    the joins, no neighbour of a joiner has ``member == code``.  Returns the
    joiners' neighbour lists, laid end to end."""
    member[joiners] = code
    if not joiners.size:
        return joiners
    _, _, nbrs = gather_neighbours(csr, joiners)
    assert not (member[nbrs] == code).any(), "independence violated"
    return nbrs


def _compete(hood, keys: np.ndarray, csr, member: np.ndarray, code):
    """One key competition of every awake node of ``hood``: each sends its
    key, and the strict ``(key, id)`` minima of their awake neighbourhoods
    join the set (:func:`_join_set`) and say "I".  Returns ``(join,
    decided)``, masks over the awake nodes: the joiners, and the joiners
    together with the nodes that heard "I"."""
    rank, best = least_heard(hood, np.ones(keys.size, dtype=bool), keys)
    join = rank < best
    _join_set(csr, member, code, hood.ids[join])
    return join, join | heard(hood, join, _TOKEN_BITS)


def _luby_cap(n: int) -> int:
    """Round cap of a Luby run on a graph of ``n`` nodes."""
    return 64 * (_clog2(n) + 2)


class LubyProtocol(Protocol):
    """Fresh random key each round; strictly-smallest key in the closed
    undecided neighborhood joins, neighbors of joiners leave.  Every undecided
    node is awake every round until it decides: ``bind`` stays every node
    from round 0.

    Subround 1: every node broadcasts its key.  Subround 2: the strict
    ``(key, id)`` minima join and announce "I"; hearers terminate.
    """

    state_fields = ("_in_s",)

    def bind(self, graph, seed, plan):
        super().bind(graph, seed, plan)
        self._csr = graph.csr()
        self.outputs = self._in_s = np.zeros(self.n, dtype=bool)
        plan.stay(0, np.arange(self.n))

    def round(self, rnd, awake, hood):
        keys = node_rng_array(self.seed, awake, "luby", rnd)
        _, decided = _compete(hood, keys, self._csr, self._in_s, True)
        return awake[decided]


def luby_mis(g: Graph, seed: int,
             round_cap: Optional[int] = None) -> Tuple[Set[int], AwakeLedger]:
    """Luby-style MIS.  Output always satisfies ``verify_mis``."""
    cap = round_cap if round_cap is not None else _luby_cap(g.n)
    outputs, ledger, _ = run(g, LubyProtocol(), seed, cap, part="luby")
    return set(np.flatnonzero(outputs).tolist()), ledger


# ---------------------------------------------------------------------------
# Stage 1: sampled partial greedy

_P1_NONPART, _P1_COMPETING, _P1_JOINED, _P1_DOMINATED = 0, 1, 2, 3


class Part1Protocol(Protocol):
    """Partial randomized greedy.

    Each node draws one 64-bit key; holders of the lowest p-fraction
    participate.  Participants rebroadcast their key while undecided, and
    post themselves for the next round until the window ends; the strict
    (key, id) minimum of a neighborhood joins and announces, which puts its
    competing neighbors to sleep as dominated.  At the fixed window end,
    which ``bind`` posts for every node, every node wakes for one
    announcement round and terminates; nodes that hear "I" there become
    dominated too.  ``outputs`` is the status
    array: joined nodes are "in", dominated ones "out", and the rest (never
    participated, or still competing) are the residual.
    """

    state_fields = ("_status",)

    def __init__(self, p: Fraction, window: int):
        self.p = p
        self.window = window

    def bind(self, graph, seed, plan):
        super().bind(graph, seed, plan)
        n = self.n
        ids = np.arange(n, dtype=np.int64)
        self._keys = node_rng_array(seed, ids, "p1key", 0) if n else np.zeros(0, np.uint64)
        # the key is the participation coin
        competing = below(self._keys, self.p)
        self.outputs = self._status = np.where(
            competing, _P1_COMPETING, _P1_NONPART).astype(np.int8)
        self._csr = graph.csr()
        if self.window > 0:
            plan.post(0, ids[competing])
        plan.post(self.window, ids)

    def round(self, rnd, awake, hood):
        status = self._status
        if rnd >= self.window:
            # announcement: joined nodes say "I", every node decides
            joined = status[awake] == _P1_JOINED
            told = heard(hood, joined, _TOKEN_BITS) & ~joined
            status[awake[told]] = _P1_DOMINATED
            return awake
        # the awake nodes are the competitors
        join, decided = _compete(hood, self._keys[awake], self._csr, status,
                                 _P1_JOINED)
        status[awake[decided & ~join]] = _P1_DOMINATED
        if rnd + 1 < self.window:
            self.plan.post(rnd + 1, awake[~decided])
        return ()


def greedy_partial_mis(g: Graph, seed: int, p, window: Optional[int] = None):
    """Partial greedy MIS at participation fraction ``p``.

    Returns ``(joined, removed, residual_graph, residual_ids, ledger)``.
    ``removed`` holds dominated nodes; the residual graph is induced on nodes
    that neither participated nor have a joined neighbor, and
    ``residual_ids[i]`` is the id in ``g`` of residual node ``i``.
    """
    p = p if isinstance(p, Fraction) else Fraction(p).limit_denominator(10 ** 12)
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")
    window = window if window is not None else default_part1_window(g.n)
    if window < 0:
        raise ValueError("window must be >= 0")
    status, ledger, _ = run(g, Part1Protocol(p, window), seed, window + 2,
                            part="part1")
    joined = set(np.flatnonzero(status == _P1_JOINED).tolist())
    removed = set(np.flatnonzero(status == _P1_DOMINATED).tolist())
    residual, residual_ids = g.induced(np.flatnonzero(status < _P1_JOINED).tolist())
    log.debug("part1: |S|=%d removed=%d residual n=%d max_degree=%d",
              len(joined), len(removed), residual.n, residual.max_degree)
    return joined, removed, residual, residual_ids, ledger


# ---------------------------------------------------------------------------
# Stage 2: doubling-probability marking

_P2_UNDECIDED, _P2_OUT, _P2_IN = 0, 1, 2


class Part2Protocol(Protocol):
    """K iterations of phased marking under degree bound d.

    Phase i of an iteration marks each undecided node per round with
    probability min(1, 2^i/d).  When an iteration begins (at ``bind``, and
    in each cleanup round for the next one), one pass of ``rng.coins`` draws
    all of the iteration's marks for the undecided nodes with a neighbour
    and for their neighbours, and every alive node is posted at the
    iteration's cleanup.  A node is awake only when it has something to do:

    * an undecided node wakes in the rounds where it marks, plus the
      cleanup round.  These are posted one marking round ahead: after each
      round in which undecided nodes marked, the next round in which a
      still-undecided node marks.  No node joins or leaves in between, as
      only marking nodes compete or hear "S".
    * a node that joins the set at offset r wakes at each neighbour's first
      mark after r, plus the cleanup round.  It posts these rounds once, at
      its join.  A neighbour that was awake there heard its "S" and left,
      and one that slept there had already left through another in-set
      node, so it needs no per-neighbour told flags.  This assumes a node
      knows its neighbours' ids and the master seed, so it can compute
      their counter-based coins, dead neighbours' included.

    Subround 1: awake in-set nodes announce, and hearers terminate as "out".
    Subround 2: the surviving awake nodes, which all mark, announce their
    ids; the smallest id among adjacent announcers joins.  A sleeping
    undecided node would only have heard "S" and left; it still hears that
    "S" at its next mark or at the cleanup, before it competes, so no join
    moves and the sets and round counts are those of a node that stays
    awake from its first mark on.  The last round of each iteration is a
    cleanup every alive node attends: nodes with no surviving competitor
    join, so nodes isolated in the residual pay one awake round per
    iteration.  ``outputs`` is the status array: the nodes still undecided
    after the last cleanup are the residual.
    """

    state_fields = ("_status",)

    def __init__(self, d: int, iterations: int, phase_constant: int = 4):
        self.d = max(2, int(d))
        self.K = int(iterations)
        self.C = int(phase_constant)
        phase_rounds, probabilities = part2_schedule(self.d, self.C)
        self._marking = sum(phase_rounds)
        self.t_iter = self._marking + 1
        self._ps = np.array(probabilities, dtype=object)

    def bind(self, graph, seed, plan):
        super().bind(graph, seed, plan)
        self._csr = graph.csr()
        self._deg = np.diff(self._csr[0])
        self.outputs = self._status = np.full(self.n, _P2_UNDECIDED, dtype=np.int8)
        self._begin_iteration(0, np.arange(self.n))

    def _begin_iteration(self, k: int, undecided: np.ndarray):
        """Post iteration ``k``'s cleanup for the ``undecided`` ids (every
        alive node), draw its marks and post the first marking round.

        ``_marks[v]`` holds node v's marks, bit o (``np.packbits`` order)
        set when v marks at offset o.  They are drawn for the nodes a
        joiner's plan can read: the undecided ones with a neighbour, which
        are ``_markers``, and all their neighbours.
        """
        M = self._marking
        self._k = k
        self.plan.post(k * self.t_iter + M, undecided)
        own, _, nbrs = gather_neighbours(self._csr, undecided)
        self._markers = undecided[own]
        need = np.zeros(self.n, dtype=bool)
        need[self._markers] = True
        need[nbrs] = True
        drawn = np.flatnonzero(need)
        # marking coins keyed by global round index
        idx = k * self.t_iter + np.arange(M, dtype=np.uint64)
        self._marks = np.zeros((self.n, (M + 7) // 8), dtype=np.uint8)
        self._marks[drawn] = coins(self.seed, drawn[:, None], "p2mark", idx, self._ps)
        self._lo, self._window = 0, []
        self._posted = -1
        self._post_marks(-1)

    def _post_marks(self, o: int):
        """Post the first offset after ``o`` at which an undecided node marks."""
        for o in range(o + 1, self._marking):
            if o - self._lo >= len(self._window):
                self._decode(o)
            vs = self._window[o - self._lo]
            vs = vs[self._status[vs] == _P2_UNDECIDED]
            if vs.size:
                self.plan.post(self._k * self.t_iter + o, vs)
                self._posted = o
                return
        self._posted = self._marking

    def _decode(self, o: int):
        """List the markers of each offset in a window from ``o`` on: whole
        byte columns of ``_marks``, as many as keep the decoded bits within
        ``rng.COIN_BLOCK``."""
        m = self._markers.size
        lo = o >> 3
        hi = min(self._marks.shape[1], lo + max(1, rng.COIN_BLOCK // (8 * max(1, m))))
        # row j of ``bits`` is offset 8 * lo + j, column i is marker i
        bits = np.unpackbits(self._marks[self._markers, lo:hi].T, axis=0).view(bool)
        at = np.flatnonzero(bits)
        cut = np.searchsorted(at, m * np.arange(len(bits) + 1))
        ids = self._markers[at - m * np.repeat(np.arange(len(bits)), np.diff(cut))]
        cut = cut.tolist()
        self._lo = 8 * lo
        self._window = [ids[a:b] for a, b in zip(cut, cut[1:])]

    def _join(self, o: int, joiners: np.ndarray):
        """Joiners at marking offset ``o`` enter the set and post their
        plan: a wake at each neighbour's first mark after ``o``.  No
        neighbour of a joiner is in the set, so every neighbour's marks are
        in ``_marks``."""
        nbrs = _join_set(self._csr, self._status, _P2_IN, joiners)
        if o + 1 == self._marking:
            return
        marks = np.unpackbits(self._marks[nbrs], axis=1, count=self._marking)
        later = marks[:, o + 1:]
        hit = later.any(axis=1)
        first = o + 1 + later.argmax(axis=1)
        owner = np.repeat(joiners, self._deg[joiners])
        self.plan.post_each(self._k * self.t_iter + first[hit], owner[hit])

    def round(self, rnd, awake, hood):
        k, o = divmod(rnd, self.t_iter)
        status = self._status
        is_in = status[awake] == _P2_IN
        live = ~is_in
        out = ()
        if is_in.any() and live.any():
            # subround 1: in-set nodes say "S"; undecided hearers leave
            told = heard(hood, is_in, _TOKEN_BITS) & live
            out = awake[told]
            status[out] = _P2_OUT
            live &= ~told
        if o == self._marking:
            # cleanup, every alive node awake: the live ones say "A", and
            # those that hear none join
            _join_set(self._csr, status, _P2_IN,
                      awake[live & ~heard(hood, live, _TOKEN_BITS)])
            if k == self.K - 1:
                return awake
            undecided = status[awake] == _P2_UNDECIDED
            if undecided.any():
                self._begin_iteration(k + 1, awake[undecided])
            return awake[~undecided]
        # subround 2: the live nodes are the marked ones and send their ids;
        # the least joins
        rank, best = least_heard(hood, live, awake)
        joiners = awake[rank < best]
        if joiners.size:
            self._join(o, joiners)
        if self._posted == o:
            self._post_marks(o)
        return out


def part2_degree(g: Graph) -> int:
    """Stage-2 degree bound: the graph's max degree, floored at 2."""
    return max(2, g.max_degree)


def part2_reduce(g: Graph, seed: int, params: Optional[MisParams] = None):
    """Run the marking stage on a residual graph.

    Returns ``(added, residual_graph, residual_ids, ledger)``, where
    ``residual_ids[i]`` is the id in ``g`` of residual node ``i``.  The
    degree bound is :func:`part2_degree` of ``g``.
    """
    params = params or MisParams()
    K = params.K if params.K is not None else default_iterations(g.n)
    proto = Part2Protocol(part2_degree(g), K, params.C)
    status, ledger, _ = run(g, proto, seed, K * proto.t_iter + 2, part="part2")
    added = set(np.flatnonzero(status == _P2_IN).tolist())
    residual, residual_ids = g.induced(np.flatnonzero(status == _P2_UNDECIDED).tolist())
    return added, residual, residual_ids, ledger


# ---------------------------------------------------------------------------
# Full pipeline


def awake_mis(g: Graph, seed: int, params: Optional[MisParams] = None):
    """Three-stage MIS with O(1)-style node-averaged awake time.

    Runs :func:`greedy_partial_mis`, :func:`part2_reduce` on its residual and
    :func:`luby_mis` on what is left, with every size-derived default taken
    from ``g.n``.  Returns ``(mis_set, ledger, metrics)``; the ledger splits
    awake rounds into parts "part1", "part2", "luby".  Las Vegas: the output
    is verified and ``metrics.validity`` records the check.
    """
    params = params or MisParams()
    n = g.n
    ledger = AwakeLedger(n)
    p = params.p if params.p is not None else default_participation(n)
    mis, _, res1, ids1, led1 = greedy_partial_mis(g, seed, p, params.part1_window)
    ledger.merge(led1)
    diags: Dict[str, object] = {"part1_in": len(mis), "residual1_n": res1.n}
    if res1.n:
        d_raised = res1.max_degree > default_degree_bound(n)
        if d_raised:
            # low-probability residual-degree overshoot: keep going, loudly
            log.info("part2: residual max degree %d exceeds the default bound %d",
                     res1.max_degree, default_degree_bound(n))
        diags.update(residual1_max_degree=res1.max_degree,
                     d_used=part2_degree(res1), d_raised=d_raised)

    K = params.K if params.K is not None else default_iterations(n)
    added, res2, ids2, led2 = part2_reduce(res1, seed, replace(params, K=K))
    ledger.merge(led2, id_map=ids1)
    mis.update(ids1[v] for v in added)
    diags["residual2_n"] = res2.n

    host_ids2 = [ids1[v] for v in ids2]
    s3, led3 = luby_mis(res2, seed, round_cap=_luby_cap(n))
    ledger.merge(led3, id_map=host_ids2)
    mis.update(host_ids2[v] for v in s3)

    metrics = RunMetrics.from_ledger(
        ledger,
        validity=verify_mis(g, mis),
        solution_size=len(mis),
        diagnostics=diags,
    )
    return mis, ledger, metrics
