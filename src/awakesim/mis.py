"""Maximal-independent-set protocols with low node-averaged awake time.

Three composable stages:

1. ``greedy_partial_mis``, a sampled partial run of randomized greedy MIS.
   Only a p-fraction of nodes participate; everyone else sleeps through the
   competition and wakes once for a final announcement round, which a
   participant dominated during the competition skips.
2. ``part2_reduce``, iterated doubling-probability marking on the residual
   under the degree bound :func:`part2_degree_bound`, which every node
   computes from n and p alone.  An undecided node is awake only in the
   rounds it marks itself and in each iteration's cleanup round.  A node
   that joins the set wakes at each neighbour's first mark after its join,
   to tell that neighbour, which terminates; it reads those marks from its
   neighbours' ids and the master seed, and it terminates at its last
   tell unless it joined at the last marking offset.
3. ``luby_mis``, the classic one-fresh-key-per-round protocol, used both as
   a standalone baseline and as the cleanup stage.

Each protocol posts its nodes' wakes into the engine's wake plan, and each
round is a few array operations over that round's awake nodes and one
gather of their neighbourhoods (``engine.heard`` for announcements,
``engine.least_heard`` for key and id competitions).  Each protocol's
``outputs`` is its own state array, and the stage functions read each
result set with one mask.

Every stage runs on the host graph with coins keyed by host id.  Stages 2
and 3 start from a set of nodes, and stages 1 and 2 return their residual
as a sorted tuple of host ids.  ``awake_mis`` is the composition of the
three stage functions, each starting from the residual of the one before:
it returns a verified MIS together with the sum of their awake ledgers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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


# the stage-1 participation fraction p, for every n (see :class:`MisParams`)
PARTICIPATION = Fraction(1, 4)


@dataclass
class MisParams:
    """Tunables for the three-stage MIS; ``None`` means the size-derived default.

    The participation p, ``PARTICIPATION`` unless given, and the stage-2
    degree bound d come from one argument.  Once a random-order greedy MIS
    has processed a p-fraction of the nodes, the residual graph has max
    degree O(log n / p) w.h.p. (Blelloch, Fineman and Shun, SPAA 2012).
    Stage 1 is such a prefix, so stage 2 marks under d = c log2(n) / p
    (:func:`part2_degree_bound`), which every node computes from n and p,
    and no node reads the residual's max degree.  A constant p leaves a
    constant share of the nodes to stage 2, so the mean awake cost does
    not grow with n, while d, and with it the stage-2 schedule, grows
    with log n.

    p = 1/4 and c = 1/2 are calibrated, on G(n, 10/n):

    * the stage-1 residual's max degree at p = 1/4 was 5-10 at n = 2^10,
      7-10 at 2^12, 8-10 at 2^14 and 8-12 at 2^16 (20 graphs and seeds of
      the acceptance sweep per size): never above log2 n, so c = 1/2,
      which makes d = 2 log2 n, leaves 2x headroom.  Stage 2 left no
      residual for Luby on any of them;
    * on the 24 graphs of the benchmark's ``mis_sparse`` workload (n =
      2^11, seed 1), the mean awake cost was 1.573 / 1.572 / 1.574 at c =
      1 / 1/2 / 1/4, so a larger c buys nothing, while c = 1 ran 2116
      stage-2 rounds against 1256 and took 39% more host time (2-vCPU
      host);
    * on the same graphs at c = 1/2, the mean awake cost was 1.95 / 1.77 /
      1.57 / 1.48 / 1.45 / 1.49 at p = 1/8 / 1/6 / 1/4 / 1/3 / 1/2 / 2/3.
      p = 1/4 was chosen while it sat in a flat region (2.14 / 1.96 /
      1.79 / 1.74 / 1.80 at p = 1/8..1/2, when dominated participants and
      early stage-2 joiners still woke with nothing to do); now the flat
      region is p = 1/3..2/3, and p = 1/4 is 8% above its best.
    """

    p: Fraction = PARTICIPATION           # participation fraction
    C: int = 4                            # phase-length constant in stage 2
    K: Optional[int] = None               # stage-2 iterations, default 2*ceil(log2 log2 n)
    part1_window: Optional[int] = None    # fixed competition length of stage 1

    def __post_init__(self):
        if not (0 < self.p <= 1):
            raise ValueError("p must lie in (0, 1]")
        if self.C < 1:
            raise ValueError("C must be >= 1")
        if self.K is not None and self.K < 1:
            raise ValueError("K must be >= 1")
        if self.part1_window is not None and self.part1_window < 0:
            raise ValueError("part1_window must be >= 0")


def default_part1_window(n: int) -> int:
    # fixed schedule length: all participants decide well within this w.h.p.
    return 4 * _clog2(n) + 4


# c of the stage-2 degree bound c log2(n) / p (see :class:`MisParams`)
DEGREE_CONSTANT = Fraction(1, 2)


def part2_degree_bound(n: int, p) -> int:
    """Stage-2 degree bound max(2, ceil(c log2(n) / p)), c =
    ``DEGREE_CONSTANT``, for a graph of n nodes after stage 1 at
    participation p: the O(log n / p) bound on the residual's max degree,
    with the calibrated constant of :class:`MisParams`."""
    return max(2, math.ceil(math.log2(max(1, n)) * (DEGREE_CONSTANT / Fraction(p))))


def default_iterations(n: int) -> int:
    if n < 3:
        return 1
    return max(1, 2 * math.ceil(math.log2(math.log2(n))))


def part2_schedule(d: int, C: int = 4):
    """Per-iteration marking schedule for degree bound d.

    Returns (phase_rounds, probabilities) where phase_rounds[j] is the length
    of phase j+1 and probabilities[o] is the ``Fraction`` with which a node
    marks itself at marking-round offset o.  With L = log2 d as a real
    number, phase i of P = ceil(L) marks with probability min(1, 2^i/d) and
    lasts max(1, ceil(C*max(0, L-i)^2)) rounds.  When d is a power of two
    this is C*(P-i)^2 rounds.  In between, the lengths grow smoothly with
    d: from d = 16 to 17 the marking rounds go from 57 to 64 at C = 4,
    where a new phase of whole squares would add C*P^2 = 64 rounds.
    """
    d = max(2, int(d))
    L = math.log2(d)
    phase_rounds = [max(1, math.ceil(C * max(0.0, L - i) ** 2))
                    for i in range(1, ceil_log2(d) + 1)]
    probabilities = [q for i, r in enumerate(phase_rounds, 1)
                     for q in [Fraction(min(2 ** i, d), d)] * r]
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
    node is awake every round until it decides: ``bind`` stays every start
    node from round 0.

    Subround 1: every node broadcasts its key.  Subround 2: the strict
    ``(key, id)`` minima join and announce "I"; hearers terminate.
    """

    state_fields = ("_in_s",)

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        self._csr = graph.csr()
        self.outputs = self._in_s = np.zeros(self.n, dtype=bool)
        plan.stay(0, start)

    def round(self, rnd, awake, hood):
        keys = node_rng_array(self.seed, awake, "luby", rnd)
        _, decided = _compete(hood, keys, self._csr, self._in_s, True)
        return awake[decided]


def luby_mis(g: Graph, seed: int, round_cap: Optional[int] = None,
             start=None) -> Tuple[Set[int], AwakeLedger]:
    """Luby-style MIS of the graph ``start`` induces (default: all of ``g``)."""
    cap = round_cap if round_cap is not None else _luby_cap(g.n)
    outputs, ledger, _ = run(g, LubyProtocol(), seed, cap, part="luby", start=start)
    return set(np.flatnonzero(outputs).tolist()), ledger


# ---------------------------------------------------------------------------
# Stage 1: sampled partial greedy

_P1_NONPART, _P1_COMPETING, _P1_JOINED, _P1_DOMINATED = 0, 1, 2, 3


class Part1Protocol(Protocol):
    """Partial randomized greedy.

    Each node draws one 64-bit key; holders of the lowest p-fraction
    participate.  Participants rebroadcast their key while undecided, and
    post themselves for the next round until the window ends; the strict
    (key, id) minimum of a neighborhood joins and announces, and its
    competing neighbors terminate there as dominated: at the window end
    they would neither speak nor learn anything.  At the fixed window end,
    which ``bind`` posts for every node, every node still alive wakes for
    one announcement round and terminates; nodes that hear "I" there
    become dominated too.  ``outputs`` is the status
    array: joined nodes are "in", dominated ones "out", and the rest (never
    participated, or still competing) are the residual.
    """

    state_fields = ("_status",)

    def __init__(self, p: Fraction, window: int):
        self.p = p
        self.window = window

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
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
        dominated = awake[decided & ~join]
        status[dominated] = _P1_DOMINATED
        if rnd + 1 < self.window:
            self.plan.post(rnd + 1, awake[~decided])
        return dominated


def greedy_partial_mis(g: Graph, seed: int, p, window: Optional[int] = None):
    """Partial greedy MIS at participation fraction ``p``.

    Returns ``(joined, removed, residual_ids, ledger)``.  ``removed`` holds
    dominated nodes, and ``residual_ids`` the others that did not join,
    sorted: those that neither joined nor have a joined neighbour.
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
    residual_ids = tuple(np.flatnonzero(status < _P1_JOINED).tolist())
    log.debug("part1: |S|=%d removed=%d residual n=%d",
              len(joined), len(removed), len(residual_ids))
    return joined, removed, residual_ids, ledger


# ---------------------------------------------------------------------------
# Stage 2: doubling-probability marking

_P2_UNDECIDED, _P2_OUT, _P2_IN = 0, 1, 2


class Part2Protocol(Protocol):
    """K iterations of phased marking under degree bound d.

    Nodes outside the start set begin "out" and are no one's neighbour, so
    each start node must know which of its neighbours are start nodes; in
    :func:`awake_mis` they learn it for free (see there).  Phase i of an
    iteration marks each undecided node with a start
    neighbour per round with probability min(1, 2^i/d).  When an iteration
    begins (at ``bind``, and in each cleanup round for the next one), one
    pass of ``rng.coins`` draws its marks for those nodes and their start
    neighbours, and every alive node is posted at its cleanup round.  A
    node is awake only when it has something to do:

    * an undecided node wakes in the rounds where it marks, plus the
      cleanup round.  These are posted one marking round ahead: after each
      round in which undecided nodes marked, the next round in which a
      still-undecided node marks.  No node joins or leaves in between, as
      only marking nodes compete or hear "S".
    * a node that joins the set at offset r wakes at each start
      neighbour's first mark after r.  It posts these rounds once, at its
      join.  A neighbour that was awake there heard its "S" and left, and
      one that slept there had already left through another in-set node,
      so it needs no per-neighbour told flags.  A node knows its
      neighbours' ids and the master seed, so it computes their
      counter-based coins, dead neighbours' included.  The last marking
      offset marks with probability 1, so below it every start neighbour
      has a mark after r: the joiner has told them all in the last of
      these rounds and terminates there, skipping the cleanup.  A node
      that joins at the last offset attends the cleanup instead.

    Subround 1: awake in-set nodes announce, and hearers terminate as "out".
    Subround 2: the surviving awake nodes, which all mark, announce their
    ids; the smallest id among adjacent announcers joins.  A sleeping
    undecided node would only have heard "S" and left; it still hears that
    "S" at its next mark or at the cleanup, before it competes, so no join
    moves and the sets are those of a node that stays awake from its first
    mark on.  The last round of each iteration is a cleanup every alive
    node attends: nodes with no surviving competitor join, so nodes
    isolated in the residual pay one awake round per iteration.  The run
    ends once no node is alive, which is before the last cleanup when no
    undecided node and no joiner at the last offset is left for it.
    ``outputs`` is the status array: the nodes still undecided after the
    last cleanup are the residual.
    """

    state_fields = ("_status",)

    def __init__(self, d: int, iterations: int, phase_constant: int = 4):
        self.d = max(2, int(d))
        self.K = int(iterations)
        self.C = int(phase_constant)
        phase_rounds, probabilities = part2_schedule(self.d, self.C)
        # every drawn node marks at the last offset, which joiners rely on
        assert probabilities[-1] == 1
        self._marking = sum(phase_rounds)
        self.t_iter = self._marking + 1
        self._ps = np.array(probabilities, dtype=object)

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        self._csr = graph.csr()
        self._deg = np.diff(self._csr[0])
        self.outputs = self._status = np.full(self.n, _P2_OUT, dtype=np.int8)
        self._status[start] = _P2_UNDECIDED
        self._in_start = self._status == _P2_UNDECIDED
        self._leaving: Dict[int, list] = {}  # round -> the joiners whose last tell it is
        self._begin_iteration(0, start)

    def _begin_iteration(self, k: int, undecided: np.ndarray):
        """Post iteration ``k``'s cleanup for the ``undecided`` ids (every
        alive node), draw its marks and post the first marking round.

        ``_marks[v]`` holds node v's marks, bit o (``np.packbits`` order)
        set when v marks at offset o.  They are drawn for the nodes a
        joiner's plan can read: the undecided ones with a start neighbour,
        which are ``_markers``, and all their start neighbours.
        """
        M = self._marking
        self._k = k
        self.plan.post(k * self.t_iter + M, undecided)
        own, seg, nbrs = gather_neighbours(self._csr, undecided)
        mine = self._in_start[nbrs]
        self._markers = undecided[own[np.logical_or.reduceat(mine, seg)]]
        need = np.zeros(self.n, dtype=bool)
        need[self._markers] = True
        need[nbrs[mine]] = True
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
        plan: a wake at each start neighbour's first mark after ``o``, and
        their termination at the last of these.  No neighbour of a joiner
        is in the set, so every start neighbour's marks are in ``_marks``;
        each marks at the last offset, whose probability is 1, so below it
        every start neighbour has a mark after ``o``.  A joiner at the last
        offset has none left and attends the cleanup."""
        nbrs = _join_set(self._csr, self._status, _P2_IN, joiners)
        if o + 1 == self._marking:
            return
        mine = self._in_start[nbrs]
        slot = np.repeat(np.arange(joiners.size), self._deg[joiners])[mine]
        marks = np.unpackbits(self._marks[nbrs[mine]], axis=1, count=self._marking)
        first = self._k * self.t_iter + o + 1 + marks[:, o + 1:].argmax(axis=1)
        self.plan.post_each(first, joiners[slot])
        last = np.zeros(joiners.size, dtype=np.int64)
        np.maximum.at(last, slot, first)
        for rnd, v in zip(last.tolist(), joiners.tolist()):
            self._leaving.setdefault(rnd, []).append(v)

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
        # the joiners whose last tell this was terminate
        told_all = self._leaving.pop(rnd, None)
        if told_all:
            return np.concatenate((out, told_all)) if len(out) else told_all
        return out


def part2_degree(g: Graph, start=None) -> int:
    """The most start neighbours a start node has (every node is one when
    ``start`` is None), floored at 2.  No stage decides by it: ``awake_mis``
    reads it on stage 2's start set for the ``d_raised`` diagnostic, which
    tells whether :func:`part2_degree_bound` held, and the stage-2 tests
    draw degree bounds from it."""
    if start is None:
        return max(2, g.max_degree)
    ids = np.fromiter(start, np.int64, len(start))
    in_start = np.zeros(g.n, dtype=bool)
    in_start[ids] = True
    _, seg, nbrs = gather_neighbours(g.csr(), ids)
    return max(2, int(np.add.reduceat(in_start[nbrs], seg, dtype=np.int64).max(initial=0)))


def part2_reduce(g: Graph, seed: int, params: Optional[MisParams] = None, start=None):
    """Run the marking stage from the nodes of ``start`` (default: every
    node), under the degree bound :func:`part2_degree_bound` of ``g.n`` and
    the participation of ``params``.  Of the graph it reads n alone, as
    every default comes from n.  Returns ``(added, residual_ids, ledger)``,
    ``residual_ids`` being the start nodes still undecided, sorted."""
    params = params or MisParams()
    K = params.K if params.K is not None else default_iterations(g.n)
    proto = Part2Protocol(part2_degree_bound(g.n, params.p), K, params.C)
    status, ledger, _ = run(g, proto, seed, K * proto.t_iter + 2, part="part2",
                            start=start)
    added = set(np.flatnonzero(status == _P2_IN).tolist())
    return added, tuple(np.flatnonzero(status == _P2_UNDECIDED).tolist()), ledger


# ---------------------------------------------------------------------------
# Full pipeline


def awake_mis(g: Graph, seed: int, params: Optional[MisParams] = None):
    """Three-stage MIS with O(1)-style node-averaged awake time.

    Runs :func:`greedy_partial_mis`, :func:`part2_reduce` from its residual
    and :func:`luby_mis` from what is left, all on ``g``, with every default
    taken from ``g.n``.  Returns ``(mis_set, ledger, metrics)``; the ledger
    splits awake rounds into parts "part1", "part2", "luby".  Las Vegas: the
    output is verified and ``metrics.validity`` records the check.

    Stage 2 runs from stage 1's residual, and a node there must know which
    of its neighbours are in it (:class:`Part2Protocol`).  Every residual
    node is awake at stage 1's window end.  There, after the joined nodes
    say "I", each node that heard none can say in a second subround that
    it is undecided, at no extra awake round, so each residual node learns
    which of its neighbours are residual.  The run does not simulate this
    word; it grants the knowledge the word would give.
    """
    params = params or MisParams()
    n = g.n
    ledger = AwakeLedger(n)
    mis, _, res1, led1 = greedy_partial_mis(g, seed, params.p, params.part1_window)
    ledger.merge(led1)
    diags: Dict[str, object] = {"part1_in": len(mis), "residual1_n": len(res1)}

    added, res2, led2 = part2_reduce(g, seed, params, res1)
    if res1:
        d, degree = part2_degree_bound(n, params.p), part2_degree(g, res1)
        diags.update(d_used=d, d_raised=degree > d)
        if diags["d_raised"]:
            # low-probability failure of the residual-degree bound: stage 2
            # still returns an independent set, and Luby finishes the rest
            log.info("part2: residual max degree %d exceeds the degree bound %d",
                     degree, d)
    ledger.merge(led2)
    mis |= added
    diags["residual2_n"] = len(res2)

    s3, led3 = luby_mis(g, seed, start=res2)
    ledger.merge(led3)
    mis |= s3

    metrics = RunMetrics.from_ledger(
        ledger,
        validity=verify_mis(g, mis),
        solution_size=len(mis),
        diagnostics=diags,
    )
    return mis, ledger, metrics
