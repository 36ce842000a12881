"""Fractional matching: vanilla growth, sampled low-awake variant, vertex
cover extraction, and randomized rounding.

Weights live on the ladder w_j = (1+eps)^j / Delta.  With eps = a/b and a
top rung J, every rung j <= J is the integer W_j = b (a+b)^j b^(J-j), which
is w_j scaled by ONE = Delta b^(J+1) (:meth:`SampleSchedule.ladder`).  Node
masses are sums of rungs, so every freeze, heavy, light and proposal
decision is an exact comparison of Python integers; nothing is decided in
floating point.  There is one matcher, :class:`SampledMatchingProtocol`;
``vanilla_fractional`` is its run with stop round 0.  A node without an
edge never wakes.  From the stop round on, a node sleeps while its load
cannot make it tight: until its wake rung, and again after any round in
which it could not be tight in the next, capped by its sleeping
neighbours' wake rungs.  A node that freezes wakes at its sleeping
neighbours' wake rungs to tell them, so the outputs are those of a run in
which every node stays awake while each node is awake in few rounds.  A
run reduces to its node freeze rounds and the node loads its tight tests
tracked, and its :class:`FractionalAssignment` keeps integers only: one
rung index per adjacency slot and each node's load times ONE.  The heavy
clean-up, the rounding, the loads and ``dump`` read those integers;
``Fraction`` values are built only when a view asks for them.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import DefaultDict, Dict, List, Optional, Set, Tuple

import numpy as np

from .engine import Protocol, gather_neighbours, run
from .errors import InvalidAssignment
from .graphs import Graph, Matching
# node_rng is unused here but stays importable as fractional.node_rng,
# which the perfbench tracer patches.
from .rng import TWO64, coins, node_rng, node_rng_list  # noqa: F401

Edge = Tuple[int, int]


def _as_fraction(eps) -> Fraction:
    if isinstance(eps, Fraction):
        return eps
    if isinstance(eps, int):
        return Fraction(eps)
    if isinstance(eps, str):
        return Fraction(eps)
    return Fraction(str(float(eps)))


def _check_eps(eps: Fraction) -> Fraction:
    if not (0 < eps < Fraction(1, 2)):
        raise ValueError("eps must lie in (0, 1/2)")
    return eps


def _check_integer(value, knob: str, least: int) -> int:
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{knob} must be an integer >= {least}, got {value!r}")
    return int(value)


def _forced_probabilities(forced, i_max: int) -> Dict[int, Fraction]:
    """Phase -> probability for ``force_phase_probabilities``: one value for
    every phase, or a mapping or sequence indexed by phase (``None`` entries
    and missing phases fall back to the formula)."""
    if forced is None:
        return {}
    if isinstance(forced, (int, float, str, Fraction)):
        items = [(i, forced) for i in range(1, i_max + 1)]
    elif isinstance(forced, Mapping):
        items = forced.items()
    else:
        items = enumerate(forced)
    out = {}
    for i, p in items:
        if p is None:
            continue
        q = _as_fraction(p)
        if not 0 <= q <= 1:
            raise ValueError(f"force_phase_probabilities: probability {p!r} "
                             f"for phase {i} is outside [0, 1]")
        out[i] = q
    return out


def iterated_log(n: int, i: int) -> int:
    """i-fold ceil-log2 of n, floored at 2; iterated_log(n, 0) = n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    val = int(n)
    for _ in range(i):
        if val <= 2:
            return 2
        val = max(2, (val - 1).bit_length())
    return val


def saturation_phase(n: int) -> int:
    """Smallest i with iterated_log(n, i) == 2."""
    i = 1
    while iterated_log(n, i) > 2:
        i += 1
    return i


def _phase(n: int, delta: int, a: int, b: int, i_max: int, j: int) -> int:
    """The first phase i with w_j <= 1 / iterated_log(n, i)^5, eps = a/b."""
    up, down = (a + b) ** j, delta * b ** j
    for i in range(1, i_max + 1):
        if up * iterated_log(n, i) ** 5 <= down:
            return i
    return i_max


@lru_cache(maxsize=256)
def _schedule_shape(n: int, delta: int, a: int, b: int) -> Tuple[int, int, int, int]:
    """``(i_max, growth, i_stop, analytic stop round)`` for ``n`` >= 2 nodes
    of max degree ``delta`` >= 1 and eps = a/b in lowest terms (integers
    hash faster than a ``Fraction``).  A bad eps raises on every call,
    since ``lru_cache`` does not cache exceptions."""
    eps = _check_eps(Fraction(a, b))
    i_max = saturation_phase(n)
    # growth: the first j with w_j >= 1, i.e. (a+b)^j >= Delta b^j
    up, down, growth = 1, delta, 0
    while up < down:
        up, down = up * (a + b), down * b
        growth += 1
    # stop rule: first phase whose scale is below eps*ln(1+eps)/1000
    cut = float(eps) * math.log1p(float(eps)) / 1000.0
    i_stop = next((i for i in range(1, i_max + 1)
                   if 1.0 / iterated_log(n, i) > cut), i_max)
    stop = 0
    while _phase(n, delta, a, b, i_max, stop) < i_stop:
        stop += 1
    return i_max, growth, i_stop, stop


@lru_cache(maxsize=256)
def _ladder(delta: int, a: int, b: int, top: int) -> Tuple[int, int, List[int]]:
    """:meth:`SampleSchedule.ladder` for max degree ``delta`` and eps = a/b
    (integers hash faster than a ``Fraction``)."""
    rungs = []
    w = b ** (top + 1)
    for _ in range(top + 1):
        rungs.append(w)
        w = w * (a + b) // b
    return delta * b ** (top + 1), (b - a) * delta * b ** top, rungs


class SampleSchedule:
    """Weight ladder, phase map, sampling probabilities, and the stop round.

    ``force_stop_round`` and ``force_phase_probabilities`` exist because the
    analytic stop rule fires immediately at practical n: they let tests drive
    the sub-1 sampling machinery.  Every knob is checked here, and a bad one
    raises ``ValueError`` naming it.  What depends only on ``(n, Delta,
    eps)`` is computed once per key (:func:`_schedule_shape`).

    A forced stop round is at most ``2 (growth_rounds() + 4)``, twice the
    round cap of the full-rate run.  That run freezes every edge by rung
    ``growth_rounds() + 1``, the first rung above 1, so a later stop only
    adds sampled rounds in which every weight exceeds 1.  Twice the cap
    still admits such runs, whose late freezes make heavy nodes: up to stop
    8 when Delta is 1.  The bound is checked before anything is allocated:
    a run draws n stop (stop + 1) / 2 sample coins, so a stop of 10^5 would
    never finish on 10 nodes.
    """

    def __init__(self, n: int, delta: int, eps, estimator_constant: int = 64,
                 force_stop_round: Optional[int] = None,
                 force_phase_probabilities=None):
        self.n = max(2, n)
        self.delta = max(1, delta)
        self.eps = _as_fraction(eps)
        self.a, self.b = self.eps.numerator, self.eps.denominator
        self.i_max, self._growth, self.i_stop, stop = _schedule_shape(
            self.n, self.delta, self.a, self.b)
        self.C = _check_integer(estimator_constant, "estimator_constant", 1)
        self._forced_p = _forced_probabilities(force_phase_probabilities,
                                               self.i_max)
        self.stop_round = stop
        if force_stop_round is not None:
            self.stop_round = _check_integer(force_stop_round, "force_stop_round", 0)
            top = 2 * (self._growth + 4)
            if self.stop_round > top:
                raise ValueError(f"force_stop_round must be at most {top} here, "
                                 f"twice the full-rate run's round cap, "
                                 f"got {force_stop_round!r}")

    def ladder(self, top: int) -> Tuple[int, int, List[int]]:
        """The rungs as integers, exact up to rung ``top``.

        Returns ``(one, tight, rungs)``: ``one = Delta b^(top+1)`` stands for
        1, ``tight = (b-a) Delta b^top`` for 1-eps, and ``rungs`` lists
        ``W_j = b (a+b)^j b^(top-j) = w_j * one`` for j = 0..top.  The list
        is built once per ``(Delta, eps, top)`` and shared by every call
        (:func:`_ladder`): never change it.
        """
        return _ladder(self.delta, self.a, self.b, top)

    def phase(self, j: int) -> int:
        """The first phase i with w_j <= 1 / iterated_log(n, i)^5."""
        return _phase(self.n, self.delta, self.a, self.b, self.i_max, j)

    def p_of_phase(self, i: int) -> Fraction:
        forced = self._forced_p.get(i)
        if forced is not None:
            return forced
        return min(Fraction(1), Fraction(self.C, iterated_log(self.n, i) ** 4))

    def growth_rounds(self) -> int:
        """Smallest j with w_j >= 1; all edges are frozen within this +1."""
        return self._growth


@dataclass
class Diagnostics:
    heavy_events: int = 0
    light_events: int = 0
    spoiled_value: Fraction = field(default_factory=lambda: Fraction(0))
    stop_round: int = 0


class FractionalAssignment:
    """Edge weights x_e with per-edge freeze rounds and per-node freeze data.

    The assignment holds integers on the slots of its graph ``g``: slot s is
    one entry of a node's neighbour tuple in ``g.adj``, counted across the
    nodes in order, so each edge has two slots, one per endpoint.  Slot s
    carries x_e = ``vals[idx[s]] / one`` and its freeze round ``fr[s]``
    (-1: none).  Node v has freeze round ``f[v]`` (-1: never froze) and value
    ``load[v] / one``.  An assignment a run builds shares the run's ladder:
    ``vals`` is its rungs plus a 0 for the edges the heavy clean-up zeroed.

    ``x``, ``frozen_round`` and ``node_freeze`` are fresh dicts on every
    access, keyed in sorted canonical edge order (node order for
    ``node_freeze``).  Changing one does not change the assignment; read
    each once, outside any loop over its entries.

    The constructor takes those dicts, for hand-made assignments: ``x`` and
    ``frozen_round`` keyed by the same canonical edges ``(u, v)``,
    ``u < v < n``, and ``node_freeze`` by node.  Its ``one`` is the lcm of
    the value denominators.
    """

    __slots__ = ("g", "_vals", "_idx", "_fr", "_f", "_load", "_one")

    def __init__(self, n: int, x: Dict[Edge, Fraction],
                 frozen_round: Dict[Edge, Optional[int]],
                 node_freeze: Dict[int, Optional[int]]):
        for e in x:
            if not (isinstance(e, tuple) and len(e) == 2 and 0 <= e[0] < e[1] < n):
                raise ValueError(f"edge {e!r} is not a canonical edge (u, v) "
                                 f"with u < v < {n}")
        if x.keys() != frozen_round.keys():
            e = next(iter(x.keys() ^ frozen_round.keys()))
            raise ValueError(f"x and frozen_round differ in their edges, "
                             f"e.g. {e!r}")
        w = {e: Fraction(v) for e, v in x.items()}
        one = math.lcm(*(v.denominator for v in w.values()))
        scaled = {e: v.numerator * (one // v.denominator) for e, v in w.items()}
        vals = sorted(set(scaled.values()))
        pos = {c: i for i, c in enumerate(vals)}
        g = Graph(n, x)
        idx, fr, load = [], [], []
        for v, nb in enumerate(g.adj):
            es = [(v, u) if v < u else (u, v) for u in nb]
            idx += [pos[scaled[e]] for e in es]
            fr += [-1 if frozen_round[e] is None else frozen_round[e] for e in es]
            load.append(sum(scaled[e] for e in es))
        f = [-1 if node_freeze.get(v) is None else node_freeze[v] for v in range(n)]
        self._fill(g, vals, idx, fr, f, load, one)

    def _fill(self, g, vals, idx, fr, f, load, one) -> "FractionalAssignment":
        self.g, self._vals, self._idx, self._fr = g, vals, idx, fr
        self._f, self._load, self._one = f, load, one
        return self

    @property
    def n(self) -> int:
        return self.g.n

    def _upper(self) -> Tuple[List[Edge], List[int]]:
        """Every edge ``(u, v)``, u < v, in sorted order, and its slot at u."""
        edges: List[Edge] = []
        slots: List[int] = []
        s = 0
        for v, nb in enumerate(self.g.adj):
            k = bisect_right(nb, v)
            edges += [(v, u) for u in nb[k:]]
            slots += range(s + k, s + len(nb))
            s += len(nb)
        return edges, slots

    @property
    def x(self) -> Dict[Edge, Fraction]:
        value = [Fraction(c, self._one) for c in self._vals]
        edges, slots = self._upper()
        idx = self._idx
        return dict(zip(edges, [value[idx[s]] for s in slots]))

    @property
    def frozen_round(self) -> Dict[Edge, Optional[int]]:
        edges, slots = self._upper()
        fr = self._fr
        return dict(zip(edges, [fr[s] if fr[s] >= 0 else None for s in slots]))

    @property
    def node_freeze(self) -> Dict[int, Optional[int]]:
        return {v: (fv if fv >= 0 else None) for v, fv in enumerate(self._f)}

    @property
    def frozen_nodes(self) -> Set[int]:
        return {v for v, fv in enumerate(self._f) if fv >= 0}

    def node_values(self) -> Dict[int, Fraction]:
        one = self._one
        return {v: Fraction(c, one) for v, c in enumerate(self._load)}

    def total(self) -> Fraction:
        return Fraction(sum(self._load), 2 * self._one)

    def total_float(self) -> float:
        """The sum of the edges' floats in sorted edge order, not
        ``float(total())``: the CSV rows carry these bytes."""
        one, idx = self._one, self._idx
        value = [c / one for c in self._vals]
        return float(sum(value[idx[s]] for s in self._upper()[1]))

    def dump(self) -> str:
        one, idx, fr = self._one, self._idx, self._fr
        text = [str(Fraction(c, one)) for c in self._vals]
        edges, slots = self._upper()
        return "\n".join(f"{u} {v} {text[idx[s]]} {fr[s] if fr[s] >= 0 else '-'}"
                         for (u, v), s in zip(edges, slots))

    def __eq__(self, other):
        if not isinstance(other, FractionalAssignment):
            return NotImplemented
        return (self.n == other.n and self._f == other._f and self.x == other.x
                and self.frozen_round == other.frozen_round)

    def __repr__(self):
        return (f"FractionalAssignment(n={self.n}, edges={self.g.m}, "
                f"frozen_nodes={len(self.frozen_nodes)})")


def _slot_rungs(g: Graph, f: List[int]) -> np.ndarray:
    """The rung index of every adjacency slot of ``g.csr()``, as
    ``uint64``: slot (v, u) has min(f[v], f[u]), the freeze round of the
    edge's first-frozen endpoint.  A -1 in ``f`` (never froze) wraps to
    2^64 - 1, so a slot reads 2^64 - 1 if neither endpoint froze."""
    indptr, indices = g.csr()
    key = np.array(f, dtype=np.int64).view(np.uint64)
    return np.minimum(key.repeat(indptr[1:] - indptr[:-1]), key[indices])


def _assignment(g: Graph, f: List[int], load: List[int], rungs: List[int],
                one: int) -> FractionalAssignment:
    """The assignment of the node freeze rounds ``f`` (-1: never froze) and
    node loads ``load`` on the ladder ``rungs`` scaled by ``one``, before any
    clean-up.  The loads are the matcher's own (see
    :class:`SampledMatchingProtocol`); nothing here adds rungs.

    Every edge freezes when its first endpoint does, at that rung
    (:func:`_slot_rungs`); every edge must have a frozen endpoint.  A
    slot's value index is its freeze round, so both start as one list.
    """
    fr = _slot_rungs(g, f).tolist()
    assert max(fr, default=0) < len(rungs), "an edge has no frozen endpoint"
    return FractionalAssignment.__new__(FractionalAssignment)._fill(
        g, rungs + [0], fr, fr, f, load, one)


# ---------------------------------------------------------------------------
# Sampled low-awake variant, and vanilla as its stop-round-0 run

# The most sample coins ``SampledMatchingProtocol`` draws and unpacks at
# once; unpacked, each takes a byte.
_DECODE_BLOCK = 1 << 22

# The wake rung entry of a matcher node that is not asleep: above every rung.
_AWAKE = 1 << 29

# Width of a matcher message's ``(tag, field)`` pair with its three-letter
# tag, as ``engine.payload_bits`` measures an envelope: 2 + 3 * 8 bits.
_TAG_BITS = 26


def _check_message(hood, field_bits: int, what: str) -> None:
    """Check a ``(tag, field)`` message whose field is ``field_bits`` wide
    against the round's bound."""
    hood.check(_TAG_BITS + field_bits, what)


class SampledMatchingProtocol(Protocol):
    """Distributed fractional matching with sampled congestion estimates.

    Each call of :meth:`round` runs one whole round:

    * Rounds before ``schedule.stop_round`` are sampled.  Members of any
      S_h^j wake at round h-1 and stay awake.  At round j each member
      reports the rounds h it was sampled for, keeping only h up to its own
      freeze round once it has frozen.  Every awake unfrozen node sums the
      reports it hears into the estimate c~_v and freezes silently when
      c~_v > 1-10eps.
    * At the stop round every start node wakes and broadcasts its freeze
      round once (reconciliation); each node rebuilds its frozen mass and
      its count of unfrozen edges from its frozen neighbours.
    * From the stop round on, the vanilla tight rule c_v >= 1-eps runs on the
      nodes that still have an unfrozen edge.  A node that freezes at rung r
      tells its neighbours, and an unfrozen neighbour gains k * W_r from k
      such neighbours.  A node terminates once all its incident edges are
      frozen and it has no tell left to make (never before the stop round).

    Nodes sleep while their load cannot make them tight.  Each unfrozen
    node v keeps its threshold rung ``_t[v]``: the first rung j, from the
    next round it tests on, with ``mass + unfrozen * W_j >= tight``.  It
    changes only with v's mass or unfrozen count, so the tight test at
    round r is ``_t[v] <= r``.  At any rung j before it each unfrozen edge
    of v carries at most W_j, so v's load stays below 1-eps however many
    of its neighbours freeze meanwhile.  At the stop round each node v with
    an unfrozen edge that is not tight there broadcasts its wake rung j_v,
    taken before that round's freezes (:meth:`_stop_round`), and sleeps
    until j_v.  After the stop round, a node v awake and unfrozen at round
    r whose load after round r's gains could not make it tight at r+1 goes
    back to sleep (:meth:`_resleep`).  It wakes at ``_t[v]``, or earlier,
    at the least wake rung of its neighbours asleep at r: that cap makes
    every node awake whenever a sleeping neighbour wakes, so each node has
    heard the wake rung of every sleeping neighbour.  It broadcasts the new
    rung.  A node u that freezes at a round r after the stop round, with
    neighbours w still asleep (j_w > r), wakes once at each distinct such
    j_w and tells those w its rung r; at j_w, w adds what it was told, as
    the reconciliation does.  So no sleeper's state changes, and every
    freeze, load and assignment is that of a run in which every node stays
    awake.  The tells a sleeper will hear are summed as they are decided,
    in ``_told_edges`` and ``_told_mass``: they stand for messages sent at
    its wake rung, when both ends are awake, so they are not state of the
    sleeper, which reads them only then and clears them for its next sleep.

    The run's start set must hold every node with an edge; a node outside
    it never wakes.  :func:`sampled_fractional` starts exactly the nodes
    with an edge, since a node without one has nothing to send, hear or
    decide: it never wakes, is never charged, and keeps freeze round -1
    and load 0.  A run on a graph without an edge has 0 rounds.  ``bind``
    draws the sample sets among the start nodes, stays each member from
    its first wake (:meth:`~awakesim.engine.WakePlan.stay`) and posts
    every start node at the stop round.  The stop round sends the members
    back to sleep (:meth:`~awakesim.engine.WakePlan.leave`).  From then on
    every wake is posted: each sleeper at its wake rung, each teller at its
    tell rounds, and each round the awake unfrozen nodes that stay awake
    into the next.  Only awake nodes send or hear.  Each round checks its
    widest message of each kind once against the hood's CONGEST bound
    (:func:`_check_message`).  A message is a ``(tag, field)`` pair with a
    three-letter tag, measured as the engine measures envelopes:
    ``_TAG_BITS`` = 26 bits plus the field, which is len(hs) +
    sum(max(1, h.bit_length())) bits for a report of rounds ``hs``, and
    max(1, r.bit_length()) for the round r of a reconciliation, wake rung,
    freeze or tell message.

    Masses are integers on the ladder whose top rung is ``round_cap``, the
    last round a run can reach.  ``bind`` starts every node with all its
    edges unfrozen and no mass.  An unfrozen node's ``_mass`` is the load
    of the frozen edges it has heard of; a frozen node's is its whole load,
    every edge at the rung of its first-frozen endpoint.  A node that
    freezes from the stop round on adds its unfrozen edges at its rung,
    which is the value its tight test passed (:meth:`_freeze`); one frozen
    earlier gets its load at the reconciliation, which sums each of its
    edges at the rung of the edge's first-frozen endpoint, as the
    assignment does (:func:`_slot_rungs`).  So when the run ends, ``_mass``
    holds every node's load, and the assignment takes it as it is.
    ``outputs`` is the list of node freeze rounds (-1: never froze).
    """

    congest_factor = 256  # report payloads carry one round index per phase
    state_fields = ("_f", "_mass", "_unfrozen", "_j", "_t")

    def __init__(self, schedule: SampleSchedule):
        self.sched = schedule
        self.round_cap = schedule.stop_round + schedule.growth_rounds() + 4

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        s = self.sched
        stop = self._stop = s.stop_round
        # shared with every run of the same ladder: read, never changed
        self._one, self._tight, self._rungs = s.ladder(self.round_cap)
        self.outputs = self._f = [-1] * self.n
        # a stop round above 0 rebuilds these (_reconcile)
        self._unfrozen = list(map(len, graph.adj))
        self._mass = [0] * self.n
        # the threshold rung of each unfrozen node alive after the stop
        # round (-1 before it), and the wake rung of each node asleep after
        # the stop round (_AWAKE while it is not)
        self._t = [-1] * self.n
        self._j = [_AWAKE] * self.n
        # round -> the tellers whose last tell it is
        self._ending: DefaultDict[int, List[int]] = defaultdict(list)
        # per sleeper, the edges and mass it will be told at its wake rung,
        # and per wake rung, the widest tell round
        self._told_edges = [0] * self.n
        self._told_mass = [0] * self.n
        self._widest: Dict[int, int] = {}
        # _memb[j] = (v, h): the members v of each S_h^j, as two arrays
        self._memb: List[Tuple[np.ndarray, np.ndarray]] = []
        if stop > 0 and start.size:
            self._sample(seed, stop, start)
        plan.post(stop, start)

    def _sample(self, seed, stop, start):
        """Draw the sample sets S_h^j (h <= j < stop) among the ``start``
        nodes and scale the estimator.

        The estimate sum_h (w_h - w_{h-1}) k_h / p_h > 1 - 10 eps, where k_h
        counts reports of h, becomes b * sum_h k_h E_h > (b - 10a) * one * L,
        with L the lcm of the nonzero p_h numerators.  A p = 0 round is never
        sampled, so it is never reported and gets no coefficient.

        Membership is one matrix of coins: each start node is a row, the
        pair (j, h) is a column, and column (j, h) flips its coins with
        p_h.  A coin is keyed by the host id, so a node's membership does
        not depend on which other nodes start.  The matrix is never built
        whole: its columns are drawn by ``rng.coins`` and unpacked in
        blocks of at most ``_DECODE_BLOCK`` coins unless a block of 8
        columns is larger.
        """
        s, w = self.sched, self._rungs
        ps = [s.p_of_phase(s.phase(h)) for h in range(stop)]
        lcm = math.lcm(*{p.numerator for p in ps if p})
        self._coef = np.array([(w[h] - (w[h - 1] if h else 0)) * p.denominator
                               * (lcm // p.numerator) if p else 0
                               for h, p in enumerate(ps)], dtype=object)
        self._est_cut = (s.b - 10 * s.a) * self._one * lcm
        self._hbits = np.array([max(1, h.bit_length()) for h in range(stop)])
        # column c is the pair (jj[c], hh[c]), in order of j, then h; the
        # coin of (v, h, j) is node_rng(seed, v, "sample", h * stop + j)
        jj, hh = np.tril_indices(stop)
        index, pcol = hh * stop + jj, np.array(ps, dtype=object)[hh]
        cols = hh.size
        step = 8 * max(1, _DECODE_BLOCK // (8 * start.size))
        cs, rows = [], []
        for lo in range(0, cols, step):
            cut = slice(lo, lo + step)
            packed = coins(seed, start[:, None], "sample", index[cut], pcol[cut])
            hit = np.unpackbits(packed, axis=1, count=min(step, cols - lo)).view(bool)
            # by column, then by row
            c, r = np.nonzero(hit.T)
            cs.append(c + lo)
            rows.append(r)
        c, r = np.concatenate(cs), np.concatenate(rows)
        vs, hs = start[r], hh[c]
        # a member of S_h^j first wakes at round h-1
        first = np.full(start.size, stop)
        np.minimum.at(first, r, hs)
        member = first < stop
        members = start[member]
        wake = np.maximum(first[member] - 1, 0)
        for rnd in range(stop):
            self.plan.stay(rnd, members[wake == rnd])
        # the columns of S_h^j for h <= j start at j (j + 1) / 2
        cut = np.searchsorted(c, np.arange(stop + 1) * np.arange(1, stop + 2) // 2)
        self._memb = [(vs[cut[j]:cut[j + 1]], hs[cut[j]:cut[j + 1]])
                      for j in range(stop)]

    def round(self, rnd, awake, hood):
        if rnd < self._stop:
            self._sampled_round(rnd, awake, hood)
            return ()
        if rnd == self._stop:
            return self._stop_round(awake.tolist(), hood)
        ids, unf, jj = awake.tolist(), self._unfrozen, self._j
        # the tellers whose last tell is now
        done = self._ending.pop(rnd, [])
        # the awake nodes with an unfrozen edge (the others are tellers),
        # among them the sleepers whose wake rung is now
        live = [v for v in ids if unf[v]]
        for v in live:
            jj[v] = _AWAKE
        widest = self._widest.pop(rnd, 0)
        if widest:
            # sleepers wake to their tells, and their tellers are awake now
            _check_message(hood, widest.bit_length(), "a tell message")
            done += self._read_tells(live, rnd)
        froze = self._is_tight(live, rnd)
        if froze:
            _check_message(hood, max(1, rnd.bit_length()), "a freeze message")
            done += self._freeze(froze, rnd)
        if widest or froze:
            live = [v for v in live if unf[v]]
        if live:
            self._resleep(live, rnd, hood)
        return done

    def _read_tells(self, live: List[int], rnd: int) -> List[int]:
        """The nodes of ``live`` told of freezes while they slept add those
        edges now, at their wake rung ``rnd``, take a new threshold rung and
        clear what they were told.  Returns those left with no unfrozen
        edge.

        An edge frozen at rung r carries W_r instead of W_j at every rung
        j >= r, so a gain at r never brings a threshold rung above r
        closer: the new one is found from the old one on."""
        unf, mass, t, rungs, tight = (self._unfrozen, self._mass, self._t,
                                      self._rungs, self._tight)
        told_edges, told_mass = self._told_edges, self._told_mass
        done = []
        for v in live:
            k = told_edges[v]
            if k:
                told_edges[v] = 0
                k = unf[v] = unf[v] - k
                c = mass[v] = mass[v] + told_mass[v]
                told_mass[v] = 0
                if k:
                    # v slept until its wake rung rnd <= _t[v]
                    j = t[v]
                    if c + k * rungs[j] < tight:
                        t[v] = bisect_left(rungs, (tight - c + k - 1) // k,
                                           j + 1)
                else:
                    done.append(v)
        return done

    def _stop_round(self, ids: List[int], hood) -> List[int]:
        """The reconciliation, the wake rungs and the stop round's freezes,
        with every alive node awake.  Returns the nodes that terminate.

        Node v's wake rung is its threshold rung ``_t[v]``, the first rung
        j from the stop round on with ``mass + unfrozen * W_j >= tight``;
        nodes with equal mass and unfrozen count share one bisection."""
        self._reconcile(hood)
        stop, unf, mass, t = self._stop, self._unfrozen, self._mass, self._t
        rungs, tight = self._rungs, self._tight
        # nodes already frozen, and those with no unfrozen edge, are done;
        # every node alive after the stop round has an unfrozen edge
        done: List[int] = []
        froze: List[int] = []
        sleepers: List[Tuple[int, int]] = []
        rung_of: Dict[Tuple[int, int], int] = {}
        for v in ids:
            k = unf[v]
            if not k:
                done.append(v)
                continue
            key = (mass[v], k)
            j = rung_of.get(key)
            if j is None:
                # W_j >= ceil((tight - mass) / unfrozen); the top rung
                # exceeds tight
                need = (tight - key[0] + k - 1) // k
                j = rung_of[key] = bisect_left(rungs, need, stop)
            t[v] = j
            if j == stop:
                froze.append(v)
            else:
                sleepers.append((v, j))
        if sleepers:
            _check_message(hood, max(j for _, j in sleepers).bit_length(),
                           "a wake rung message")
        if froze:
            _check_message(hood, max(1, stop.bit_length()), "a freeze message")
            # no node sleeps yet, so every neighbour hears these freezes now
            done += self._freeze(froze, stop)
        if self._memb:
            # the sample members stay until now
            self.plan.leave(ids)
        jj = self._j
        wake: DefaultDict[int, List[int]] = defaultdict(list)
        for v, j in sleepers:
            if unf[v]:
                jj[v] = j
                wake[j].append(v)
        for j, vs in wake.items():
            self.plan.post(j, vs)
        return done

    def _resleep(self, live: List[int], rnd: int, hood) -> None:
        """Post the next wake of each node of ``live``, awake and unfrozen
        after round ``rnd``'s gains.  A node whose threshold rung is the
        next round stays awake into it.  Any other node sleeps until its
        threshold rung, or until the least wake rung of its neighbours
        asleep now if that is earlier, and broadcasts that rung; if that
        rung is the next round, it stays awake instead."""
        t, jj, adj = self._t, self._j, self.graph.adj
        nxt = rnd + 1
        stay: List[int] = []
        wake: DefaultDict[int, List[int]] = defaultdict(list)
        for v in live:
            j = t[v]
            if j != nxt:
                # every node of live reads _AWAKE here, and a neighbour
                # asleep now a rung above rnd
                for u in adj[v]:
                    if jj[u] < j:
                        j = jj[u]
                if j != nxt:
                    wake[j].append(v)
                    continue
            stay.append(v)
        self.plan.post(nxt, stay)
        if wake:
            _check_message(hood, max(wake).bit_length(), "a wake rung message")
            for j, vs in wake.items():
                for v in vs:
                    jj[v] = j
                self.plan.post(j, vs)

    def _freeze(self, froze: List[int], r: int) -> List[int]:
        """The nodes ``froze`` freeze at round ``r``: each adds its unfrozen
        edges to its mass at rung r, and each neighbour not frozen by round
        r gains rung r once per such edge.  An awake neighbour gains now,
        and from the stop round on takes a new threshold rung; one asleep
        until its wake rung j > r is told at j.  A node with tells to make
        posts its tell rounds and terminates at the last.  Returns the
        nodes that terminate now: those of ``froze`` with no tell to make,
        and the awake gainers left with no unfrozen edge."""
        f, unf, mass, w = self._f, self._unfrozen, self._mass, self._rungs[r]
        jj, adj = self._j, self.graph.adj
        for v in froze:
            f[v] = r
            mass[v] += unf[v] * w
            unf[v] = 0
        gained: Dict[int, int] = {}
        # wake rung -> the tellers that wake there, each once
        tells: DefaultDict[int, List[int]] = defaultdict(list)
        # a neighbour asleep reads its wake rung, and gains at its wake rung;
        # one awake reads _AWAKE, and gains now if it is unfrozen (at the
        # stop round no node sleeps yet)
        done = []
        told_edges, told_mass, ending = (self._told_edges, self._told_mass,
                                         self._ending)
        awake = _AWAKE
        for v in froze:
            last = r
            for u in adj[v]:
                j = jj[u]
                if j != awake:
                    told_edges[u] += 1
                    told_mass[u] += w
                    told = tells[j]
                    if not told or told[-1] != v:
                        told.append(v)
                    if j > last:
                        last = j
                elif unf[u]:
                    gained[u] = gained.get(u, 0) + 1
            if last > r:
                ending[last].append(v)
            else:
                done.append(v)
        t, rungs, tight = self._t, self._rungs, self._tight
        for u, g in gained.items():
            k = unf[u] = unf[u] - g
            c = mass[u] = mass[u] + g * w
            if k:
                # u was not tight at r, so _t[u] > r (:meth:`_read_tells`)
                j = t[u]
                if c + k * rungs[j] < tight:
                    t[u] = bisect_left(rungs, (tight - c + k - 1) // k, j + 1)
            else:
                done.append(u)
        for j, vs in tells.items():
            self._widest[j] = r  # freezes come in round order
            self.plan.post(j, vs)
        return done

    def _sampled_round(self, rnd, awake, hood):
        """Reports of round ``rnd`` and the silent freezes they cause."""
        f = np.array(self._f)
        # every member of S_h^rnd is awake: it woke by round max(h-1, 0) <= rnd
        vs, hs = self._memb[rnd]
        keep = (f[vs] < 0) | (f[vs] >= hs)
        vs, hs = vs[keep], hs[keep]
        if vs.size == 0:
            return
        widest = np.bincount(vs, weights=self._hbits[hs] + 1).max()
        _check_message(hood, int(widest), "a report")
        sent = np.zeros((self.n, rnd + 1), dtype=np.int64)
        sent[vs, hs] = 1
        listeners = awake[f[awake] < 0]
        own, starts, nbrs = gather_neighbours(self.graph.csr(), listeners)
        if own.size == 0:
            return
        # k[i, h]: reports of round h that listeners[own[i]] heard
        k = np.add.reduceat(sent[nbrs], starts, axis=0)
        some = k.any(axis=1)
        # every reported h has E_h > 0, so a node that heard a report has a
        # positive estimate, and one that heard none has no estimate at all
        est = k[some].astype(object) @ self._coef[:rnd + 1]
        for v in listeners[own[some]][self.sched.b * est > self._est_cut].tolist():
            self._f[v] = rnd

    def _reconcile(self, hood):
        """Stop round: every start node broadcasts its freeze round, and
        each node rebuilds ``_unfrozen`` and ``_mass`` from its neighbours'.
        An edge with a frozen endpoint froze at the rung of its first-frozen
        endpoint (:func:`_slot_rungs`): a node frozen before now gets its
        whole load, and an unfrozen one the load of its frozen edges and
        the count of the others."""
        f, stop, n = self._f, self._stop, self.n
        _check_message(hood, max(1, max(f).bit_length()),
                       "a reconciliation message")
        if not stop:
            return  # no sampled round, so no node froze yet
        indptr = self.graph.csr()[0]
        owner = np.repeat(np.arange(n), indptr[1:] - indptr[:-1])
        slot = _slot_rungs(self.graph, f)
        frozen = slot < stop
        self._unfrozen = np.bincount(owner[~frozen], minlength=n).tolist()
        # at[v, r]: the edges of v frozen at rung r
        at = np.bincount(owner[frozen] * stop + slot[frozen].astype(np.int64),
                         minlength=n * stop).reshape(n, stop)
        self._mass = (at.astype(object) @ np.array(self._rungs[:stop], dtype=object)
                      ).tolist()

    def _is_tight(self, cands, rnd) -> List[int]:
        """The nodes of ``cands`` with an unfrozen edge and c_v >= 1-eps at
        rung ``rnd``, read from their threshold rungs."""
        t, unf = self._t, self._unfrozen
        return [v for v in cands if unf[v] and t[v] <= rnd]


def sampled_fractional(g: Graph, eps, seed: int, *, estimator_constant: int = 64,
                       force_stop_round: Optional[int] = None,
                       force_phase_probabilities=None):
    """Low-awake fractional matching.

    Returns ``(assignment, ledger, diagnostics)``.  Heavy nodes (exact
    c_v > 1) have their incident edges zeroed; the assignment then satisfies
    c_v <= 1 everywhere.  Light events count frozen nodes whose value is
    below 1-20eps after that clean-up and was at most 1-20eps before it.
    The analytic stop rule fires at round 0 for any practical n, and then
    this is the run vanilla_fractional makes, so its assignment is
    vanilla's by construction.  From the stop round on, each node sleeps
    until its wake rung, goes back to sleep after any round in which it
    could not be tight in the next, until the rung at which it could or
    the wake rung of a sleeping neighbour, and wakes at its neighbours'
    wake rungs to tell them of its freeze (see
    :class:`SampledMatchingProtocol`), so it is awake in far fewer rounds
    than the run takes.  A node without an edge never wakes and is never
    charged, and a run on a graph without an edge has 0 rounds.

    For eps >= 1/10 the estimator cut 1-10eps is at most 0, so on the forced
    path every node that hears a report freezes in its first sampled round.
    On G(60, 0.1) with eps = 1/10, stop round 4 and the formula's
    probabilities (1 in round 0 there), every node freezes in round 0, is
    awake 5 rounds, and the run takes 5 rounds.
    """
    sched = SampleSchedule(g.n, g.max_degree, eps, estimator_constant,
                           force_stop_round, force_phase_probabilities)
    return _match(g, sched, seed)


def vanilla_fractional(g: Graph, eps) -> FractionalAssignment:
    """Grow all active edges by (1+eps) per round; tight nodes freeze.

    This is the sampled matcher's run with stop round 0: no sample coin is
    drawn, so no seed is read, and the tight rule c_v >= 1-eps runs from
    the first rung on; each node sleeps after round 0 until the rung at
    which its load could first make it tight, and again after any later
    round in which it could not be tight in the next (see
    :class:`SampledMatchingProtocol`); a node without an edge never wakes
    (a graph without an edge takes 0 rounds).  Exact integer
    arithmetic on the ladder throughout.  Terminates within
    ceil(log_{1+eps} Delta) + 1 rounds with c_v <= 1 for every v.
    """
    sched = SampleSchedule(g.n, g.max_degree, eps, force_stop_round=0)
    asg, _, diag = _match(g, sched, 0)
    # loads only grow, so no heavy node at the end means none in any round
    assert diag.heavy_events == 0, "node value exceeded 1"
    return asg


def _match(g: Graph, sched: SampleSchedule, seed: int):
    """Run :class:`SampledMatchingProtocol` on ``sched`` from the nodes
    with an edge; returns ``(assignment, ledger, diagnostics)`` as
    :func:`sampled_fractional`."""
    proto = SampledMatchingProtocol(sched)
    indptr = g.csr()[0]
    start = np.flatnonzero(indptr[1:] != indptr[:-1])
    f, ledger, _ = run(g, proto, seed, proto.round_cap, part="frac",
                       start=start)
    one = proto._one
    asg = _assignment(g, f, proto._mass, proto._rungs, one)
    load = asg._load

    heavy = [v for v, c in enumerate(load) if c > one]
    diag = Diagnostics(heavy_events=len(heavy),
                       spoiled_value=Fraction(sum(load[v] for v in heavy), one),
                       stop_round=sched.stop_round)
    kept = load
    if heavy:
        # each slot moves to the 0 entry and leaves its own node's load
        dead = set(heavy)
        zero, vals = len(asg._vals) - 1, asg._vals
        idx, kept = asg._idx[:], load[:]
        s = 0
        for v, nb in enumerate(g.adj):
            for i, u in enumerate(nb, s):
                if v in dead or u in dead:
                    kept[v] -= vals[idx[i]]
                    idx[i] = zero
            s += len(nb)
        asg._idx, asg._load = idx, kept
    light = (sched.b - 20 * sched.a) * one  # 1 - 20 eps, times b
    diag.light_events = sum(1 for v, fv in enumerate(f)
                            if fv >= 0 and sched.b * load[v] <= light
                            and sched.b * kept[v] < light)
    return asg, ledger, diag


# ---------------------------------------------------------------------------
# Vertex cover and rounding


def extract_vertex_cover(assignment: FractionalAssignment) -> Set[int]:
    """All frozen nodes.  Valid by construction: at termination every edge
    has a frozen endpoint, independent of estimation errors."""
    return assignment.frozen_nodes


def round_matching(assignment: FractionalAssignment, seed: int) -> Matching:
    """One-shot randomized rounding: each node proposes along an incident
    edge with probability x_e/10; an edge is marked if either endpoint
    proposed it; marked edges with no marked neighbor are kept.

    Values are integers X_e = x_e * one, so the load test is sum X_e > one,
    and a 64-bit draw U proposes along the first edge, in ascending
    neighbour order, with U * 10 one < 2^64 * (X_e summed so far).  Any
    common multiple of the denominators would give the same proposals.  A
    node with U * 10 one >= 2^64 * load proposes nowhere, so it skips the
    walk.  The draws U = node_rng(seed, v, "propose", 0) of all nodes with
    a positive load come from one :func:`~awakesim.rng.node_rng_list` call.
    """
    a = assignment
    one, vals, idx, load = a._one, a._vals, a._idx, a._load
    for v, c in enumerate(load):
        if c > one:
            raise InvalidAssignment(f"node {v} carries value > 1")

    marked: Set[Edge] = set()
    adj, start = a.g.adj, a.g.csr()[0].tolist()
    ten = 10 * one
    live = [v for v, c in enumerate(load) if c]
    for v, r in zip(live, node_rng_list(seed, live, "propose", 0)):
        draw = r * ten
        if draw < TWO64 * load[v]:
            acc = 0
            for i, u in enumerate(adj[v], start[v]):
                acc += vals[idx[i]]
                if draw < TWO64 * acc:
                    marked.add((v, u) if v < u else (u, v))
                    break

    marked_deg: Dict[int, int] = {}
    for (u, v) in marked:
        marked_deg[u] = marked_deg.get(u, 0) + 1
        marked_deg[v] = marked_deg.get(v, 0) + 1
    kept = [e for e in marked if marked_deg[e[0]] == 1 and marked_deg[e[1]] == 1]
    return Matching(kept)
