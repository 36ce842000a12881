"""Fractional matching: vanilla growth, sampled low-awake variant, vertex
cover extraction, and randomized rounding.

Weights live on the ladder w_j = (1+eps)^j / Delta.  With eps = a/b and a
top rung J, every rung j <= J is the integer W_j = b (a+b)^j b^(J-j), which
is w_j scaled by ONE = Delta b^(J+1) (:meth:`SampleSchedule.ladder`).  Node
masses are sums of rungs, so every freeze, heavy, light and proposal
decision is an exact comparison of Python integers; nothing is decided in
floating point.  There is one matcher, :class:`SampledMatchingProtocol`;
``vanilla_fractional`` is its run with stop round 0.  A run reduces to its
node freeze rounds and the node loads its tight tests tracked, and its
:class:`FractionalAssignment` keeps integers only: one rung index per
adjacency slot and each node's load times ONE.
The heavy clean-up, the rounding, the loads and ``dump`` read those
integers; ``Fraction`` values are built only when a view asks for them.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

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
def _schedule_shape(n: int, delta: int, eps: Fraction) -> Tuple[int, int, int, int]:
    """``(i_max, growth, i_stop, analytic stop round)`` for ``n`` >= 2 nodes
    of max degree ``delta`` >= 1.  A bad ``eps`` raises on every call, since
    ``lru_cache`` does not cache exceptions."""
    _check_eps(eps)
    a, b = eps.numerator, eps.denominator
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
        self.i_max, self._growth, self.i_stop, stop = _schedule_shape(
            self.n, self.delta, self.eps)
        self.a, self.b = self.eps.numerator, self.eps.denominator
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


def _assignment(g: Graph, f: List[int], load: List[int], rungs: List[int],
                one: int) -> FractionalAssignment:
    """The assignment of the node freeze rounds ``f`` (-1: never froze) and
    node loads ``load`` on the ladder ``rungs`` scaled by ``one``, before any
    clean-up.  The loads are the matcher's own (see
    :class:`SampledMatchingProtocol`); nothing here adds rungs.

    Every edge freezes when its first endpoint does, at that rung, so slot
    (v, u) has rung index min(f[v], f[u]), taken over ``g.csr()`` in one
    array step; every edge must have a frozen endpoint.  A slot's value
    index is its freeze round, so both start as one list.
    """
    indptr, indices = g.csr()
    # -1 (never froze) wraps to 2^64 - 1, so a slot's min is a rung index
    # unless neither endpoint froze
    key = np.array(f, dtype=np.int64).view(np.uint64)
    fr = np.minimum(key.repeat(np.diff(indptr)), key[indices]).tolist()
    assert max(fr, default=0) < len(rungs), "an edge has no frozen endpoint"
    return FractionalAssignment.__new__(FractionalAssignment)._fill(
        g, rungs + [0], fr, fr, f, load, one)


# ---------------------------------------------------------------------------
# Sampled low-awake variant, and vanilla as its stop-round-0 run

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
    * At the stop round everyone wakes and broadcasts its freeze round once
      (reconciliation); each node rebuilds its frozen mass and its count of
      unfrozen edges from its frozen neighbours.
    * From the stop round on, the vanilla tight rule c_v >= 1-eps runs on the
      nodes that still have an unfrozen edge.  A node that freezes at rung r
      tells its neighbours, and an unfrozen neighbour gains k * W_r from k
      such neighbours.  A node terminates once all its incident edges are
      frozen (never before the stop round).

    ``bind`` stays each sample member from its first wake and every node
    from the stop round (:meth:`~awakesim.engine.WakePlan.stay`): an awake
    node stays awake until it terminates, and ``round`` posts nothing.
    Only awake nodes send or hear.  Each round checks its widest message
    once against the hood's CONGEST bound (:func:`_check_message`).  A
    message is a ``(tag, field)`` pair with a three-letter tag, measured as
    the engine measures envelopes: ``_TAG_BITS`` = 26 bits plus the field,
    which is len(hs) + sum(max(1, h.bit_length())) bits for a report of
    rounds ``hs``, and max(1, r.bit_length()) for the round r of a
    reconciliation or freeze message.

    Masses are integers on the ladder whose top rung is ``round_cap``, the
    last round a run can reach.  An unfrozen node's ``_mass`` is the load
    of its frozen edges; a frozen node's is its whole load, every edge at
    the rung of its first-frozen endpoint.  A node that freezes from the
    stop round on adds its unfrozen edges at its rung, which is the value
    its tight test passed; one frozen earlier gets its load at the
    reconciliation, which replays the sampled rounds' freezes.  Both go
    through one freeze step, :meth:`_freeze`.  So when the run ends,
    ``_mass`` holds every node's load, and the assignment takes it as it
    is.  ``outputs`` is the list of node freeze rounds (-1: never froze).
    """

    congest_factor = 256  # report payloads carry one round index per phase
    state_fields = ("_f", "_mass", "_unfrozen")

    def __init__(self, schedule: SampleSchedule):
        self.sched = schedule
        self.round_cap = schedule.stop_round + schedule.growth_rounds() + 4

    def bind(self, graph, seed, plan):
        super().bind(graph, seed, plan)
        s = self.sched
        stop = self._stop = s.stop_round
        # shared with every run of the same ladder: read, never changed
        self._one, self._tight, self._rungs = s.ladder(self.round_cap)
        self.outputs = self._f = [-1] * self.n
        # rebuilt by _reconcile at the stop round
        self._unfrozen: List[int] = []
        self._mass: List[int] = []
        # _memb[j] = (v, h): the members v of each S_h^j, as two arrays
        self._memb: List[Tuple[np.ndarray, np.ndarray]] = []
        if stop > 0 and self.n > 0:
            self._sample(seed, stop)
        plan.stay(stop, np.arange(self.n))

    def _sample(self, seed, stop):
        """Draw the sample sets S_h^j (h <= j < stop) and scale the estimator.

        The estimate sum_h (w_h - w_{h-1}) k_h / p_h > 1 - 10 eps, where k_h
        counts reports of h, becomes b * sum_h k_h E_h > (b - 10a) * one * L,
        with L the lcm of the nonzero p_h numerators.  A p = 0 round is never
        sampled, so it is never reported and gets no coefficient.

        Membership is one ``rng.coins`` matrix: node v is row v, the pair
        (j, h) is a column, and column (j, h) flips its coins with p_h.
        """
        s, w = self.sched, self._rungs
        ps = [s.p_of_phase(s.phase(h)) for h in range(stop)]
        lcm = math.lcm(*{p.numerator for p in ps if p})
        self._coef = np.array([(w[h] - (w[h - 1] if h else 0)) * p.denominator
                               * (lcm // p.numerator) if p else 0
                               for h, p in enumerate(ps)], dtype=object)
        self._est_cut = (s.b - 10 * s.a) * self._one * lcm
        self._hbits = np.array([max(1, h.bit_length()) for h in range(stop)])
        # coin of (v, h, j) is node_rng(seed, v, "sample", h * stop + j)
        jj, hh = np.tril_indices(stop)
        hit = coins(seed, np.arange(self.n)[:, None], "sample", hh * stop + jj,
                    np.array(ps, dtype=object)[hh])
        hit = np.unpackbits(hit, axis=1, count=hh.size).view(bool)
        vs, ts = np.nonzero(hit)
        # a member of S_h^j first wakes at round h-1
        first = np.where(hit, hh, stop).min(axis=1)
        members = np.flatnonzero(first < stop)
        wake = np.maximum(first[members] - 1, 0)
        for r in range(stop):
            self.plan.stay(r, members[wake == r])
        jt = jj[ts]
        self._memb = [(vs[jt == j], hh[ts[jt == j]]) for j in range(stop)]

    def round(self, rnd, awake, hood):
        if rnd < self._stop:
            self._sampled_round(rnd, awake, hood)
            return ()
        ids = awake.tolist()
        done: List[int] = []
        if rnd == self._stop:
            self._reconcile(hood)
            # nodes already frozen, and those with no unfrozen edge, are done;
            # every node alive after the stop round has an unfrozen edge
            done = [v for v in ids if not self._unfrozen[v]]
            ids = [v for v in ids if self._unfrozen[v]]
        froze = self._is_tight(ids, rnd)
        if froze:
            _check_message(hood, max(1, rnd.bit_length()), "a freeze message")
            gained = self._freeze(froze, rnd)
            done += froze
            done += [u for u in gained if not self._unfrozen[u]]
        return done

    def _freeze(self, froze: List[int], r: int) -> Dict[int, int]:
        """The nodes ``froze`` freeze at round ``r``: each adds its unfrozen
        edges to its mass at rung r, and each neighbour not frozen by round
        r gains rung r once per such edge.  Returns the gainers, each with
        its number of gained edges."""
        f, unf, mass, w = self._f, self._unfrozen, self._mass, self._rungs[r]
        for v in froze:
            f[v] = r
            mass[v] += unf[v] * w
            unf[v] = 0
        gained: Dict[int, int] = {}
        adj = self.graph.adj
        for v in froze:
            for u in adj[v]:
                if not 0 <= f[u] <= r:
                    gained[u] = gained.get(u, 0) + 1
        for u, k in gained.items():
            unf[u] -= k
            mass[u] += k * w
        return gained

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
        """Stop round: rebuild ``_unfrozen`` and ``_mass`` from the freeze
        rounds every node broadcasts, by replaying the sampled rounds'
        freezes through :meth:`_freeze` in round order.  A node frozen
        before now gets its load: each of its edges at the rung of the
        edge's first-frozen endpoint."""
        f = self._f
        _check_message(hood, max(1, max(f).bit_length()),
                       "a reconciliation message")
        self._unfrozen = [len(a) for a in self.graph.adj]
        self._mass = [0] * self.n
        froze_at: Dict[int, List[int]] = {}
        for v, fv in enumerate(f):
            if fv >= 0:
                froze_at.setdefault(fv, []).append(v)
        for r in sorted(froze_at):
            self._freeze(froze_at[r], r)

    def _is_tight(self, cands, rnd) -> List[int]:
        """The nodes of ``cands`` with c_v >= 1-eps at rung ``rnd``."""
        w, tight, mass, unf = self._rungs[rnd], self._tight, self._mass, self._unfrozen
        return [v for v in cands if mass[v] + unf[v] * w >= tight]


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
    vanilla's by construction and every node pays vanilla awake costs.

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
    the first rung on with every node awake.  Exact integer arithmetic on
    the ladder throughout.  Terminates within ceil(log_{1+eps} Delta) + 1
    rounds with c_v <= 1 for every v.
    """
    sched = SampleSchedule(g.n, g.max_degree, eps, force_stop_round=0)
    asg, _, diag = _match(g, sched, 0)
    # loads only grow, so no heavy node at the end means none in any round
    assert diag.heavy_events == 0, "node value exceeded 1"
    return asg


def _match(g: Graph, sched: SampleSchedule, seed: int):
    """Run :class:`SampledMatchingProtocol` on ``sched``; returns
    ``(assignment, ledger, diagnostics)`` as :func:`sampled_fractional`."""
    proto = SampledMatchingProtocol(sched)
    f, ledger, _ = run(g, proto, seed, proto.round_cap, part="frac")
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
