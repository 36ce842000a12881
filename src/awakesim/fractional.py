"""Fractional matching: vanilla growth, sampled low-awake variant, vertex
cover extraction, and randomized rounding.

Weights live on the ladder w_j = (1+eps)^j / Delta.  With eps = a/b and a
top rung J, every rung j <= J is the integer W_j = b (a+b)^j b^(J-j), which
is w_j scaled by ONE = Delta b^(J+1) (:meth:`SampleSchedule.ladder`).  Node
masses are sums of rungs, so every freeze, heavy, light and proposal
decision is an exact comparison of Python integers; nothing is decided in
floating point.  ``Fraction`` only builds outputs: one object per rung, and
the spoiled value.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from .engine import BROADCAST, AwakeLedger, Protocol, run
from .errors import InvalidAssignment
from .graphs import Graph, Matching, canon
from .rng import TWO64, coin_threshold, node_rng, node_rng_array

Edge = Tuple[int, int]

_COIN_BLOCK = 1 << 18  # most sample coins drawn at once


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


class SampleSchedule:
    """Weight ladder, phase map, sampling probabilities, and the stop round.

    ``force_stop_round`` and ``force_phase_probabilities`` exist because the
    analytic stop rule fires immediately at practical n: they let tests drive
    the sub-1 sampling machinery.  Every knob is checked here, and a bad one
    raises ``ValueError`` naming it.
    """

    def __init__(self, n: int, delta: int, eps, estimator_constant: int = 64,
                 force_stop_round: Optional[int] = None,
                 force_phase_probabilities=None):
        self.n = max(2, n)
        self.delta = max(1, delta)
        self.eps = _check_eps(_as_fraction(eps))
        self.a, self.b = self.eps.numerator, self.eps.denominator
        self.C = _check_integer(estimator_constant, "estimator_constant", 1)
        self.i_max = saturation_phase(self.n)
        self._forced_p = _forced_probabilities(force_phase_probabilities,
                                               self.i_max)
        self._w: List[Fraction] = [Fraction(1, self.delta)]
        # growth: the first j with w_j >= 1, i.e. (a+b)^j >= Delta b^j
        up, down, self._growth = 1, self.delta, 0
        while up < down:
            up, down = up * (self.a + self.b), down * self.b
            self._growth += 1
        # stop rule: first phase whose scale is below eps*ln(1+eps)/1000
        cut = float(self.eps) * math.log1p(float(self.eps)) / 1000.0
        self.i_stop = self.i_max
        for i in range(1, self.i_max + 1):
            if 1.0 / iterated_log(self.n, i) > cut:
                self.i_stop = i
                break
        if force_stop_round is not None:
            self.stop_round = _check_integer(force_stop_round, "force_stop_round", 0)
        else:
            j = 0
            while self.phase(j) < self.i_stop:
                j += 1
            self.stop_round = j

    def ladder(self, top: int) -> Tuple[int, int, Iterator[int]]:
        """The rungs as integers, exact up to rung ``top``.

        Returns ``(one, tight, rungs)``: ``one = Delta b^(top+1)`` stands for
        1, ``tight = (b-a) Delta b^top`` for 1-eps, and ``rungs`` yields
        ``W_j = b (a+b)^j b^(top-j) = w_j * one`` for j = 0..top.
        """
        a, b = self.a, self.b
        return (self.delta * b ** (top + 1), (b - a) * self.delta * b ** top,
                self._rungs(top))

    def _rungs(self, top: int) -> Iterator[int]:
        a, b = self.a, self.b
        w = b ** (top + 1)
        for _ in range(top + 1):
            yield w
            w = w * (a + b) // b

    def w(self, j: int) -> Fraction:
        """w_j as a Fraction, built once per rung; outputs hold these."""
        if j < 0:
            return Fraction(0)
        while len(self._w) <= j:
            self._w.append(self._w[-1] * (1 + self.eps))
        return self._w[j]

    def weights(self, top: int) -> List[Fraction]:
        """[w(0), ..., w(top)]."""
        self.w(top)
        return self._w[:top + 1]

    def phase(self, j: int) -> int:
        """The first phase i with w_j <= 1 / iterated_log(n, i)^5."""
        up, down = (self.a + self.b) ** j, self.delta * self.b ** j
        for i in range(1, self.i_max + 1):
            if up * iterated_log(self.n, i) ** 5 <= down:
                return i
        return self.i_max

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


class FractionalAssignment:
    """Edge weights x_e with per-edge freeze rounds and per-node freeze data."""

    __slots__ = ("x", "frozen_round", "node_freeze", "n")

    def __init__(self, n: int, x: Dict[Edge, Fraction],
                 frozen_round: Dict[Edge, Optional[int]],
                 node_freeze: Dict[int, Optional[int]]):
        self.n = n
        self.x = x
        self.frozen_round = frozen_round
        self.node_freeze = node_freeze

    @property
    def frozen_nodes(self) -> Set[int]:
        return {v for v, f in self.node_freeze.items() if f is not None}

    def node_values(self) -> Dict[int, Fraction]:
        c = {v: Fraction(0) for v in range(self.n)}
        for (u, v), w in self.x.items():
            c[u] += w
            c[v] += w
        return c

    def total(self) -> Fraction:
        return sum(self.x.values(), Fraction(0))

    def total_float(self) -> float:
        return float(sum(float(w) for w in self.x.values()))

    def dump(self) -> str:
        lines = []
        for (u, v) in sorted(self.x):
            fr = self.frozen_round[(u, v)]
            lines.append(f"{u} {v} {self.x[(u, v)]} {fr if fr is not None else '-'}")
        return "\n".join(lines)

    def __eq__(self, other):
        if not isinstance(other, FractionalAssignment):
            return NotImplemented
        return (self.n == other.n and self.x == other.x
                and self.frozen_round == other.frozen_round
                and self.node_freeze == other.node_freeze)

    def __repr__(self):
        return (f"FractionalAssignment(n={self.n}, edges={len(self.x)}, "
                f"frozen_nodes={len(self.frozen_nodes)})")


# ---------------------------------------------------------------------------
# Vanilla (centralized reference)


def vanilla_fractional(g: Graph, eps) -> FractionalAssignment:
    """Grow all active edges by (1+eps) per round; tight nodes freeze.

    Exact integer arithmetic on the ladder throughout.  Terminates within
    ceil(log_{1+eps} Delta) + 1 rounds with c_v <= 1 for every v.
    """
    sched = SampleSchedule(g.n, g.max_degree, eps)
    n = g.n
    node_freeze: Dict[int, Optional[int]] = {v: None for v in range(n)}
    x: Dict[Edge, Fraction] = {}
    frozen_round: Dict[Edge, Optional[int]] = {}
    if g.m == 0:
        return FractionalAssignment(n, x, frozen_round, node_freeze)

    # at rung growth_rounds() every active node is tight, so no run climbs past it
    one, tight, rungs = sched.ladder(sched.growth_rounds())
    active_deg = [g.degree(v) for v in range(n)]
    frozen_mass = [0] * n
    active_nodes = {v for v in range(n) if active_deg[v] > 0}
    edge_frozen: Dict[Edge, int] = {}

    for j, w in enumerate(rungs):
        newly = [v for v in active_nodes
                 if frozen_mass[v] + active_deg[v] * w >= tight]
        for v in newly:
            node_freeze[v] = j
        for v in newly:
            for u in g.neighbors(v):
                e = canon(u, v)
                if e not in edge_frozen:
                    edge_frozen[e] = j
                    for z in e:
                        if node_freeze[z] is None or node_freeze[z] == j:
                            active_deg[z] -= 1
                            if node_freeze[z] is None:
                                frozen_mass[z] += w
        for v in newly:
            active_nodes.discard(v)
        active_nodes = {v for v in active_nodes if active_deg[v] > 0}
        # per-round validity: c_v <= 1 for everyone, checked exactly
        if __debug__:
            for v in range(n):
                c = frozen_mass[v] + active_deg[v] * w
                assert c <= one or node_freeze[v] == j, "node value exceeded 1"
        if not active_nodes:
            break

    values = sched.weights(j)
    for e in g.edges():
        fj = edge_frozen[e]
        x[e] = values[fj]
        frozen_round[e] = fj
    return FractionalAssignment(n, x, frozen_round, node_freeze)


# ---------------------------------------------------------------------------
# Sampled low-awake variant


class SampledMatchingProtocol(Protocol):
    """Distributed fractional matching with sampled congestion estimates.

    Rounds before ``schedule.stop_round`` are sampled: members of any S_h^j
    wake at round h-1, stay awake, and at round j report which rounds h they
    were sampled for while still active; awake unfrozen nodes freeze on the
    estimate c~_v > 1-10eps.  From the stop round on, everyone wakes, a
    one-shot reconciliation broadcast distributes freeze rounds, and the
    vanilla tight rule c_v >= 1-eps takes over.  A node terminates once all
    its incident edges are frozen (never before the stop round).

    Masses are integers on the ladder whose top rung is ``round_cap``, the
    last round a run can reach.
    """

    uses_subround2 = True
    congest_factor = 256  # report payloads carry one round index per phase

    def __init__(self, schedule: SampleSchedule):
        self.sched = schedule
        self.round_cap = schedule.stop_round + schedule.growth_rounds() + 4

    def bind(self, graph, seed):
        super().bind(graph, seed)
        s = self.sched
        n = self.n
        stop = self._stop = s.stop_round
        self._one, self._tight, rungs = s.ladder(self.round_cap)
        self._rungs = list(rungs)
        self._f = [-1] * n
        self._unfrozen = [graph.degree(v) for v in range(n)]
        self._mass = [0] * n
        self._wake = np.full(n, stop, dtype=np.int64)
        self._memb: List[Dict[int, List[int]]] = [{} for _ in range(n)]
        if stop > 0:
            self._sample(seed, stop)

    def _sample(self, seed, stop):
        """Draw the sample sets S_h^j (h <= j < stop) and scale the estimator.

        The estimate sum_h (w_h - w_{h-1}) k_h / p_h > 1 - 10 eps, where k_h
        counts reports of h, becomes b * sum_h k_h E_h > (b - 10a) * one * L,
        with L the lcm of the nonzero p_h numerators.  A p = 0 round is never
        sampled, so it is never reported and gets no coefficient.
        """
        s, w = self.sched, self._rungs
        ps = [s.p_of_phase(s.phase(h)) for h in range(stop)]
        lcm = math.lcm(*{p.numerator for p in ps if p})
        self._coef = [(w[h] - (w[h - 1] if h else 0)) * p.denominator
                      * (lcm // p.numerator) if p else 0
                      for h, p in enumerate(ps)]
        self._est_cut = (s.b - 10 * s.a) * self._one * lcm
        # coin of (v, h, j) is node_rng(seed, v, "sample", h * stop + j);
        # pairs (j, h) run j-major, so each member list is sorted by h
        jj, hh = np.tril_indices(stop)
        thr = [coin_threshold(p) for p in ps]
        always = np.array([t >= TWO64 for t in thr])[hh]
        cut = np.array([min(t, TWO64 - 1) for t in thr], dtype=np.uint64)[hh]
        idx = (hh * stop + jj)[None, :]
        memb = self._memb
        rows = max(1, _COIN_BLOCK // hh.size)  # bounds the coin matrix
        for lo in range(0, self.n, rows):
            ids = np.arange(lo, min(self.n, lo + rows))
            hit = (node_rng_array(seed, ids[:, None], "sample", idx) < cut) | always
            vs, ts = np.nonzero(hit)
            for v, j, h in zip((vs + lo).tolist(), jj[ts].tolist(), hh[ts].tolist()):
                memb[v].setdefault(j, []).append(h)
            # a member of S_h^j first wakes at round h-1
            first = np.where(hit, hh, stop).min(axis=1)
            self._wake[ids] = np.where(first < stop, np.maximum(first - 1, 0), stop)

    def wake_set(self, rnd, alive):
        if rnd >= self._stop:
            return np.nonzero(alive)[0]
        return np.nonzero(alive & (self._wake <= rnd))[0]

    def send1(self, v, rnd):
        if rnd < self._stop:
            fv = self._f[v]
            hs = [h for h in self._memb[v].get(rnd, ())
                  if fv < 0 or fv >= h]
            if hs:
                return ((BROADCAST, ("rep", tuple(hs))),)
            return ()
        if rnd == self._stop:
            return ((BROADCAST, ("rec", self._f[v])),)
        return ()

    def _is_tight(self, v, rnd) -> bool:
        return self._mass[v] + self._unfrozen[v] * self._rungs[rnd] >= self._tight

    def send2(self, v, rnd, inbox1):
        if rnd < self._stop:
            return ()
        if rnd == self._stop:
            # reconciliation: rebuild freeze bookkeeping from scratch
            if self._f[v] < 0:
                mass = unf = 0
                for _, (kind, fu) in inbox1:
                    if kind != "rec":
                        continue
                    if fu >= 0:
                        mass += self._rungs[fu]
                    else:
                        unf += 1
                self._mass[v] = mass
                self._unfrozen[v] = unf
            else:
                self._unfrozen[v] = 0
        if self._f[v] < 0 and self._unfrozen[v] > 0 and self._is_tight(v, rnd):
            self._f[v] = rnd
            self._unfrozen[v] = 0
            return ((BROADCAST, ("frz", rnd)),)
        return ()

    def finish(self, v, rnd, inbox1, inbox2):
        if rnd < self._stop:
            if self._f[v] < 0:
                est = 0
                for _, (kind, hs) in inbox1:
                    if kind == "rep":
                        for h in hs:
                            est += self._coef[h]
                # no report, no estimate: the cut is below 0 for eps > 1/10
                if est and self.sched.b * est > self._est_cut:
                    # silent freeze; neighbors learn at reconciliation
                    self._f[v] = rnd
                    self._unfrozen[v] = 0
            return None
        if self._f[v] < 0:
            for _, (kind, r) in inbox2:
                if kind == "frz":
                    self._unfrozen[v] -= 1
                    self._mass[v] += self._rungs[r]
        if self._unfrozen[v] == 0:
            return self._f[v]
        return None


def sampled_fractional(g: Graph, eps, seed: int, *, estimator_constant: int = 64,
                       force_stop_round: Optional[int] = None,
                       force_phase_probabilities=None,
                       record_schedule: bool = False):
    """Low-awake fractional matching.

    Returns ``(assignment, ledger, diagnostics)``.  Heavy nodes (exact
    c_v > 1) have their incident edges zeroed; the assignment then satisfies
    c_v <= 1 everywhere.  Light events count frozen nodes whose value is
    below 1-20eps after that clean-up and was at most 1-20eps before it.
    With the analytic stop rule firing at round 0, which it does for any
    practical n, this reproduces vanilla_fractional exactly while every node
    pays vanilla awake costs.

    For eps >= 1/10 the estimator cut 1-10eps is at most 0, so on the forced
    path every node that hears a report freezes in its first sampled round.
    On G(60, 0.1) with eps = 1/10, stop round 4 and the formula's
    probabilities (1 in round 0 there), every node freezes in round 0, is
    awake 5 rounds, and the run takes 5 rounds.
    """
    n = g.n
    sched = SampleSchedule(max(2, n), max(1, g.max_degree), eps,
                           estimator_constant, force_stop_round,
                           force_phase_probabilities)
    if n == 0:
        return (FractionalAssignment(0, {}, {}, {}),
                AwakeLedger(0, record_schedule=record_schedule),
                Diagnostics())
    proto = SampledMatchingProtocol(sched)
    outputs, ledger, _ = run(g, proto, seed, proto.round_cap, part="frac",
                             record_schedule=record_schedule)
    node_freeze = {v: (f if f >= 0 else None) for v, f in outputs.items()}
    x: Dict[Edge, Fraction] = {}
    frozen_round: Dict[Edge, Optional[int]] = {}
    rungs, one = proto._rungs, proto._one
    values = sched.weights(max(outputs.values()))
    load = [0] * n
    for e in g.edges():
        fu, fv = outputs[e[0]], outputs[e[1]]
        # every edge has a frozen endpoint; it froze at the earlier one
        fj = fv if fu < 0 else fu if fv < 0 else min(fu, fv)
        x[e] = values[fj]
        frozen_round[e] = fj
        load[e[0]] += rungs[fj]
        load[e[1]] += rungs[fj]
    asg = FractionalAssignment(n, x, frozen_round, node_freeze)

    heavy = [v for v in range(n) if load[v] > one]
    diag = Diagnostics(heavy_events=len(heavy),
                       spoiled_value=Fraction(sum(load[v] for v in heavy), one))
    kept = load[:]
    if heavy:
        dead = set(heavy)
        zero = Fraction(0)
        for e in x:
            if e[0] in dead or e[1] in dead:
                x[e] = zero
                kept[e[0]] -= rungs[frozen_round[e]]
                kept[e[1]] -= rungs[frozen_round[e]]
    light = (sched.b - 20 * sched.a) * one  # 1 - 20 eps, times b
    diag.light_events = sum(1 for v, f in node_freeze.items()
                            if f is not None and sched.b * load[v] <= light
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

    Values are scaled by the lcm L of their denominators, X_e = x_e L, so the
    load test is sum X_e > L and a 64-bit draw U proposes along the first
    edge (in sorted order) with U * 10 L < 2^64 * (X_e summed so far).
    """
    x = assignment.x
    dens = {w.denominator for w in x.values()}
    scale = math.lcm(*dens)
    factor = {d: scale // d for d in dens}
    scaled: Dict[Edge, int] = {}
    load: Dict[int, int] = {}
    for e, w in x.items():
        xe = scaled[e] = w.numerator * factor[w.denominator]
        for z in e:
            load[z] = load.get(z, 0) + xe
    for v, c in load.items():
        if c > scale:
            raise InvalidAssignment(f"node {v} carries value > 1")

    incident: Dict[int, List[Edge]] = {}
    for e, xe in scaled.items():
        if xe > 0:
            incident.setdefault(e[0], []).append(e)
            incident.setdefault(e[1], []).append(e)

    marked: Set[Edge] = set()
    for v, edges in incident.items():
        draw = node_rng(seed, v, "propose", 0) * 10 * scale
        acc = 0
        for e in sorted(edges):
            acc += scaled[e]
            if draw < TWO64 * acc:
                marked.add(e)
                break

    marked_deg: Dict[int, int] = {}
    for (u, v) in marked:
        marked_deg[u] = marked_deg.get(u, 0) + 1
        marked_deg[v] = marked_deg.get(v, 0) + 1
    kept = [e for e in marked if marked_deg[e[0]] == 1 and marked_deg[e[1]] == 1]
    return Matching(kept)
