"""Fractional matching: vanilla growth, sampled low-awake variant, vertex
cover extraction, and randomized rounding.

Weights live on a fixed ladder w_j = (1+eps)^j / Delta held as exact
rationals, so freeze decisions are deterministic; hot loops keep float
shadows and fall back to exact arithmetic only near thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .engine import BROADCAST, AwakeLedger, Protocol, run
from .errors import InvalidAssignment
from .graphs import Graph, Matching, canon
from .rng import TWO64, coin_threshold, node_rng

Edge = Tuple[int, int]

_THRESH_MARGIN = 1e-9


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
    the sub-1 sampling machinery.
    """

    def __init__(self, n: int, delta: int, eps, estimator_constant: int = 64,
                 force_stop_round: Optional[int] = None,
                 force_phase_probabilities=None):
        self.n = max(2, n)
        self.delta = max(1, delta)
        self.eps = _check_eps(_as_fraction(eps))
        self.C = estimator_constant
        self.i_max = saturation_phase(self.n)
        self._forced_p = force_phase_probabilities
        self._w: List[Fraction] = [Fraction(1, self.delta)]
        self._wf: List[float] = [1.0 / self.delta]
        # stop rule: first phase whose scale is below eps*ln(1+eps)/1000
        cut = float(self.eps) * math.log1p(float(self.eps)) / 1000.0
        self.i_stop = self.i_max
        for i in range(1, self.i_max + 1):
            if 1.0 / iterated_log(self.n, i) > cut:
                self.i_stop = i
                break
        if force_stop_round is not None:
            self.stop_round = int(force_stop_round)
        else:
            j = 0
            while self.phase(j) < self.i_stop:
                j += 1
            self.stop_round = j

    def w(self, j: int) -> Fraction:
        if j < 0:
            return Fraction(0)
        while len(self._w) <= j:
            nxt = self._w[-1] * (1 + self.eps)
            self._w.append(nxt)
            self._wf.append(float(nxt))
        return self._w[j]

    def w_float(self, j: int) -> float:
        if j < 0:
            return 0.0
        self.w(j)
        return self._wf[j]

    def phase(self, j: int) -> int:
        w = self.w(j)
        for i in range(1, self.i_max + 1):
            if w <= Fraction(1, iterated_log(self.n, i) ** 5):
                return i
        return self.i_max

    def p_of_phase(self, i: int) -> Fraction:
        if self._forced_p is not None:
            if isinstance(self._forced_p, (int, float, str, Fraction)):
                return _as_fraction(self._forced_p)
            try:
                forced = self._forced_p[i]
            except (KeyError, IndexError):
                forced = None
            if forced is not None:
                return _as_fraction(forced)
        return min(Fraction(1), Fraction(self.C, iterated_log(self.n, i) ** 4))

    def growth_rounds(self) -> int:
        """Smallest j with w_j >= 1; all edges are frozen within this +1."""
        j = 0
        while self.w(j) < 1:
            j += 1
        return j


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

    def node_value(self, v: int) -> Fraction:
        return sum((w for e, w in self.x.items() if v in e), Fraction(0))

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

    Exact rational arithmetic throughout.  Terminates within
    ceil(log_{1+eps} Delta) + 1 rounds with c_v <= 1 for every v.
    """
    eps = _check_eps(_as_fraction(eps))
    n = g.n
    node_freeze: Dict[int, Optional[int]] = {v: None for v in range(n)}
    x: Dict[Edge, Fraction] = {}
    frozen_round: Dict[Edge, Optional[int]] = {}
    if g.m == 0:
        return FractionalAssignment(n, x, frozen_round, node_freeze)

    delta = g.max_degree
    w = Fraction(1, delta)
    tight_at = 1 - eps
    active_deg = {v: g.degree(v) for v in range(n)}
    frozen_mass = {v: Fraction(0) for v in range(n)}
    active_nodes = {v for v in range(n) if active_deg[v] > 0}
    edge_frozen: Dict[Edge, int] = {}

    j = 0
    while True:
        newly = [v for v in active_nodes
                 if frozen_mass[v] + active_deg[v] * w >= tight_at]
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
                assert c <= 1 or node_freeze[v] == j, "node value exceeded 1"
        if not active_nodes:
            break
        w *= 1 + eps
        j += 1

    for e in g.edges():
        fj = edge_frozen[e]
        x[e] = Fraction(1, delta) * (1 + eps) ** fj
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
    """

    uses_subround2 = True
    congest_factor = 256  # report payloads carry one round index per phase

    def __init__(self, schedule: SampleSchedule):
        self.sched = schedule

    def bind(self, graph, seed):
        super().bind(graph, seed)
        s = self.sched
        n = self.n
        stop = s.stop_round
        self._stop = stop
        self._tight = 1 - s.eps
        self._tight_f = float(self._tight)
        self._est_cut = 1 - 10 * s.eps
        self._f = np.full(n, -1, dtype=np.int64)
        self._unfrozen = np.array([graph.degree(v) for v in range(n)],
                                  dtype=np.int64)
        self._events: List[List[int]] = [[] for _ in range(n)]
        self._mass_f = np.zeros(n, dtype=np.float64)
        self._wake = np.full(n, stop, dtype=np.int64)
        self._memb: List[Dict[int, List[int]]] = [{} for _ in range(n)]
        if stop > 0:
            thr = [coin_threshold(s.p_of_phase(s.phase(h))) for h in range(stop)]
            for v in range(n):
                mv = self._memb[v]
                for j in range(stop):
                    for h in range(j + 1):
                        t = thr[h]
                        if t >= TWO64 or node_rng(seed, v, "sample",
                                                  h * stop + j) < t:
                            mv.setdefault(j, []).append(h)
                            if h - 1 < self._wake[v]:
                                self._wake[v] = max(0, h - 1)

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
            return ((BROADCAST, ("rec", int(self._f[v]))),)
        return ()

    def _is_tight(self, v, rnd) -> bool:
        s = self.sched
        c_f = self._mass_f[v] + self._unfrozen[v] * s.w_float(rnd)
        if c_f >= self._tight_f + _THRESH_MARGIN:
            return True
        if c_f <= self._tight_f - _THRESH_MARGIN:
            return False
        c = sum((s.w(r) for r in self._events[v]), Fraction(0)) \
            + self._unfrozen[v] * s.w(rnd)
        return c >= self._tight

    def send2(self, v, rnd, inbox1):
        if rnd < self._stop:
            return ()
        if rnd == self._stop:
            # reconciliation: rebuild freeze bookkeeping from scratch
            if self._f[v] < 0:
                ev = self._events[v]
                ev.clear()
                mass = 0.0
                unf = 0
                for _, (kind, fu) in inbox1:
                    if kind != "rec":
                        continue
                    if fu >= 0:
                        ev.append(fu)
                        mass += self.sched.w_float(fu)
                    else:
                        unf += 1
                self._mass_f[v] = mass
                self._unfrozen[v] = unf
            else:
                self._unfrozen[v] = 0
        if self._f[v] < 0 and self._unfrozen[v] > 0 and self._is_tight(v, rnd):
            self._f[v] = rnd
            self._unfrozen[v] = 0
            return ((BROADCAST, ("frz", rnd)),)
        return ()

    def finish(self, v, rnd, inbox1, inbox2):
        s = self.sched
        if rnd < self._stop:
            if self._f[v] < 0:
                cnt: Dict[int, int] = {}
                for _, (kind, hs) in inbox1:
                    if kind != "rep":
                        continue
                    for h in hs:
                        cnt[h] = cnt.get(h, 0) + 1
                if cnt:
                    est = Fraction(0)
                    for h, k in cnt.items():
                        p = s.p_of_phase(s.phase(h))
                        est += (s.w(h) - s.w(h - 1)) * Fraction(k) / p
                    if est > self._est_cut:
                        # silent freeze; neighbors learn at reconciliation
                        self._f[v] = rnd
                        self._unfrozen[v] = 0
            return None
        if self._f[v] < 0:
            for _, (kind, r) in inbox2:
                if kind == "frz":
                    self._unfrozen[v] -= 1
                    self._events[v].append(r)
                    self._mass_f[v] += s.w_float(r)
        if self._unfrozen[v] == 0:
            return int(self._f[v])
        return None


def sampled_fractional(g: Graph, eps, seed: int, *, estimator_constant: int = 64,
                       force_stop_round: Optional[int] = None,
                       force_phase_probabilities=None,
                       record_schedule: bool = False):
    """Low-awake fractional matching.

    Returns ``(assignment, ledger, diagnostics)``.  Heavy nodes (exact
    c_v > 1) have their incident edges zeroed; the assignment then satisfies
    c_v <= 1 everywhere.  With the analytic stop rule firing at round 0,
    which it does for any practical n, this reproduces vanilla_fractional
    exactly while every node pays vanilla awake costs.
    """
    n = g.n
    sched = SampleSchedule(max(2, n), max(1, g.max_degree), eps,
                           estimator_constant, force_stop_round,
                           force_phase_probabilities)
    if n == 0:
        return (FractionalAssignment(0, {}, {}, {}), AwakeLedger(0),
                Diagnostics())
    proto = SampledMatchingProtocol(sched)
    cap = sched.stop_round + sched.growth_rounds() + 4
    outputs, ledger, _ = run(g, proto, seed, cap, part="frac",
                             record_schedule=record_schedule)
    node_freeze = {v: (f if f >= 0 else None) for v, f in outputs.items()}
    x: Dict[Edge, Fraction] = {}
    frozen_round: Dict[Edge, Optional[int]] = {}
    for e in g.edges():
        fu, fv = outputs[e[0]], outputs[e[1]]
        fj = min(f for f in (fu, fv) if f >= 0)
        x[e] = sched.w(fj)
        frozen_round[e] = fj
    asg = FractionalAssignment(n, x, frozen_round, node_freeze)

    diag = Diagnostics()
    c_float = np.zeros(n, dtype=np.float64)
    for (u, v), w in x.items():
        wf = float(w)
        c_float[u] += wf
        c_float[v] += wf
    exact: Dict[int, Fraction] = {}

    def node_val(v: int) -> Fraction:
        if v not in exact:
            exact[v] = sum((x[canon(v, u)] for u in g.neighbors(v)
                            if canon(v, u) in x), Fraction(0))
        return exact[v]

    heavy = [v for v in range(n)
             if c_float[v] > 1 - 1e-6 and node_val(v) > 1]
    for v in heavy:
        diag.heavy_events += 1
        diag.spoiled_value += node_val(v)
    if heavy:
        dead = set(heavy)
        for e in list(x):
            if e[0] in dead or e[1] in dead:
                x[e] = Fraction(0)
    light_cut = 1 - 20 * sched.eps
    lf = float(light_cut)
    for v, f in node_freeze.items():
        if f is not None and c_float[v] < lf + 1e-6 and node_val(v) < light_cut:
            diag.light_events += 1
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
    proposed it; marked edges with no marked neighbor are kept."""
    n = assignment.n
    x = assignment.x
    c_float = {}
    for (u, v), w in x.items():
        wf = float(w)
        c_float[u] = c_float.get(u, 0.0) + wf
        c_float[v] = c_float.get(v, 0.0) + wf
    for v, cf in c_float.items():
        if cf > 1 - 1e-6 and assignment.node_value(v) > 1:
            raise InvalidAssignment(f"node {v} carries value > 1")

    incident: Dict[int, List[Edge]] = {}
    for e, w in x.items():
        if w > 0:
            incident.setdefault(e[0], []).append(e)
            incident.setdefault(e[1], []).append(e)

    marked: Set[Edge] = set()
    for v, edges in incident.items():
        u01 = Fraction(node_rng(seed, v, "propose", 0), TWO64)
        acc = Fraction(0)
        for e in sorted(edges):
            acc += x[e] / 10
            if u01 < acc:
                marked.add(e)
                break

    marked_deg: Dict[int, int] = {}
    for (u, v) in marked:
        marked_deg[u] = marked_deg.get(u, 0) + 1
        marked_deg[v] = marked_deg.get(v, 0) + 1
    kept = [e for e in marked if marked_deg[e[0]] == 1 and marked_deg[e[1]] == 1]
    return Matching(kept)
