"""Fractional matching: ladder growth, schedules, sampled variant."""

import hashlib
import math
from fractions import Fraction
from typing import Dict, List

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awakesim import engine, fractional, rng
from awakesim.engine import BROADCAST, Protocol, run
from awakesim.errors import InvalidAssignment
from awakesim.fractional import (FractionalAssignment,
                                 SampledMatchingProtocol, SampleSchedule,
                                 extract_vertex_cover, iterated_log,
                                 round_matching, sampled_fractional,
                                 saturation_phase, vanilla_fractional)
from awakesim.graphs import (Graph, Matching, complete_graph, cycle_graph,
                             gen_bipartite, gen_gnp, path_graph,
                             petersen_graph, star_graph)
from awakesim.oracles import verify_vertex_cover
from awakesim.rng import TWO64, coin_threshold, node_rng
from conftest import (assert_local, ref_gated_rounds, ref_slot_loads,
                      ref_vanilla, ref_vanilla_assignment, sleep_checked,
                      watched_wakes)
from test_mis import small_graphs


def ref_round_matching(assignment, seed):
    """Independent reference: the rounding rule in Fraction arithmetic."""
    x = assignment.x
    load = {}
    for (u, v), w in x.items():
        load[u] = load.get(u, Fraction(0)) + w
        load[v] = load.get(v, Fraction(0)) + w
    for v, c in load.items():
        if c > 1:
            raise InvalidAssignment(f"node {v} carries value > 1")
    incident = {}
    for e, w in x.items():
        if w > 0:
            incident.setdefault(e[0], []).append(e)
            incident.setdefault(e[1], []).append(e)
    marked = set()
    for v, edges in incident.items():
        u01 = Fraction(node_rng(seed, v, "propose", 0), TWO64)
        acc = Fraction(0)
        for e in sorted(edges):
            acc += x[e] / 10
            if u01 < acc:
                marked.add(e)
                break
    deg = {}
    for u, v in marked:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return Matching([e for e in marked if deg[e[0]] == 1 and deg[e[1]] == 1])


class RefSampledProtocol(Protocol):
    """Reference: the per-node hook version of SampledMatchingProtocol,
    which the whole-round protocol must match output for output.  Each
    round runs ``send1`` for every awake node and delivers its envelopes,
    then ``send2`` and delivers, then ``finish``, which says whether the
    node terminates.

    Distributed fractional matching with sampled congestion estimates.

    Only the start nodes take part, and every node with an edge is one.
    Rounds before ``schedule.stop_round`` are sampled: members of any S_h^j
    wake at round h-1, stay awake, and at round j report which rounds h they
    were sampled for while still active; awake unfrozen nodes freeze on the
    estimate c~_v > 1-10eps.  At the stop round every start node wakes, a
    one-shot reconciliation broadcast distributes freeze rounds, and the
    vanilla tight rule c_v >= 1-eps takes over.  A node that is not tight then
    broadcasts its wake rung j_v, the first rung with mass + unfrozen * W_j
    >= tight, and sleeps until j_v; there it adds the tells of the
    neighbours that froze while it slept.  A node that freezes after the
    stop round sends such a tell to each neighbour whose wake rung is
    later, at that rung.  A node terminates once all its incident edges are
    frozen and it has no tell left to send (never before the stop round).
    Each node posts its own wakes: every start node the stop round, each
    sample member its first wake, each awake unfrozen node the next round
    (its wake rung at the stop round), and each node with tells to send
    its next tell round.

    Masses are integers on the ladder whose top rung is ``round_cap``, the
    last round a run can reach.
    """

    congest_factor = 256  # report payloads carry one round index per phase

    def __init__(self, schedule: SampleSchedule):
        self.sched = schedule
        self.round_cap = schedule.stop_round + schedule.growth_rounds() + 4

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        s = self.sched
        n = self.n
        stop = self._stop = s.stop_round
        self._one, self._tight, rungs = s.ladder(self.round_cap)
        self._rungs = list(rungs)
        self.outputs = self._f = [-1] * n
        self._unfrozen = [graph.degree(v) for v in range(n)]
        self._mass = [0] * n
        self._j = [None] * n  # own wake rung
        self._heard_j: List[Dict[int, int]] = [{} for _ in range(n)]
        self._tells: List[List[int]] = [[] for _ in range(n)]  # rounds left
        self._memb: List[Dict[int, List[int]]] = [{} for _ in range(n)]
        if stop > 0:
            self._sample(seed, stop, start.tolist())
        for v in start.tolist():
            plan.post(stop, [v])

    def _sample(self, seed, stop, start):
        """Draw the sample sets S_h^j (h <= j < stop) start node by start
        node with the scalar coins, post each member's first wake, and scale
        the estimator.

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
        # coin of (v, h, j) is node_rng(seed, v, "sample", h * stop + j); a
        # draw is below 2^64, so a p = 1 coin always succeeds
        cut = [coin_threshold(p) for p in ps]
        for v in start:
            memb = self._memb[v]
            for j in range(stop):
                for h in range(j + 1):
                    if node_rng(seed, v, "sample", h * stop + j) < cut[h]:
                        memb.setdefault(j, []).append(h)
            if memb:
                # a member of S_h^j first wakes at round h-1
                first = min(min(hs) for hs in memb.values())
                self.plan.post(max(first - 1, 0), [v])

    def round(self, rnd, awake, hood):
        adj_np, ids = self.graph.adj_arrays(), awake.tolist()
        awake_mask = np.zeros(self.n, dtype=bool)
        awake_mask[awake] = True
        inbox1, inbox2 = {}, {}
        engine._deliver(((v, self.send1(v, rnd)) for v in ids), adj_np, awake_mask,
                        inbox1, hood.bound, engine.payload_bits)
        engine._deliver(((v, self.send2(v, rnd, inbox1.get(v, ()))) for v in ids),
                        adj_np, awake_mask, inbox2, hood.bound, engine.payload_bits)
        done = []
        for v in ids:
            if self.finish(v, rnd, inbox1.get(v, ()), inbox2.get(v, ())):
                done.append(v)
            elif self._f[v] >= 0 and rnd >= self._stop:
                self.plan.post(self._tells[v][0], [v])
            elif rnd == self._stop:
                self.plan.post(self._j[v], [v])
            else:
                # an awake unfrozen node stays awake until it terminates
                self.plan.post(rnd + 1, [v])
        return done

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
        if self._f[v] >= 0:
            # a tell to each neighbour that wakes now, sent point to point
            return tuple((w, ("tel", self._f[v]))
                         for w, j in self._heard_j[v].items() if j == rnd)
        return ()

    def _load_at(self, v, rnd):
        return self._mass[v] + self._unfrozen[v] * self._rungs[rnd]

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
            if self._f[v] < 0 and self._unfrozen[v] > 0:
                j = rnd
                while self._load_at(v, j) < self._tight:
                    j += 1
                self._j[v] = j
                if j > rnd:
                    return ((BROADCAST, ("jmp", j)),)
        elif rnd == self._j[v]:
            # wake rung: add the edges that froze while v slept
            for _, (kind, r) in inbox1:
                if kind == "tel":
                    self._unfrozen[v] -= 1
                    self._mass[v] += self._rungs[r]
        if (self._f[v] < 0 and self._unfrozen[v] > 0
                and self._load_at(v, rnd) >= self._tight):
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
            return False
        for u, (kind, j) in inbox2:
            if kind == "jmp":
                self._heard_j[v][u] = j
        if self._f[v] < 0:
            for _, (kind, r) in inbox2:
                if kind == "frz":
                    self._unfrozen[v] -= 1
                    self._mass[v] += self._rungs[r]
            return self._unfrozen[v] == 0
        if self._f[v] == rnd > self._stop:
            # tell each neighbour asleep now, at its wake rung
            self._tells[v] = sorted({j for j in self._heard_j[v].values()
                                     if j > rnd})
        self._tells[v] = [j for j in self._tells[v] if j > rnd]
        return not self._tells[v]


def test_iterated_log_values():
    assert iterated_log(2 ** 16, 1) == 16
    assert iterated_log(2 ** 16, 2) == 4
    assert iterated_log(2 ** 16, 3) == 2
    assert iterated_log(2 ** 16, 9) == 2  # floored
    assert iterated_log(1000, 1) == 10
    assert saturation_phase(2 ** 16) == 3
    assert saturation_phase(4) == 1


def test_single_edge_saturates_at_one():
    g = path_graph(2)
    asg = vanilla_fractional(g, Fraction(1, 10))
    assert asg.x[(0, 1)] == 1
    assert asg.frozen_round[(0, 1)] == 0
    assert asg.frozen_nodes == {0, 1}
    assert asg.total() == 1


def test_vanilla_matches_reference():
    cases = [
        (path_graph(3), Fraction(1, 10)),
        (cycle_graph(4), Fraction(1, 10)),
        (star_graph(5), Fraction(1, 4)),
        (gen_gnp(24, 0.25, seed=3), Fraction(1, 10)),
        (gen_bipartite(10, 10, 0.3, seed=7), Fraction(1, 20)),
        (gen_gnp(40, 0.1, seed=9), Fraction(2, 5)),
    ]
    for g, eps in cases:
        asg = vanilla_fractional(g, eps)
        x, edge_frozen, node_frozen = ref_vanilla(g, eps)
        assert asg.x == x
        assert asg.frozen_round == edge_frozen
        assert {v: f for v, f in asg.node_freeze.items()
                if f is not None} == node_frozen


def test_vanilla_node_constraints():
    for seed in range(8):
        g = gen_gnp(30, 0.2, seed=seed)
        eps = Fraction(1, 10)
        asg = vanilla_fractional(g, eps)
        vals, node_freeze = asg.node_values(), asg.node_freeze
        for v in range(g.n):
            assert vals[v] <= 1
            if node_freeze[v] is not None:
                assert vals[v] >= 1 - eps  # frozen means genuinely tight
        # every edge froze with at least one tight endpoint
        for u, v in g.edges():
            assert node_freeze[u] is not None or node_freeze[v] is not None


def test_vanilla_round_bound():
    g = gen_gnp(60, 0.15, seed=2)
    eps = Fraction(1, 10)
    asg = vanilla_fractional(g, eps)
    # every freeze happens by the round where w reaches 1
    import math
    bound = math.ceil(math.log(g.max_degree) / math.log1p(0.1)) + 1
    assert all(f <= bound for f in asg.frozen_round.values())


def test_schedule_stop_rule_fires_immediately():
    # 1/log2(n) dwarfs eps*ln(1+eps)/1000 for any n this side of absurd,
    # so the first phase already stops the pre-growth sampling stage
    for n in (10, 2 ** 10, 2 ** 16, 2 ** 40):
        sched = SampleSchedule(n, 30, Fraction(1, 20))
        assert sched.i_stop == 1
        assert sched.stop_round == 0


def test_schedule_ladder_and_phases():
    sched = SampleSchedule(2 ** 16, 10, Fraction(1, 10))
    top = sched.growth_rounds()
    one, tight, rungs = sched.ladder(top)
    w = [Fraction(r, one) for r in rungs]
    assert Fraction(tight, one) == Fraction(9, 10)
    assert w[0] == Fraction(1, 10)
    assert w[3] == Fraction(1, 10) * Fraction(11, 10) ** 3
    assert w[top] >= 1
    assert w[top - 1] < 1
    # a deep ladder walks through the phases in order
    deep = SampleSchedule(2 ** 16, 2048, Fraction(1, 10))
    phases = [deep.phase(j) for j in range(deep.growth_rounds())]
    assert phases == sorted(phases)
    assert phases[0] == 2 and phases[-1] == 3


def test_ladder_is_shared_per_key_and_never_changed():
    """Schedules with the same Delta and eps share one rung list per top
    rung, and the runs that read it leave it as it was built."""
    g = complete_graph(6)
    sched = SampleSchedule(g.n, g.max_degree, Fraction(1, 10))
    top = sched.growth_rounds() + 4
    one, tight, rungs = sched.ladder(top)
    built = list(rungs)
    assert SampleSchedule(50, g.max_degree, "1/10").ladder(top)[2] is rungs
    assert SampleSchedule(50, g.max_degree, "1/10").ladder(top + 1)[2] is not rungs
    # both runs have stop round 0, so their round cap is top
    sampled_fractional(g, Fraction(1, 10), 5)
    vanilla_fractional(g, Fraction(1, 10))
    assert sched.ladder(top) == (one, tight, built)


def test_schedule_shape_cache_is_per_key_only():
    # a bad eps raises on every call, and the forced knobs stay per call
    for _ in range(2):
        with pytest.raises(ValueError, match="eps"):
            SampleSchedule(64, 5, Fraction(1, 2))
    forced = SampleSchedule(64, 5, Fraction(1, 10), force_stop_round=3,
                            force_phase_probabilities=Fraction(1, 3))
    plain = SampleSchedule(64, 5, Fraction(1, 10))
    assert (forced.stop_round, forced.p_of_phase(1)) == (3, Fraction(1, 3))
    assert (plain.stop_round, plain.p_of_phase(1)) == (0, Fraction(64, 6 ** 4))


def test_schedule_probability_overrides():
    sched = SampleSchedule(2 ** 16, 10, Fraction(1, 10))
    # default: C / L_i^4 capped at 1
    assert sched.p_of_phase(1) == Fraction(64, 16 ** 4)
    assert sched.p_of_phase(3) == 1
    forced = SampleSchedule(2 ** 16, 10, Fraction(1, 10),
                            force_phase_probabilities=1)
    assert forced.p_of_phase(1) == 1
    partial = SampleSchedule(2 ** 16, 10, Fraction(1, 10),
                             force_phase_probabilities={1: Fraction(1, 3)})
    assert partial.p_of_phase(1) == Fraction(1, 3)
    assert partial.p_of_phase(3) == 1  # falls back to the formula


def _g_view(result, off):
    """Edge values and node freeze rounds of G's part of an assignment on a
    union with H placed first, in G's ids."""
    asg = result[0]
    return ({(u - off, v - off): w for (u, v), w in asg.x.items() if u >= off},
            [f for v, f in asg.node_freeze.items() if v >= off])


@pytest.mark.parametrize("forced", [False, True], ids=["analytic", "forced"])
def test_sampled_matcher_is_local(forced):
    """G = G(400, 10/400) placed after 60 isolated nodes or after a perfect
    matching on 60 nodes (same n, same max degree 25): the matcher assigns
    and wakes G's nodes alike in both unions, at the analytic stop round and
    at a forced one with sampling."""
    g = gen_gnp(400, 10 / 400, seed=5)
    knobs = (dict(force_stop_round=3, force_phase_probabilities=Fraction(1, 2))
             if forced else {})
    assert_local(lambda u: sampled_fractional(u, Fraction(1, 10), 7, **knobs),
                 fractional, g, Graph(60),
                 Graph(60, [(2 * i, 2 * i + 1) for i in range(30)]), _g_view)


def test_sampled_equals_vanilla_on_defaults():
    for seed in (1, 2, 3):
        g = gen_gnp(50, 0.12, seed=seed)
        v = ref_vanilla_assignment(g, Fraction(1, 10))
        s, ledger, diag = sampled_fractional(g, Fraction(1, 10), seed=seed)
        assert (s.x, s.frozen_round, s.node_freeze) == (v.x, v.frozen_round,
                                                        v.node_freeze)
        assert s.dump() == v.dump()
        assert diag.heavy_events == 0 and diag.spoiled_value == 0
        assert ledger.rounds >= 1


def test_sampled_forced_sampling_path():
    g = gen_gnp(80, 0.08, seed=21)
    kw = dict(force_stop_round=6, force_phase_probabilities=Fraction(1, 3))
    a1, l1, d1 = sampled_fractional(g, Fraction(1, 25), seed=9, **kw)
    a2, l2, d2 = sampled_fractional(g, Fraction(1, 25), seed=9, **kw)
    assert a1 == a2 and l1 == l2 and d1 == d2
    assert all(c <= 1 for c in a1.node_values().values())
    node_freeze = a1.node_freeze
    for u, v in g.edges():
        assert node_freeze[u] is not None or node_freeze[v] is not None
    assert l1.rounds > 6  # sampling rounds happened before the growth stage
    # the diagnostics carry the stop round of the run, analytic or forced
    eps = Fraction(1, 25)
    _, _, d0 = sampled_fractional(g, eps, seed=9)
    assert d0.stop_round == SampleSchedule(g.n, g.max_degree, eps).stop_round
    assert d1.stop_round == SampleSchedule(g.n, g.max_degree, eps, **kw).stop_round
    assert (d0.stop_round, d1.stop_round) == (0, 6)


def test_sample_coins_drawn_in_blocks(monkeypatch):
    g = gen_gnp(80, 0.08, seed=21)
    kw = dict(force_stop_round=6, force_phase_probabilities=Fraction(1, 3))
    whole = sampled_fractional(g, Fraction(1, 25), seed=9, **kw)
    monkeypatch.setattr(rng, "COIN_BLOCK", 5)
    assert sampled_fractional(g, Fraction(1, 25), seed=9, **kw) == whole


def test_light_event_at_the_cut():
    # node 4 carries exactly 1 - 20eps = 1/2 until the edge to its heavy
    # neighbour is zeroed; the Fraction implementation counted it as light
    g = gen_gnp(21, 0.05, seed=152)
    _, _, diag = sampled_fractional(g, Fraction(1, 40), seed=24,
                                    force_stop_round=3,
                                    force_phase_probabilities=Fraction(1, 7))
    assert (diag.heavy_events, diag.light_events) == (5, 1)
    assert diag.spoiled_value == Fraction(167331, 32000)


def test_sampled_empty_and_tiny():
    """Without an edge no node wakes, with the analytic stop round or a
    forced one: the run has 0 rounds, every node has value 0, and the
    rounding and the cover are empty."""
    asg, ledger, diag = sampled_fractional(Graph(0), Fraction(1, 10), seed=1)
    assert asg.n == 0 and ledger.n == 0
    for n in (1, 2, 3, 7):
        for stop in (None, 1, 4, 8):
            kw = {} if stop is None else dict(
                force_stop_round=stop, force_phase_probabilities=Fraction(1, 2))
            asg, ledger, diag = sampled_fractional(Graph(n), Fraction(1, 10),
                                                   seed=1, **kw)
            assert diag.stop_round == (stop or 0)
            assert ledger.rounds == 0 and ledger.total_awake() == 0
            assert asg.x == {} and asg.node_freeze == {v: None for v in range(n)}
            assert asg.node_values() == {v: 0 for v in range(n)}
            assert len(round_matching(asg, 5)) == 0
            assert extract_vertex_cover(asg) == set()


def test_cover_extraction():
    for seed in range(6):
        g = gen_gnp(40, 0.15, seed=seed)
        asg, _, _ = sampled_fractional(g, Fraction(1, 20), seed=seed)
        cover = extract_vertex_cover(asg)
        assert cover == asg.frozen_nodes
        assert verify_vertex_cover(g, cover)


def test_spoiled_zero_without_heavy():
    g = gen_bipartite(15, 15, 0.2, seed=4)
    _, _, diag = sampled_fractional(g, Fraction(1, 20), seed=4)
    assert diag.heavy_events == 0
    assert diag.spoiled_value == 0
    assert diag.light_events >= 0


def test_eps_validation():
    with pytest.raises(ValueError):
        vanilla_fractional(path_graph(2), Fraction(1, 2))
    with pytest.raises(ValueError):
        vanilla_fractional(path_graph(2), 0)


_DIGEST_EPS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(2, 5),
               Fraction(3, 7), 0.1)
_DIGEST_FORCED = [(stop, p) for stop in (4, 6)
                  for p in (0, Fraction(1, 3), Fraction(1, 2), {1: Fraction(1, 3)})]


def _fractional_digest(ledgers=True):
    """The corpus's assignments, freeze rounds, diagnostics and roundings,
    and with ``ledgers`` the runs' ledgers."""
    graphs = [gen_gnp(n, p, seed=n) for n, p in
              ((2, 1.0), (12, 0.3), (40, 0.15), (120, 0.05), (300, 0.02))]
    graphs += [gen_bipartite(20, 20, 0.2, seed=4), gen_bipartite(60, 60, 0.05, seed=5),
               star_graph(9), path_graph(7), cycle_graph(10), complete_graph(7),
               petersen_graph(), Graph(4)]
    h = hashlib.sha256()

    def put(*parts):
        for part in parts:
            h.update(repr(part).encode())

    def put_run(asg, ledger, diag):
        put(asg.dump(), sorted(asg.node_freeze.items()))
        if ledgers:
            put(ledger.rounds,
                sorted((k, v.tolist()) for k, v in ledger.parts.items()))
        put((diag.heavy_events, diag.light_events, diag.spoiled_value))

    pair = 0
    for i, g in enumerate(graphs):
        for k in (0, 3):
            eps = _DIGEST_EPS[(i + k) % len(_DIGEST_EPS)]
            put(vanilla_fractional(g, eps).dump())
            asg, ledger, diag = sampled_fractional(g, eps, seed=i)
            put_run(asg, ledger, diag)
            for seed in (1, 2):
                put(sorted(round_matching(asg, seed).edge_set))
            for c in (pair, pair + 1):
                stop, p = _DIGEST_FORCED[c % len(_DIGEST_FORCED)]
                asg, ledger, diag = sampled_fractional(
                    g, eps, seed=i, force_stop_round=stop,
                    force_phase_probabilities=p)
                put_run(asg, ledger, diag)
                put(sorted(round_matching(asg, 3).edge_set))
            pair += 2
    return h.hexdigest()


def test_fractional_golden_digest():
    """Vanilla, analytic and forced sampled runs (assignments, ledgers,
    diagnostics) and their roundings on a fixed corpus.  The outputs are
    those the Fraction-arithmetic implementation computed (the outputs-only
    digest pins them); the ledgers changed on purpose when matcher nodes
    began to sleep until their wake rung, and again when nodes without an
    edge stopped waking, and are pinned here as the gated matcher computes
    them."""
    assert _fractional_digest() == (
        "12870b0d8134ff093f88933f043e6a67a56c98ed425c40e87758a0081f907c6a")


@st.composite
def eps_fractions(draw):
    b = draw(st.integers(3, 60))
    return Fraction(draw(st.integers(1, (b - 1) // 2)), b)


@st.composite
def hand_assignments(draw):
    """Mixed denominators, zero-weight edges, and sometimes overfull nodes."""
    g = draw(small_graphs())
    delta = max(1, g.max_degree)
    boost = draw(st.sampled_from((1, 1, 1, 3)))
    x = {}
    for e in g.edges():
        den = draw(st.integers(1, 50))
        x[e] = Fraction(draw(st.integers(0, den)), den * delta) * boost
    return FractionalAssignment(g.n, x, {e: 0 for e in x},
                                {v: None for v in range(g.n)})


def _rounding_outcome(fn, asg, seed):
    try:
        return fn(asg, seed)
    except InvalidAssignment:
        return InvalidAssignment


@settings(max_examples=80, deadline=None)
@given(g=small_graphs(), eps=eps_fractions(), seed=st.integers(0, 2 ** 32))
def test_integer_ladder_matches_fraction_references(g, eps, seed):
    asg = vanilla_fractional(g, eps)
    x, edge_frozen, node_frozen = ref_vanilla(g, eps)
    assert asg.x == x and asg.frozen_round == edge_frozen
    assert {v: f for v, f in asg.node_freeze.items() if f is not None} == node_frozen
    assert round_matching(asg, seed) == ref_round_matching(asg, seed)


@settings(max_examples=80, deadline=None)
@given(asg=hand_assignments(), seed=st.integers(0, 2 ** 32))
def test_rounding_matches_fraction_reference(asg, seed):
    assert (_rounding_outcome(round_matching, asg, seed)
            == _rounding_outcome(ref_round_matching, asg, seed))


def _assert_agrees_with_its_rebuild(asg):
    """``asg`` equals the hand-made assignment of its own views, and its
    outputs equal those computed from the views in ``Fraction`` arithmetic."""
    x, frozen_round, node_freeze = asg.x, asg.frozen_round, asg.node_freeze
    twin = FractionalAssignment(asg.n, x, frozen_round, node_freeze)
    assert asg == twin and twin == asg
    lines = [f"{u} {v} {x[(u, v)]} {'-' if frozen_round[(u, v)] is None else frozen_round[(u, v)]}"
             for u, v in sorted(x)]
    assert asg.dump() == twin.dump() == "\n".join(lines)
    sums = {v: Fraction(0) for v in range(asg.n)}
    for (u, v), w in x.items():
        sums[u] += w
        sums[v] += w
    assert asg.node_values() == twin.node_values() == sums
    assert asg.total() == twin.total() == sum(x.values(), Fraction(0))
    # the per-edge floats, added in sorted edge order
    assert asg.total_float() == twin.total_float() == sum(float(x[e]) for e in sorted(x))
    frozen = {v for v, f in node_freeze.items() if f is not None}
    assert asg.frozen_nodes == twin.frozen_nodes == frozen
    for seed in (1, 2):
        assert (round_matching(asg, seed) == round_matching(twin, seed)
                == ref_round_matching(asg, seed))


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), eps=eps_fractions(), seed=st.integers(0, 2 ** 32),
       stop=st.integers(1, 6),
       p=st.sampled_from((Fraction(1, 7), Fraction(1, 5), Fraction(1, 2), 1)))
@example(g=gen_gnp(21, 0.05, seed=152), eps=Fraction(1, 40), seed=24, stop=3,
         p=Fraction(1, 7))  # five heavy nodes
def test_run_built_assignments_equal_their_dict_rebuilds(g, eps, seed, stop, p):
    _assert_agrees_with_its_rebuild(vanilla_fractional(g, eps))
    _assert_agrees_with_its_rebuild(sampled_fractional(g, eps, seed)[0])
    _assert_agrees_with_its_rebuild(sampled_fractional(
        g, eps, seed, force_stop_round=stop, force_phase_probabilities=p)[0])


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), k=st.integers(1, 5), eps=eps_fractions(),
       seed=st.integers(0, 2 ** 32), stop=st.one_of(st.none(), st.integers(1, 6)),
       p=st.sampled_from((Fraction(1, 7), Fraction(1, 2), 1)))
@example(g=gen_gnp(24, 0.2, seed=3), k=3, eps=Fraction(1, 4), seed=1, stop=None,
         p=1)
@example(g=gen_gnp(24, 0.2, seed=3), k=3, eps=Fraction(1, 20), seed=1, stop=4,
         p=Fraction(1, 2))
def test_isolated_nodes_cost_nothing_and_change_nothing(g, k, eps, seed, stop, p):
    """G and G plus ``k`` isolated nodes, numbered after G's, run alike on
    G's nodes, with the analytic stop round and with a forced one: the same
    freeze rounds, assignment, ledger rounds and awake counts.  No node
    without an edge is ever charged."""
    padded = Graph(g.n + k, sorted(g.edge_set))
    kw = {} if stop is None else dict(force_stop_round=stop,
                                      force_phase_probabilities=p)
    asg, ledger, _ = sampled_fractional(g, eps, seed, **kw)
    asg2, ledger2, _ = sampled_fractional(padded, eps, seed, **kw)
    assert asg2.node_freeze == {**asg.node_freeze,
                                **{v: None for v in range(g.n, padded.n)}}
    assert asg2.dump() == asg.dump()
    assert ledger2.rounds == ledger.rounds
    counts = ledger2.counts.tolist()
    assert counts[:g.n] == ledger.counts.tolist()
    assert all(counts[v] == 0 for v in range(padded.n) if not padded.adj[v])


@pytest.mark.parametrize("g, eps, seed, stop, p", [
    (gen_gnp(21, 0.05, seed=152), Fraction(1, 40), 24, 3, Fraction(1, 7)),
    (gen_gnp(30, 0.2, seed=1), Fraction(1, 30), 5, 4, Fraction(1, 5)),
    (gen_bipartite(15, 15, 0.2, seed=3), Fraction(1, 40), 5, 4, Fraction(1, 5)),
])
def test_heavy_clean_up_keeps_loads_and_views_equal(g, eps, seed, stop, p):
    asg, _, diag = sampled_fractional(g, eps, seed, force_stop_round=stop,
                                      force_phase_probabilities=p)
    assert diag.heavy_events > 0
    assert Fraction(0) in asg.x.values()
    assert all(c <= 1 for c in asg.node_values().values())
    _assert_agrees_with_its_rebuild(asg)


def test_views_are_fresh_copies():
    asg = vanilla_fractional(gen_gnp(12, 0.3, seed=2), Fraction(1, 10))
    before = asg.dump()
    x, frozen_round, node_freeze = asg.x, asg.frozen_round, asg.node_freeze
    x.clear()
    frozen_round[(0, 1)] = 99
    node_freeze[0] = 99
    assert asg.dump() == before and asg.x and asg.node_freeze != node_freeze


@pytest.mark.parametrize("kwargs, knob", [
    (dict(force_stop_round=-3), "force_stop_round"),
    (dict(force_stop_round=2.7), "force_stop_round"),
    (dict(estimator_constant=0), "estimator_constant"),
    (dict(estimator_constant=-64), "estimator_constant"),
    (dict(force_phase_probabilities=Fraction(3, 2)), "force_phase_probabilities"),
    (dict(force_phase_probabilities={1: -0.5}), "force_phase_probabilities"),
    (dict(force_phase_probabilities=[None, 2]), "force_phase_probabilities"),
    (dict(force_stop_round=10 ** 5), "force_stop_round"),
])
def test_schedule_rejects_bad_knobs(kwargs, knob):
    with pytest.raises(ValueError, match=knob):
        SampleSchedule(64, 5, Fraction(1, 10), **kwargs)
    with pytest.raises(ValueError, match=knob):
        sampled_fractional(Graph(0), Fraction(1, 10), seed=1, **kwargs)
    SampleSchedule(64, 5, Fraction(1, 10), force_stop_round=0,
                   force_phase_probabilities={1: 0, 2: 1})


def test_forced_stop_bound_is_twice_the_full_rate_round_cap():
    # with Delta 1, growth_rounds() is 0 and the bound is 8
    for eps in (Fraction(1, 3), Fraction(1, 40)):
        assert SampleSchedule(2, 1, eps, force_stop_round=8).stop_round == 8
        with pytest.raises(ValueError, match="force_stop_round must be at most 8 "):
            SampleSchedule(2, 1, eps, force_stop_round=9)
    g = gen_gnp(40, 0.15, seed=0)
    eps = Fraction(1, 10)
    top = 2 * (SampleSchedule(g.n, g.max_degree, eps).growth_rounds() + 4)
    assert SampleSchedule(g.n, g.max_degree, eps,
                          force_stop_round=top).stop_round == top
    with pytest.raises(ValueError, match="force_stop_round"):
        SampleSchedule(g.n, g.max_degree, eps, force_stop_round=top + 1)


def _run_protocol(g, sched, seed):
    """``(protocol, node freeze rounds)`` of one matcher run on ``sched``."""
    proto = SampledMatchingProtocol(sched)
    f, _, _ = run(g, proto, seed, proto.round_cap, part="frac")
    return proto, f


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), eps=eps_fractions(), seed=st.integers(0, 2 ** 32),
       stop=st.integers(1, 6),
       p=st.sampled_from((Fraction(1, 7), Fraction(1, 5), Fraction(1, 2), 1)))
def test_handed_over_loads_equal_the_slot_sums(g, eps, seed, stop, p):
    for sched in (SampleSchedule(g.n, g.max_degree, eps),
                  SampleSchedule(g.n, g.max_degree, eps, force_stop_round=stop,
                                 force_phase_probabilities=p)):
        proto, f = _run_protocol(g, sched, seed)
        assert proto._mass == ref_slot_loads(g, f, proto._rungs)


def test_handed_over_loads_with_early_freezes_and_heavy_nodes():
    g, eps, seed = gen_gnp(21, 0.05, seed=152), Fraction(1, 40), 24
    kw = dict(force_stop_round=3, force_phase_probabilities=Fraction(1, 7))
    proto, f = _run_protocol(g, SampleSchedule(g.n, g.max_degree, eps, **kw), seed)
    loads = ref_slot_loads(g, f, proto._rungs)
    # nodes frozen in the sampled rounds get their loads at the reconciliation
    assert any(0 <= fv < 3 for fv in f)
    heavy = {v for v, c in enumerate(loads) if c > proto._one}
    assert heavy and proto._mass == loads
    asg, _, diag = sampled_fractional(g, eps, seed, **kw)
    assert diag.heavy_events == len(heavy)
    # the clean-up zeroes exactly the edges at heavy nodes
    assert all((w == 0) == (u in heavy or v in heavy) for (u, v), w in asg.x.items())
    _assert_agrees_with_its_rebuild(asg)


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(), eps=eps_fractions(), seed=st.integers(0, 2 ** 32),
       stop=st.one_of(st.none(), st.integers(0, 6)),
       p=st.sampled_from((0, Fraction(1, 3), Fraction(1, 2), 1, {1: Fraction(1, 3)})))
def test_sampled_ledger_matches_its_recorded_schedule(g, eps, seed, stop, p):
    kw = {} if stop is None else dict(force_stop_round=stop,
                                      force_phase_probabilities=p)
    with watched_wakes(fractional) as runs:
        asg, ledger, _ = sampled_fractional(g, eps, seed, **kw)
    rounds = runs[0][0]
    assert ledger.counts.tolist() == [len(rs) for rs in rounds]
    for rs in rounds:
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert all(0 <= r < ledger.rounds for r in rs)
    assert all(c <= 1 for c in asg.node_values().values())


@settings(max_examples=80, deadline=None)
@given(g=small_graphs(), eps=eps_fractions(), seed=st.integers(0, 2 ** 32))
@example(g=gen_gnp(24, 0.2, seed=3), eps=Fraction(1, 4), seed=1)
def test_gated_ledger_equals_the_closed_form(g, eps, seed):
    """On the analytic path (stop round 0), each node is awake exactly in
    the rounds :func:`ref_gated_rounds` gives from the Fraction reference's
    freeze rounds, and the run stays within its round cap."""
    with watched_wakes(fractional) as runs:
        _, ledger, diag = sampled_fractional(g, eps, seed)
    assert diag.stop_round == 0
    _, _, node_frozen = ref_vanilla(g, eps)
    f = [node_frozen.get(v) for v in range(g.n)]
    rounds = runs[0][0]
    assert rounds == ref_gated_rounds(g, f, eps)
    assert ledger.rounds == max((rs[-1] + 1 for rs in rounds if rs), default=0)
    sched = SampleSchedule(g.n, g.max_degree, eps)
    assert ledger.rounds <= SampledMatchingProtocol(sched).round_cap


@st.composite
def graphs_with_isolated_nodes(draw):
    """Up to 30 nodes, the nodes from ``live`` on without edges."""
    n = draw(st.integers(0, 30))
    live = n - draw(st.integers(0, n))
    pairs = [(u, v) for u in range(live) for v in range(u + 1, live)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def _protocol_outcome(cls, g, sched, seed, congest_factor, start=None):
    proto = cls(sched)
    if congest_factor is not None:
        proto.congest_factor = congest_factor
    try:
        with watched_wakes(engine) as runs:
            outputs, ledger, _ = engine.run(g, proto, seed, proto.round_cap,
                                            part="frac", start=start)
    except AssertionError:
        return AssertionError
    return list(outputs), ledger, runs[0][0]


@settings(max_examples=200, deadline=None)
@given(g=graphs_with_isolated_nodes(), eps=eps_fractions(),
       seed=st.integers(0, 2 ** 32), c=st.sampled_from((64, 5)),
       stop=st.one_of(st.none(), st.integers(0, 8)),
       p=st.sampled_from((0, Fraction(1, 3), Fraction(1, 2), 1, {1: Fraction(1, 3)},
                          [None, Fraction(2, 3), 0])),
       congest_bits=st.one_of(st.none(), st.integers(26, 40)),
       linked_only=st.booleans())
def test_whole_round_protocol_matches_the_hook_reference(g, eps, seed, c, stop, p,
                                                         congest_bits, linked_only):
    """Outputs, ledgers and schedules equal to the per-node reference, run
    from every node or, with ``linked_only``, from the nodes with an edge,
    as :func:`sampled_fractional` runs it; under a lowered CONGEST bound
    both raise or neither does."""
    # n <= 30 makes the bound congest_factor * 8 bits, so this factor makes
    # it exactly congest_bits, and any message width can sit on the bound
    congest_factor = None if congest_bits is None else congest_bits / 8
    sched = SampleSchedule(max(2, g.n), max(1, g.max_degree), eps, c, stop,
                           None if stop is None else p)
    start = [v for v in range(g.n) if g.adj[v]] if linked_only else None
    new = _protocol_outcome(SampledMatchingProtocol, g, sched, seed, congest_factor,
                            start)
    ref = _protocol_outcome(RefSampledProtocol, g, sched, seed, congest_factor, start)
    assert new == ref


def _least_passing_bound(cls, g, sched, seed):
    for bits in range(24, 80):
        if _protocol_outcome(cls, g, sched, seed, bits / 8) is not AssertionError:
            return bits
    return None


@pytest.mark.parametrize("stop, p", [(None, None), (3, Fraction(1, 3)),
                                     (8, 1), (5, [None, Fraction(2, 3), 0]),
                                     (8, Fraction(1, 10))])
def test_congest_threshold_matches_the_hook_reference(stop, p):
    """The widest message of a run is measured alike: both protocols pass
    from the same CONGEST bound on (each n <= 30, so the bound is the
    factor times 8 bits).  Freeze messages, reports and, on the single edge
    at stop 8 and p = 1/10, the reconciliation message are the widest."""
    cases = [(gen_gnp(30, 0.5, seed=1), Fraction(1, 40), 0),
             (gen_gnp(12, 0.3, seed=2), Fraction(1, 4), 1),
             (gen_bipartite(10, 10, 0.3, seed=3), Fraction(1, 20), 2),
             (star_graph(9), Fraction(1, 10), 3), (Graph(3, [(0, 1)]), Fraction(1, 3), 4),
             (path_graph(2), Fraction(1, 3), 19)]
    for g, eps, seed in cases:
        sched = SampleSchedule(g.n, g.max_degree, eps, force_stop_round=stop,
                               force_phase_probabilities=p)
        bound = _least_passing_bound(RefSampledProtocol, g, sched, seed)
        assert bound is not None
        assert _least_passing_bound(SampledMatchingProtocol, g, sched, seed) == bound


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(), eps=eps_fractions(), seed=st.integers(0, 2 ** 32),
       stop=st.integers(1, 6),
       p=st.sampled_from((Fraction(1, 7), Fraction(1, 5), Fraction(1, 2), 1)))
def test_matcher_sleeps_in_the_sleeping_model(g, eps, seed, stop, p):
    """Under :func:`sleep_checked`, no round of the analytic or the forced
    sampled matcher changes a sleeper's freeze round, mass or unfrozen-edge
    count, or terminates a sleeper."""
    for sched in (SampleSchedule(g.n, g.max_degree, eps),
                  SampleSchedule(g.n, g.max_degree, eps, force_stop_round=stop,
                                 force_phase_probabilities=p)):
        proto = sleep_checked(SampledMatchingProtocol(sched))
        run(g, proto, seed, proto.round_cap)
