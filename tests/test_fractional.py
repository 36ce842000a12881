"""Fractional matching: ladder growth, schedules, sampled variant."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awakesim import fractional
from awakesim.errors import InvalidAssignment
from awakesim.fractional import (FractionalAssignment, SampleSchedule,
                                 extract_vertex_cover, iterated_log,
                                 round_matching, sampled_fractional,
                                 saturation_phase, vanilla_fractional)
from awakesim.graphs import (Graph, Matching, canon, complete_graph,
                             cycle_graph, gen_bipartite, gen_gnp, path_graph,
                             petersen_graph, star_graph)
from awakesim.oracles import verify_vertex_cover
from awakesim.rng import TWO64, node_rng
from test_mis import small_graphs


def ref_vanilla(g, eps):
    """Independent reference: simultaneous freezing on the (1+eps) ladder."""
    eps = Fraction(eps)
    delta = g.max_degree
    x = {e: Fraction(1, delta) for e in g.edges()}
    node_frozen = {}
    edge_frozen = {}
    j = 0
    while len(edge_frozen) < g.m:
        w = Fraction(1, delta) * (1 + eps) ** j
        cv = {v: Fraction(0) for v in range(g.n)}
        for e, val in x.items():
            cur = val if e in edge_frozen else w
            cv[e[0]] += cur
            cv[e[1]] += cur
        newly = [v for v in range(g.n)
                 if v not in node_frozen and cv[v] >= 1 - eps
                 and any(canon(v, u) not in edge_frozen for u in g.neighbors(v))]
        for v in newly:
            node_frozen[v] = j
            for u in g.neighbors(v):
                e = canon(v, u)
                if e not in edge_frozen:
                    edge_frozen[e] = j
                    x[e] = w
        j += 1
        assert j < 10_000
    return x, edge_frozen, node_frozen


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
        vals = asg.node_values()
        for v in range(g.n):
            assert vals[v] <= 1
            if asg.node_freeze[v] is not None:
                assert vals[v] >= 1 - eps  # frozen means genuinely tight
        # every edge froze with at least one tight endpoint
        for u, v in g.edges():
            assert (asg.node_freeze[u] is not None
                    or asg.node_freeze[v] is not None)


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
    assert sched.w(0) == Fraction(1, 10)
    assert sched.w(3) == Fraction(1, 10) * Fraction(11, 10) ** 3
    assert sched.w(sched.growth_rounds()) >= 1
    assert sched.w(sched.growth_rounds() - 1) < 1
    # a deep ladder walks through the phases in order
    deep = SampleSchedule(2 ** 16, 2048, Fraction(1, 10))
    phases = [deep.phase(j) for j in range(deep.growth_rounds())]
    assert phases == sorted(phases)
    assert phases[0] == 2 and phases[-1] == 3


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


def test_sampled_equals_vanilla_on_defaults():
    for seed in (1, 2, 3):
        g = gen_gnp(50, 0.12, seed=seed)
        v = vanilla_fractional(g, Fraction(1, 10))
        s, ledger, diag = sampled_fractional(g, Fraction(1, 10), seed=seed)
        assert s == v
        assert s.dump() == v.dump()
        assert diag.heavy_events == 0 and diag.spoiled_value == 0
        assert ledger.rounds >= 1


def test_sampled_forced_sampling_path():
    g = gen_gnp(80, 0.08, seed=21)
    kw = dict(force_stop_round=6, force_phase_probabilities=Fraction(1, 3))
    a1, l1, d1 = sampled_fractional(g, Fraction(1, 25), seed=9, **kw)
    a2, l2, d2 = sampled_fractional(g, Fraction(1, 25), seed=9, **kw)
    assert a1 == a2 and l1 == l2 and d1 == d2
    vals = a1.node_values()
    assert all(c <= 1 for c in vals.values())
    for u, v in g.edges():
        assert (a1.node_freeze[u] is not None
                or a1.node_freeze[v] is not None)
    assert l1.rounds > 6  # sampling rounds happened before the growth stage


def test_sample_coins_drawn_in_blocks(monkeypatch):
    g = gen_gnp(80, 0.08, seed=21)
    kw = dict(force_stop_round=6, force_phase_probabilities=Fraction(1, 3))
    whole = sampled_fractional(g, Fraction(1, 25), seed=9, **kw)
    monkeypatch.setattr(fractional, "_COIN_BLOCK", 5)
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
    asg, ledger, diag = sampled_fractional(Graph(0), Fraction(1, 10), seed=1)
    assert asg.n == 0 and ledger.n == 0
    asg, _, _ = sampled_fractional(Graph(3), Fraction(1, 10), seed=1)
    assert asg.x == {} and asg.frozen_nodes == set()


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


def _fractional_digest():
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
        put(asg.dump(), sorted(asg.node_freeze.items()), ledger.rounds,
            sorted((k, v.tolist()) for k, v in ledger.parts.items()),
            (diag.heavy_events, diag.light_events, diag.spoiled_value))

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
    diagnostics) and their roundings on a fixed corpus, as computed by the
    Fraction-arithmetic implementation the integer ladder replaced."""
    assert _fractional_digest() == (
        "4a1580142be6032971e28817f87e8a4a0ba92a67d54797229db34bfcbcecd896")


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


@pytest.mark.parametrize("kwargs, knob", [
    (dict(force_stop_round=-3), "force_stop_round"),
    (dict(force_stop_round=2.7), "force_stop_round"),
    (dict(estimator_constant=0), "estimator_constant"),
    (dict(estimator_constant=-64), "estimator_constant"),
    (dict(force_phase_probabilities=Fraction(3, 2)), "force_phase_probabilities"),
    (dict(force_phase_probabilities={1: -0.5}), "force_phase_probabilities"),
    (dict(force_phase_probabilities=[None, 2]), "force_phase_probabilities"),
])
def test_schedule_rejects_bad_knobs(kwargs, knob):
    with pytest.raises(ValueError, match=knob):
        SampleSchedule(64, 5, Fraction(1, 10), **kwargs)
    with pytest.raises(ValueError, match=knob):
        sampled_fractional(Graph(0), Fraction(1, 10), seed=1, **kwargs)
    SampleSchedule(64, 5, Fraction(1, 10), force_stop_round=0,
                   force_phase_probabilities={1: 0, 2: 1})


@settings(max_examples=40, deadline=None)
@given(g=small_graphs(), eps=eps_fractions(), seed=st.integers(0, 2 ** 32),
       stop=st.one_of(st.none(), st.integers(0, 6)),
       p=st.sampled_from((0, Fraction(1, 3), Fraction(1, 2), 1, {1: Fraction(1, 3)})))
def test_sampled_ledger_matches_its_recorded_schedule(g, eps, seed, stop, p):
    kw = {} if stop is None else dict(force_stop_round=stop,
                                      force_phase_probabilities=p)
    asg, ledger, _ = sampled_fractional(g, eps, seed, record_schedule=True, **kw)
    assert ledger.counts.tolist() == [len(rs) for rs in ledger.schedule]
    for rs in ledger.schedule:
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert all(0 <= r < ledger.rounds for r in rs)
    assert all(c <= 1 for c in asg.node_values().values())
