"""Layer graphs, augmenting-path extraction, and the amplification loops."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awakesim import augmentation, fractional
from awakesim.augmentation import (MatchBox, augment, bipartite_one_plus_eps,
                                   build_layer_graph, delta_maximal,
                                   find_maximal_paths, full_matching_pipeline,
                                   general_one_plus_eps)
from awakesim.errors import InvalidPath, PreconditionViolated
from awakesim.graphs import (Graph, Matching, cycle_graph, gen_bipartite,
                             gen_gnp)
from awakesim.oracles import (exact_max_matching, find_short_augmenting_path,
                              max_bipartite_matching, verify_matching)
from awakesim.rng import node_rng
from conftest import RefSleepingBox, ref_delta_maximal
from test_fractional import _fractional_digest
from test_mis import _hash_ledger


def p4_host():
    return Graph(4, [(0, 1), (1, 2), (2, 3)], sides=[0, 1, 0, 1])


def test_matchbox_modes():
    g = gen_bipartite(6, 6, 0.4, seed=2)
    for mode in ("exact", "greedy"):
        box = MatchBox(mode)
        m = box(g)
        assert verify_matching(g, m)
        assert find_short_augmenting_path(g, m, 1) is None
    assert len(MatchBox("exact")(g)) == len(max_bipartite_matching(g))
    with pytest.raises(ValueError):
        MatchBox("clairvoyant")


def test_matchbox_sleeping_accumulates_awake():
    g = gen_bipartite(8, 8, 0.3, seed=5)
    box = MatchBox("sleeping", master_seed=77, host_n=g.n)
    m1 = box(g, orig_ids=range(g.n))
    assert verify_matching(g, m1)
    assert box.ledger.total_awake() > 0
    # fresh box, same seed: same matching
    box2 = MatchBox("sleeping", master_seed=77, host_n=g.n)
    assert box2(g, orig_ids=range(g.n)) == m1


def test_layer_graph_hand_case():
    h = p4_host()
    m = Matching([(1, 2)])
    lg = build_layer_graph(h, m, 1)
    assert lg.layers == [[0], [1], [2], [3]]
    assert lg.succ[0] == [1] and lg.succ[1] == [2] and lg.succ[2] == [3]
    assert lg.top == [3]
    assert lg.complete


def test_layer_graph_requires_sides():
    with pytest.raises(PreconditionViolated):
        build_layer_graph(Graph(2, [(0, 1)]), Matching(), 0)


def test_layer_graph_shallow_free_vertex_raises():
    # an unmatched pair means a length-1 augmenting path, so level 1 is a lie
    with pytest.raises(PreconditionViolated):
        build_layer_graph(p4_host(), Matching(), 1)


def test_layer_graph_dead_frontier():
    h = Graph(4, [(0, 1), (2, 3)], sides=[0, 1, 0, 1])
    m = Matching([(0, 1), (2, 3)])
    lg = build_layer_graph(h, m, 1)
    assert lg.layers[0] == []
    assert not lg.complete
    assert lg.top == []


def test_layer_graph_respects_alternation():
    for seed in range(6):
        h = gen_bipartite(8, 8, 0.3, seed=seed)
        m = MatchBox("greedy")(h)
        lg = build_layer_graph(h, m, 1)
        partner = m.partner_map()
        for k, layer in enumerate(lg.layers):
            for v in layer:
                assert lg.layer_of[v] == k
                if k == 0:
                    assert h.sides[v] == 0 and v not in partner
                if k % 2 == 0 and k > 0:
                    # even layers were dragged in by their matched partner
                    assert partner[v] in lg.layers[k - 1]
        for v, succs in lg.succ.items():
            k = lg.layer_of[v]
            for w in succs:
                assert lg.layer_of[w] == k + 1
                if k % 2 == 1:
                    assert partner.get(v) == w
                else:
                    assert partner.get(v) != w


def test_find_paths_hand_case():
    h = p4_host()
    m = Matching([(1, 2)])
    lg = build_layer_graph(h, m, 1)
    paths, h_prime, removed = find_maximal_paths(lg, MatchBox("exact"), 0.2)
    assert paths == [[0, 1, 2, 3]]
    assert removed == set()
    assert h_prime.n == h.n
    m2 = augment(m, paths)
    assert m2 == Matching([(0, 1), (2, 3)])


def test_augment_error_cases():
    m = Matching([(1, 2)])
    with pytest.raises(InvalidPath):
        augment(m, [[0, 1, 2]])                   # odd node count
    with pytest.raises(InvalidPath):
        augment(m, [[1, 2]])                      # matched endpoints
    with pytest.raises(InvalidPath):
        augment(Matching(), [[0, 1], [1, 2]])     # shared vertex
    with pytest.raises(InvalidPath):
        augment(m, [[0, 1, 3, 5]])                # 1-3 is not a matched edge


def test_augment_disjoint_singles():
    m = augment(Matching(), [[0, 1], [2, 3]])
    assert m == Matching([(0, 1), (2, 3)])


def test_delta_maximal_property():
    for seed in range(8):
        g = gen_gnp(14, 0.3, seed=seed)
        m = delta_maximal(g, MatchBox("exact"), Fraction(3, 10))
        assert verify_matching(g, m)
        leftover = sorted(set(range(g.n)) - m.nodes())
        sub, _ = g.induced(leftover)
        residual_opt = len(exact_max_matching(sub))
        assert residual_opt <= max(1, 0.3 * max(1, len(m)))
    with pytest.raises(PreconditionViolated):
        delta_maximal(gen_gnp(6, 0.5, seed=1), MatchBox("exact"), Fraction(2))


def test_level_zero_is_maximal_matching():
    for seed in range(6):
        h = gen_bipartite(9, 9, 0.25, seed=seed)
        states = []
        bipartite_one_plus_eps(h, MatchBox("exact"), 0.2,
                               on_level=lambda i, hc, m: states.append((hc, m)))
        h_after, m = states[0]
        assert verify_matching(h, m)
        assert find_short_augmenting_path(h_after, m, 1) is None


def test_k22_saturates_and_stops():
    h = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)], sides=[0, 0, 1, 1])
    hook_calls = []
    m = bipartite_one_plus_eps(h, MatchBox("exact"), 0.5,
                               on_level=lambda i, hc, mm: hook_calls.append(i))
    assert len(m) == 2
    assert hook_calls[0] == 0
    assert len(hook_calls) <= 3  # frontier dies right after saturation


def test_bipartite_amplification_bound():
    eps = 0.2
    for seed in range(10):
        h = gen_bipartite(12, 12, 0.3, seed=100 + seed)
        m = bipartite_one_plus_eps(h, MatchBox("exact"), eps)
        opt = len(max_bipartite_matching(h))
        assert verify_matching(h, m)
        assert len(m) >= opt / (1 + 7 * eps)


def test_general_amplification_on_triangle():
    g = cycle_graph(3)
    for seed in range(5):
        m = general_one_plus_eps(g, MatchBox("greedy"), 0.5, seed=seed)
        assert len(m) == 1


def test_general_amplification_small_graphs():
    for seed in range(6):
        g = gen_gnp(12, 0.25, seed=seed)
        m = general_one_plus_eps(g, MatchBox("greedy"), 0.25, seed=seed)
        assert verify_matching(g, m)
        opt = len(exact_max_matching(g))
        assert len(m) >= opt / 2  # loose floor; the mean bound is the target


def test_pipeline_end_to_end():
    g = cycle_graph(4)
    m, ledger = full_matching_pipeline(g, Fraction(1, 4), seed=3)
    assert verify_matching(g, m)
    assert len(m) == 2
    assert ledger.total_awake() > 0
    assert "frac" in ledger.part_totals()


def _amplification_digest(ledgers=True):
    """The corpus's matchings and box call counts, and with ``ledgers`` the
    box and pipeline ledgers."""
    h = hashlib.sha256()
    hash_ledger = _hash_ledger if ledgers else lambda h, ledger: None
    for seed in range(4):
        bip = gen_bipartite(10 + 2 * seed, 12, 0.2, seed=40 + seed)
        for mode in ("exact", "greedy", "sleeping"):
            box = MatchBox(mode, master_seed=seed, host_n=bip.n)
            m = bipartite_one_plus_eps(bip, box, 0.25, delta_iterations=4)
            h.update(repr((mode, sorted(m), box.calls)).encode())
            hash_ledger(h, box.ledger)
        g = gen_gnp(12, 0.3, seed=50 + seed)
        for mode in ("exact", "greedy"):
            box = MatchBox(mode)
            m = general_one_plus_eps(g, box, 0.5, seed=seed,
                                     improve_iterations=4)
            h.update(repr((mode, sorted(m), box.calls)).encode())
        for host in (bip, g):
            m, ledger = full_matching_pipeline(host, Fraction(1, 2), seed=seed,
                                               improve_iterations=2,
                                               delta_iterations=4)
            h.update(repr(sorted(m)).encode())
            hash_ledger(h, ledger)
    return h.hexdigest()


def test_amplification_golden_digest():
    """Matchings, box call counts and box ledgers of the three amplification
    entry points on a fixed corpus.  The matchings and call counts are those
    computed when maximal boxes still extended paths through a single box
    call instead of delta_maximal (the outputs-only digest pins them); the
    sleeping box's ledgers changed on purpose when matcher nodes began to
    sleep until their wake rung, and when nodes without an edge in a box
    instance stopped waking."""
    assert _amplification_digest() == (
        "9f9c1f5c8b9c1225c672145c49bb0b105bd5b0a8b65af5a4b03a0b1c7487208e")


def _outputs_digest():
    h = hashlib.sha256()
    h.update(_fractional_digest(ledgers=False).encode())
    h.update(_amplification_digest(ledgers=False).encode())
    # pipelines on hosts like those of the benchmark's pipeline workload
    for seed in range(2):
        for host in (gen_gnp(24, 0.2, seed=60 + seed),
                     gen_bipartite(40, 40, 0.05, seed=70 + seed)):
            m, _ = full_matching_pipeline(host, Fraction(1, 4), seed=seed,
                                          improve_iterations=16)
            h.update(repr(sorted(m)).encode())
    return h.hexdigest()


def test_matcher_outputs_golden_digest():
    """What the matcher and the amplification around it output, without
    their ledgers: the fractional corpus's assignments, freeze rounds,
    diagnostics and roundings on analytic and forced runs, the
    amplification corpus's matchings and box call counts, and pipeline
    matchings.  A change to when matcher nodes sleep must leave it as it
    is."""
    assert _outputs_digest() == (
        "67613768c854430cf59742e8501ea264c57cc3bf2659882b61d8a309f01827b4")


# ---------------------------------------------------------------------------
# The sleeping box reuses a seed-free fractional run per residual graph


@st.composite
def tiny_hosts(draw):
    """Small G(n, p) or bipartite hosts, plus a box seed."""
    p = draw(st.sampled_from((0.2, 0.35, 0.5, 0.8)))
    gseed = draw(st.integers(0, 2 ** 32))
    if draw(st.booleans()):
        g = gen_gnp(draw(st.integers(2, 12)), p, gseed)
    else:
        g = gen_bipartite(draw(st.integers(1, 7)), draw(st.integers(1, 7)), p,
                          gseed)
    return g, draw(st.integers(0, 2 ** 32))


def _same_run(m, box, ref_m, ref_box):
    assert sorted(m) == sorted(ref_m)
    assert box.calls == ref_box.calls
    assert box.ledger.rounds == ref_box.ledger.rounds
    assert set(box.ledger.parts) == set(ref_box.ledger.parts)
    for label, arr in box.ledger.parts.items():
        assert np.array_equal(arr, ref_box.ledger.parts[label])


class _Recorded(MatchBox):
    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


@settings(max_examples=60, deadline=None)
@given(case=tiny_hosts(), iterations=st.integers(1, 12))
def test_delta_maximal_reuse_matches_reference(case, iterations):
    g, seed = case
    ids = [3 * v + 1 for v in range(g.n)]      # a host larger than g
    box = MatchBox("sleeping", master_seed=seed, host_n=3 * g.n + 1)
    ref_box = RefSleepingBox(master_seed=seed, host_n=3 * g.n + 1)
    m = delta_maximal(g, box, Fraction(1, 2), iterations=iterations,
                      orig_ids=ids)
    ref_m = ref_delta_maximal(g, ref_box, Fraction(1, 2),
                              iterations=iterations, orig_ids=ids)
    _same_run(m, box, ref_m, ref_box)


@settings(max_examples=30, deadline=None)
@given(case=tiny_hosts(), iterations=st.integers(1, 12),
       eps=st.sampled_from((Fraction(1, 2), Fraction(1, 4))))
def test_pipeline_reuse_matches_reference(case, iterations, eps):
    g, seed = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augmentation, "MatchBox", _Recorded)
        _Recorded.made = []
        m, _ = full_matching_pipeline(g, eps, seed, improve_iterations=2,
                                      delta_iterations=iterations)
        box, = _Recorded.made
    ref_box = RefSleepingBox(master_seed=seed, host_n=max(1, g.n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augmentation, "delta_maximal", ref_delta_maximal)
        ref_m = general_one_plus_eps(g, ref_box, eps, seed,
                                     improve_iterations=2,
                                     delta_iterations=iterations)
    _same_run(m, box, ref_m, ref_box)


def _box_trace(monkeypatch):
    """Record the graphs the box is called on, the graphs the fractional
    matcher runs on, and every rounding seed."""
    called, ran, seeds = [], [], []
    box_call = MatchBox.__call__
    sampled = fractional.sampled_fractional
    rounding = fractional.round_matching

    def on_call(self, g, orig_ids=None):
        called.append(g)
        return box_call(self, g, orig_ids)

    def on_run(g, *args, **kwargs):
        ran.append(g)
        return sampled(g, *args, **kwargs)

    def on_round(asg, seed):
        seeds.append(seed)
        return rounding(asg, seed)

    monkeypatch.setattr(MatchBox, "__call__", on_call)
    monkeypatch.setattr(fractional, "sampled_fractional", on_run)
    monkeypatch.setattr(fractional, "round_matching", on_round)
    return called, ran, seeds


def _n_distinct(graphs):
    return len({id(g) for g in graphs})      # the list keeps each graph alive


def test_box_runs_once_per_residual(monkeypatch):
    called, ran, seeds = _box_trace(monkeypatch)
    reused = 0
    for s in range(4):
        del called[:], ran[:], seeds[:]
        full_matching_pipeline(gen_gnp(16, 0.25, seed=60 + s), Fraction(1, 4),
                               seed=s, improve_iterations=3)
        nonempty = [g for g in called if g.m]
        assert len(ran) == _n_distinct(nonempty)
        # every call still draws its own rounding seed from the box's counter
        assert seeds == [node_rng(s, 0, "box", 2 * k + 1)
                         for k, g in enumerate(called, 1) if g.m]
        reused += len(nonempty) - len(ran)
    assert reused > 0


def test_box_reruns_a_sampled_prefix(monkeypatch):
    shape = fractional._schedule_shape
    monkeypatch.setattr(fractional, "_schedule_shape",
                        lambda *key: shape(*key)[:3] + (2,))
    g = gen_bipartite(6, 6, 0.3, seed=5)
    box = MatchBox("sleeping", master_seed=9, host_n=g.n)
    ref_box = RefSleepingBox(master_seed=9, host_n=g.n)
    ref_m = ref_delta_maximal(g, ref_box, Fraction(1, 2), iterations=12)
    called, ran, _ = _box_trace(monkeypatch)
    m = delta_maximal(g, box, Fraction(1, 2), iterations=12)
    assert len(ran) == len([h for h in called if h.m])
    assert _n_distinct(ran) < len(ran)       # a graph was seen twice
    _same_run(m, box, ref_m, ref_box)
