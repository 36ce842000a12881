"""Three-stage MIS: per-stage behavior, wake patterns, validity."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from awakesim import engine, rng
from awakesim import mis as mis_module
from awakesim.graphs import (Graph, complete_graph, cycle_graph, gen_bipartite,
                             gen_gnp, path_graph, petersen_graph, star_graph)
from awakesim.engine import run
from awakesim.mis import (PARTICIPATION, LubyProtocol, MisParams,
                          Part1Protocol, Part2Protocol, _join_set,
                          awake_mis, default_iterations, default_part1_window,
                          greedy_partial_mis,
                          luby_mis, part2_degree, part2_degree_bound,
                          part2_reduce, part2_round_count, part2_schedule)
from awakesim.oracles import verify_mis
from awakesim.rng import coin_threshold, node_rng
from conftest import RefPart2, assert_local, sleep_checked, watched_wakes


def test_luby_validity_over_seeds():
    for seed in range(40):
        g = gen_gnp(60, 0.15, seed=seed)
        s, ledger = luby_mis(g, seed=seed)
        assert verify_mis(g, s)
        assert ledger.rounds >= 1


def test_luby_edgeless():
    s, ledger = luby_mis(Graph(7), seed=0)
    assert s == set(range(7))
    assert ledger.rounds == 1
    assert ledger.total_awake() == 7


def test_independence_assertion_fires():
    """The join step sets the joiners' membership, as a mask or as a status
    code, and checks it after the round's joins."""
    csr = path_graph(3).csr()
    _join_set(csr, np.array([True, False, True]), True, np.array([0, 2]))
    _join_set(csr, np.array([2, 1, 2], dtype=np.int8), 2, np.array([2]))
    member = np.array([0, 1, 0], dtype=np.int8)
    _join_set(csr, member, 2, np.array([0, 2]))
    assert member.tolist() == [2, 1, 2]
    _join_set(csr, member, 2, np.array([], dtype=np.int64))
    assert member.tolist() == [2, 1, 2]
    # two adjacent nodes joining in the same round
    with pytest.raises(AssertionError, match="independence violated"):
        _join_set(csr, np.array([True, True, False]), True, np.array([0, 1]))
    with pytest.raises(AssertionError, match="independence violated"):
        _join_set(csr, np.zeros(3, dtype=bool), True, np.array([0, 1]))
    # a joiner next to a node already in the set
    with pytest.raises(AssertionError, match="independence violated"):
        _join_set(csr, np.array([0, 2, 2], dtype=np.int8), 2, np.array([1]))
    with pytest.raises(AssertionError, match="independence violated"):
        _join_set(csr, np.array([0, 0, 2], dtype=np.int8), 2, np.array([1]))

    class Rigged(LubyProtocol):
        def bind(self, graph, seed, plan, start):
            super().bind(graph, seed, plan, start)
            self._in_s[:] = True

    with pytest.raises(AssertionError, match="independence violated"):
        run(path_graph(3), Rigged(), 0, round_cap=5)


def test_misparams_validation():
    with pytest.raises(ValueError):
        MisParams(p=2)
    with pytest.raises(ValueError):
        MisParams(K=0)
    with pytest.raises(ValueError):
        MisParams(C=0)


def test_part2_schedule_shape():
    phase_rounds, probabilities = part2_schedule(16, C=4)
    # P = 4 phases of lengths 4*(4-i)^2, last clamped to 1
    assert phase_rounds == [36, 16, 4, 1]
    assert len(probabilities) == sum(phase_rounds)
    # phase i marks with probability min(1, 2^i/16)
    assert probabilities[:36] == [Fraction(1, 8)] * 36
    assert probabilities[36] == Fraction(1, 4)
    assert probabilities[-1] == 1
    assert part2_round_count(16, 3, C=4) == 3 * (57 + 1)


def _stepped_schedule(d, C):
    """The stage-2 schedule before it was smoothed: P = ceil(log2 d) phases,
    phase i marking with probability min(1, 2^i/d) for max(1, C*(P-i)^2)
    rounds."""
    P = max(1, (d - 1).bit_length())
    phase_rounds = [max(1, C * (P - i) ** 2) for i in range(1, P + 1)]
    probabilities = [Fraction(min(2 ** i, d), d)
                     for i, r in enumerate(phase_rounds, 1) for _ in range(r)]
    return phase_rounds, probabilities


def test_part2_schedule_is_smooth():
    """At d = 2^k the smooth schedule is the stepped one, phase for phase;
    its marking length never falls as d rises; and its phase lengths for
    d = 2..4096 are pinned, so that a platform whose ``math.log2`` or
    ``math.ceil`` rounds differently fails here first."""
    for k in range(1, 13):
        for C in (1, 2, 4):
            assert part2_schedule(2 ** k, C) == _stepped_schedule(2 ** k, C), (k, C)
    lengths = {C: [part2_schedule(d, C)[0] for d in range(2, 4097)] for C in (1, 2, 4)}
    for C, rows in lengths.items():
        totals = [sum(rounds) for rounds in rows]
        assert all(a <= b for a, b in zip(totals, totals[1:])), C
    # where the stepped schedule adds a phase of C*P^2 rounds, past d = 16
    assert sum(lengths[4][17 - 2]) - sum(lengths[4][16 - 2]) == 7
    assert sum(_stepped_schedule(17, 4)[0]) - sum(_stepped_schedule(16, 4)[0]) == 64
    digest = hashlib.sha256(repr(sorted(lengths.items())).encode()).hexdigest()
    assert digest == (
        "b043c8b5c765941a88efc3eacbf42a2c0b03a63bacc3b3a8bb9d88025bbc7cee")


def test_part1_full_participation_runs_greedy_to_completion():
    for seed in range(6):
        g = gen_gnp(50, 0.15, seed=seed)
        joined, removed, residual, ledger = greedy_partial_mis(g, seed, p=1)
        assert joined.isdisjoint(removed)
        assert len(joined) + len(removed) + len(residual) == g.n
        # joined is independent, removed nodes are dominated
        for u, v in g.edges():
            assert not (u in joined and v in joined)
        pm = {v for j in joined for v in g.neighbors(j)}
        assert removed <= pm
        if not residual:
            assert verify_mis(g, joined)


def test_part1_window_and_rounds():
    g = gen_gnp(64, 0.1, seed=3)
    _, _, _, ledger = greedy_partial_mis(g, 1, p=Fraction(1, 6), window=20)
    assert ledger.rounds == 21  # window rounds plus the global wake round


def _domination_rounds(g, seed, p, window):
    """Stage 1's competition node by node: each round, every competing
    participant whose ``(key, id)`` is below that of each competing
    neighbour joins, and their competing neighbours are dominated.  Returns
    the round in which each participant dominated during the competition
    was dominated."""
    keys = [node_rng(seed, v, "p1key", 0) for v in range(g.n)]
    competing = {v for v in range(g.n) if keys[v] < coin_threshold(p)}
    dominated = {}
    for r in range(window):
        join = {v for v in competing
                if all((keys[v], v) < (keys[w], w) for w in g.neighbors(v)
                       if w in competing)}
        hit = {w for v in join for w in g.neighbors(v) if w in competing} - join
        dominated.update(dict.fromkeys(hit, r))
        competing -= join | hit
    return dominated


@pytest.mark.parametrize("p, window", [(PARTICIPATION, None), (Fraction(1, 2), 3),
                                       (1, None)])
def test_part1_dominated_participants_stop_waking(p, window):
    """A participant dominated during the competition terminates in the
    round it is dominated: it is awake in every round up to that one and
    never after, the window end included, where it would neither speak nor
    learn anything.  Every other node is still awake at the window end,
    which is its last round."""
    for seed in range(3):
        g = gen_gnp(300, 0.03, seed=seed)
        w = default_part1_window(g.n) if window is None else window
        with watched_wakes(mis_module) as runs:
            greedy_partial_mis(g, seed, p, w)
        dominated = _domination_rounds(g, seed, p, w)
        assert dominated
        for v, rounds in enumerate(runs[0][0]):
            if v in dominated:
                assert rounds == list(range(dominated[v] + 1)), (seed, v)
            else:
                assert rounds[-1] == w, (seed, v)


def test_part1_residual_degree_drops():
    # partial greedy leaves only poly(log) degrees behind
    n = 4096
    bound = 2 * math.ceil(math.log2(n)) ** 2
    for seed in range(5):
        g = gen_gnp(n, 8 / (n - 1), seed=seed)
        _, _, residual, _ = greedy_partial_mis(g, seed, p=Fraction(1, 12))
        assert part2_degree(g, residual) <= bound


def test_part2_single_edge():
    g = path_graph(2)
    added, residual, ledger = part2_reduce(g, seed=5)
    assert added == {0}  # id tie-break on the always-marked pair
    assert residual == ()
    assert ledger.total_awake() >= 2


def test_part2_edgeless_joins_at_cleanup():
    g = Graph(6)
    added, residual, ledger = part2_reduce(g, seed=1)
    assert added == set(range(6))
    assert residual == ()
    # isolated nodes wake exactly once, in the cleanup round
    assert list(ledger.counts) == [1] * 6
    d = part2_degree_bound(g.n, PARTICIPATION)
    assert ledger.rounds == part2_round_count(d, 1)


def test_part2_output_is_consistent():
    for seed in range(8):
        g = gen_gnp(300, 0.02, seed=seed)
        added, _, _ = part2_reduce(g, seed=seed)
        for u, v in g.edges():
            assert not (u in added and v in added)


def _increasing_path(n):
    """A path 0-1-...-(n-1) plus a 3-star, so that the degree bound is 3.
    Ids increase along the path, so the least-id rule leaves undecided
    pairs after the first iteration and later iterations run."""
    return Graph(n + 4, [(i, i + 1) for i in range(n - 1)]
                 + [(n, n + 1), (n, n + 2), (n, n + 3)])


@pytest.mark.parametrize("g, params", [
    (gen_gnp(400, 0.02, seed=11), MisParams(K=3)),
    (_increasing_path(200), MisParams(K=3, C=1)),
], ids=["gnp", "increasing_path"])
def test_part2_wakes_only_to_mark_or_to_tell(g, params):
    """Outside the cleanup, a node that never joins wakes only at its own
    marks, and a node that joins wakes at its own marks up to its join and
    then only at its neighbours' marks, at most once per neighbour.  So
    nodes sleep between their marks, unlike a node that stays awake from
    its first mark on."""
    seed = 11
    with watched_wakes(mis_module) as runs:
        added, _, _ = part2_reduce(g, seed, params)
    d = part2_degree_bound(g.n, PARTICIPATION)
    _, probabilities = part2_schedule(d, params.C)
    t_iter = len(probabilities) + 1
    indptr, indices = g.csr()

    def marks(v, r):
        o = r % t_iter
        return (o < t_iter - 1 and indptr[v + 1] > indptr[v]
                and node_rng(seed, v, "p2mark", r) < coin_threshold(probabilities[o]))

    resleeps = 0
    for v, rounds in enumerate(runs[0][0]):
        nbrs = indices[indptr[v]:indptr[v + 1]].tolist()
        rounds = [r for r in rounds if r % t_iter != t_iter - 1]
        resleeps += any(b > a + 1 for a, b in zip(rounds, rounds[1:]))
        # a node joins in its last iteration, and before that it is undecided
        last = rounds[-1] // t_iter if v in added and rounds else None
        assert all(marks(v, r) for r in rounds if r // t_iter != last), v
        # after its join, each round wakes it for some neighbour's mark
        told = [r for r in rounds if r // t_iter == last and not marks(v, r)]
        assert all(any(marks(w, r) for w in nbrs) for r in told), v
        assert len(told) <= len(nbrs), v
    assert resleeps > 0


def test_part2_joiners_end_at_their_last_tell(monkeypatch):
    """A node that joins below the last marking offset terminates in its
    last tell round: every start neighbour marks after its join, since the
    last offset marks with probability 1, and its last awake round is the
    latest of their first marks after the join, from the scalar coins.  It
    is never awake at its iteration's cleanup.  A joiner at the last offset
    has no tell left before the cleanup, and attends it; the increasing-id
    path has some."""
    seed = 11
    joins = {}
    join = Part2Protocol._join

    def recorded(self, o, joiners):
        joins.update(dict.fromkeys(joiners.tolist(), self._k * self.t_iter + o))
        return join(self, o, joiners)

    monkeypatch.setattr(Part2Protocol, "_join", recorded)
    below_last = at_last = 0
    for g, params in ((gen_gnp(400, 0.02, seed=11), MisParams(K=3)),
                      (_increasing_path(200), MisParams(K=3, C=1))):
        joins.clear()
        with watched_wakes(mis_module) as runs:
            part2_reduce(g, seed, params)
        d = part2_degree_bound(g.n, PARTICIPATION)
        _, probabilities = part2_schedule(d, params.C)
        marking = len(probabilities)
        t_iter = marking + 1

        def marks(v, r):
            return node_rng(seed, v, "p2mark", r) < coin_threshold(
                probabilities[r % t_iter])

        for v, r in joins.items():
            rounds = runs[0][0][v]
            cleanup = r - r % t_iter + marking
            if r + 1 < cleanup:
                last = max(next(s for s in range(r + 1, cleanup) if marks(w, s))
                           for w in g.neighbors(v))
                assert rounds[-1] == last and cleanup not in rounds, v
                below_last += 1
            else:
                assert rounds[-1] == cleanup, v
                at_last += 1
    assert below_last and at_last


def test_part2_sleeps_until_its_first_mark_in_every_iteration():
    """A node alive at the start of an iteration first wakes at its first
    mark of that iteration, as the scalar coins give it, or at the cleanup
    round if it never marks.  An increasing-id path under degree bound 3
    leaves undecided pairs after the first iteration, so later iterations
    are checked too; the protocol runs directly, as ``part2_reduce`` takes
    its bound from n."""
    g = _increasing_path(200)
    phase_rounds, probabilities = part2_schedule(3, C=1)
    marking = sum(phase_rounds)
    t_iter = marking + 1
    later_marks = 0
    for seed in range(3):
        with watched_wakes(engine) as runs:
            engine.run(g, Part2Protocol(3, 3, 1), seed, 3 * t_iter + 2, part="part2")
        for v, rounds in enumerate(runs[0][0]):
            for k in sorted({r // t_iter for r in rounds}):
                first = min(r for r in rounds if r // t_iter == k) - k * t_iter
                want = next((o for o, p in enumerate(probabilities)
                             if node_rng(seed, v, "p2mark", k * t_iter + o)
                             < coin_threshold(p)), marking)
                assert first == want, (seed, v, k)
                later_marks += k > 0 and 0 < want < marking
    assert later_marks > 0


def test_part2_marks_drawn_in_blocks(monkeypatch):
    """Stage 2 reads ``rng.COIN_BLOCK`` when it runs: smaller blocks cut its
    mark draw and the windows of marks it decodes, and change nothing
    else."""
    g = gen_gnp(400, 0.02, seed=11)
    with watched_wakes(mis_module) as runs:
        whole = part2_reduce(g, seed=11)
    decoded = []
    decode = Part2Protocol._decode

    def counted(self, o):
        decoded.append(o)
        return decode(self, o)

    monkeypatch.setattr(Part2Protocol, "_decode", counted)
    for block in (1, 1000):  # one row per draw; blocks cutting an iteration
        monkeypatch.setattr(rng, "COIN_BLOCK", block)
        decoded.clear()
        with watched_wakes(mis_module) as cut:
            cut_result = part2_reduce(g, seed=11)
        assert cut_result == whole
        assert cut[0][0] == runs[0][0]
        assert len(decoded) > 1


def test_mis_never_builds_the_python_views():
    """The MIS stages work on the CSR alone: a generated graph never builds
    ``adj`` or ``edge_set``, whether a stage runs on all of it or from a
    start set."""
    g = gen_gnp(2000, 10 / 2000, seed=3)
    awake_mis(g, seed=3)
    luby_mis(g, seed=3)
    _, _, res1, _ = greedy_partial_mis(g, 3, PARTICIPATION)
    part2_reduce(g, 3, start=res1)
    luby_mis(g, 3, start=res1)
    assert part2_degree(g, res1) > 2
    assert g._adj is None and g._edge_set is None


def test_part2_shrinks_residual():
    n = 20000
    for seed in range(4):
        g = gen_gnp(n, 20 / (n - 1), seed=seed)
        mis, _, metrics = awake_mis(g, seed=seed)
        assert metrics.diagnostics["residual2_n"] <= n / math.log2(n)


def test_awake_mis_validity_and_diagnostics():
    for seed in range(10):
        g = gen_gnp(500, 0.02, seed=seed)
        mis, ledger, metrics = awake_mis(g, seed=seed)
        assert verify_mis(g, mis)
        assert metrics.validity
        assert metrics.solution_size == len(mis)
        d = metrics.diagnostics
        assert d["part1_in"] + d["residual1_n"] <= g.n
        assert set(ledger.part_totals()) <= {"part1", "part2", "luby"}
        assert ledger.total_awake() == metrics.total_awake


def test_awake_mis_small_and_degenerate():
    mis, ledger, metrics = awake_mis(Graph(0), seed=1)
    assert mis == set() and ledger.part_totals() == {} and metrics.rounds == 0
    assert metrics.validity
    assert metrics.diagnostics == {"part1_in": 0, "residual1_n": 0,
                                   "residual2_n": 0}
    # the empty graph runs the general path: one run, on no node
    with watched_wakes(mis_module) as runs:
        luby_mis(Graph(0), 1)
        part2_reduce(Graph(0), 1)
    assert [rounds for rounds, _ in runs] == [[], []]
    mis, _, metrics = awake_mis(Graph(1), seed=1)
    assert mis == {0} and metrics.validity
    mis, _, _ = awake_mis(path_graph(2), seed=3)
    assert len(mis) == 1


def test_stage_residual_ids_map_back_to_the_input():
    """The residuals are sorted tuples of ids in the input graph: stage 1's
    is every node that neither joined nor was removed, and stage 2's is
    the part of its start set that neither joined nor left."""
    g = gen_gnp(300, 0.03, seed=2)
    joined, removed, ids, _ = greedy_partial_mis(g, 2, p=Fraction(1, 4))
    assert ids == tuple(sorted(set(range(g.n)) - joined - removed))
    added, ids2, _ = part2_reduce(g, seed=2, start=ids)
    assert ids2 == tuple(sorted(ids2)) and added
    assert set(ids2) | added <= set(ids) and set(ids2).isdisjoint(added)


@pytest.mark.parametrize("linked", [False, True], ids=["disjoint", "linked"])
def test_stages_from_a_start_set_act_as_on_its_own_graph(linked):
    """``part2_reduce`` and ``luby_mis`` on G ⊎ H from the start set of G's
    ids, with G placed first, decide and wake G's nodes as they do on G
    alone, with the same ledger counts and rounds, and never wake H.  A node
    outside the start set is no one's neighbour, so edges from G into H
    change nothing.  K is given, since its default depends on n, and so is
    p, at which the degree bound of n = 300 and of n = 500 is the same."""
    g = gen_gnp(300, 0.03, seed=4)
    h = gen_gnp(200, 0.05, seed=8)
    edges = [*g.edge_set, *((u + g.n, v + g.n) for u, v in h.edge_set)]
    if linked:
        edges += [(v, g.n + 7 * v % h.n) for v in range(0, g.n, 2)]
    host = Graph(g.n + h.n, edges)
    params = MisParams(K=3, p=Fraction(1, 2))
    assert part2_degree_bound(g.n, params.p) == part2_degree_bound(host.n, params.p)
    for seed in (1, 2):
        with watched_wakes(mis_module) as runs:
            alone = [part2_reduce(g, seed, params), luby_mis(g, seed)]
            joint = [part2_reduce(host, seed, params, start=range(g.n)),
                     luby_mis(host, seed, start=range(g.n))]
        for (*sets, ledger), (*joint_sets, joint_ledger) in zip(alone, joint):
            assert joint_sets == sets
            assert joint_ledger.rounds == ledger.rounds
            assert joint_ledger.counts.tolist() == ledger.counts.tolist() + [0] * h.n
        for (rounds, _), (joint_rounds, _) in zip(runs[:2], runs[2:]):
            assert joint_rounds == rounds + [[]] * h.n


def _g_part(ids, off):
    """The ids of ``ids`` that are G's in a union with H placed first, as
    G's ids."""
    return sorted(v - off for v in ids if v >= off)


_LOCAL_STAGES = {
    "luby_mis": (lambda u: luby_mis(u, 7), lambda r, off: _g_part(r[0], off)),
    "greedy_partial_mis": (
        lambda u: greedy_partial_mis(u, 7, PARTICIPATION),
        lambda r, off: [_g_part(ids, off) for ids in r[:3]]),
    "part2_reduce": (lambda u: part2_reduce(u, 7),
                     lambda r, off: [_g_part(ids, off) for ids in r[:2]]),
    "awake_mis": (lambda u: awake_mis(u, 7), lambda r, off: _g_part(r[0], off)),
}


@pytest.mark.parametrize("other", ["matching", "cycle"])
@pytest.mark.parametrize("stage", list(_LOCAL_STAGES))
def test_mis_stages_are_local(stage, other):
    """G = G(400, 10/400) placed after 60 isolated nodes, or after a perfect
    matching or a cycle on 60 nodes: same n, same max degree 25.  Each MIS
    stage and ``awake_mis`` decide and wake G's nodes alike in both
    unions.  ``awake_mis`` did not while stages 2 and 3 ran on relabelled
    residuals with coins keyed by residual ids: at this seed, G's MIS had
    88 nodes after the isolated nodes and 96 after the matching."""
    g = gen_gnp(400, 10 / 400, seed=5)
    h2 = (Graph(60, [(2 * i, 2 * i + 1) for i in range(30)]) if other == "matching"
          else cycle_graph(60))
    run_stage, decided = _LOCAL_STAGES[stage]
    assert_local(run_stage, mis_module, g, Graph(60), h2, decided)


def test_part2_reduce_is_local_under_a_denser_component():
    """``part2_reduce`` reads n alone, so a denser component does not move
    G's run either: G = G(400, 10/400) after 60 isolated nodes or after
    K_31 and 29 isolated nodes, max degree 25 against 30.  It did move it
    while stage 2's degree bound was the start set's max degree."""
    g = gen_gnp(400, 10 / 400, seed=5)
    h2 = Graph(60, complete_graph(31).edge_set)
    run_stage, decided = _LOCAL_STAGES["part2_reduce"]
    assert_local(run_stage, mis_module, g, Graph(60), h2, decided, n_only=True)


def _digest_corpus():
    graphs = [gen_gnp(n, min(1.0, 10 / max(2, n)), seed=n)
              for n in (0, 1, 2, 16, 64, 256, 1024)]
    return graphs + [Graph(5), cycle_graph(9), complete_graph(6), star_graph(12),
                     petersen_graph(), gen_bipartite(20, 20, 0.2, seed=4)]


def _awake_mis_digest():
    graphs = _digest_corpus()
    params = (None, MisParams(K=1), MisParams(C=2), MisParams(p=Fraction(1, 2)),
              MisParams(part1_window=5))
    h = hashlib.sha256()
    for g in graphs:
        for prm in params:
            for seed in (1, 2):
                mis, ledger, _ = awake_mis(g, seed, params=prm)
                h.update(repr((sorted(mis), ledger.rounds)).encode())
                for label, arr in ledger.parts.items():
                    h.update(repr((label, arr.tolist())).encode())
    return h.hexdigest()


def test_awake_mis_golden_digest():
    """Sets, ledger parts and rounds on a fixed corpus, with stages 2 and 3
    run on the host graph from their start sets and coins keyed by host id;
    the stage-2 ledger parts are those of the wake rule that
    :class:`RefPart2` restates node by node.  Recomputed when p became 1/4
    and stage 2 took its degree bound from n and p, on the smooth
    schedule, and when dominated stage-1 participants and stage-2 joiners
    below the last offset began to terminate once they had nothing left to
    do, which lowers ledger parts and, on runs whose stage-2 residual is
    empty before the cleanup, rounds."""
    assert _awake_mis_digest() == (
        "d5313875998ca4cc242fa5e07693a7b92d36875abbeb9d421f10d557dd3b3e31")


def _hash_ledger(h, ledger, rounds=None):
    """Hash a ledger's rounds and parts, then ``rounds``: the wake rounds the
    watcher saw in its run, or ``None`` for a ledger no watcher saw (a
    merged one)."""
    h.update(repr(ledger.rounds).encode())
    for label, arr in ledger.parts.items():
        h.update(repr((label, arr.tolist())).encode())
    h.update(repr(rounds).encode())


def _stage_schedule_digest():
    h = hashlib.sha256()
    with watched_wakes(mis_module) as runs:
        for g in _digest_corpus():
            for seed in (1, 2):
                s, ledger = luby_mis(g, seed)
                h.update(repr(sorted(s)).encode())
                _hash_ledger(h, ledger, runs[-1][0])
                for p in (PARTICIPATION, Fraction(1, 2)):
                    joined, removed, ids, ledger = greedy_partial_mis(g, seed, p)
                    h.update(repr((sorted(joined), sorted(removed), ids)).encode())
                    _hash_ledger(h, ledger, runs[-1][0])
                for prm in (None, MisParams(K=1), MisParams(C=2)):
                    added, ids, ledger = part2_reduce(g, seed, prm)
                    h.update(repr((sorted(added), tuple(ids))).encode())
                    _hash_ledger(h, ledger, runs[-1][0])
    return h.hexdigest()


def test_stage_schedule_golden_digest():
    """Standalone Luby, stage 1 and stage 2 on the golden corpus: sets,
    residual ids, ledger parts, rounds and per-node awake rounds (as the
    watcher sees them), first pinned on the per-node hook implementation
    of the three protocols, with the empty graph's schedules recorded as
    ``[]`` and stage 2 under the wake rule that :class:`RefPart2` restates
    node by node.  Recomputed
    when p became 1/4 and stage 2 took its degree bound from n and p, on
    the smooth schedule, and when dominated stage-1 participants and
    stage-2 joiners below the last offset began to terminate once they had
    nothing left to do."""
    assert _stage_schedule_digest() == (
        "8f0e67687be892f18a7c05efc07e9a393c89060165b64b2c2eb036db366992f0")


def _outputs_digest():
    """MIS sets, per-stage residual ids and round counts, with no awake
    counts, on the corpora of the two digests above plus ``awake_mis`` on
    G(2^10..2^12, 10/n) with five seeds."""
    h = hashlib.sha256()
    for g in _digest_corpus():
        for prm in (None, MisParams(K=1), MisParams(C=2),
                    MisParams(p=Fraction(1, 2)), MisParams(part1_window=5)):
            for seed in (1, 2):
                mis, ledger, metrics = awake_mis(g, seed, params=prm)
                h.update(repr((sorted(mis), ledger.rounds,
                               sorted(metrics.diagnostics.items()))).encode())
        for seed in (1, 2):
            s, ledger = luby_mis(g, seed)
            h.update(repr((sorted(s), ledger.rounds)).encode())
            for p in (PARTICIPATION, Fraction(1, 2)):
                joined, removed, ids, ledger = greedy_partial_mis(g, seed, p)
                h.update(repr((sorted(joined), sorted(removed), ids,
                               ledger.rounds)).encode())
            for prm in (None, MisParams(K=1), MisParams(C=2)):
                added, ids, ledger = part2_reduce(g, seed, prm)
                h.update(repr((sorted(added), tuple(ids), ledger.rounds)).encode())
    for n in (2 ** 10, 2 ** 11, 2 ** 12):
        for seed in range(5):
            mis, ledger, metrics = awake_mis(gen_gnp(n, 10 / n, seed=seed), seed)
            h.update(repr((sorted(mis), ledger.rounds,
                           sorted(metrics.diagnostics.items()))).encode())
    return h.hexdigest()


def test_awake_mis_outputs_golden_digest():
    """What the three stages decide, apart from who is awake when: the
    stage-2 wake rule moves ledgers, never sets or residuals, and rounds
    only where stage 2's residual is empty before a cleanup that no node
    then attends.  The stage runs here are pinned, schedules included, by
    the stage digest above; the ``awake_mis`` runs draw stages 2 and 3 by
    host id.  Recomputed when p became 1/4 and stage 2 took its degree
    bound from n and p, on the smooth schedule, which moves sets, residuals
    and rounds, and when stage-2 joiners below the last offset began to
    terminate at their last tell, which shortens such runs."""
    assert _outputs_digest() == (
        "8e6562b5f9b401063d46a91a9b91eb570c2532c597d7c83b387a27f6b32835d8")


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep])


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), seed=st.integers(0, 2 ** 32))
def test_mis_validity_and_ledger_totals_on_arbitrary_graphs(g, seed):
    mis, ledger, metrics = awake_mis(g, seed)
    assert verify_mis(g, mis) and metrics.validity
    assert ledger.total_awake() == sum(ledger.part_totals().values())
    s, lled = luby_mis(g, seed)
    assert verify_mis(g, s)
    assert lled.total_awake() == sum(lled.part_totals().values())


@settings(max_examples=60, deadline=None)
@given(g=small_graphs(), seed=st.integers(0, 2 ** 32))
def test_awake_mis_ledger_matches_its_recorded_schedule(g, seed):
    """Each stage's ledger counts the rounds the watcher saw each node awake
    in, which rise strictly and end before the stage's last round, and the
    merged ledger sums the stage counts node by node.  Stages 2 and 3 wake
    only nodes of their start sets, the residuals of stages 1 and 2."""
    with watched_wakes(mis_module) as runs:
        _, ledger, _ = awake_mis(g, seed)
    _, _, res1, _ = greedy_partial_mis(g, seed, PARTICIPATION)
    _, res2, _ = part2_reduce(g, seed, start=res1)
    assert len(runs) == 3
    merged = np.zeros(g.n, dtype=np.int64)
    for (rounds, (_, stage, _)), start in zip(runs, (range(g.n), res1, res2)):
        assert stage.counts.tolist() == [len(rs) for rs in rounds]
        assert {v for v, rs in enumerate(rounds) if rs} <= set(start)
        for rs in rounds:
            assert all(a < b for a, b in zip(rs, rs[1:]))
            assert all(0 <= r < stage.rounds for r in rs)
        merged += stage.counts
    assert ledger.counts.tolist() == merged.tolist()


@st.composite
def part2_cases(draw):
    """A graph, stage-2 parameters ``(d, K, C)`` and a start set: an
    arbitrary small graph under the degree bound of its start set, or an
    increasing-id path under d = 3.  The start set is every node
    (``None``) or a random subset."""
    path = draw(st.booleans())
    g = _increasing_path(draw(st.integers(2, 200))) if path else draw(small_graphs())
    start = draw(st.none() | st.lists(st.booleans(), min_size=g.n, max_size=g.n).map(
        lambda keep: [v for v, k in enumerate(keep) if k]))
    if path:
        return g, 3, draw(st.integers(2, 4)), draw(st.integers(1, 2)), start
    return (g, part2_degree(g, start), draw(st.integers(1, 3)), draw(st.integers(1, 3)),
            start)


def _run_both(g, d, K, C, seed, start=None):
    """Status lists, ledgers and watched wake rounds of the array stage 2
    and of its reference, both from ``start``."""
    runs = []
    for proto in (Part2Protocol(d, K, C), RefPart2(d, K, C)):
        with watched_wakes(engine) as watched:
            status, ledger, _ = engine.run(g, proto, seed, K * proto.t_iter + 2,
                                           part="part2", start=start)
        runs.append((status.tolist(), ledger, watched[0][0]))
    return runs


@settings(max_examples=80, deadline=None)
@given(case=part2_cases(), seed=st.integers(0, 2 ** 32))
@example(case=(_increasing_path(200), 3, 3, 2, None), seed=0)
@example(case=(_increasing_path(200), 3, 3, 2, list(range(0, 204, 3))), seed=0)
def test_part2_matches_its_per_node_reference(case, seed):
    """The array stage 2 and :class:`RefPart2`, where each node computes its
    neighbours' marks with the scalar coins and keeps its own told flags,
    agree on status, ledger parts, rounds and watched wake rounds, from
    every node or from a start set."""
    g, d, K, C, start = case
    (status, ledger, rounds), (ref_status, ref_ledger, ref_rounds) = _run_both(
        g, d, K, C, seed, start)
    assert status == ref_status
    assert ledger == ref_ledger  # parts node by node, and rounds
    assert rounds == ref_rounds


def test_part2_reference_covers_later_iterations():
    """On increasing-id paths, nodes join in later iterations next to
    neighbours that left in earlier ones, whose marks still wake them.
    With C = 2 the first phase marks with p = 2/3 for two rounds, so a
    joiner's plan reads coins that change from one iteration to the next."""
    g = _increasing_path(200)
    t_iter = RefPart2(3, 3, 2).t_iter
    later = 0
    for seed in range(4):
        (status, ledger, rounds), (ref_status, ref_ledger, ref_rounds) = _run_both(
            g, 3, 3, 2, seed)
        assert status == ref_status and ledger == ref_ledger
        assert rounds == ref_rounds
        later += sum(1 for rs in rounds for r in rs
                     if r >= t_iter and r % t_iter != t_iter - 1)
    assert later > 0


@settings(max_examples=40, deadline=None)
@given(case=part2_cases(), seed=st.integers(0, 2 ** 32),
       p=st.sampled_from((Fraction(1, 4), Fraction(1, 2), 1)))
@example(case=(_increasing_path(60), 3, 3, 1, None), seed=1, p=Fraction(1, 2))
def test_mis_protocols_sleep_in_the_sleeping_model(case, seed, p):
    """Under :func:`sleep_checked`, no round of the three MIS protocols
    changes a sleeper's state or terminates a sleeper; Luby and stage 2
    run from the case's start set."""
    g, d, K, C, start = case
    run(g, sleep_checked(LubyProtocol()), seed, 64 * 8, start=start)
    run(g, sleep_checked(Part1Protocol(p, 6)), seed, 8)
    proto = sleep_checked(Part2Protocol(d, K, C))
    run(g, proto, seed, K * proto.t_iter + 2, start=start)


@pytest.mark.parametrize("n", [2 ** 10, 2 ** 12])
def test_awake_mis_mean_awake_stays_low(n):
    """Stage 2 keeps nodes asleep between their marks, so the mean awake
    count on G(n, 10/n) is a small constant (1.5-1.6 here; 1.7-1.8 while
    dominated stage-1 participants and early stage-2 joiners still woke
    with nothing to do), not the 10-11 of a node that stays awake from its
    first mark to the iteration end."""
    for seed in range(3):
        _, _, metrics = awake_mis(gen_gnp(n, 10 / n, seed=seed), seed)
        assert metrics.avg_awake <= 3.0, (n, seed, metrics.avg_awake)
