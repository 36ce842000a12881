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
from awakesim.mis import (LubyProtocol, MisParams, Part1Protocol,
                          Part2Protocol, _join_set,
                          awake_mis, default_iterations, default_participation,
                          greedy_partial_mis,
                          luby_mis, part2_degree, part2_reduce,
                          part2_round_count, part2_schedule)
from awakesim.oracles import verify_mis
from awakesim.rng import coin_threshold, node_rng
from conftest import RefPart2, sleep_checked, watched_wakes


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
        def bind(self, graph, seed, plan):
            super().bind(graph, seed, plan)
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


def test_part1_full_participation_runs_greedy_to_completion():
    for seed in range(6):
        g = gen_gnp(50, 0.15, seed=seed)
        joined, removed, residual, _, ledger = greedy_partial_mis(g, seed, p=1)
        assert joined.isdisjoint(removed)
        assert len(joined) + len(removed) + residual.n == g.n
        # joined is independent, removed nodes are dominated
        for u, v in g.edges():
            assert not (u in joined and v in joined)
        pm = {v for j in joined for v in g.neighbors(j)}
        assert removed <= pm
        if residual.n == 0:
            assert verify_mis(g, joined)


def test_part1_window_and_rounds():
    g = gen_gnp(64, 0.1, seed=3)
    _, _, _, _, ledger = greedy_partial_mis(g, 1, p=Fraction(1, 6), window=20)
    assert ledger.rounds == 21  # window rounds plus the global wake round


def test_part1_residual_degree_drops():
    # partial greedy leaves only poly(log) degrees behind
    n = 4096
    bound = 2 * math.ceil(math.log2(n)) ** 2
    for seed in range(5):
        g = gen_gnp(n, 8 / (n - 1), seed=seed)
        _, _, residual, _, _ = greedy_partial_mis(g, seed, p=Fraction(1, 12))
        assert residual.max_degree <= bound


def test_part2_single_edge():
    g = path_graph(2)
    added, residual, _, ledger = part2_reduce(g, seed=5)
    assert added == {0}  # id tie-break on the always-marked pair
    assert residual.n == 0
    assert ledger.total_awake() >= 2


def test_part2_edgeless_joins_at_cleanup():
    g = Graph(6)
    added, residual, _, ledger = part2_reduce(g, seed=1)
    assert added == set(range(6))
    assert residual.n == 0
    # isolated nodes wake exactly once, in the cleanup round
    assert list(ledger.counts) == [1] * 6
    d = max(2, g.max_degree)
    assert ledger.rounds == part2_round_count(d, 1)


def test_part2_output_is_consistent():
    for seed in range(8):
        g = gen_gnp(300, 0.02, seed=seed)
        added, residual, _, _ = part2_reduce(g, seed=seed)
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
        added, _, _, _ = part2_reduce(g, seed, params)
    _, probabilities = part2_schedule(part2_degree(g), params.C)
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


def test_part2_sleeps_until_its_first_mark_in_every_iteration():
    """A node alive at the start of an iteration first wakes at its first
    mark of that iteration, as the scalar coins give it, or at the cleanup
    round if it never marks.  An increasing-id path under degree bound 3
    leaves undecided pairs after the first iteration, so later iterations
    are checked too."""
    g = _increasing_path(200)
    params = MisParams(K=3, C=1)
    phase_rounds, probabilities = part2_schedule(3, C=1)
    marking = sum(phase_rounds)
    t_iter = marking + 1
    later_marks = 0
    for seed in range(3):
        with watched_wakes(mis_module) as runs:
            part2_reduce(g, seed, params)
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
            added, residual, ids, ledger = part2_reduce(g, seed=11)
        assert (added, residual, ids, ledger) == whole
        assert cut[0][0] == runs[0][0]
        assert len(decoded) > 1


def test_mis_never_builds_the_python_views():
    """The MIS stages work on the CSR alone: neither a generated graph nor
    the residuals they induce ever build ``adj`` or ``edge_set``."""
    g = gen_gnp(2000, 10 / 2000, seed=3)
    awake_mis(g, seed=3)
    luby_mis(g, seed=3)
    _, _, res1, _, _ = greedy_partial_mis(g, 3, default_participation(g.n))
    _, res2, _, _ = part2_reduce(res1, 3)
    luby_mis(res1, 3)
    assert res1.m
    for h in (g, res1, res2):
        assert h._adj is None and h._edge_set is None


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
    g = gen_gnp(300, 0.03, seed=2)
    joined, removed, residual, ids, _ = greedy_partial_mis(g, 2, p=Fraction(1, 4))
    assert residual == g.induced(ids)[0]
    assert set(ids).isdisjoint(joined | removed)
    added, residual2, ids2, _ = part2_reduce(residual, seed=2)
    assert residual2 == residual.induced(ids2)[0]
    assert set(ids2).isdisjoint(added)


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
    """Sets, ledger parts and rounds on a fixed corpus.  Sets and rounds
    are those of the stage-by-stage implementation this composition
    replaced; the stage-2 ledger parts are those of the wake rule that
    :class:`RefPart2` restates node by node."""
    assert _awake_mis_digest() == (
        "dfd63b12041bf81a2677102c111a0d7a57ed4aed3c068537dfa1669a582d89c9")


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
                for p in (default_participation(g.n), Fraction(1, 2)):
                    joined, removed, _, ids, ledger = greedy_partial_mis(g, seed, p)
                    h.update(repr((sorted(joined), sorted(removed), ids)).encode())
                    _hash_ledger(h, ledger, runs[-1][0])
                for prm in (None, MisParams(K=1), MisParams(C=2)):
                    added, _, ids, ledger = part2_reduce(g, seed, prm)
                    h.update(repr((sorted(added), tuple(ids))).encode())
                    _hash_ledger(h, ledger, runs[-1][0])
    return h.hexdigest()


def test_stage_schedule_golden_digest():
    """Standalone Luby, stage 1 and stage 2 on the golden corpus: sets,
    residual ids, ledger parts, rounds and per-node awake rounds (as the
    watcher sees them), as
    computed by the per-node hook implementation of the three protocols,
    with the empty graph's schedules recorded as ``[]`` and stage 2 under
    the wake rule that :class:`RefPart2` restates node by node."""
    assert _stage_schedule_digest() == (
        "2ff6dcf385d50218fdb4cf70b8a25a26617888fd2787a24a4e8aba58fc5175c8")


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
            for p in (default_participation(g.n), Fraction(1, 2)):
                joined, removed, _, ids, ledger = greedy_partial_mis(g, seed, p)
                h.update(repr((sorted(joined), sorted(removed), ids,
                               ledger.rounds)).encode())
            for prm in (None, MisParams(K=1), MisParams(C=2)):
                added, _, ids, ledger = part2_reduce(g, seed, prm)
                h.update(repr((sorted(added), tuple(ids), ledger.rounds)).encode())
    for n in (2 ** 10, 2 ** 11, 2 ** 12):
        for seed in range(5):
            mis, ledger, metrics = awake_mis(gen_gnp(n, 10 / n, seed=seed), seed)
            h.update(repr((sorted(mis), ledger.rounds,
                           sorted(metrics.diagnostics.items()))).encode())
    return h.hexdigest()


def test_awake_mis_outputs_golden_digest():
    """What the three stages decide, apart from who is awake when: the
    stage-2 wake rule moves ledgers, never sets, residuals or rounds."""
    assert _outputs_digest() == (
        "a7dc28842269fa09ac391235614071db750b7d95d308c0a5c65e7c5e60c59deb")


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
    merged ledger sums the stage counts through the residual ids."""
    with watched_wakes(mis_module) as runs:
        _, ledger, _ = awake_mis(g, seed)
    # the residual ids of stages 1 and 2, as awake_mis computes them
    _, _, res1, ids1, _ = greedy_partial_mis(g, seed, default_participation(g.n))
    _, _, ids2, _ = part2_reduce(res1, seed, MisParams(K=default_iterations(g.n)))
    ids1 = np.array(ids1, dtype=np.int64)
    id_maps = (np.arange(g.n), ids1, ids1[np.array(ids2, dtype=np.int64)])
    assert len(runs) == len(id_maps)
    merged = np.zeros(g.n, dtype=np.int64)
    for (rounds, (_, stage, _)), ids in zip(runs, id_maps):
        assert stage.counts.tolist() == [len(rs) for rs in rounds]
        for rs in rounds:
            assert all(a < b for a, b in zip(rs, rs[1:]))
            assert all(0 <= r < stage.rounds for r in rs)
        np.add.at(merged, ids, stage.counts)
    assert ledger.counts.tolist() == merged.tolist()


@st.composite
def part2_cases(draw):
    """A graph and stage-2 parameters ``(d, K, C)``: an arbitrary small graph
    under its own degree bound, or an increasing-id path under d = 3."""
    if draw(st.booleans()):
        g = draw(small_graphs())
        return g, part2_degree(g), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return (_increasing_path(draw(st.integers(2, 200))), 3, draw(st.integers(2, 4)),
            draw(st.integers(1, 2)))


def _run_both(g, d, K, C, seed):
    """Status lists, ledgers and watched wake rounds of the array stage 2
    and of its reference."""
    runs = []
    for proto in (Part2Protocol(d, K, C), RefPart2(d, K, C)):
        with watched_wakes(engine) as watched:
            status, ledger, _ = engine.run(g, proto, seed, K * proto.t_iter + 2,
                                           part="part2")
        runs.append((status.tolist(), ledger, watched[0][0]))
    return runs


@settings(max_examples=80, deadline=None)
@given(case=part2_cases(), seed=st.integers(0, 2 ** 32))
@example(case=(_increasing_path(200), 3, 3, 2), seed=0)
def test_part2_matches_its_per_node_reference(case, seed):
    """The array stage 2 and :class:`RefPart2`, where each node computes its
    neighbours' marks with the scalar coins and keeps its own told flags,
    agree on status, ledger parts, rounds and watched wake rounds."""
    g, d, K, C = case
    (status, ledger, rounds), (ref_status, ref_ledger, ref_rounds) = _run_both(
        g, d, K, C, seed)
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
@given(g=small_graphs(), seed=st.integers(0, 2 ** 32),
       p=st.sampled_from((Fraction(1, 4), Fraction(1, 2), 1)),
       K=st.integers(1, 3), C=st.integers(1, 3))
@example(g=_increasing_path(60), seed=1, p=Fraction(1, 2), K=3, C=1)
def test_mis_protocols_sleep_in_the_sleeping_model(g, seed, p, K, C):
    """Under :func:`sleep_checked`, no round of the three MIS protocols
    changes a sleeper's state or terminates a sleeper."""
    run(g, sleep_checked(LubyProtocol()), seed, 64 * 8)
    run(g, sleep_checked(Part1Protocol(p, 6)), seed, 8)
    proto = sleep_checked(Part2Protocol(part2_degree(g), K, C))
    run(g, proto, seed, K * proto.t_iter + 2)


@pytest.mark.parametrize("n", [2 ** 10, 2 ** 12])
def test_awake_mis_mean_awake_stays_low(n):
    """Stage 2 keeps nodes asleep between their marks, so the mean awake
    count on G(n, 10/n) is a small constant (2.1-2.5 here), not the 10-11
    of a node that stays awake from its first mark to the iteration end."""
    for seed in range(3):
        _, _, metrics = awake_mis(gen_gnp(n, 10 / n, seed=seed), seed)
        assert metrics.avg_awake <= 3.0, (n, seed, metrics.avg_awake)
