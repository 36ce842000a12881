"""Three-stage MIS: per-stage behavior, wake patterns, validity."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awakesim import rng
from awakesim.graphs import (Graph, complete_graph, cycle_graph, gen_bipartite,
                             gen_gnp, path_graph, petersen_graph, star_graph)
from awakesim.engine import run
from awakesim.mis import (LubyProtocol, MisParams, _assert_independent,
                          awake_mis, default_participation, greedy_partial_mis,
                          luby_mis, part2_reduce, part2_round_count,
                          part2_schedule)
from awakesim.oracles import verify_mis
from awakesim.rng import coin_threshold, node_rng


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
    csr = path_graph(3).csr()
    none = np.zeros(3, dtype=bool)
    _assert_independent(csr, none, np.array([True, False, True]))
    # two adjacent nodes joining in the same round
    with pytest.raises(AssertionError, match="independence violated"):
        _assert_independent(csr, none, np.array([True, True, False]))
    # a joiner next to a node already in the set
    with pytest.raises(AssertionError, match="independence violated"):
        _assert_independent(csr, np.array([False, False, True]),
                            np.array([False, True, False]))

    class Rigged(LubyProtocol):
        def bind(self, graph, seed):
            super().bind(graph, seed)
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


def test_part2_wake_pattern_is_one_block_per_iteration():
    """Within an iteration a node is awake in one contiguous block that runs
    to the iteration end unless the node terminated, plus possibly a lone
    cleanup round."""
    g = gen_gnp(400, 0.02, seed=11)
    params = MisParams(K=3)
    added, residual, _, ledger = part2_reduce(g, seed=11, params=params,
                                              record_schedule=True)
    d = max(2, g.max_degree)
    t_iter = part2_round_count(d, 1)
    for v, rounds in enumerate(ledger.schedule):
        if not rounds:
            continue
        last_overall = rounds[-1]
        by_iter = {}
        for r in rounds:
            by_iter.setdefault(r // t_iter, []).append(r)
        for k, rs in by_iter.items():
            assert rs == list(range(rs[0], rs[-1] + 1)), f"node {v} re-slept"
            iter_end = (k + 1) * t_iter - 1
            assert rs[-1] == iter_end or rs[-1] == last_overall, (
                f"node {v} slept early in iteration {k}")


def test_part2_sleeps_until_its_first_mark_in_every_iteration():
    """A node alive at the start of an iteration first wakes at its first
    mark of that iteration, as the scalar coins give it, or at the cleanup
    round if it never marks.  An increasing-id path under degree bound 3
    leaves undecided pairs after the first iteration, so later iterations
    are checked too."""
    n = 200
    g = Graph(n + 4, [(i, i + 1) for i in range(n - 1)]
              + [(n, n + 1), (n, n + 2), (n, n + 3)])
    params = MisParams(K=3, C=1)
    phase_rounds, probabilities = part2_schedule(3, C=1)
    marking = sum(phase_rounds)
    t_iter = marking + 1
    later_marks = 0
    for seed in range(3):
        _, _, _, ledger = part2_reduce(g, seed, params, record_schedule=True)
        for v, rounds in enumerate(ledger.schedule):
            for k in sorted({r // t_iter for r in rounds}):
                first = min(r for r in rounds if r // t_iter == k) - k * t_iter
                want = next((o for o, p in enumerate(probabilities)
                             if node_rng(seed, v, "p2mark", k * t_iter + o)
                             < coin_threshold(p)), marking)
                assert first == want, (seed, v, k)
                later_marks += k > 0 and 0 < want < marking
    assert later_marks > 0


def test_part2_marks_drawn_in_blocks(monkeypatch):
    g = gen_gnp(400, 0.02, seed=11)
    whole = part2_reduce(g, seed=11, record_schedule=True)
    for block in (1, 1000):  # one row per draw; blocks cutting an iteration
        monkeypatch.setattr(rng, "COIN_BLOCK", block)
        added, residual, ids, ledger = part2_reduce(g, seed=11, record_schedule=True)
        assert (added, residual, ids) == whole[:3]
        assert ledger.schedule == whole[3].schedule


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
    # the empty graph runs the general path: a recorded schedule is a list
    assert luby_mis(Graph(0), 1, record_schedule=True)[1].schedule == []
    assert part2_reduce(Graph(0), 1, record_schedule=True)[3].schedule == []
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
    """Sets, ledger parts and rounds on a fixed corpus, as computed by the
    stage-by-stage implementation this composition replaced."""
    assert _awake_mis_digest() == (
        "794bbf9c486f8838711f164e9e23a22ef7162eb81857aedf5676e2cd6e8bfebf")


def _hash_ledger(h, ledger):
    h.update(repr(ledger.rounds).encode())
    for label, arr in ledger.parts.items():
        h.update(repr((label, arr.tolist())).encode())
    h.update(repr(ledger.schedule).encode())


def _stage_schedule_digest():
    h = hashlib.sha256()
    for g in _digest_corpus():
        for seed in (1, 2):
            s, ledger = luby_mis(g, seed, record_schedule=True)
            h.update(repr(sorted(s)).encode())
            _hash_ledger(h, ledger)
            for p in (default_participation(g.n), Fraction(1, 2)):
                joined, removed, _, ids, ledger = greedy_partial_mis(
                    g, seed, p, record_schedule=True)
                h.update(repr((sorted(joined), sorted(removed), ids)).encode())
                _hash_ledger(h, ledger)
            for prm in (None, MisParams(K=1), MisParams(C=2)):
                added, _, ids, ledger = part2_reduce(g, seed, prm,
                                                     record_schedule=True)
                h.update(repr((sorted(added), tuple(ids))).encode())
                _hash_ledger(h, ledger)
    return h.hexdigest()


def test_stage_schedule_golden_digest():
    """Standalone Luby, stage 1 and stage 2 on the golden corpus: sets,
    residual ids, ledger parts, rounds and per-node awake schedules, as
    computed by the per-node hook implementation of the three protocols,
    with the empty graph's schedules recorded as ``[]``."""
    assert _stage_schedule_digest() == (
        "c7c370bbff2bf94c14954cec8e00215c689b1fce32a523c8fdc8ddb0bd15de88")


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
    """The stages run one after another, so the merged schedule of every node
    is strictly increasing and ends before the pipeline's last round."""
    _, ledger, _ = awake_mis(g, seed, record_schedule=True)
    assert ledger.counts.tolist() == [len(rs) for rs in ledger.schedule]
    for rs in ledger.schedule:
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert all(0 <= r < ledger.rounds for r in rs)
