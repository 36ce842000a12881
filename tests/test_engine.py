"""Engine semantics: awake accounting, sleeping drops, caps, congest bound,
and the neighbourhood primitives."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awakesim import engine
from awakesim.engine import (AwakeLedger, Hood, Protocol, RunMetrics, WakePlan,
                             heard, least_heard, payload_bits, run)
from awakesim.errors import RoundCapExceeded
from awakesim.fractional import SampledMatchingProtocol
from awakesim.graphs import Graph, path_graph, star_graph
from awakesim.mis import luby_mis, part2_reduce
from conftest import watched_wakes


class AllAwake(Protocol):
    """Every node is awake from round 0 until it terminates: ``bind`` posts
    every node at round 0, and each round posts the awake nodes that
    ``step`` does not terminate for the next round."""

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        plan.post(0, np.arange(self.n))

    def round(self, rnd, awake, hood):
        done = np.asarray(self.step(rnd, awake, hood), dtype=np.int64)
        self.plan.post(rnd + 1, np.setdiff1d(awake, done))
        return done


class CountDown(AllAwake):
    """Node v is awake for rounds 0..v and then terminates."""

    def step(self, rnd, awake, hood):
        done = awake[awake <= rnd].tolist()
        self.outputs.update(zip(done, done))
        return done


class Beacon(Protocol):
    """Node 0 broadcasts the round number every round; node 1 sleeps until
    round 2 and terminates on the first payload it hears."""

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        plan.post(0, [0])
        plan.post(2, [1])

    def round(self, rnd, awake, hood):
        got = heard(hood, awake == 0, payload_bits(rnd))
        done = []
        for v, hears in zip(awake.tolist(), got.tolist()):
            if v == 0 and rnd >= 4:
                self.outputs[0] = "done"
            elif v == 1 and hears:
                self.outputs[1] = ("heard", rnd)
            else:
                self.plan.post(rnd + 1, [v])
                continue
            done.append(v)
        return done


class Insomniac(AllAwake):
    def step(self, rnd, awake, hood):
        return ()


class BigMouth(AllAwake):
    """Every node broadcasts a 4096-character string, then terminates."""

    def step(self, rnd, awake, hood):
        heard(hood, np.ones(awake.size, dtype=bool), payload_bits("x" * 4096))
        return awake


class Scripted(Protocol):
    """Posts ``script[r]`` for round r at ``bind``, as given (unsorted ids and
    repeats included), records each round's awake ids and terminates every
    awake node in the script's last round."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        for rnd, ids in self.script.items():
            plan.post(rnd, ids)

    def round(self, rnd, awake, hood):
        self.calls.append((rnd, awake.tolist()))
        return awake if rnd == max(self.script) else ()


def test_awake_accounting():
    g = Graph(4)
    outputs, ledger, metrics = run(g, CountDown(), 0, round_cap=10)
    assert outputs == {0: 0, 1: 1, 2: 2, 3: 3}
    assert ledger.rounds == 4
    # A_v = v + 1: totals 1 + 2 + 3 + 4
    assert ledger.total_awake() == 10
    assert ledger.node_averaged() == 2.5
    assert ledger.max_awake() == 4
    assert list(ledger.counts) == [1, 2, 3, 4]
    assert metrics.rounds == 4 and metrics.total_awake == 10


def test_messages_to_sleepers_are_dropped():
    g = path_graph(2)
    outputs, ledger, _ = run(g, Beacon(), 0, round_cap=10)
    # broadcasts at rounds 0 and 1 evaporated; round 2 landed
    assert outputs[1] == ("heard", 2)
    assert list(ledger.counts) == [5, 1]


def test_round_cap_carries_partial_ledger():
    g = Graph(3)
    with pytest.raises(RoundCapExceeded) as e:
        run(g, Insomniac(), 0, round_cap=6)
    ledger = e.value.ledger
    assert ledger is not None
    assert ledger.rounds == 6
    assert list(ledger.counts) == [6, 6, 6]


def test_round_gets_sorted_unique_ids():
    """Ids posted unsorted and repeated, within one post and across posts,
    reach ``round`` sorted and once each, and are charged once."""

    class Thrice(Scripted):
        def bind(self, graph, seed, plan, start):
            super().bind(graph, seed, plan, start)
            plan.post(0, [2, 1])
            plan.post(0, np.array([1, 1]))

    proto = Thrice({0: [3, 1, 3, 0]})
    _, ledger, _ = run(Graph(4), proto, 0, round_cap=5)
    assert proto.calls == [(0, [0, 1, 2, 3])]
    assert list(ledger.counts) == [1, 1, 1, 1]


def test_rounds_with_no_awake_node_are_skipped():
    """Wakes posted only at rounds 0 and 40: ``round`` runs twice, yet the
    ledger counts all 41 rounds."""
    g = Graph(2)
    proto = Scripted({0: [0, 1], 40: [1, 0]})
    with watched_wakes(engine) as runs:
        _, ledger, _ = engine.run(g, proto, 0, round_cap=100)
    assert [rnd for rnd, _ in proto.calls] == [0, 40]
    assert ledger.rounds == 41
    assert runs[0][0] == [[0, 40], [0, 40]]


def test_alive_node_with_no_posted_wake_hits_the_cap():
    """Node 1 is never posted after round 0, so the run cannot end: it stops
    at the cap with a ledger of ``round_cap`` rounds."""
    g = Graph(2)

    class Forgetful(Scripted):
        def round(self, rnd, awake, hood):
            super().round(rnd, awake, hood)
            return [0]

    proto = Forgetful({0: [0, 1]})
    with pytest.raises(RoundCapExceeded) as e:
        run(g, proto, 0, round_cap=7)
    assert proto.calls == [(0, [0, 1])]
    assert e.value.ledger.rounds == 7
    assert list(e.value.ledger.counts) == [1, 1]


def test_reposted_awake_ids_lose_the_terminated():
    """A protocol that posts the array it was handed gets it back without
    the nodes that terminated."""

    class Repost(Scripted):
        def round(self, rnd, awake, hood):
            self.calls.append((rnd, awake.tolist()))
            self.plan.post(rnd + 1, awake)
            return awake[:1]

    proto = Repost({0: [2, 0, 1]})
    _, ledger, _ = run(Graph(3), proto, 0, round_cap=9)
    assert proto.calls == [(0, [0, 1, 2]), (1, [1, 2]), (2, [2])]
    assert ledger.rounds == 3


def test_wake_posted_at_or_past_the_cap_is_not_run():
    g = Graph(1)
    proto = Scripted({0: [0], 9: [0]})
    with pytest.raises(RoundCapExceeded) as e:
        run(g, proto, 0, round_cap=9)
    assert [rnd for rnd, _ in proto.calls] == [0]
    assert e.value.ledger.rounds == 9


def test_plan_refuses_a_round_that_is_not_later():
    plan = WakePlan()
    plan.post(3, [0])
    alive = np.ones(2, dtype=bool)
    assert plan.take(3, alive) is None
    assert plan.take(4, alive)[0] == 3
    with pytest.raises(AssertionError, match="posted in round 3"):
        plan.post(3, [1])


@pytest.mark.parametrize("start, bad", [([-1], -1), ([4], 4), ([2, 5, -1], 5),
                                        (np.array([0, -3]), -3)])
def test_start_ids_outside_the_graph_are_refused(start, bad):
    """A start id outside 0..n-1 raises a ``ValueError`` naming the first
    such id, before ``bind`` runs, in :func:`run` and in the MIS stages
    that pass their start set to it."""
    g = path_graph(4)
    proto = Scripted({0: [0]})
    proto.bind = mock.Mock(side_effect=AssertionError("bind ran"))
    message = f"start id {bad} "
    with pytest.raises(ValueError, match=message):
        run(g, proto, 0, round_cap=5, start=start)
    with pytest.raises(ValueError, match=message):
        luby_mis(g, 1, start=start)
    with pytest.raises(ValueError, match=message):
        part2_reduce(g, 1, start=start)


class Survivors(Protocol):
    """Node v wakes in the rounds ``visits[v]`` and in every round from
    ``start[v]`` on (``None``: never), and terminates in its first awake
    round at or after ``end[v]`` (``None``: never).  Its every-round wakes
    are posted at ``bind``, or, if ``late[v]`` and v has a visit before
    ``start[v]``, in its first awake round.  This one posts ``start[v]``
    and then each survivor for the next round; :class:`Stayers` stays it
    once."""

    def __init__(self, start, end, visits=None, late=None):
        self.start, self.end = start, end
        self.visits = visits or [[] for _ in start]
        self.late = late or [False] * len(start)
        self.calls = []

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        self._waiting = set()
        for v in range(self.n):
            for r in self.visits[v]:
                plan.post(r, [v])
            if self.start[v] is None:
                continue
            if self.late[v] and any(r < self.start[v] for r in self.visits[v]):
                self._waiting.add(v)
            else:
                self._begin(v)

    def _begin(self, v):
        self.plan.post(self.start[v], [v])

    def _keep(self, rnd, staying):
        self.plan.post(rnd + 1, staying)

    def round(self, rnd, awake, hood):
        self.calls.append((rnd, awake.tolist()))
        start, end = self.start, self.end
        done, staying = [], []
        for v in awake.tolist():
            if v in self._waiting:
                self._waiting.discard(v)
                self._begin(v)
            if end[v] is not None and rnd >= end[v]:
                done.append(v)
            elif start[v] is not None and rnd >= start[v]:
                staying.append(v)
        self.outputs.update(dict.fromkeys(done, rnd))
        self._keep(rnd, staying)
        return done


class Stayers(Survivors):
    def _begin(self, v):
        self.plan.stay(self.start[v], [v])

    def _keep(self, rnd, staying):
        pass


def test_stayed_node_is_awake_until_it_terminates():
    """Node 0 stays from round 0 and ends at 2, node 1 stays from round 3
    and ends at 5, node 2 stays from round 1 and ends at 1: each is awake
    and charged in every round from its stay until it terminates."""
    proto = Stayers(start=[0, 3, 1], end=[2, 5, 1])
    outputs, ledger, _ = run(Graph(3), proto, 0, round_cap=10)
    assert proto.calls == [(0, [0]), (1, [0, 2]), (2, [0]), (3, [1]), (4, [1]),
                           (5, [1])]
    assert outputs == {0: 2, 1: 5, 2: 1}
    assert list(ledger.counts) == [3, 3, 1]
    assert ledger.rounds == 6


def test_stay_and_post_in_one_round():
    """Ids stayed and posted for the same round reach ``round`` once each,
    sorted; only the stayed ones wake in the rounds after it."""

    class Mixed(Scripted):
        def bind(self, graph, seed, plan, start):
            super().bind(graph, seed, plan, start)
            plan.stay(2, np.array([3, 1]))
            plan.post(2, [1, 0])

    proto = Mixed({4: [2, 0]})
    _, ledger, _ = run(Graph(4), proto, 0, round_cap=10)
    assert proto.calls == [(2, [0, 1, 3]), (3, [1, 3]), (4, [0, 1, 2, 3])]
    assert list(ledger.counts) == [2, 3, 1, 3]


def test_unsorted_repeated_stays_reach_round_once_each():
    class Repeats(Scripted):
        def bind(self, graph, seed, plan, start):
            super().bind(graph, seed, plan, start)
            plan.stay(0, [2, 0, 2])
            plan.stay(0, np.array([1, 0]))

    proto = Repeats({1: [0]})
    _, ledger, _ = run(Graph(3), proto, 0, round_cap=5)
    assert proto.calls == [(0, [0, 1, 2]), (1, [0, 1, 2])]
    assert list(ledger.counts) == [2, 2, 2]


def test_plan_refuses_to_stay_into_a_taken_round():
    plan = WakePlan()
    plan.stay(3, [0])
    alive = np.ones(2, dtype=bool)
    assert plan.take(4, alive)[0] == 3
    for rnd in (2, 3):
        with pytest.raises(AssertionError, match="posted in round 3"):
            plan.stay(rnd, [1])
    # the staying node wakes in the next round without a post
    rnd, awake = plan.take(5, alive)
    assert rnd == 4 and awake.tolist() == [0]


class Leaver(Protocol):
    """Nodes 0 and 1 stay from round 0, and node 2 is posted for round 1.
    In round 1 node 0 leaves (together with node 2, which is not staying)
    and posts ``posts``; node 0 terminates in round 7, node 1 in round 2
    and node 2 in round 1."""

    def __init__(self, posts):
        self.posts = posts
        self.calls = []

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        plan.stay(0, [0, 1])
        plan.post(1, [2])

    def round(self, rnd, awake, hood):
        self.calls.append((rnd, awake.tolist()))
        if rnd == 1:
            self.plan.leave([0, 2])
            for r in self.posts:
                self.plan.post(r, [0])
        return {1: [2], 2: [1], 7: [0]}.get(rnd, [])


def test_a_node_that_leaves_wakes_only_in_its_posted_rounds():
    """Node 0 leaves the staying nodes in round 1 and posts rounds 4 and 7:
    it is awake and charged in rounds 0, 1, 4 and 7 only, and terminates
    in round 7, when ``round`` returns it.  Node 1 stays until it
    terminates; node 2 was not staying, so its leave changes nothing."""
    proto = Leaver(posts=[7, 4])
    with watched_wakes(engine) as runs:
        _, ledger, _ = engine.run(Graph(3), proto, 0, round_cap=10)
    assert proto.calls == [(0, [0, 1]), (1, [0, 1, 2]), (2, [1]), (4, [0]),
                           (7, [0])]
    assert runs[0][0] == [[0, 1, 4, 7], [0, 1, 2], [1]]
    assert list(ledger.counts) == [4, 3, 1]
    assert ledger.rounds == 8


def test_a_node_that_leaves_without_a_post_stays_alive_until_the_cap():
    """Leaving is not terminating: node 0 leaves with no round posted, so
    it stays alive, never wakes again, and the run stops at the cap."""
    proto = Leaver(posts=[])
    with pytest.raises(RoundCapExceeded) as e:
        run(Graph(3), proto, 0, round_cap=10)
    assert proto.calls == [(0, [0, 1]), (1, [0, 1, 2]), (2, [1])]
    assert list(e.value.ledger.counts) == [2, 3, 1]
    assert e.value.ledger.rounds == 10


@st.composite
def wake_scripts(draw):
    n = draw(st.integers(1, 6))
    cap = draw(st.integers(1, 30))
    rounds = st.integers(0, 34)  # past the cap too
    maybe = st.one_of(st.none(), rounds)
    start = draw(st.lists(maybe, min_size=n, max_size=n))
    end = draw(st.lists(maybe, min_size=n, max_size=n))
    visits = draw(st.lists(st.lists(rounds, max_size=3), min_size=n, max_size=n))
    late = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, cap, (start, end, visits, late)


def _outcome(proto, n, cap):
    """``(outputs, ledger, wake schedule)`` of a run, or the partial ledger
    and the schedule if it hit the cap."""
    with watched_wakes(engine) as runs:
        try:
            outputs, ledger, _ = engine.run(Graph(n), proto, 0, round_cap=cap)
        except RoundCapExceeded as e:
            return "cap", e.ledger, proto.calls
    return outputs, ledger, runs[0][0]


@settings(max_examples=200, deadline=None)
@given(case=wake_scripts())
def test_staying_matches_reposting(case):
    """A protocol that re-posts its survivors each round and the same
    protocol staying them once give equal outputs, ledgers and wake
    schedules, and hit the round cap alike."""
    n, cap, script = case
    assert _outcome(Survivors(*script), n, cap) == _outcome(Stayers(*script), n, cap)


@st.composite
def plan_scripts(draw):
    """A node count, the nodes alive at the start, and a list of turns for
    a :class:`WakePlan`: some steps, then a take whose cap is an offset
    from the round after the last one taken.  The rounds of the steps are
    offsets from the last round taken."""
    n = draw(st.integers(1, 8))
    ids = st.lists(st.integers(0, n - 1), max_size=6)
    offset = st.integers(1, 4)
    step = st.one_of(
        st.tuples(st.just("post"), offset, ids,
                  st.sampled_from([list, np.int64, np.int32])),
        st.tuples(st.just("post_each"),
                  st.lists(st.tuples(offset, st.integers(0, n - 1)), max_size=5)),
        st.tuples(st.just("stay"), offset, ids),
        st.tuples(st.just("leave"), ids),
        st.tuples(st.just("terminate"), ids),
    )
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    turn = st.tuples(st.lists(step, max_size=5), st.integers(0, 5))
    return n, alive, draw(st.lists(turn, max_size=12))


@settings(max_examples=300, deadline=None)
@given(case=plan_scripts())
def test_plan_takes_what_a_set_model_wakes(case):
    """Every ``take`` returns exactly the sorted, unique, alive ids that a
    plain-set model of the plan wakes in the next round with a wake, or
    ``None`` when that round is not before the cap.  Terminations are
    written straight into ``alive``, as :func:`run` does."""
    n, start, turns = case
    plan, alive = WakePlan(), np.array(start)
    posts, joins = {}, {}  # round -> set of ids
    staying, left, now = set(), set(), -1
    for steps, cap in turns:
        for kind, *args in steps:
            if kind == "post":
                off, ids, form = args
                plan.post(now + off, ids if form is list else np.array(ids, dtype=form))
                if ids:
                    posts.setdefault(now + off, set()).update(ids)
            elif kind == "post_each":
                pairs = args[0]
                plan.post_each(np.array([now + off for off, _ in pairs], dtype=np.int64),
                               np.array([v for _, v in pairs], dtype=np.int64))
                for off, v in pairs:
                    posts.setdefault(now + off, set()).add(v)
            elif kind == "stay":
                off, ids = args
                plan.stay(now + off, ids)
                if ids:
                    joins.setdefault(now + off, set()).update(ids)
            elif kind == "leave":
                plan.leave(args[0])
                left.update(args[0])
            else:
                alive[args[0]] = False
        before = now + 1 + cap
        got = plan.take(before, alive)
        live = set(np.flatnonzero(alive).tolist())
        staying = (staying - left) & live
        left = set()
        rnd = now + 1 if staying else min(posts.keys() | joins.keys(), default=before)
        if rnd >= before:
            assert got is None
            continue
        now = rnd
        staying |= joins.pop(rnd, set()) & live
        wake = sorted(staying | (posts.pop(rnd, set()) & live))
        assert got[0] == rnd
        assert isinstance(got[1], np.ndarray) and got[1].tolist() == wake


def test_tally_counts_at_most_n_waiting_ids(monkeypatch):
    monkeypatch.setattr(engine, "TALLY_FLOOR", 0)
    ledger = AwakeLedger(3)
    tally = engine._Tally(ledger, "a")
    tally.add(np.array([0, 1]))
    assert tally.size == 2 and ledger.parts == {}
    # 2 + 2 ids would exceed n = 3: the waiting two are counted first
    tally.add(np.array([1, 2]))
    assert tally.size == 2 and list(ledger.counts) == [1, 1, 0]
    tally.add(np.array([2]))
    tally.flush()
    assert tally.size == 0 and list(ledger.counts) == [1, 2, 2]
    tally.flush()
    assert list(ledger.counts) == [1, 2, 2]
    # a small run keeps up to TALLY_FLOOR ids waiting
    monkeypatch.undo()
    assert engine._Tally(AwakeLedger(3), "a").limit == engine.TALLY_FLOOR
    assert engine._Tally(AwakeLedger(10 ** 5), "a").limit == 10 ** 5


@pytest.mark.parametrize("floor", [0, None])
@pytest.mark.parametrize("end", [[2999, 6000, 9999], [2999, 6000, None]])
def test_long_run_counts_in_bulk(monkeypatch, end, floor):
    """n = 3 over 10^4 rounds, ending at the cap or hitting it, with no
    floor (at most n ids wait) and with the engine's: the ledger equals the
    per-round count, and no more ids wait than the tally's limit."""
    if floor is not None:
        monkeypatch.setattr(engine, "TALLY_FLOOR", floor)
    limit = max(3, engine.TALLY_FLOOR)
    waiting, counts = [], []
    add, flush = engine._Tally.add, engine._Tally.flush

    def watched_add(self, awake):
        add(self, awake)
        waiting.append(self.size)

    def watched_flush(self):
        counts.append(self.size)
        flush(self)

    proto = Stayers(start=[0, 0, 0], end=end)
    with mock.patch.object(engine._Tally, "add", watched_add), \
            mock.patch.object(engine._Tally, "flush", watched_flush):
        try:
            _, ledger, _ = run(Graph(3), proto, 0, round_cap=10 ** 4)
        except RoundCapExceeded as e:
            ledger = e.ledger
    per_round = np.bincount(np.concatenate([ids for _, ids in proto.calls]),
                            minlength=3)
    assert list(ledger.counts) == per_round.tolist() == [3000, 6001, 10000]
    assert ledger.rounds == 10 ** 4
    assert len(waiting) == 10 ** 4 and max(waiting) <= limit
    # every id is counted once; a count before the last comes only when the
    # next round's (at most 3) ids would take the waiting ones past the limit
    assert sum(counts) == per_round.sum()
    assert len(counts) > 1 and all(c > limit - 3 for c in counts[:-1])


def test_congest_bound_enforced():
    g = path_graph(3)
    with pytest.raises(AssertionError, match="bit message bound"):
        run(g, BigMouth(), 0, round_cap=3)


class WideKeys(AllAwake):
    """Every node broadcasts a 64-bit key and a token of
    ``token_bits``, then terminates."""

    def __init__(self, token_bits=8):
        self.token_bits = token_bits

    def step(self, rnd, awake, hood):
        keys = np.full(awake.size, 2 ** 64 - 1, dtype=np.uint64)
        everyone = np.ones(awake.size, dtype=bool)
        least_heard(hood, everyone, keys)
        heard(hood, everyone, self.token_bits)
        self.outputs.update(dict.fromkeys(awake.tolist(), rnd))
        return awake


def test_congest_bound_enforced_on_the_array_path():
    g = path_graph(3)
    # the bound is 64 * max(8, log2 n) = 512 bits: 64-bit keys fit
    outputs, _, _ = run(g, WideKeys(), 0, round_cap=3)
    assert outputs == {0: 0, 1: 0, 2: 0}
    narrow = WideKeys()
    narrow.congest_factor = 1
    with pytest.raises(AssertionError, match="bit message bound"):
        run(g, narrow, 0, round_cap=3)
    with pytest.raises(AssertionError, match="bit message bound"):
        run(g, WideKeys(token_bits=4096), 0, round_cap=3)


class BoundProbe(AllAwake):
    """Records the bound its hood carries, then terminates every node."""

    def __init__(self, factor):
        self.congest_factor = factor

    def step(self, rnd, awake, hood):
        self.outputs = hood.bound
        return awake


@pytest.mark.parametrize("factor", [Protocol.congest_factor,
                                    SampledMatchingProtocol.congest_factor])
def test_hood_carries_the_congest_bound(factor):
    """``congest_factor * max(8, ceil(log2 n))`` bits, for the MIS
    protocols' factor 64 and the matcher's 256."""
    assert factor in (64, 256)
    for n, width in ((1, 8), (2, 8), (256, 8), (257, 9), (65537, 17)):
        assert width == max(8, math.ceil(math.log2(n)))
        bound, _, _ = run(Graph(n), BoundProbe(factor), 0, round_cap=1)
        assert bound == factor * width


@st.composite
def graphs_with_masks(draw):
    n = draw(st.integers(0, 25))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from((0.0, 0.1, 0.3, 1.0)))
    coins = draw(st.lists(st.floats(0, 1, exclude_max=True),
                          min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [e for e, c in zip(pairs, coins) if c < density])
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    # few distinct keys force (key, id) ties; the top of the range checks
    # that keys stay unsigned 64-bit
    key = st.one_of(st.integers(0, 2), st.integers(2 ** 64 - 3, 2 ** 64 - 1))
    keys = draw(st.lists(key, min_size=n, max_size=n))
    return (g, np.array(draw(masks), dtype=bool), np.array(draw(masks), dtype=bool),
            np.array(keys, dtype=np.uint64))


def _recount(g, ids, sent, keys):
    """Brute force over ``g.adj``, for each awake node ``ids[i]``: whether it
    hears, its rank among the awake senders in ``(key, id)`` order, and the
    least rank it hears (``len(ids)`` for none)."""
    m = len(ids)
    senders = sorted((int(keys[w]), w) for w in ids.tolist() if sent[w])
    rank_of = {w: r for r, (_, w) in enumerate(senders)}
    hears, rank, best = [], [], []
    for v in ids.tolist():
        got = [rank_of[w] for w in g.adj[v] if w in rank_of]
        hears.append(bool(got))
        rank.append(rank_of.get(v, m))
        best.append(min(got, default=m))
    return hears, rank, best


@settings(max_examples=150, deadline=None)
@given(case=graphs_with_masks())
def test_primitives_match_a_recount_over_adj(case):
    g, awake, sent, keys = case
    ids = np.flatnonzero(awake)
    slot = np.full(g.n, -1, dtype=np.int64)
    hood = Hood(g, ids, slot, 512)
    hears, rank, best = _recount(g, ids, sent, keys)
    assert heard(hood, sent[ids], 8).tolist() == hears
    got_rank, got_best = least_heard(hood, sent[ids], keys[ids])
    assert got_rank.tolist() == rank
    assert got_best.tolist() == best
    # each sender's key is its id
    _, rank, best = _recount(g, ids, sent, np.arange(g.n))
    got_rank, got_best = least_heard(hood, sent[ids], ids)
    assert got_rank.tolist() == rank
    assert got_best.tolist() == best
    # the scratch slots are left as they were found
    assert (slot == -1).all()


def test_primitives_edge_cases():
    # edgeless: every segment is empty, nothing is heard
    g = Graph(4)
    hood = Hood(g, np.arange(4), np.full(4, -1), 512)
    every = np.ones(4, dtype=bool)
    assert not heard(hood, every, 8).any()
    rank, best = least_heard(hood, every, np.arange(4))
    assert rank.tolist() == [0, 1, 2, 3] and best.tolist() == [4] * 4
    # a sleeping centre hears nothing and its broadcast reaches no one;
    # degree-0 node 6 is awake and hears nothing
    g = Graph(7, star_graph(4).edges())
    slot = np.full(7, -1)
    hood = Hood(g, np.array([1, 2, 4, 6]), slot, 512)
    assert heard(hood, np.ones(4, dtype=bool), 8).tolist() == [False] * 4
    leaves = np.array([False, True, True, True, True, False, False])
    rank, best = least_heard(Hood(g, np.arange(7), slot, 512), leaves,
                             np.zeros(7, dtype=np.uint64))
    assert best.tolist() == [0, 7, 7, 7, 7, 7, 7]
    assert rank.tolist() == [7, 0, 1, 2, 3, 7, 7]


def test_package_root_api():
    """Every exported name resolves, once; the engine's message-format
    helpers stay in ``awakesim.engine``."""
    import awakesim
    assert all(hasattr(awakesim, name) for name in awakesim.__all__)
    assert len(set(awakesim.__all__)) == len(awakesim.__all__)
    for name in ("BROADCAST", "payload_bits"):
        assert name not in awakesim.__all__ and not hasattr(awakesim, name)


def test_payload_bits():
    assert payload_bits(None) == 0
    assert payload_bits(True) == 1
    assert payload_bits(255) == 8
    assert payload_bits("ab") == 16
    assert payload_bits((1, 1)) == 2 + 2
    assert payload_bits({}) == 0


def test_record_schedule():
    """The watcher sees each node in the rounds it is awake in, and never
    after it terminates."""
    with watched_wakes(engine) as runs:
        engine.run(Graph(3), CountDown(), 0, round_cap=5)
    assert runs[0][0] == [[0], [0, 1], [0, 1, 2]]


def test_ledger_charges_every_occurrence():
    ledger = AwakeLedger(3)
    ledger.charge("a", [1, 1, 2])
    assert list(ledger.counts) == [0, 2, 1]
    ledger.charge("a", np.array([2, 2, 2, 0]))
    assert list(ledger.counts) == [1, 2, 4]


def test_ledger_merge_with_id_map():
    a = AwakeLedger(5)
    a.charge("p1", np.array([0, 1]))
    b = AwakeLedger(2)
    b.charge("p2", np.array([0, 1]))
    b.rounds = 3
    a.merge(b, id_map=[3, 4])
    assert a.part_totals() == {"p1": 2, "p2": 2}
    assert list(a.counts) == [1, 1, 0, 1, 1]
    assert a.rounds == 3
    # a merged stage runs after the rounds already folded in
    a.merge(b, id_map=[1, 4])
    assert a.rounds == 6


def test_run_metrics_from_ledger():
    """Totals per part, and the largest sum of parts over the nodes."""
    ledger = AwakeLedger(3)
    ledger.charge("a", np.array([0, 1]))
    ledger.charge("b", np.array([1, 2]))
    m = RunMetrics.from_ledger(ledger)
    assert (m.total_awake, m.max_awake, m.per_part) == (4, 2, {"a": 2, "b": 2})
    ledger = AwakeLedger(3)
    ledger.charge("a", np.array([2]))
    m = RunMetrics.from_ledger(ledger)
    assert (m.total_awake, m.max_awake, m.avg_awake) == (1, 1, 1 / 3)
    m = RunMetrics.from_ledger(AwakeLedger(0))
    assert (m.total_awake, m.max_awake, m.avg_awake, m.per_part) == (0, 0, 0.0, {})


def test_ledger_equality():
    a = AwakeLedger(2)
    b = AwakeLedger(2)
    a.charge("x", np.array([0]))
    assert a != b
    b.charge("x", np.array([0]))
    assert a == b
