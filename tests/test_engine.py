"""Engine semantics: awake accounting, sleeping drops, caps, congest bound,
and the neighbourhood primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awakesim.engine import (AwakeLedger, Protocol, heard, least_heard,
                             payload_bits, run)
from awakesim.errors import RoundCapExceeded
from awakesim.graphs import Graph, path_graph, star_graph


class CountDown(Protocol):
    """Node v is awake for rounds 0..v and then terminates."""

    def round(self, rnd, awake, awake_mask, congest_bound):
        done = awake[awake <= rnd].tolist()
        self.outputs.update(zip(done, done))
        return done


class Beacon(Protocol):
    """Node 0 broadcasts the round number every round; node 1 sleeps until
    round 2 and terminates on the first payload it hears."""

    def wake_set(self, rnd, alive):
        return np.nonzero(alive)[0] if rnd >= 2 else [0]

    def round(self, rnd, awake, awake_mask, congest_bound):
        sent = np.arange(self.n) == 0
        got = heard(self.graph.csr(), awake_mask, sent, payload_bits(rnd),
                    congest_bound)
        done = []
        if awake_mask[0] and rnd >= 4:
            self.outputs[0] = "done"
            done.append(0)
        if got[1]:
            self.outputs[1] = ("heard", rnd)
            done.append(1)
        return done


class Insomniac(Protocol):
    def round(self, rnd, awake, awake_mask, congest_bound):
        return ()


class BigMouth(Protocol):
    """Every node broadcasts a 4096-character string, then terminates."""

    def round(self, rnd, awake, awake_mask, congest_bound):
        heard(self.graph.csr(), awake_mask, awake_mask, payload_bits("x" * 4096),
              congest_bound)
        return awake


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


def test_congest_bound_enforced():
    g = path_graph(3)
    with pytest.raises(AssertionError, match="bit message bound"):
        run(g, BigMouth(), 0, round_cap=3)


class WideKeys(Protocol):
    """Every node broadcasts a 64-bit key and a token of
    ``token_bits``, then terminates."""

    def __init__(self, token_bits=8):
        self.token_bits = token_bits

    def round(self, rnd, awake, awake_mask, congest_bound):
        csr = self.graph.csr()
        keys = np.full(self.n, 2 ** 64 - 1, dtype=np.uint64)
        least_heard(csr, awake_mask, awake_mask, keys, congest_bound)
        heard(csr, awake_mask, awake_mask, self.token_bits, congest_bound)
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


def _recount(g, awake, sent, keys):
    """Brute force over ``g.adj``: what each node hears, and the least
    ``(key, id)`` it hears."""
    n = g.n
    senders = sorted((int(keys[w]), w) for w in range(n) if sent[w] and awake[w])
    rank = [n] * n
    for r, (_, w) in enumerate(senders):
        rank[w] = r
    hears, best = [False] * n, [n] * n
    for v in range(n):
        if not awake[v]:
            continue
        got = [(int(keys[w]), w) for w in g.adj[v] if sent[w] and awake[w]]
        hears[v] = bool(got)
        if got:
            best[v] = rank[min(got)[1]]
    return hears, rank, best


@settings(max_examples=150, deadline=None)
@given(case=graphs_with_masks())
def test_primitives_match_a_recount_over_adj(case):
    g, awake, sent, keys = case
    hears, rank, best = _recount(g, awake, sent, keys)
    assert heard(g.csr(), awake, sent, 8, 512).tolist() == hears
    got_rank, got_best = least_heard(g.csr(), awake, sent, keys, 512)
    assert got_rank.tolist() == rank
    assert got_best.tolist() == best


def test_primitives_edge_cases():
    # edgeless: every segment is empty, nothing is heard
    g = Graph(4)
    every = np.ones(4, dtype=bool)
    assert not heard(g.csr(), every, every, 8, None).any()
    rank, best = least_heard(g.csr(), every, every, np.arange(4), None)
    assert rank.tolist() == [0, 1, 2, 3] and best.tolist() == [4] * 4
    # a sleeping centre hears nothing and its broadcast reaches no one;
    # degree-0 node 6 is awake and hears nothing
    g = Graph(7, star_graph(4).edges())
    awake = np.array([False, True, True, False, True, False, True])
    sent = np.ones(7, dtype=bool)
    assert heard(g.csr(), awake, sent, 8, None).tolist() == [False] * 7
    leaves = np.array([False, True, True, True, True, False, False])
    rank, best = least_heard(g.csr(), np.ones(7, dtype=bool), leaves,
                             np.zeros(7, dtype=np.uint64), None)
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
    _, ledger, _ = run(Graph(3), CountDown(), 0, round_cap=5,
                       record_schedule=True)
    assert ledger.schedule == [[0], [0, 1], [0, 1, 2]]


def test_ledger_merge_with_id_map():
    a = AwakeLedger(5, record_schedule=True)
    a.charge("p1", np.array([0, 1]), 0)
    b = AwakeLedger(2, record_schedule=True)
    b.charge("p2", np.array([0, 1]), 0)
    b.rounds = 3
    a.merge(b, id_map=[3, 4])
    assert a.part_totals() == {"p1": 2, "p2": 2}
    assert list(a.counts) == [1, 1, 0, 1, 1]
    assert a.rounds == 3
    # a merged stage runs after the rounds already folded in
    a.merge(b, id_map=[1, 4])
    assert a.schedule == [[0], [0, 3], [], [0], [0, 3]]
    assert a.rounds == 6


def test_ledger_equality():
    a = AwakeLedger(2)
    b = AwakeLedger(2)
    a.charge("x", np.array([0]), 0)
    assert a != b
    b.charge("x", np.array([0]), 0)
    assert a == b
