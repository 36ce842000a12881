"""Engine semantics: awake accounting, sleeping drops, caps, congest bound."""

import numpy as np
import pytest

from awakesim.engine import (BROADCAST, AwakeLedger, Protocol, payload_bits,
                             run)
from awakesim.errors import RoundCapExceeded
from awakesim.graphs import Graph, path_graph


class CountDown(Protocol):
    """Node v is awake for rounds 0..v and then terminates."""

    def finish(self, v, rnd, inbox1, inbox2):
        return v if rnd >= v else None


class Beacon(Protocol):
    """Node 0 broadcasts every round; node 1 sleeps until round 2 and
    terminates on the first payload it hears."""

    def wake_set(self, rnd, alive):
        return np.nonzero(alive)[0] if rnd >= 2 else [0]

    def send1(self, v, rnd):
        return [(BROADCAST, rnd)] if v == 0 else ()

    def finish(self, v, rnd, inbox1, inbox2):
        if v == 0:
            return "done" if rnd >= 4 else None
        if inbox1:
            return ("heard", inbox1[0][1])
        return None


class Insomniac(Protocol):
    def finish(self, v, rnd, inbox1, inbox2):
        return None


class BigMouth(Protocol):
    def send1(self, v, rnd):
        return [(BROADCAST, "x" * 4096)]

    def finish(self, v, rnd, inbox1, inbox2):
        return v


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
    outputs, _, _ = run(g, BigMouth(), 0, round_cap=3, check_congest=False)
    assert len(outputs) == 3


def test_payload_bits():
    assert payload_bits(None) == 0
    assert payload_bits(True) == 1
    assert payload_bits(255) == 8
    assert payload_bits("ab") == 16
    assert payload_bits((1, 1)) == 2 + 2
    assert payload_bits({}) == 0


def test_setup_outputs_skip_rounds():
    class Prejudged(Protocol):
        def setup(self):
            return {0: "early"}

        def finish(self, v, rnd, inbox1, inbox2):
            return "late"

    outputs, ledger, _ = run(Graph(2), Prejudged(), 0, round_cap=3)
    assert outputs == {0: "early", 1: "late"}
    assert list(ledger.counts) == [0, 1]


def test_record_schedule():
    _, ledger, _ = run(Graph(3), CountDown(), 0, round_cap=5,
                       record_schedule=True)
    assert ledger.schedule == [[0], [0, 1], [0, 1, 2]]


def test_ledger_merge_with_id_map():
    a = AwakeLedger(5)
    a.charge("p1", np.array([0, 1]), 0)
    b = AwakeLedger(2)
    b.charge("p2", np.array([0, 1]), 0)
    b.rounds = 3
    a.merge(b, id_map=[3, 4])
    assert a.part_totals() == {"p1": 2, "p2": 2}
    assert list(a.counts) == [1, 1, 0, 1, 1]
    assert a.rounds == 3


def test_ledger_equality():
    a = AwakeLedger(2)
    b = AwakeLedger(2)
    a.charge("x", np.array([0]), 0)
    assert a != b
    b.charge("x", np.array([0]), 0)
    assert a == b
