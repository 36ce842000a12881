"""Randomized rounding of fractional assignments into integral matchings."""

import re
from fractions import Fraction

import pytest

from awakesim.errors import InvalidAssignment
from awakesim.fractional import (FractionalAssignment, round_matching,
                                 vanilla_fractional)
from awakesim.graphs import gen_gnp, path_graph
from awakesim.oracles import verify_matching


def single_edge_assignment():
    return FractionalAssignment(
        2, {(0, 1): Fraction(1)}, {(0, 1): 0}, {0: 0, 1: 0})


def test_single_edge_keep_probability():
    # P(kept) = 1 - (1 - 1/10)^2 = 0.19 exactly; 4000 seeds stay close
    asg = single_edge_assignment()
    hits = sum(len(round_matching(asg, seed)) for seed in range(4000))
    assert abs(hits / 4000 - 0.19) < 0.015


def test_rounding_determinism_and_validity():
    g = gen_gnp(30, 0.15, seed=6)
    asg = vanilla_fractional(g, Fraction(1, 10))
    m1 = round_matching(asg, seed=11)
    m2 = round_matching(asg, seed=11)
    assert m1 == m2
    assert verify_matching(g, m1)
    support = {e for e, w in asg.x.items() if w > 0}
    assert all(e in support for e in m1)


def test_rounding_mean_respects_floor():
    g = gen_gnp(24, 0.2, seed=3)
    asg = vanilla_fractional(g, Fraction(1, 10))
    total = float(asg.total())
    sizes = [len(round_matching(asg, seed)) for seed in range(600)]
    assert sum(sizes) / len(sizes) >= total / 50


def test_rounding_rejects_overfull_nodes():
    bad = FractionalAssignment(
        3,
        {(0, 1): Fraction(7, 10), (1, 2): Fraction(7, 10)},
        {(0, 1): 0, (1, 2): 0},
        {0: 0, 1: 0, 2: 0})
    with pytest.raises(InvalidAssignment):
        round_matching(bad, seed=1)


def test_rounding_empty_support():
    empty = FractionalAssignment(4, {}, {}, {v: None for v in range(4)})
    assert len(round_matching(empty, seed=5)) == 0


def test_rounding_zero_weight_edges_never_kept():
    asg = FractionalAssignment(
        2, {(0, 1): Fraction(0)}, {(0, 1): 0}, {0: None, 1: None})
    for seed in range(50):
        assert len(round_matching(asg, seed)) == 0


def test_rounding_against_path():
    g = path_graph(3)
    asg = vanilla_fractional(g, Fraction(1, 10))
    for seed in range(200):
        m = round_matching(asg, seed)
        assert len(m) <= 1  # the two edges share the middle node
        assert verify_matching(g, m)


@pytest.mark.parametrize("edge", [(1, 0), (1, 1), (0, 3), (2, 5)])
def test_hand_made_assignment_rejects_a_bad_edge(edge):
    # canonical edges (u, v) have u < v < n
    with pytest.raises(ValueError, match=re.escape(repr(edge))):
        FractionalAssignment(3, {edge: Fraction(1, 2)}, {edge: 0},
                             {v: None for v in range(3)})


def test_hand_made_assignment_rejects_mismatched_edges():
    with pytest.raises(ValueError, match="frozen_round"):
        FractionalAssignment(3, {(0, 1): Fraction(1, 2)}, {(1, 2): 0},
                             {v: None for v in range(3)})
    with pytest.raises(ValueError, match="frozen_round"):
        FractionalAssignment(3, {(0, 1): Fraction(1, 2)},
                             {(0, 1): 0, (1, 2): 0}, {v: None for v in range(3)})
