"""Statistical and determinism checks for the per-node coin streams."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from awakesim import rng
from awakesim.rng import (LIST_LOOP_MAX, MASK64, TWO64, below, coin_threshold,
                          coins, node_rng, node_rng_array, node_rng_list,
                          uniform01)


def test_deterministic_and_distinct():
    a = node_rng(1, 5, "luby", 3)
    assert a == node_rng(1, 5, "luby", 3)
    assert 0 <= a <= MASK64
    # any single-coordinate change moves the draw
    assert a != node_rng(2, 5, "luby", 3)
    assert a != node_rng(1, 6, "luby", 3)
    assert a != node_rng(1, 5, "p1key", 3)
    assert a != node_rng(1, 5, "luby", 4)


def test_vector_matches_scalar():
    ids = np.arange(64, dtype=np.int64)
    vec = node_rng_array(7, ids, "gnp", 9)
    for v in ids:
        assert int(vec[v]) == node_rng(7, int(v), "gnp", 9)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 70), ids=st.lists(st.integers(0, MASK64), max_size=40),
       label=st.text(max_size=12), index=st.integers(0, MASK64))
@example(seed=3, ids=[], label="propose", index=0)
def test_list_draws_match_scalar_and_vector(seed, ids, label, index):
    drawn = node_rng_list(seed, ids, label, index)
    assert drawn == [node_rng(seed, v, label, index) for v in ids]
    assert drawn == node_rng_array(seed, np.array(ids, dtype=np.uint64), label,
                                   index).tolist()


@pytest.mark.parametrize("length", [0, 1, LIST_LOOP_MAX, LIST_LOOP_MAX + 1, 512])
def test_list_draws_take_the_array_path_above_the_loop_limit(length, monkeypatch):
    """Both sides of the size switch give the scalar values, and only a
    list longer than ``LIST_LOOP_MAX`` ids reaches ``node_rng_array``."""
    ids = [(v * 7919) % 100003 for v in range(length)]
    calls = []
    inner = rng.node_rng_array
    monkeypatch.setattr(rng, "node_rng_array",
                        lambda *args: calls.append(args) or inner(*args))
    assert node_rng_list(9, ids, "propose", 3) == [node_rng(9, v, "propose", 3)
                                                    for v in ids]
    assert len(calls) == (length > LIST_LOOP_MAX)


def test_uniformity_chi_square():
    # 256 buckets over the top byte; generous alpha, fixed stream
    draws = [node_rng(11, v, "sample", v % 17) for v in range(65536)]
    buckets = np.bincount([d >> 56 for d in draws], minlength=256)
    _, pvalue = stats.chisquare(buckets)
    assert pvalue > 0.001, f"top-byte distribution skewed, p={pvalue}"


def test_label_streams_decorrelated():
    n = 4096
    xs = np.array([node_rng(3, v, "p1key", 0) for v in range(n)], dtype=np.float64)
    ys = np.array([node_rng(3, v, "p2mark", 0) for v in range(n)], dtype=np.float64)
    r = np.corrcoef(xs, ys)[0, 1]
    assert abs(r) < 0.05, f"streams correlate, r={r}"


def test_coin_threshold_exact():
    assert coin_threshold(Fraction(0)) == 0
    assert coin_threshold(Fraction(1)) == TWO64
    assert coin_threshold(Fraction(1, 2)) == TWO64 // 2
    assert coin_threshold(Fraction(1, 3)) == TWO64 // 3
    # success iff draw < threshold: a fair coin over a fixed stream lands
    # close to half
    th = coin_threshold(Fraction(1, 2))
    hits = sum(node_rng(5, v, "trial", 0) < th for v in range(4096))
    assert abs(hits - 2048) < 200


def test_coin_threshold_rejects_bad_probability():
    with pytest.raises(ValueError):
        coin_threshold(Fraction(3, 2))
    with pytest.raises(ValueError):
        coin_threshold(-0.1)


def test_below_hand_made_draws():
    draws = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    assert below(draws, Fraction(0)).tolist() == [False] * 4
    assert below(draws, Fraction(1, 2)).tolist() == [True, True, False, False]
    # the p = 1 threshold 2^64 does not fit in uint64, yet every draw succeeds
    assert below(draws, Fraction(1)).tolist() == [True] * 4
    # one p per draw
    ps = [Fraction(1), Fraction(0), Fraction(1), Fraction(1, 2)]
    assert below(draws, ps).tolist() == [True, False, True, False]


_PROBABILITIES = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(1)),
    st.fractions(min_value=0, max_value=1, max_denominator=10 ** 6).filter(
        lambda q: 0 < q < 1))


@st.composite
def coin_cases(draw):
    """A 2-D coin shape with nodes on the rows or the columns, indices on the
    other axis, and p per row or per column."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    ids = st.integers(0, 10 ** 6)
    row_ints = np.array(draw(st.lists(ids, min_size=rows, max_size=rows)),
                        dtype=np.int64)[:, None]
    col_ints = np.array(draw(st.lists(ids, min_size=cols, max_size=cols)),
                        dtype=np.int64)
    nodes, indices = ((row_ints, col_ints) if draw(st.booleans())
                      else (col_ints, row_ints))
    if draw(st.booleans()):
        ps = np.array(draw(st.lists(_PROBABILITIES, min_size=rows, max_size=rows)),
                      dtype=object).reshape(rows, 1)
    else:
        ps = np.array(draw(st.lists(_PROBABILITIES, min_size=cols, max_size=cols)),
                      dtype=object)
    return draw(st.integers(0, 2 ** 32)), nodes, indices, ps, (rows, cols)


@settings(max_examples=200, deadline=None)
@given(case=coin_cases(), block=st.sampled_from([1, 2, 7, rng.COIN_BLOCK]))
def test_coins_match_the_scalar_rule(case, block):
    seed, nodes, indices, ps, shape = case
    with mock.patch.object(rng, "COIN_BLOCK", block):
        packed = coins(seed, nodes, "trial", indices, ps)
    assert packed.shape == (shape[0], (shape[1] + 7) // 8) and packed.dtype == np.uint8
    got = np.unpackbits(packed, axis=1, count=shape[1]).view(bool)
    v, i, p = np.broadcast_arrays(nodes, indices, ps)
    want = [[node_rng(seed, int(v[r, c]), "trial", int(i[r, c]))
             < coin_threshold(p[r, c]) for c in range(shape[1])]
            for r in range(shape[0])]
    assert got.tolist() == want


@pytest.mark.parametrize("block, rows, cols", [(64, 100, 10), (4, 9, 10),
                                               (1, 5, 3), (7, 20, 3)])
def test_coins_draw_in_bounded_blocks(block, rows, cols):
    sizes = []

    def counted(*args):
        draws = node_rng_array(*args)
        sizes.append(draws.size)
        return draws

    ids, idx = np.arange(rows)[:, None], np.arange(cols)
    with mock.patch.object(rng, "COIN_BLOCK", block), \
            mock.patch.object(rng, "node_rng_array", counted):
        got = np.unpackbits(coins(5, ids, "trial", idx, Fraction(1, 3)),
                            axis=1, count=cols)
    assert max(sizes) <= max(block, cols)
    assert sum(sizes) == rows * cols
    assert (got == below(node_rng_array(5, ids, "trial", idx), Fraction(1, 3))).all()


def test_uniform01_range():
    vals = [uniform01(node_rng(2, v, "propose", 0)) for v in range(1000)]
    assert all(0.0 <= x < 1.0 for x in vals)
    assert 0.4 < sum(vals) / len(vals) < 0.6
