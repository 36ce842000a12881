"""Deterministic counter-mode randomness for every simulation component.

All coins in this package come from :func:`node_rng`, a stateless 64-bit hash
of ``(master_seed, node_id, stream_label, index)``.  Distinct argument tuples
give statistically independent values, which lets protocols treat their whole
coin schedule as pre-sampled: a sleeping node's future coins are well defined
without the node holding any generator state, and any slice of the schedule
can be recomputed lazily or in bulk.

:func:`node_rng_array` is the vectorized twin.  It applies the exact same
mixing function over numpy ``uint64`` arrays and is bit-identical to the
scalar path, so hot loops can draw whole coin matrices at once.
:func:`node_rng_list` draws one label and index for a list of nodes,
mixing the seed once per call.
:func:`coins` is the one place a probability becomes a coin flip: every
sampled protocol draws its coin matrices through it, in bounded memory.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15
_NODE_PRIME = 0xA24BAED4963EE407
_INDEX_PRIME = 0x9FB21C651E98DF25

TWO64 = 1 << 64

COIN_BLOCK = 1 << 20  # the most uint64 draws one coins() call holds at once


def _splitmix(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=4096)
def _label_hash(label: str) -> int:
    # FNV-1a over the UTF-8 bytes; stable across platforms and runs.
    h = 0xCBF29CE484222325
    for b in label.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def node_rng(master_seed: int, node_id: int, stream_label: str, index: int) -> int:
    """Return a uniform 64-bit value determined by the four arguments."""
    h = _splitmix((master_seed ^ _GOLDEN) & MASK64)
    h = _splitmix(h ^ ((node_id * _NODE_PRIME) & MASK64))
    h = _splitmix(h ^ _label_hash(stream_label))
    h = _splitmix(h ^ ((index * _INDEX_PRIME) & MASK64))
    return h


def node_rng_list(master_seed: int, node_ids, stream_label: str, index: int) -> list:
    """``[node_rng(master_seed, v, stream_label, index) for v in node_ids]``.

    The seed, label and index are mixed once per call rather than once per
    id.  A plain loop: on lists of tens to hundreds of ids it is faster
    than :func:`node_rng_array`, whose fixed cost is tens of microseconds.
    """
    h0 = _splitmix((master_seed ^ _GOLDEN) & MASK64)
    label = _label_hash(stream_label)
    idx = (index * _INDEX_PRIME) & MASK64
    mix = _splitmix
    return [mix(mix(mix(h0 ^ ((v * _NODE_PRIME) & MASK64)) ^ label) ^ idx)
            for v in node_ids]


def _splitmix_np(z):
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def node_rng_array(master_seed: int, node_ids, stream_label: str, indices):
    """Vectorized :func:`node_rng`; broadcasts ``node_ids`` against ``indices``.

    Either argument may be a scalar or an integer array.  The result dtype is
    ``uint64`` and every element equals the scalar ``node_rng`` value for the
    corresponding ``(node_id, index)`` pair.
    """
    nodes = np.asarray(node_ids, dtype=np.uint64)
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h0 = _splitmix(np.uint64((master_seed ^ _GOLDEN) & MASK64).item())
        h = _splitmix_np(np.uint64(h0) ^ (nodes * np.uint64(_NODE_PRIME)))
        h = _splitmix_np(h ^ np.uint64(_label_hash(stream_label)))
        h = _splitmix_np(h ^ (idx * np.uint64(_INDEX_PRIME)))
    return h


def coin_threshold(p) -> int:
    """Map a probability to the integer cutoff used for 64-bit coin flips.

    A draw ``r`` counts as success iff ``r < coin_threshold(p)``.  Exact for
    ``Fraction`` probabilities, so coin decisions never depend on float
    rounding.
    """
    if isinstance(p, Fraction):
        if p < 0 or p > 1:
            raise ValueError(f"probability out of range: {p}")
        return (p.numerator * TWO64) // p.denominator
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    return min(TWO64, int(p * TWO64))


def below(draws, ps):
    """``draws < coin_threshold(p)`` elementwise, with ``ps`` broadcast.

    A p = 1 coin always succeeds, although its threshold 2^64 does not fit
    in ``uint64``; a p = 0 coin never does.
    """
    ps = np.asarray(ps, dtype=object)
    thr = np.array([coin_threshold(p) for p in ps.flat], dtype=object).reshape(ps.shape)
    cut = np.array(np.minimum(thr, TWO64 - 1), dtype=np.uint64)
    return (draws < cut) | (thr >= TWO64)


def coins(master_seed: int, node_ids, stream_label: str, indices, ps):
    """:func:`below` applied to the :func:`node_rng_array` draws, bit-packed.

    The three operands broadcast to one 2-D boolean matrix, which is
    returned with its rows packed by ``np.packbits(..., axis=1)``;
    ``np.unpackbits(out, axis=1, count=cols)`` restores it.  Its draws are
    taken a block of rows at a time, at most ``COIN_BLOCK`` of them unless
    a single row is wider, and each block is packed before the next is
    drawn.
    """
    ops = [np.atleast_2d(node_ids), np.atleast_2d(indices),
           np.atleast_2d(np.asarray(ps, dtype=object))]
    rows, cols = np.broadcast_shapes(*(a.shape for a in ops))
    out = np.empty((rows, (cols + 7) // 8), dtype=np.uint8)
    step = max(1, COIN_BLOCK // max(1, cols))
    for lo in range(0, rows, step):
        v, i, p = (a[lo:lo + step] if len(a) > 1 else a for a in ops)
        out[lo:lo + step] = np.packbits(
            below(node_rng_array(master_seed, v, stream_label, i), p), axis=1)
    return out


def uniform01(value: int) -> float:
    """Map a 64-bit draw to a float in [0, 1) with 53 random bits."""
    return (value >> 11) * (2.0 ** -53)
