"""Round-synchronous message-passing engine with sleeping semantics.

A :class:`Protocol` describes node behavior; :func:`run` executes it.  Each
protocol posts into the run's :class:`WakePlan` the future rounds each node
wakes in: one round at a time, or every round from one on until the node
terminates or leaves (:meth:`WakePlan.stay`, :meth:`WakePlan.leave`).
:func:`run` jumps from one round with a waking node to the next, keeps the
waking ids that are still alive, charges them on an :class:`AwakeLedger`
(sleeping is free), and calls the protocol's ``round`` once with them.
``round`` does the whole round, posts later wakes, and returns the ids
that terminate; a terminated node is removed and never charged again, and
a node outside the run's start set is never alive.  A round in which no
alive node wakes costs no host time, yet it still counts in the ledger's
rounds.  The ledger counts the charged ids in bulk, with O(n) of them
waiting, so a short run counts once.  Each protocol keeps its per-node
results in ``outputs``, which :func:`run` returns.

Neighbourhoods come from a :class:`Hood`: one gather per round of the awake
nodes' neighbour lists, read by the primitives :func:`heard` ("some awake
neighbour sent") and :func:`least_heard` ("least ``(key, id)`` over awake
sending neighbours").  Both take and return one entry per awake node.  Only
awake nodes send, and only awake nodes hear.  The hood also carries the
run's CONGEST bound, ``congest_factor * max(8, ceil(log2 n))`` bits, which
:func:`run` computes once: every message width a round sends is checked
against it with :meth:`Hood.check`, and the primitives check theirs.

Determinism: protocols draw all randomness through ``node_rng`` streams keyed
by the master seed, so a fixed (graph, protocol, seed) triple replays
bit-identically.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .errors import RoundCapExceeded
from .graphs import Graph

BROADCAST = -1


def payload_bits(payload) -> int:
    """Rough bit size of an envelope payload, for the width assertion."""
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, np.integer)):
        return max(1, int(payload).bit_length())
    if isinstance(payload, str):
        return 8 * len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return len(payload) + sum(payload_bits(x) for x in payload)
    if isinstance(payload, dict):
        return sum(payload_bits(k) + payload_bits(v) for k, v in payload.items())
    return 64


class WakePlan:
    """The future rounds each node wakes in.

    A protocol posts one round with :meth:`post` or :meth:`post_each`, and
    every round from one on with :meth:`stay`; a staying node that
    :meth:`leave` names goes back to its posted rounds without terminating.
    :func:`run` takes the rounds in order.  Posting or staying into a round
    that is not later than the one running is an error.  Ids may come
    unsorted and repeated, in lists or arrays; :meth:`take` hands the alive
    ones over sorted and unique.  A posted array must not change until its
    round is taken.

    A round's posts collect in one bucket: one list of ints, which collects
    every id posted in a list, followed by the posted arrays.  The staying
    ids are one sorted array, from which each take drops the ids that left
    or terminated.  A round with no bucket hands that array over as it is;
    a round with one merges the staying ids, the ids stayed from it and its
    bucket through one boolean mask over the nodes, in O(n) steps.
    """

    __slots__ = ("_buckets", "_joins", "_left", "_rounds", "_stay", "now")

    def __init__(self):
        self._buckets: Dict[int, list] = {}
        self._joins: Dict[int, list] = {}  # round -> the ids staying from it
        self._left: list = []  # the ids left since the last take
        self._rounds: List[int] = []  # heap of the bucket keys
        self._stay = np.zeros(0, dtype=np.int64)
        self.now = -1

    def _bucket(self, rnd: int) -> list:
        chunks = self._buckets.get(rnd)
        if chunks is None:
            # every bucket left is later than the round taken last
            assert rnd > self.now, f"round {rnd} posted in round {self.now}"
            chunks = self._buckets[rnd] = [[]]
            heapq.heappush(self._rounds, rnd)
        return chunks

    def post(self, rnd: int, ids) -> None:
        """Wake every node of ``ids`` in round ``rnd``."""
        if len(ids):
            chunks = self._buckets.get(rnd) or self._bucket(rnd)
            if type(ids) is list:
                chunks[0].extend(ids)
            else:
                chunks.append(ids)

    def post_each(self, rounds: np.ndarray, ids: np.ndarray) -> None:
        """Wake ``ids[i]`` in round ``rounds[i]``, for every i."""
        buckets = self._buckets
        for rnd, v in zip(rounds.tolist(), ids.tolist()):
            (buckets.get(rnd) or self._bucket(rnd))[0].append(v)

    def stay(self, rnd: int, ids) -> None:
        """Wake every node of ``ids`` in every round from ``rnd`` on, until
        it terminates."""
        if len(ids):
            if rnd not in self._buckets:
                self._bucket(rnd)
            self._joins.setdefault(rnd, []).append(ids)

    def leave(self, ids) -> None:
        """Stop waking the staying nodes of ``ids`` in every round: from the
        next round on, each wakes only in the rounds posted or stayed for
        it, and it stays alive until it terminates.  Ids that are not
        staying are ignored."""
        if len(ids):
            self._left.append(ids)

    def take(self, before: int, alive: np.ndarray) -> Optional[Tuple[int, np.ndarray]]:
        """Move on to the next round in which a node wakes and return it
        with its ``alive`` waking ids, sorted and unique; ``None`` if there
        is no such round before round ``before``."""
        stay, rounds, left = self._stay, self._rounds, self._left
        if stay.size:
            keep = alive
            if left:
                keep = alive.copy()
                for ids in left:
                    keep[ids] = False
            stay = self._stay = stay[keep[stay]]
        left.clear()
        # staying nodes wake in the very next round
        rnd = self.now + 1 if stay.size else rounds[0] if rounds else before
        if rnd >= before:
            return None
        self.now = rnd
        if not rounds or rounds[0] != rnd:
            return rnd, stay
        heapq.heappop(rounds)
        mask = np.zeros(alive.size, dtype=bool)
        mask[stay] = True
        joins = self._joins.pop(rnd, ())
        if joins:
            for ids in joins:
                mask[ids] = True
            mask &= alive
            stay = self._stay = mask.nonzero()[0]
        for ids in self._buckets.pop(rnd):
            if len(ids):  # the list is often empty, and numpy indexes [] slowly
                mask[ids] = True
        mask &= alive
        return rnd, mask.nonzero()[0]


class Protocol:
    """Behavior contract executed by :func:`run`.

    ``bind`` receives the run's :class:`WakePlan`, which it keeps as
    ``plan``, and the run's start set, the sorted ids of the nodes alive at
    the start.  A start node wakes only in the rounds posted in the plan,
    and no other node ever wakes.  A subclass posts the
    first wakes in ``bind`` and later ones from ``round``, and decides each
    node's wakes only from that node's own state and the coin streams it can
    compute: its own, and its neighbours', whose ids and master seed it
    knows.  A node that is awake in every round until it terminates is
    stayed once (``plan.stay``) rather than posted round by round.  A
    posted or staying node that has terminated stays asleep.

    Subclasses override ``round``, doing a whole round at once, and keep
    each node's result in ``outputs`` (``bind`` starts it as an empty dict;
    a protocol may replace it with any per-node container, such as one of
    its state arrays).

    ``state_fields`` names the attributes holding per-node state, each
    indexed by node id.  In the sleeping model a sleeper performs no
    computation, so ``round`` may change a node's entries, or terminate it,
    only in a round where the node is awake.
    """

    congest_factor = 64
    state_fields: Tuple[str, ...] = ()

    def bind(self, graph: Graph, seed: int, plan: WakePlan, start: np.ndarray) -> None:
        self.graph = graph
        self.seed = seed
        self.n = graph.n
        self.plan = plan
        self.outputs: Any = {}

    def round(self, rnd: int, awake: np.ndarray, hood: Hood):
        """Run round ``rnd`` for the ``awake`` ids, which are sorted, unique
        and never empty, and return the ids that terminate.  ``awake`` may
        be the plan's own array of staying ids, so it must not be changed.
        ``hood`` holds their neighbourhoods and the message bound
        ``hood.bound`` in bits; a message the round sends other than
        through :func:`heard` or :func:`least_heard` is checked with
        ``hood.check``."""
        raise NotImplementedError


class AwakeLedger:
    """Per-node awake-round counts, split by part label, and the rounds they
    span; which rounds a node was awake in is not kept."""

    __slots__ = ("n", "parts", "rounds")

    def __init__(self, n: int):
        self.n = n
        self.parts: Dict[str, np.ndarray] = {}
        self.rounds = 0

    def _part(self, label: str) -> np.ndarray:
        arr = self.parts.get(label)
        if arr is None:
            arr = np.zeros(self.n, dtype=np.int64)
            self.parts[label] = arr
        return arr

    def charge(self, label: str, awake_ids) -> None:
        """One awake round under ``label`` for each occurrence of an id in
        ``awake_ids``: an id given k times is charged k rounds."""
        part = self._part(label)
        part += np.bincount(np.asarray(awake_ids, dtype=np.int64),
                            minlength=self.n)

    @property
    def counts(self) -> np.ndarray:
        total = np.zeros(self.n, dtype=np.int64)
        for arr in self.parts.values():
            total += arr
        return total

    def total_awake(self) -> int:
        return int(self.counts.sum())

    def node_averaged(self) -> float:
        return self.total_awake() / self.n if self.n else 0.0

    def max_awake(self) -> int:
        return int(self.counts.max()) if self.n else 0

    def part_totals(self) -> Dict[str, int]:
        return {label: int(arr.sum()) for label, arr in self.parts.items()}

    def merge(self, other: "AwakeLedger", id_map=None) -> None:
        """Fold ``other`` into this ledger, treating it as a sequential stage:
        its counts add to this ledger's, and its rounds run after this
        ledger's.

        ``id_map[i]`` gives this ledger's node id for ``other``'s node ``i``;
        omit it when both ledgers index the same nodes.
        """
        for label, arr in other.parts.items():
            mine = self._part(label)
            if id_map is None:
                mine += arr
            else:
                np.add.at(mine, np.asarray(id_map, dtype=np.int64), arr)
        self.rounds += other.rounds

    def __eq__(self, other):
        if not isinstance(other, AwakeLedger):
            return NotImplemented
        if self.n != other.n or self.rounds != other.rounds:
            return False
        if set(self.parts) != set(other.parts):
            return False
        return all(np.array_equal(self.parts[k], other.parts[k]) for k in self.parts)


# a run of fewer nodes may still keep this many ids waiting for a count
TALLY_FLOOR = 1 << 12


class _Tally:
    """The awake arrays of the rounds a run has not yet counted into its
    ledger part.

    :meth:`add` keeps each array as it is, so it must not change until it
    is counted.  At most ``limit = max(n, TALLY_FLOOR)`` ids wait:
    :meth:`add` first counts what waits if the new array would take it
    past ``limit``.  :meth:`flush` counts them all with one
    :meth:`AwakeLedger.charge`.  So a run keeps O(n) ids waiting, and a
    run with at most ``TALLY_FLOOR`` awake node-rounds counts once.
    """

    __slots__ = ("ledger", "part", "limit", "chunks", "size")

    def __init__(self, ledger: AwakeLedger, part: str):
        self.ledger = ledger
        self.part = part
        self.limit = max(ledger.n, TALLY_FLOOR)
        self.chunks: List[np.ndarray] = []
        self.size = 0

    def add(self, awake: np.ndarray) -> None:
        if self.size + awake.size > self.limit:
            self.flush()
        self.chunks.append(awake)
        self.size += awake.size

    def flush(self) -> None:
        if self.chunks:
            self.ledger.charge(self.part, np.concatenate(self.chunks))
            self.chunks = []
            self.size = 0


@dataclass
class RunMetrics:
    """Summary of one run; validity and size are filled by algorithm wrappers."""

    rounds: int
    total_awake: int
    avg_awake: float
    max_awake: int
    per_part: Dict[str, int] = field(default_factory=dict)
    validity: Optional[bool] = None
    solution_size: Optional[int] = None
    diagnostics: Optional[Dict[str, Any]] = None

    @classmethod
    def from_ledger(cls, ledger: AwakeLedger, **extra) -> "RunMetrics":
        per_part = ledger.part_totals()
        total = sum(per_part.values())
        parts = list(ledger.parts.values())
        # one part is its own per-node count; only a merged ledger sums them
        counts = parts[0] if len(parts) == 1 else ledger.counts
        return cls(
            rounds=ledger.rounds,
            total_awake=total,
            avg_awake=total / ledger.n if ledger.n else 0.0,
            max_awake=int(counts.max()) if ledger.n else 0,
            per_part=per_part,
            **extra,
        )


def _deliver(msgs_by_sender, adj_np, awake_mask, inboxes, congest_bound, measure):
    """Deliver per-node envelopes ``(dst, payload)`` into inbox lists; an
    envelope to a sleeper is dropped.  Nothing in the package sends
    envelopes: only the hook-style test reference of the sampled matcher and
    perfbench's tracer use this."""
    for v, msgs in msgs_by_sender:
        for dst, payload in msgs:
            if congest_bound is not None:
                bits = measure(payload)
                assert bits <= congest_bound, (
                    f"payload of {bits} bits from node {v} exceeds the "
                    f"{congest_bound}-bit message bound"
                )
            if dst == BROADCAST:
                nbrs = adj_np[v]
                if len(nbrs) == 0:
                    continue
                for w in nbrs[awake_mask[nbrs]]:
                    box = inboxes.get(w)
                    if box is None:
                        box = inboxes[int(w)] = []
                    box.append((v, payload))
            else:
                # point-to-point: dropped unless the destination is awake
                if awake_mask[dst]:
                    box = inboxes.get(dst)
                    if box is None:
                        box = inboxes[dst] = []
                    box.append((v, payload))


def gather_neighbours(csr, nodes: np.ndarray):
    """Neighbour lists of ``nodes`` laid end to end.

    Returns ``(own, starts, nbrs)``: ``own`` are the positions in ``nodes``
    of the nodes with at least one neighbour, and the neighbours of
    ``nodes[own[i]]`` are ``nbrs[starts[i]:starts[i + 1]]``.  Dropping
    degree-0 nodes keeps every segment non-empty, as ``np.ufunc.reduceat``
    needs.
    """
    indptr, indices = csr
    first = indptr[nodes]
    lens = indptr[nodes + 1] - first
    own = lens.nonzero()[0]
    first, lens = first[own], lens[own]
    starts = lens.cumsum() - lens
    pos = np.arange(int(lens.sum()), dtype=np.int64) + (first - starts).repeat(lens)
    return own, starts, indices[pos]


class Hood:
    """The awake nodes of one round, their neighbourhoods and the round's
    message bound.

    ``ids`` are the round's awake nodes, sorted and unique.  :meth:`gather`
    lays their neighbour lists end to end, once per round, as
    :func:`gather_neighbours` does, with each neighbour replaced by its
    position in ``ids``, or by -1 if it sleeps.  ``slot`` is a scratch array
    of ``n`` entries of -1, which :meth:`gather` leaves as it found it; the
    engine reuses one for a whole run.  ``bound`` is the CONGEST bound in
    bits, which every message of the round must fit (:meth:`check`).
    """

    __slots__ = ("ids", "bound", "_graph", "_slot", "_gathered")

    def __init__(self, graph: Graph, ids: np.ndarray, slot: np.ndarray,
                 bound: int):
        self.ids = ids
        self.bound = bound
        self._graph = graph
        self._slot = slot
        self._gathered = None

    def check(self, bits: int, what: str) -> None:
        """Assert that a ``bits``-wide message in ``what`` fits ``bound``."""
        assert bits <= self.bound, (
            f"payload of {bits} bits in {what} exceeds the "
            f"{self.bound}-bit message bound"
        )

    def gather(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(own, starts, pos)``: the neighbours of ``ids[own[i]]`` are at
        positions ``pos[starts[i]:starts[i + 1]]`` of ``ids`` (-1: asleep)."""
        if self._gathered is None:
            ids, slot = self.ids, self._slot
            own, starts, nbrs = gather_neighbours(self._graph.csr(), ids)
            slot[ids] = np.arange(ids.size)
            pos = slot[nbrs]
            slot[ids] = -1
            self._gathered = own, starts, pos
        return self._gathered


def heard(hood: Hood, sent: np.ndarray, bits: int) -> np.ndarray:
    """Which awake nodes have an awake neighbour that sent.

    ``sent`` and the result have one entry per awake node of ``hood``.
    Each sender broadcasts one ``bits``-wide token.
    """
    hood.check(bits, "a broadcast token")
    out = np.zeros(sent.size, dtype=bool)
    if not sent.any():
        return out
    own, starts, pos = hood.gather()
    if own.size:
        # a sleeper's position -1 reads the appended False
        out[own] = np.logical_or.reduceat(np.append(sent, False)[pos], starts)
    return out


def least_heard(hood: Hood, sent: np.ndarray, keys: np.ndarray):
    """Least ``(key, id)`` over the awake neighbours that sent.

    ``sent``, ``keys`` and both results have one entry per awake node of
    ``hood``; each sender broadcasts its key.  Returns ``(rank, best)``:
    ``rank`` is each sender's position in the strict ``(key, id)`` order of
    the senders, and ``best`` the least rank a node heard.  Both read ``m``,
    the number of awake nodes, where there is nothing (non-senders; nodes
    that heard no key), so ``rank < best`` marks the senders that beat every
    sending neighbour.
    """
    m = sent.size
    src = sent.nonzero()[0]
    rank = np.full(m + 1, m, dtype=np.int64)
    best = np.full(m, m, dtype=np.int64)
    if src.size == 0:
        return rank[:m], best
    sent_keys = keys[src]
    widest = int(sent_keys.max())
    order = src[np.lexsort((src, sent_keys))]
    hood.check(max(1, widest.bit_length()), "a broadcast key")
    rank[order] = np.arange(src.size)
    own, starts, pos = hood.gather()
    if own.size:
        # a sleeper's position -1 reads rank[m] = m
        best[own] = np.minimum.reduceat(rank[pos], starts)
    return rank[:m], best


def run(
    g: Graph,
    protocol: Protocol,
    master_seed: int,
    round_cap: int,
    part: str = "main",
    start=None,
):
    """Execute ``protocol`` on ``g`` from the nodes of ``start`` (default:
    every node), handed to ``bind`` sorted and unique, until all terminate.

    Returns ``(protocol.outputs, ledger, metrics)``; the ledger counts each
    node's awake rounds under ``part``.  The ids charged in a round are
    exactly those ``protocol.round`` receives for it, so a wrapper of
    ``round`` sees which rounds each node is awake in.  Each round's ids
    are charged, but the ledger counts them in bulk: before the ids waiting
    would exceed ``max(n, TALLY_FLOOR)``, at the end of the run and before
    it raises, so a short run counts once.

    Raises ``ValueError``, before ``bind``, if an id of ``start`` is
    outside 0..n-1, and :class:`RoundCapExceeded` (with the partial ledger
    attached) if any node is alive when the next round in which a node
    wakes is ``round_cap`` or later, or when no node will wake again; the
    ledger then reads ``round_cap`` rounds.
    """
    n = g.n
    if start is None:
        alive = np.ones(n, dtype=bool)
    else:
        alive = np.zeros(n, dtype=bool)
        ids = np.asarray(start, dtype=np.int64)
        # a negative id reads as a huge unsigned one
        if np.count_nonzero(ids.view(np.uint64) >= n):
            bad = ids[(ids < 0) | (ids >= n)][0]
            raise ValueError(f"start id {bad} is outside 0..{n - 1}")
        alive[ids] = True
    start = alive.nonzero()[0]
    plan = WakePlan()
    protocol.bind(g, master_seed, plan, start)
    ledger = AwakeLedger(n)
    tally = _Tally(ledger, part)
    alive_count = start.size
    slot = np.full(n, -1, dtype=np.int64)
    congest_bound = protocol.congest_factor * max(8, (max(n, 2) - 1).bit_length())

    rnd = -1
    while alive_count > 0:
        taken = plan.take(round_cap, alive)
        if taken is None:
            tally.flush()
            ledger.rounds = round_cap
            raise RoundCapExceeded(
                f"{alive_count} nodes still alive after {round_cap} rounds", ledger
            )
        rnd, awake = taken
        if not awake.size:
            continue
        tally.add(awake)
        done = protocol.round(rnd, awake, Hood(g, awake, slot, congest_bound))
        if len(done):
            done = np.asarray(done, dtype=np.int64)
            alive[done] = False
            alive_count -= done.size

    tally.flush()
    ledger.rounds = rnd + 1
    return protocol.outputs, ledger, RunMetrics.from_ledger(ledger)
