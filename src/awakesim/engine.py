"""Round-synchronous message-passing engine with sleeping semantics.

A :class:`Protocol` describes node behavior; :func:`run` executes it.  Each
round the engine asks ``wake_set`` which nodes are awake, charges them on an
:class:`AwakeLedger` (sleeping is free), and calls the protocol's ``round``
once with the awake nodes.  ``round`` does the whole round and returns the
ids that terminate; a terminated node is removed and never charged again.
Each protocol keeps its per-node results in ``outputs``, which :func:`run`
returns.

The protocols use masks over the graph's CSR adjacency and the
neighbourhood primitives :func:`heard` ("some awake neighbour sent") and
:func:`least_heard` ("least ``(key, id)`` over awake sending neighbours");
``SampledMatchingProtocol`` reduces its sampled reports over the CSR and
then walks only the edges of nodes that froze.  Only awake nodes send, and
only awake nodes hear.  Every round checks its widest message once with
:func:`check_width` against ``congest_factor * max(8, ceil(log2 n))`` bits.

Determinism: protocols draw all randomness through ``node_rng`` streams keyed
by the master seed, so a fixed (graph, protocol, seed) triple replays
bit-identically.
"""

from __future__ import annotations

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


class Protocol:
    """Behavior contract executed by :func:`run`.

    Subclasses override ``round``, doing a whole round at once, and keep
    each node's result in ``outputs`` (``bind`` starts it as an empty dict;
    a protocol may replace it with any per-node container, such as one of
    its state arrays).  ``wake_set`` must decide each node's wakefulness
    only from that node's own state and the coin streams it can compute:
    its own, and its neighbours', whose ids and master seed it knows.  The
    engine intersects the requested wake set with the still-alive nodes,
    so terminated nodes never reappear.

    ``state_fields`` names the attributes holding per-node state, each
    indexed by node id.  In the sleeping model a sleeper performs no
    computation, so ``round`` may change a node's entries, or terminate it,
    only in a round where the node is awake.
    """

    congest_factor = 64
    state_fields: Tuple[str, ...] = ()

    def bind(self, graph: Graph, seed: int) -> None:
        self.graph = graph
        self.seed = seed
        self.n = graph.n
        self.outputs: Any = {}

    def wake_set(self, rnd: int, alive: np.ndarray):
        """Nodes awake this round; by default every alive node."""
        return np.nonzero(alive)[0]

    def round(self, rnd: int, awake: np.ndarray, awake_mask: np.ndarray,
              congest_bound: int):
        """Run round ``rnd`` for the sorted ``awake`` ids (``awake_mask`` marks
        them) and return the ids that terminate.  ``congest_bound`` is the
        payload width limit in bits."""
        raise NotImplementedError


class AwakeLedger:
    """Per-node awake-round counts, split by part label."""

    __slots__ = ("n", "parts", "rounds", "schedule")

    def __init__(self, n: int, record_schedule: bool = False):
        self.n = n
        self.parts: Dict[str, np.ndarray] = {}
        self.rounds = 0
        self.schedule: Optional[List[List[int]]] = (
            [[] for _ in range(n)] if record_schedule else None
        )

    def _part(self, label: str) -> np.ndarray:
        arr = self.parts.get(label)
        if arr is None:
            arr = np.zeros(self.n, dtype=np.int64)
            self.parts[label] = arr
        return arr

    def charge(self, label: str, awake_ids: np.ndarray, rnd: int) -> None:
        self._part(label)[awake_ids] += 1
        if self.schedule is not None:
            for v in awake_ids:
                self.schedule[int(v)].append(rnd)

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
        its rounds run after this ledger's, so its recorded schedule is
        offset by ``self.rounds``.

        ``id_map[i]`` gives this ledger's node id for ``other``'s node ``i``;
        omit it when both ledgers index the same nodes.
        """
        for label, arr in other.parts.items():
            mine = self._part(label)
            if id_map is None:
                mine += arr
            else:
                np.add.at(mine, np.asarray(id_map, dtype=np.int64), arr)
        if self.schedule is not None and other.schedule is not None:
            for i, rl in enumerate(other.schedule):
                tgt = i if id_map is None else id_map[i]
                self.schedule[tgt].extend(r + self.rounds for r in rl)
        self.rounds += other.rounds

    def __eq__(self, other):
        if not isinstance(other, AwakeLedger):
            return NotImplemented
        if self.n != other.n or self.rounds != other.rounds:
            return False
        if set(self.parts) != set(other.parts):
            return False
        return all(np.array_equal(self.parts[k], other.parts[k]) for k in self.parts)


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
        counts = ledger.counts  # one sum over the parts for all three values
        total = int(counts.sum())
        return cls(
            rounds=ledger.rounds,
            total_awake=total,
            avg_awake=total / ledger.n if ledger.n else 0.0,
            max_awake=int(counts.max()) if ledger.n else 0,
            per_part=ledger.part_totals(),
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


def check_width(bits: int, congest_bound: Optional[int], what: str) -> None:
    """Assert that a ``bits``-wide payload fits the CONGEST bound, if any."""
    if congest_bound is not None:
        assert bits <= congest_bound, (
            f"payload of {bits} bits in {what} exceeds the "
            f"{congest_bound}-bit message bound"
        )


def gather_neighbours(csr, nodes: np.ndarray):
    """Neighbour lists of ``nodes`` laid end to end.

    Returns ``(owners, starts, nbrs)``: ``owners`` are the nodes of ``nodes``
    with at least one neighbour, and the neighbours of ``owners[i]`` are
    ``nbrs[starts[i]:starts[i + 1]]``.  Dropping degree-0 nodes keeps every
    segment non-empty, as ``np.ufunc.reduceat`` needs.
    """
    indptr, indices = csr
    first = indptr[nodes]
    lens = indptr[nodes + 1] - first
    keep = lens > 0
    owners, first, lens = nodes[keep], first[keep], lens[keep]
    starts = np.cumsum(lens) - lens
    pos = np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(first - starts, lens)
    return owners, starts, indices[pos]


def heard(csr, awake_mask: np.ndarray, sent: np.ndarray, bits: int,
          congest_bound: Optional[int]) -> np.ndarray:
    """Mask of awake nodes with an awake neighbour in the mask ``sent``.

    Each awake sender broadcasts one ``bits``-wide token; sleepers neither
    send nor hear.
    """
    check_width(bits, congest_bound, "a broadcast token")
    out = np.zeros(awake_mask.size, dtype=bool)
    src = sent & awake_mask
    if not src.any():
        return out
    owners, starts, nbrs = gather_neighbours(csr, np.flatnonzero(awake_mask))
    if owners.size:
        out[owners] = np.logical_or.reduceat(src[nbrs], starts)
    return out


def least_heard(csr, awake_mask: np.ndarray, sent: np.ndarray, keys: np.ndarray,
                congest_bound: Optional[int]):
    """Least ``(keys[w], w)`` over the awake neighbours ``w`` in ``sent``.

    Each awake sender broadcasts its key.  Returns ``(rank, best)``: ``rank``
    is each sender's position in the strict ``(key, id)`` order of the awake
    senders, and ``best[v]`` the least rank awake node ``v`` heard.  Both
    read ``n`` where there is nothing (non-senders; sleepers and nodes that
    heard no key), so ``rank < best`` marks the senders that beat every
    sending neighbour.
    """
    n = awake_mask.size
    src = np.flatnonzero(sent & awake_mask)
    rank = np.full(n, n, dtype=np.int64)
    best = np.full(n, n, dtype=np.int64)
    if src.size == 0:
        return rank, best
    sent_keys = keys[src]
    check_width(max(1, int(sent_keys.max()).bit_length()), congest_bound,
                "a broadcast key")
    rank[src[np.lexsort((src, sent_keys))]] = np.arange(src.size)
    owners, starts, nbrs = gather_neighbours(csr, np.flatnonzero(awake_mask))
    if owners.size:
        best[owners] = np.minimum.reduceat(rank[nbrs], starts)
    return rank, best


def run(
    g: Graph,
    protocol: Protocol,
    master_seed: int,
    round_cap: int,
    part: str = "main",
    record_schedule: bool = False,
):
    """Execute ``protocol`` on ``g`` until all nodes terminate.

    Returns ``(protocol.outputs, ledger, metrics)``.  Raises
    :class:`RoundCapExceeded` (with the partial ledger attached) if any node
    survives ``round_cap`` rounds.
    """
    protocol.bind(g, master_seed)
    n = g.n
    ledger = AwakeLedger(n, record_schedule=record_schedule)
    alive = np.ones(n, dtype=bool)
    alive_count = n
    awake_mask = np.zeros(n, dtype=bool)
    congest_bound = protocol.congest_factor * max(8, (max(n, 2) - 1).bit_length())

    rnd = -1
    while alive_count > 0:
        rnd += 1
        if rnd >= round_cap:
            ledger.rounds = rnd
            raise RoundCapExceeded(
                f"{alive_count} nodes still alive after {round_cap} rounds", ledger
            )
        req = np.asarray(protocol.wake_set(rnd, alive), dtype=np.int64)
        awake = req[alive[req]] if req.size else req
        ledger.charge(part, awake, rnd)
        awake_mask[awake] = True
        done = protocol.round(rnd, awake, awake_mask, congest_bound)
        awake_mask[awake] = False
        if len(done):
            done = np.asarray(done, dtype=np.int64)
            alive[done] = False
            alive_count -= done.size

    ledger.rounds = rnd + 1
    return protocol.outputs, ledger, RunMetrics.from_ledger(ledger)
