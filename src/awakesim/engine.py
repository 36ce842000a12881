"""Round-synchronous message-passing engine with sleeping semantics.

A :class:`Protocol` describes node behavior; :func:`run` executes it.  Each
round the engine asks ``wake_set`` which nodes are awake, charges them on an
:class:`AwakeLedger` (sleeping is free), and calls the protocol's ``round``
once with the awake nodes.  ``round`` returns the nodes that terminate and
their outputs; a terminated node is removed and never charged again.

There are two ways to write ``round``:

* whole-round work, the way every protocol in the package does it.  The MIS
  protocols use masks over the graph's CSR adjacency and the neighbourhood
  primitives :func:`heard` ("some awake neighbour sent") and
  :func:`least_heard` ("least ``(key, id)`` over awake sending
  neighbours"); ``SampledMatchingProtocol`` reduces its sampled reports
  over the CSR and then walks only the edges of nodes that froze.  Only
  awake nodes send, and only awake nodes hear;
* the default, per node: ``send1``/``send2``/``finish`` hooks, with envelopes
  delivered into inbox lists by :func:`_deliver`.  Envelopes addressed to
  sleeping or terminated nodes are dropped, not queued.  Only small test
  protocols and the test reference of the sampled matcher use it.

Both paths check the CONGEST width of payloads against
``congest_factor * max(8, ceil(log2 n))`` bits unless ``check_congest`` is
off: the hook path measures every envelope with :func:`payload_bits`; a
whole-round protocol checks the widest message of each round once with
:func:`check_width`.

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
from .rng import node_rng, node_rng_array  # noqa: F401  (re-exported: engine owns the stream contract)

BROADCAST = -1

_EMPTY: Tuple = ()


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

    Subclasses override either ``round``, doing a whole round at once, or
    the per-node hooks the default ``round`` calls.  ``wake_set`` must decide
    each node's wakefulness only from that node's own state and its own coin
    streams; the engine intersects the requested wake set with the
    still-alive nodes, so terminated nodes never reappear.
    """

    uses_subround2 = False
    congest_factor = 64

    def bind(self, graph: Graph, seed: int) -> None:
        self.graph = graph
        self.seed = seed
        self.n = graph.n

    def setup(self) -> Optional[Dict[int, Any]]:
        """Outputs decided before any round runs (those nodes are never awake)."""
        return None

    def wake_set(self, rnd: int, alive: np.ndarray):
        """Nodes awake this round; by default every alive node."""
        return np.nonzero(alive)[0]

    def round(self, rnd: int, awake: np.ndarray, awake_mask: np.ndarray,
              congest_bound: Optional[int]):
        """Run round ``rnd`` for the sorted ``awake`` ids (``awake_mask`` marks
        them); return ``(done, outputs)``, the ids that terminate and their
        outputs.  ``congest_bound`` is the payload width limit in bits, or
        ``None`` when unchecked.

        The default runs the per-node hooks: every awake node's ``send1``
        envelopes are delivered, then (if ``uses_subround2``) its ``send2``
        envelopes, then ``finish`` sees both inboxes.
        """
        adj_np = self.graph.adj_arrays()
        inbox1: Dict[int, list] = {}
        _deliver(((int(v), self.send1(int(v), rnd)) for v in awake),
                 adj_np, awake_mask, inbox1, congest_bound, payload_bits)
        inbox2: Dict[int, list] = {}
        if self.uses_subround2:
            _deliver(((int(v), self.send2(int(v), rnd, inbox1.get(int(v), _EMPTY)))
                      for v in awake),
                     adj_np, awake_mask, inbox2, congest_bound, payload_bits)
        done: List[int] = []
        outs: List[Any] = []
        for v in awake.tolist():
            out = self.finish(v, rnd, inbox1.get(v, _EMPTY), inbox2.get(v, _EMPTY))
            if out is not None:
                done.append(v)
                outs.append(out)
        return done, outs

    def send1(self, v: int, rnd: int):
        return _EMPTY

    def send2(self, v: int, rnd: int, inbox1):
        return _EMPTY

    def finish(self, v: int, rnd: int, inbox1, inbox2):
        """Return a non-None output to terminate node ``v``."""
        return None


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
    owners, starts, nbrs = gather_neighbours(csr, np.flatnonzero(awake_mask))
    if owners.size:
        out[owners] = np.logical_or.reduceat((sent & awake_mask)[nbrs], starts)
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
    check_congest: bool = True,
    record_schedule: bool = False,
):
    """Execute ``protocol`` on ``g`` until all nodes terminate.

    Returns ``(outputs, ledger, metrics)`` where ``outputs`` maps node id to
    its terminal output.  Raises :class:`RoundCapExceeded` (with the partial
    ledger attached) if any node survives ``round_cap`` rounds.
    """
    protocol.bind(g, master_seed)
    n = g.n
    ledger = AwakeLedger(n, record_schedule=record_schedule)
    outputs: Dict[int, Any] = {}
    alive = np.ones(n, dtype=bool)

    init = protocol.setup()
    if init:
        for v, out in init.items():
            outputs[v] = out
            alive[v] = False
    alive_count = int(alive.sum())

    awake_mask = np.zeros(n, dtype=bool)
    congest_bound = (
        protocol.congest_factor * max(8, (max(n, 2) - 1).bit_length())
        if check_congest
        else None
    )

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
        done, outs = protocol.round(rnd, awake, awake_mask, congest_bound)
        awake_mask[awake] = False
        if len(done):
            done = np.asarray(done, dtype=np.int64)
            outputs.update(zip(done.tolist(), outs))
            alive[done] = False
            alive_count -= done.size

    ledger.rounds = rnd + 1
    return outputs, ledger, RunMetrics.from_ledger(ledger)
