"""Round-synchronous message-passing engine with sleeping semantics.

A :class:`Protocol` describes per-node behavior; :func:`run` executes it.
Each round has two subrounds.  Only awake nodes act: the engine never calls a
sleeping node, and envelopes addressed to sleeping or terminated nodes are
dropped, not queued.  Every awake round is charged to the node on an
:class:`AwakeLedger`; sleeping is free.  A node terminates by returning an
output from ``finish``, after which it is removed and never charged again.

Determinism: protocols draw all randomness through ``node_rng`` streams keyed
by the master seed, so a fixed (graph, protocol, seed) triple replays
bit-identically.
"""

from __future__ import annotations

import time
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

    Subclasses override the hooks they need.  ``wake_set`` must decide each
    node's wakefulness only from that node's own state and its own coin
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

    def on_round_start(self, rnd: int) -> None:
        pass

    def wake_set(self, rnd: int, alive: np.ndarray):
        """Nodes awake this round; by default every alive node."""
        return np.nonzero(alive)[0]

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
        """Fold ``other`` into this ledger, treating it as a sequential stage.

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
        if self.schedule is not None and other.schedule is not None:
            for i, rl in enumerate(other.schedule):
                tgt = i if id_map is None else id_map[i]
                self.schedule[tgt].extend(rl)

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
    wall_time: float = 0.0

    @classmethod
    def from_ledger(cls, ledger: AwakeLedger, **extra) -> "RunMetrics":
        return cls(
            rounds=ledger.rounds,
            total_awake=ledger.total_awake(),
            avg_awake=ledger.node_averaged(),
            max_awake=ledger.max_awake(),
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
    t0 = time.perf_counter()
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

    adj_np = g.adj_arrays()
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
        protocol.on_round_start(rnd)
        req = protocol.wake_set(rnd, alive)
        req = np.asarray(req, dtype=np.int64)
        if req.size:
            awake = req[alive[req]]
        else:
            awake = req
        ledger.charge(part, awake, rnd)
        awake_mask[awake] = True

        inbox1: Dict[int, list] = {}
        _deliver(
            ((int(v), protocol.send1(int(v), rnd)) for v in awake),
            adj_np,
            awake_mask,
            inbox1,
            congest_bound,
            payload_bits,
        )
        inbox2: Dict[int, list] = {}
        if protocol.uses_subround2:
            _deliver(
                (
                    (int(v), protocol.send2(int(v), rnd, inbox1.get(int(v), _EMPTY)))
                    for v in awake
                ),
                adj_np,
                awake_mask,
                inbox2,
                congest_bound,
                payload_bits,
            )

        finish = protocol.finish
        for v in awake:
            v = int(v)
            out = finish(v, rnd, inbox1.get(v, _EMPTY), inbox2.get(v, _EMPTY))
            if out is not None:
                outputs[v] = out
                alive[v] = False
                alive_count -= 1
        awake_mask[awake] = False

    ledger.rounds = rnd + 1
    metrics = RunMetrics.from_ledger(ledger)
    metrics.wall_time = time.perf_counter() - t0
    return outputs, ledger, metrics
