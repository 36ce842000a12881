"""Shared fixtures: the MIS scaling sweep, the acceptance result table, the
Fraction-arithmetic reference of the full-rate fractional matcher, the
closed form of its awake rounds, the slot re-summation of the matcher's
node loads, the no-reuse reference of the
sleeping box and its delta-maximal loop, the per-node reference of the MIS
marking stage, a sleeping-model check that wraps any protocol, a
watcher of the rounds each node is awake in, and a locality check built
on that watcher."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from awakesim import fractional
from awakesim.augmentation import MatchBox
from awakesim.engine import Protocol
from awakesim.errors import PreconditionViolated
from awakesim.fractional import FractionalAssignment
from awakesim.graphs import Graph, Matching, canon, gen_gnp
from awakesim.oracles import verify_matching
from awakesim.mis import awake_mis, luby_mis, part2_schedule
from awakesim.rng import coin_threshold, node_rng

SWEEP_MASTER = 777
SWEEP_SIZES = (2 ** 10, 2 ** 12, 2 ** 14, 2 ** 16)
SWEEP_SEEDS = 20

# filled by tests/test_acceptance.py, printed at the end of the run
CRITERION_RESULTS = []


def ref_vanilla(g, eps):
    """Independent reference: simultaneous freezing on the (1+eps) ladder."""
    eps = Fraction(eps)
    delta = g.max_degree
    x = {e: Fraction(1, delta) for e in g.edges()}
    node_frozen = {}
    edge_frozen = {}
    j = 0
    while len(edge_frozen) < g.m:
        w = Fraction(1, delta) * (1 + eps) ** j
        cv = {v: Fraction(0) for v in range(g.n)}
        for e, val in x.items():
            cur = val if e in edge_frozen else w
            cv[e[0]] += cur
            cv[e[1]] += cur
        newly = [v for v in range(g.n)
                 if v not in node_frozen and cv[v] >= 1 - eps
                 and any(canon(v, u) not in edge_frozen for u in g.neighbors(v))]
        for v in newly:
            node_frozen[v] = j
            for u in g.neighbors(v):
                e = canon(v, u)
                if e not in edge_frozen:
                    edge_frozen[e] = j
                    x[e] = w
        j += 1
        assert j < 10_000
    return x, edge_frozen, node_frozen


def ref_vanilla_assignment(g, eps) -> FractionalAssignment:
    """:func:`ref_vanilla` as an assignment, with ``None`` for every node
    that never froze."""
    x, edge_frozen, node_frozen = ref_vanilla(g, eps)
    return FractionalAssignment(g.n, x, edge_frozen,
                                {v: node_frozen.get(v) for v in range(g.n)})


def ref_gated_rounds(g, f, eps):
    """The rounds each node is awake in a stop-round-0 run of the sampled
    matcher, in closed form from the node freeze rounds ``f`` (``None``:
    never froze).

    A node without a neighbour is awake in no round.  Any other node v has
    wake rung j_v, the first j with deg(v) (1+eps)^j / Delta >= 1 - eps.
    It terminates in round t_v: f[v], or, if it never froze, the last
    freeze round among its neighbours.  A node that terminates in round 0
    is awake only then.  Any other node is awake in {0} and [j_v, max(t_v,
    j_v)], and, if it froze, at each distinct j_w > f[v] of its neighbours
    w still unfrozen at f[v], to tell them.
    """
    eps = Fraction(eps)
    delta = g.max_degree

    def wake(v):
        j = 0
        while len(g.neighbors(v)) * (1 + eps) ** j < (1 - eps) * delta:
            j += 1
        return j

    out = []
    for v in range(g.n):
        nb, fv = g.neighbors(v), f[v]
        if not nb:
            out.append([])
            continue
        t = fv if fv is not None else max(f[u] for u in nb)
        if t == 0:
            out.append([0])
            continue
        rounds = {0, *range(wake(v), max(t, wake(v)) + 1)}
        if fv is not None:
            rounds |= {wake(w) for w in nb
                       if (f[w] is None or f[w] > fv) and wake(w) > fv}
        out.append(sorted(rounds))
    return out


def ref_slot_loads(g, f, rungs):
    """Each node's load re-added from its adjacency slots, every edge at the
    rung of its first-frozen endpoint (``f``: node freeze rounds, -1 for
    never): the summation the assignment made before the matcher handed
    over its own loads."""
    zero = len(rungs)
    vals = rungs + [0]
    key = [fv if fv >= 0 else zero for fv in f]
    loads = []
    for v, nb in enumerate(g.adj):
        row = [min(key[u], key[v]) for u in nb]
        assert zero not in row, "an edge has no frozen endpoint"
        loads.append(sum(vals[k] for k in row))
    return loads


class RefSleepingBox(MatchBox):
    """Reference sleeping box: a fresh fractional run on every call, with
    the same seed counter as :class:`MatchBox`."""

    def __init__(self, *, master_seed: int = 0, host_n: int = 0):
        super().__init__("sleeping", master_seed=master_seed, host_n=host_n)

    def __call__(self, g, orig_ids=None):
        self.calls += 1
        if g.m == 0:
            return Matching()
        s1 = node_rng(self.master_seed, 0, "box", 2 * self.calls)
        s2 = node_rng(self.master_seed, 0, "box", 2 * self.calls + 1)
        asg, led, _ = fractional.sampled_fractional(g, self.eps, s1)
        m = fractional.round_matching(asg, s2)
        if self.ledger is not None:
            self.ledger.merge(led, id_map=orig_ids)
        assert verify_matching(g, m)
        return m


def ref_delta_maximal(g, box, delta, *, iterations=None, orig_ids=None):
    """Reference delta-maximal loop: a freshly induced residual before every
    box call after the first, whether or not the last call matched."""
    if not 0 < delta < 1:
        raise PreconditionViolated("delta must lie in (0, 1)")
    if iterations is None:
        iterations = math.ceil(3 * box.c * math.log(1 / float(delta)))
    remaining = set(range(g.n))
    out = []
    for it in range(max(1, iterations)):
        sub, ids = (g, range(g.n)) if it == 0 else g.induced(sorted(remaining))
        if sub.m == 0:
            break
        sub_orig = ([orig_ids[i] for i in ids] if orig_ids is not None
                    else list(ids))
        m = box(sub, orig_ids=sub_orig)
        for (a_, b_) in m:
            u, v = ids[a_], ids[b_]
            out.append(canon(u, v))
            remaining.discard(u)
            remaining.discard(v)
    return Matching(out)


class RefPart2(Protocol):
    """Per-node reference of the MIS marking stage.

    Only the start nodes take part.  Every other node begins "out", and it
    is no one's neighbour, so each node's neighbour list below holds its
    start neighbours only, and a node marks only if that list is not
    empty.  Every node reads its own and its neighbours' marks from the
    scalar coins, so a node knows whether a neighbour marks whether or not
    that neighbour is alive.  An undecided node wakes at its marks; a node in
    the set wakes when a neighbour it has not told marks.  It has told a
    neighbour once it was awake, in a round after its join round, where that
    neighbour was awake or marked.  Every alive node attends each
    iteration's cleanup.  Each node posts its own wakes, one at a time: at
    the start of an iteration its cleanup and its first wake, and after each
    marking round it is awake in, its next wake before the cleanup.  Its
    state changes only while it is awake, so that wake is the one a node
    checking every round would find.  Status codes are those of
    ``Part2Protocol``, and its marking probabilities are those of
    ``part2_schedule``, whose phase lengths
    ``test_part2_schedule_is_smooth`` pins on their own.
    """

    UNDECIDED, OUT, IN = 0, 1, 2

    def __init__(self, d: int, iterations: int, phase_constant: int = 4):
        phase_rounds, probabilities = part2_schedule(d, phase_constant)
        self.K = iterations
        self._marking = sum(phase_rounds)
        self.t_iter = self._marking + 1
        self._cut = [coin_threshold(p) for p in probabilities]

    def bind(self, graph, seed, plan, start):
        super().bind(graph, seed, plan, start)
        indptr, indices = graph.csr()
        members = set(start.tolist())
        self._nbrs = [[w for w in indices[indptr[v]:indptr[v + 1]].tolist()
                       if w in members] if v in members else []
                      for v in range(self.n)]
        self.outputs = self._status = np.full(self.n, self.OUT, dtype=np.int8)
        self._status[start] = self.UNDECIDED
        self._told = {}  # in-set node -> the neighbours it has told
        self._begin_iteration(0, start.tolist())

    def _marks(self, v, rnd):
        o = rnd % self.t_iter
        return (o < self._marking and bool(self._nbrs[v])
                and node_rng(self.seed, v, "p2mark", rnd) < self._cut[o])

    def _begin_iteration(self, k, alive):
        start = k * self.t_iter
        for v in alive:
            self.plan.post(start + self._marking, [v])
            self._post_next(v, start - 1)

    def _post_next(self, v, rnd):
        """Post ``v``'s first wake after ``rnd`` and before the cleanup of
        the iteration that round ``rnd + 1`` belongs to."""
        first = rnd + 1
        cleanup = first - first % self.t_iter + self._marking
        for r in range(first, cleanup):
            if self._status[v] == self.IN:
                up = any(w not in self._told[v] and self._marks(w, r)
                         for w in self._nbrs[v])
            else:
                up = self._marks(v, r)
            if up:
                self.plan.post(r, [v])
                return

    def round(self, rnd, awake, hood):
        k, o = divmod(rnd, self.t_iter)
        status, nbrs = self._status, self._nbrs
        awake = awake.tolist()
        up = set(awake)
        tellers = [v for v in awake if status[v] == self.IN]
        out = [v for v in awake if status[v] == self.UNDECIDED
               and any(w in up and status[w] == self.IN for w in nbrs[v])]
        status[out] = self.OUT
        live = {v for v in awake if status[v] == self.UNDECIDED}
        if o == self._marking:
            join = [v for v in live if not any(w in live for w in nbrs[v])]
        else:
            senders = {v for v in live if self._marks(v, rnd)}
            join = [v for v in senders
                    if all(v < w for w in nbrs[v] if w in senders)]
        for v in join:
            assert not any(status[w] == self.IN for w in nbrs[v])
            status[v] = self.IN
            self._told[v] = set()
        for u in tellers:
            self._told[u].update(w for w in nbrs[u]
                                 if w in up or self._marks(w, rnd))
        if o < self._marking:
            for v in awake:
                if status[v] != self.OUT:
                    self._post_next(v, rnd)
            return out
        if k == self.K - 1:
            return awake
        self._begin_iteration(k + 1, [v for v in awake
                                      if status[v] == self.UNDECIDED])
        return [v for v in awake if status[v] != self.UNDECIDED]


def sleep_checked(proto: Protocol) -> Protocol:
    """Wrap ``proto.round`` with the sleeping model's conformance check:
    every call gets a non-empty, sorted array of distinct awake ids; between
    the round's start and its end, only awake nodes' entries of
    ``proto.state_fields`` change, and only awake nodes terminate.  An entry
    a round adds to a field counts as changed."""
    inner = proto.round

    def snapshot():
        return [list(getattr(proto, f)) for f in proto.state_fields]

    def round(rnd, awake, hood):
        assert isinstance(awake, np.ndarray) and awake.size, (
            f"round {rnd} was called with no awake node")
        assert (np.diff(awake) > 0).all(), (
            f"the awake ids of round {rnd} are not sorted and distinct")
        awake_mask = np.zeros(proto.n, dtype=bool)
        awake_mask[awake] = True
        before = snapshot()
        done = inner(rnd, awake, hood)
        for name, old, new in zip(proto.state_fields, before, snapshot()):
            moved = [v for v in range(len(new)) if v >= len(old) or new[v] != old[v]]
            assert len(new) >= len(old) and awake_mask[moved].all(), (
                f"{name} of a sleeper changed in round {rnd}")
        assert awake_mask[np.asarray(done, dtype=np.int64)].all(), (
            f"a sleeper terminated in round {rnd}")
        return done

    assert proto.state_fields, "the protocol declares no state fields"
    proto.round = round
    return proto


@contextmanager
def watched_wakes(module):
    """Watch every run that ``module.run`` starts inside the block.

    Each run gets a list ``rounds`` with one list per node of the run's
    graph, and the protocol's ``round`` is wrapped, as :func:`sleep_checked`
    wraps it, to append ``rnd`` to the list of each id in ``awake``: the
    engine calls ``round`` once per round with exactly the ids it charges.
    The block gets a list to which each run that returns appends
    ``(rounds, result)``, ``result`` being what the run returned.  Pass the
    engine module itself for runs started as ``engine.run``, or a module
    that calls ``run`` by name (``mis``, ``fractional``) for the runs of its
    stage functions.
    """
    runs = []
    inner_run = module.run

    def run(g, proto, *args, **kwargs):
        rounds = [[] for _ in range(g.n)]
        inner_round = proto.round

        def round(rnd, awake, hood):
            for v in awake.tolist():
                rounds[v].append(rnd)
            return inner_round(rnd, awake, hood)

        proto.round = round
        result = inner_run(g, proto, *args, **kwargs)
        runs.append((rounds, result))
        return result

    with mock.patch.object(module, "run", run):
        yield runs


def assert_local(stage, module, g, h1, h2, decided, *, n_only=False):
    """Assert that ``stage`` decides and wakes the nodes of ``g`` from ``g``
    alone, not from a component they are not in.

    Builds H1 ⊎ G and H2 ⊎ G, each with H's nodes first, so that node v of
    G is node ``off + v`` of both, ``off`` being their common node count,
    and asserts that the two unions have equal n and max degree, the
    globals a node may know.  With ``n_only``, for a stage whose docstring
    says that it reads n alone, only n must be equal.  ``stage(union)``
    runs on each with the same seeds, through ``module.run`` (see
    :func:`watched_wakes`), and ``decided(result, off)`` returns what a
    result says of G's nodes, in G's ids.  Those, and G's wake rounds in
    each run, must be equal.
    """
    assert h1.n == h2.n, "the two H graphs differ in their node counts"
    seen = []
    for h in (h1, h2):
        off = h.n
        edges = [*h.edge_set, *((u + off, v + off) for u, v in g.edge_set)]
        union = Graph(off + g.n, np.array(edges, dtype=np.int64).reshape(-1, 2))
        with watched_wakes(module) as runs:
            result = stage(union)
        wakes = [rounds[off:] for rounds, _ in runs]
        seen.append((union.n, union.max_degree, decided(result, off), wakes))
    (n1, delta1, decided1, wakes1), (n2, delta2, decided2, wakes2) = seen
    assert n1 == n2, "the unions differ in n"
    assert n_only or delta1 == delta2, "the unions differ in max degree"
    assert decided1 == decided2, "G's outputs depend on the other component"
    assert wakes1 == wakes2, "G's wake rounds depend on the other component"


def record_criterion(num: int, name: str, passed: bool, detail: str) -> None:
    CRITERION_RESULTS.append((num, name, passed, detail))


@pytest.fixture(scope="session")
def mis_sweep():
    """Per-size records of awake_mis and luby_mis on G(n, 10/n), 20 seeds.

    Expensive (a few minutes); shared by the awake-constancy and round-count
    acceptance checks. Graph and algorithm seeds come from fixed rng streams
    so the sweep is reproducible.
    """
    data = {}
    for n in SWEEP_SIZES:
        rows = []
        for s in range(SWEEP_SEEDS):
            g = gen_gnp(n, 10.0 / n, seed=node_rng(SWEEP_MASTER, n, "sweepg", s))
            aseed = node_rng(SWEEP_MASTER, n, "sweepa", s)
            mis, led, met = awake_mis(g, seed=aseed)
            lset, lled = luby_mis(g, seed=aseed)
            rows.append({
                "avg_awake": met.avg_awake,
                "rounds": met.rounds,
                "valid": met.validity,
                "luby_avg": lled.node_averaged(),
                "luby_rounds": lled.rounds,
            })
        data[n] = rows
    return data


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERION_RESULTS:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num, name, passed, detail in sorted(CRITERION_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        tr.write_line(f"criterion {num:02d} {verdict}  {name}: {detail}")
