"""Shared fixtures: the MIS scaling sweep, the acceptance result table, and
the Fraction-arithmetic reference of the full-rate fractional matcher."""

from fractions import Fraction

import pytest

from awakesim.fractional import FractionalAssignment
from awakesim.graphs import canon, gen_gnp
from awakesim.mis import awake_mis, luby_mis
from awakesim.rng import node_rng

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
