"""Watch the fractional matcher freeze a small graph, exactly, then see what
its nodes pay awake on larger ones.

Edge values live on the ladder (1+eps)^j / Delta as exact fractions.  A node
freezes in the first round its load reaches 1-eps; its incident edges stop
growing right there.  The printout lists every edge with its final value and
the round it froze, then checks the value and load bounds against the best
integral matching.

A node's load cannot reach 1-eps before its wake rung, the first rung j with
deg * (1+eps)^j / Delta >= 1-eps, so it sleeps until then; a neighbour that
froze meanwhile wakes at that rung to tell it.  The table gives
``sampled_fractional``'s mean and max awake rounds and its ledger rounds on
G(n, 10/n) with eps = 1/20.
"""

from fractions import Fraction

from awakesim.fractional import sampled_fractional, vanilla_fractional
from awakesim.graphs import gen_gnp
from awakesim.oracles import exact_max_matching

EPS = Fraction(1, 10)
TABLE_EPS = Fraction(1, 20)
TABLE_SIZES = (2 ** 10, 2 ** 12, 2 ** 14)


def main():
    g = gen_gnp(12, 0.3, seed=71)
    asg = vanilla_fractional(g, EPS)

    print(f"G(12, 0.3), {g.m} edges, eps = {EPS}")
    print(f"{'edge':>8} {'value':>8} {'frozen at':>10}")
    # each view is a fresh dict, so read it once
    x, frozen_round = asg.x, asg.frozen_round
    for e in sorted(x):
        print(f"{str(e):>8} {str(x[e]):>8} {frozen_round[e]:>10}")

    total = asg.total()
    opt = len(exact_max_matching(g))
    print()
    print(f"sum of values  = {total} = {float(total):.4f}")
    print(f"best integral  = {opt}")
    print(f"(2+4eps)*sum   = {float((2 + 4 * EPS) * total):.4f} >= {opt}")

    loads = {}
    for (u, v), val in x.items():
        loads[u] = loads.get(u, Fraction(0)) + val
        loads[v] = loads.get(v, Fraction(0)) + val
    print(f"max node load  = {max(loads.values())} (never above 1)")

    print()
    print(f"sampled_fractional on G(n, 10/n), eps = {TABLE_EPS}, graph and "
          f"master seed 1")
    print(f"{'n':>6} {'mean awake':>11} {'max awake':>10} {'rounds':>7}")
    for n in TABLE_SIZES:
        _, ledger, _ = sampled_fractional(gen_gnp(n, 10 / n, seed=1), TABLE_EPS, 1)
        print(f"{n:>6} {ledger.node_averaged():>11.2f} {ledger.max_awake():>10} "
              f"{ledger.rounds:>7}")


if __name__ == "__main__":
    main()
