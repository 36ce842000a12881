"""Watch the fractional matcher freeze a small graph, exactly.

Edge values live on the ladder (1+eps)^j / Delta as exact fractions.  A node
freezes in the first round its load reaches 1-eps; its incident edges stop
growing right there.  The printout lists every edge with its final value and
the round it froze, then checks the value and load bounds against the best
integral matching.
"""

from fractions import Fraction

from awakesim.fractional import vanilla_fractional
from awakesim.graphs import gen_gnp
from awakesim.oracles import exact_max_matching

EPS = Fraction(1, 10)


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


if __name__ == "__main__":
    main()
