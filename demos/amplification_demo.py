"""Amplifying a constant-factor matcher into a (1+eps) one.

Part one: the bipartite level loop.  After level i the working graph has no
augmenting path of length 2i+1 or shorter; the hook prints what each level
did.  Part two: the general-graph wrapper with the sleeping matcher inside,
which also reports how long its nodes stayed awake.  Part three: the
pipeline's matching size, mean and max awake rounds and ledger rounds on
G(n, 4/n) with eps = 1/4, graph and master seed 1 and
``improve_iterations=16``, the README's pipeline table.
"""

from fractions import Fraction

from awakesim.augmentation import (MatchBox, bipartite_one_plus_eps,
                                   full_matching_pipeline)
from awakesim.graphs import gen_bipartite, gen_gnp
from awakesim.oracles import (exact_max_matching, find_short_augmenting_path,
                              max_bipartite_matching, verify_matching)


def bipartite_part():
    h = gen_bipartite(18, 18, 0.15, seed=33)
    opt = len(max_bipartite_matching(h))
    eps = 0.2
    print(f"bipartite host: 36 nodes, {h.m} edges, optimum {opt}, eps {eps}")

    def report(i, h_cur, m):
        short = find_short_augmenting_path(h_cur, m, 2 * i + 1)
        print(f"  level {i}: matching {len(m)}, "
              f"short path left: {short is not None}")

    m = bipartite_one_plus_eps(h, MatchBox("exact"), eps, on_level=report)
    print(f"final size {len(m)} >= {opt}/(1+7*{eps}) = {opt / 2.4:.2f}")
    print()


def pipeline_part():
    g = gen_gnp(22, 0.2, seed=91)
    opt = len(exact_max_matching(g))
    m, ledger = full_matching_pipeline(g, Fraction(1, 4), seed=7)
    assert verify_matching(g, m)
    print(f"general host: 22 nodes, {g.m} edges, optimum {opt}")
    print(f"pipeline matching {len(m)}, target {opt}/(1+1/4) = {opt / 1.25:.1f}")
    print(f"awake rounds per node (mean): {ledger.node_averaged():.2f} "
          f"over {ledger.rounds} simulated rounds")


TABLE_SIZES = (2 ** 7, 2 ** 9)


def pipeline_table():
    print()
    print("full_matching_pipeline on G(n, 4/n), eps = 1/4, graph and master "
          "seed 1, improve_iterations=16")
    print(f"{'n':>5} {'matching':>9} {'mean awake':>11} {'max awake':>10} "
          f"{'rounds':>7}")
    for n in TABLE_SIZES:
        m, ledger = full_matching_pipeline(gen_gnp(n, 4 / n, seed=1),
                                           Fraction(1, 4), 1,
                                           improve_iterations=16)
        print(f"{n:>5} {len(m):>9} {ledger.node_averaged():>11.1f} "
              f"{ledger.max_awake():>10} {ledger.rounds:>7}")


def main():
    bipartite_part()
    pipeline_part()
    pipeline_table()


if __name__ == "__main__":
    main()
