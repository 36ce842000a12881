"""Maximal independent set on sparse random graphs: how long do nodes stay up?

Runs the three-stage MIS and plain one-key-per-round MIS on G(n, 10/n) at a
few sizes and prints rounds, node-averaged awake rounds, and the residual
sizes left behind by the first two stages.
"""

import statistics

from awakesim.graphs import gen_gnp
from awakesim.mis import awake_mis, luby_mis
from awakesim.oracles import verify_mis
from awakesim.rng import node_rng

MASTER = 2026
SIZES = (1 << 10, 1 << 12, 1 << 14)
SEEDS = 5


def one_size(n):
    rows = []
    for s in range(SEEDS):
        g = gen_gnp(n, 10.0 / n, seed=node_rng(MASTER, n, "gnp", s))
        mis, led, met = awake_mis(g, seed=node_rng(MASTER, n, "trial", s))
        assert verify_mis(g, mis)
        _lset, lled = luby_mis(g, seed=node_rng(MASTER, n, "trial", s))
        rows.append((met.avg_awake, met.rounds, lled.node_averaged(),
                     met.diagnostics["residual1_n"],
                     met.diagnostics["residual2_n"]))
    return [statistics.fmean(col) for col in zip(*rows)]


def main():
    print(f"{SEEDS} seeds per size, G(n, 10/n)")
    print(f"{'n':>7} {'awake avg':>10} {'rounds':>7} {'baseline':>9} "
          f"{'after stage 1':>14} {'after stage 2':>14}")
    for n in SIZES:
        avg, rounds, lavg, r1, r2 = one_size(n)
        print(f"{n:>7} {avg:>10.2f} {rounds:>7.0f} {lavg:>9.2f} "
              f"{r1:>14.0f} {r2:>14.1f}")
    print()
    print("the baseline column is the one-key-per-round MIS, which finishes")
    print("these sparse graphs in a couple of rounds, so its awake average")
    print("barely moves; the staged algorithm pays for the degree-reduction")
    print("iterations, whose length tracks the residual's max degree")


if __name__ == "__main__":
    main()
