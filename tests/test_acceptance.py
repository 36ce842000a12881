"""Acceptance gate: one test per stated criterion, at the stated tolerances.

Each test records a PASS/FAIL line for the terminal summary before
asserting.  Criteria 2 and 3 are known to fail at these sizes.  Criterion
3's step comes from the stage-2 schedule: an iteration has ``ceil(log2 d)``
phases for the degree bound d, so its length jumps whenever d crosses a
power of two, and the round maximum moves in steps rather than on a clean
line.  Criterion 2's slope comes from the stage-1 residual, which grows
with n as the participation 1/ceil(log2 n) falls, and its contrast clause
asks more growth of the Luby baseline than it has.  The tests report the
measured numbers rather than hiding them.
"""

import statistics
import time
from fractions import Fraction

from conftest import (SWEEP_MASTER, SWEEP_SIZES, record_criterion,
                      ref_vanilla_assignment)

from awakesim.augmentation import (MatchBox, bipartite_one_plus_eps,
                                   delta_maximal, full_matching_pipeline,
                                   general_one_plus_eps)
from awakesim.bench import ExperimentConfig, fit_log_scaling, rows_to_csv, run_experiment
from awakesim.fractional import (FractionalAssignment, extract_vertex_cover,
                                 round_matching, sampled_fractional,
                                 vanilla_fractional)
from awakesim.graphs import (complete_graph, cycle_graph, gen_bipartite,
                             gen_gnp, path_graph, petersen_graph, star_graph)
from awakesim.mis import awake_mis, greedy_partial_mis, luby_mis, part2_reduce
from awakesim.oracles import (exact_max_matching, exact_min_vertex_cover,
                              find_short_augmenting_path,
                              max_bipartite_matching, verify_mis,
                              verify_vertex_cover)
from awakesim.rng import node_rng

ACCEPT = 4242

# 500 runs with the mass on small sizes so the large tail stays affordable
SIZE_SCHEDULE = ((10, 120), (24, 100), (64, 80), (128, 60), (256, 50),
                 (512, 40), (1024, 20), (2048, 14), (4096, 8), (8192, 5),
                 (16384, 3))


def _gnp_p(n: int, k: int) -> float:
    if n <= 256:
        return (min(1.0, 10.0 / n), 0.1, 0.3)[k % 3]
    return (10.0 / n, 20.0 / n, 5.0 / n)[k % 3]


def _node_load(g, asg):
    load = [Fraction(0)] * g.n
    for (u, v), val in asg.x.items():
        load[u] += val
        load[v] += val
    return load


def _optimum(g) -> int:
    if g.sides is not None:
        return len(max_bipartite_matching(g))
    return len(exact_max_matching(g))


def test_criterion_01_mis_validity_at_scale():
    t0 = time.monotonic()
    runs = bad = 0
    for n, reps in SIZE_SCHEDULE:
        for k in range(reps):
            g = gen_gnp(n, _gnp_p(n, k), seed=node_rng(ACCEPT, n, "gnp", k))
            s, _led, _met = awake_mis(g, seed=node_rng(ACCEPT, n, "trial", k))
            runs += 1
            if not verify_mis(g, s):
                bad += 1
    elapsed = time.monotonic() - t0
    passed = runs == 500 and bad == 0 and elapsed < 300.0
    detail = f"{runs} runs across n=10..16384, {bad} invalid, {elapsed:.0f}s"
    record_criterion(1, "independent dominating sets at every size", passed, detail)
    assert passed, detail


def test_criterion_02_awake_constancy(mis_sweep):
    means = {n: statistics.fmean(r["avg_awake"] for r in mis_sweep[n])
             for n in SWEEP_SIZES}
    lmeans = {n: statistics.fmean(r["luby_avg"] for r in mis_sweep[n])
              for n in SWEEP_SIZES}
    lo, hi = SWEEP_SIZES[0], SWEEP_SIZES[-1]
    ratio = means[hi] / means[lo]
    slope, _b, _r2 = fit_log_scaling(SWEEP_SIZES, [means[n] for n in SWEEP_SIZES])
    lgrowth = lmeans[hi] / lmeans[lo]
    passed = ratio <= 1.5 and abs(slope) <= 0.05 and lgrowth >= 2.0
    table = ", ".join(f"2^{n.bit_length() - 1}: {means[n]:.2f}"
                      for n in SWEEP_SIZES)
    detail = (f"avg awake {table}; ratio {ratio:.2f} (need <= 1.5), "
              f"slope {slope:.2f} per log2 n (need within 0.05), "
              f"contrast growth {lgrowth:.2f}x (need >= 2)")
    record_criterion(2, "size-independent average awake cost", passed, detail)
    assert passed, detail


def test_criterion_03_round_growth(mis_sweep):
    maxima = [max(r["rounds"] for r in mis_sweep[n]) for n in SWEEP_SIZES]
    a, b, r2 = fit_log_scaling(SWEEP_SIZES, [float(v) for v in maxima])
    passed = a <= 30.0 and r2 >= 0.9
    table = ", ".join(f"2^{n.bit_length() - 1}: {v}"
                      for n, v in zip(SWEEP_SIZES, maxima))
    detail = (f"max rounds {table}; fit a={a:.1f} (need <= 30), "
              f"R^2={r2:.2f} (need >= 0.9)")
    record_criterion(3, "logarithmic worst-case round count", passed, detail)
    assert passed, detail


def _oracle_instances():
    out = []
    for k in range(50):
        n = 8 + (5 * k) % 17
        p = (0.12, 0.22, 0.32)[k % 3]
        g = gen_gnp(n, p, seed=node_rng(ACCEPT, n, "gnp", 100 + k))
        out.append(g)
    for k in range(50):
        nl = 10 + (7 * k) % 31
        nr = 10 + (11 * k) % 31
        p = (0.08, 0.15, 0.25)[k % 3]
        out.append(gen_bipartite(nl, nr, p,
                                 seed=node_rng(ACCEPT, nl + nr, "gbip", k)))
    return out


def test_criterion_04_vanilla_load_and_value():
    eps = Fraction(1, 10)
    factor = 2 + 4 * eps
    overloads = shortfalls = 0
    for g in _oracle_instances():
        asg = vanilla_fractional(g, eps)
        if any(c > 1 for c in _node_load(g, asg)):
            overloads += 1
        if factor * asg.total() < _optimum(g):
            shortfalls += 1
    passed = overloads == 0 and shortfalls == 0
    detail = (f"100 instances: {overloads} node-load violations, "
              f"{shortfalls} runs with (2+4eps)*value < optimum")
    record_criterion(4, "exact load and value bounds for the full-rate matcher",
                     passed, detail)
    assert passed, detail


def test_criterion_05_forced_full_rate_matches_vanilla():
    """The sampled matcher at sampling rate 1 and the full-rate matcher both
    equal the Fraction-arithmetic reference, node freezes included.

    ``vanilla_fractional`` is the sampled matcher's run with stop round 0,
    so the reference, not vanilla, is what makes this check independent.
    ``force_phase_probabilities=1`` changes nothing here: the analytic stop
    round is 0 on every instance, and sample sets are only drawn before a
    stop round above 0.
    """
    eps = Fraction(1, 10)
    mismatches = 0
    for k in range(50):
        n = 8 + (3 * k) % 53
        p = (0.1, 0.2, 0.35)[k % 3]
        g = gen_gnp(n, p, seed=node_rng(ACCEPT, n, "gnp", 200 + k))
        ref = ref_vanilla_assignment(g, eps)
        asg, _led, _diag = sampled_fractional(
            g, eps, seed=node_rng(ACCEPT, n, "trial", 200 + k),
            force_phase_probabilities=1)
        # == compares x, frozen_round and node_freeze, None entries included
        if any(got != ref or got.dump() != ref.dump()
               for got in (asg, vanilla_fractional(g, eps))):
            mismatches += 1
    passed = mismatches == 0
    detail = (f"50 instances, {mismatches} where the rate-1 or the full-rate "
              f"run differs from the Fraction reference")
    record_criterion(5, "sampling at rate 1 reproduces the full-rate matcher",
                     passed, detail)
    assert passed, detail


def test_criterion_06_sampled_seed_mean_value():
    eps = Fraction(1, 20)
    factor = 2 + 100 * eps
    cases = [gen_gnp(18, 0.2, seed=node_rng(ACCEPT, 18, "gnp", 300)),
             gen_gnp(24, 0.15, seed=node_rng(ACCEPT, 24, "gnp", 301)),
             gen_bipartite(20, 25, 0.15, seed=node_rng(ACCEPT, 45, "gbip", 300)),
             gen_bipartite(30, 30, 0.1, seed=node_rng(ACCEPT, 60, "gbip", 301))]
    worst = None
    ok = True
    for gi, g in enumerate(cases):
        opt = _optimum(g)
        if opt == 0:
            continue
        totals = [sampled_fractional(g, eps,
                                     seed=node_rng(ACCEPT, gi, "trial", 300 + s))[0].total()
                  for s in range(100)]
        mean_total = sum(totals, Fraction(0)) / len(totals)
        score = float(factor * mean_total) / opt
        worst = score if worst is None else min(worst, score)
        ok &= float(factor * mean_total) >= opt * 0.98
    passed = ok
    detail = f"4 graphs x 100 seeds, worst (2+100eps)*mean/optimum = {worst:.2f} (need >= 0.98)"
    record_criterion(6, "seed-mean value bound for the sampling matcher", passed, detail)
    assert passed, detail


def test_criterion_07_sampled_awake_nongrowth():
    eps = Fraction(1, 20)
    sizes = (2 ** 12, 2 ** 14, 2 ** 16)
    means = {}
    for n in sizes:
        vals = []
        for s in range(3):
            g = gen_gnp(n, 10.0 / n,
                        seed=node_rng(SWEEP_MASTER, n, "sweepg", 50 + s))
            _asg, led, _diag = sampled_fractional(
                g, eps, seed=node_rng(SWEEP_MASTER, n, "sweepa", 50 + s))
            vals.append(led.node_averaged())
        means[n] = statistics.fmean(vals)
    ratio = means[sizes[-1]] / means[sizes[0]]
    passed = ratio <= 1.5
    table = ", ".join(f"2^{n.bit_length() - 1}: {means[n]:.2f}" for n in sizes)
    detail = f"avg awake {table}; growth {ratio:.2f}x (need <= 1.5)"
    record_criterion(7, "sampling matcher awake cost does not grow", passed, detail)
    assert passed, detail


def test_criterion_08_rounding_yield():
    g = gen_gnp(24, 0.2, seed=node_rng(ACCEPT, 24, "gnp", 400))
    asg = vanilla_fractional(g, Fraction(1, 10))
    total = float(asg.total())
    sizes = [len(round_matching(asg, seed=node_rng(ACCEPT, 0, "trial", 400 + s)))
             for s in range(10 ** 4)]
    mean_size = statistics.fmean(sizes)

    single = FractionalAssignment(2, {(0, 1): Fraction(1)}, {(0, 1): 0},
                                  {0: 0, 1: 0})
    hits = sum(1 for s in range(10 ** 4)
               if len(round_matching(single, seed=node_rng(ACCEPT, 1, "trial", s))))
    freq = hits / 10 ** 4
    passed = mean_size >= total / 50 and abs(freq - 0.19) <= 0.01
    detail = (f"mean size {mean_size:.2f} vs value/50 = {total / 50:.2f}; "
              f"single-edge keep rate {freq:.4f} (need 0.19 +- 0.01)")
    record_criterion(8, "randomized rounding yield", passed, detail)
    assert passed, detail


def test_criterion_09_vertex_cover():
    eps = Fraction(1, 20)
    factor = 2 + 100 * eps
    invalid = oversize = 0
    for k in range(12):
        n = 10 + (3 * k) % 15
        p = (0.15, 0.25, 0.35)[k % 3]
        g = gen_gnp(n, p, seed=node_rng(ACCEPT, n, "gnp", 500 + k))
        opt = len(exact_min_vertex_cover(g))
        sizes = []
        for s in range(10):
            asg, _led, _diag = sampled_fractional(
                g, eps, seed=node_rng(ACCEPT, k, "trial", 500 + s))
            cover = extract_vertex_cover(asg)
            if not verify_vertex_cover(g, cover):
                invalid += 1
            sizes.append(len(cover))
        if opt and statistics.fmean(sizes) > float(factor) * opt * 1.02:
            oversize += 1
    passed = invalid == 0 and oversize == 0
    detail = (f"12 graphs x 10 seeds: {invalid} invalid covers, "
              f"{oversize} graphs beyond (2+100eps)*optimum")
    record_criterion(9, "frozen nodes form small valid covers", passed, detail)
    assert passed, detail


def test_criterion_10_no_short_paths_after_levels():
    eps = 0.2
    failures = checks = 0
    for k in range(100):
        nl = 8 + (5 * k) % 25
        nr = 8 + (7 * k) % 25
        p = (0.1, 0.2, 0.3)[k % 3]
        h = gen_bipartite(nl, nr, p,
                          seed=node_rng(ACCEPT, nl + nr, "gbip", 600 + k))
        bad = []

        def check(i, h_cur, m, _bad=bad):
            if find_short_augmenting_path(h_cur, m, 2 * i + 1) is not None:
                _bad.append(i)

        bipartite_one_plus_eps(h, MatchBox("exact"), eps, on_level=check)
        checks += 1
        failures += len(bad)
    passed = failures == 0 and checks == 100
    detail = f"100 instances, {failures} short augmenting paths found after a level"
    record_criterion(10, "level loop removes short augmenting paths", passed, detail)
    assert passed, detail


def test_criterion_11_bipartite_amplification_bound():
    eps = 0.2
    bad = 0
    for k in range(100):
        nl = 8 + (5 * k) % 33
        nr = 8 + (3 * k) % 33
        p = (0.1, 0.18, 0.3)[k % 3]
        h = gen_bipartite(nl, nr, p,
                          seed=node_rng(ACCEPT, nl + nr, "gbip", 700 + k))
        m = bipartite_one_plus_eps(h, MatchBox("exact"), eps)
        # |M| >= opt/(1+7eps) with eps=1/5, i.e. 12|M| >= 5*opt exactly
        if 12 * len(m) < 5 * _optimum(h):
            bad += 1
    passed = bad == 0
    detail = f"100 runs, {bad} below optimum/(1+7eps)"
    record_criterion(11, "bipartite amplification approximation", passed, detail)
    assert passed, detail


def test_criterion_12_general_amplification_mean():
    eps = 0.25
    graphs = []
    k = 0
    while len(graphs) < 44:
        n = 8 + (3 * k) % 7
        p = (0.2, 0.3, 0.45)[k % 3]
        g = gen_gnp(n, p, seed=node_rng(ACCEPT, n, "gnp", 800 + k))
        k += 1
        if g.m:
            graphs.append(g)
    graphs += [cycle_graph(9), cycle_graph(12), path_graph(10),
               complete_graph(8), petersen_graph(), star_graph(9)]
    assert len(graphs) == 50
    bad = 0
    worst = None
    for gi, g in enumerate(graphs):
        opt = len(exact_max_matching(g))
        if opt == 0:
            continue
        sizes = [len(general_one_plus_eps(g, MatchBox("greedy"), eps,
                                          seed=node_rng(ACCEPT, gi, "trial", 800 + s)))
                 for s in range(20)]
        score = statistics.fmean(sizes) * (1 + eps) / opt
        worst = score if worst is None else min(worst, score)
        if statistics.fmean(sizes) < opt / (1 + eps) * 0.98:
            bad += 1
    passed = bad == 0
    detail = (f"50 graphs x 20 seeds, {bad} below optimum/(1+eps); "
              f"worst mean*(1+eps)/optimum = {worst:.2f} (need >= 0.98)")
    record_criterion(12, "general-graph amplification seed-mean", passed, detail)
    assert passed, detail


def test_criterion_13_determinism():
    g = gen_gnp(48, 0.12, seed=node_rng(ACCEPT, 48, "gnp", 900))
    bip = gen_bipartite(14, 14, 0.25, seed=node_rng(ACCEPT, 28, "gbip", 900))
    eps = Fraction(1, 10)
    diffs = []

    def twice(name, fn):
        if fn() != fn():
            diffs.append(name)

    def met_key(met):
        return (met.rounds, met.total_awake, met.avg_awake, met.max_awake,
                met.per_part, met.validity, met.solution_size, met.diagnostics)

    twice("luby", lambda: luby_mis(g, seed=5))
    twice("greedy_partial", lambda: greedy_partial_mis(g, seed=5, p=Fraction(1, 4)))
    twice("degree_reduction", lambda: part2_reduce(g, seed=5))
    twice("awake_mis", lambda: (lambda s, led, met: (s, led, met_key(met)))(
        *awake_mis(g, seed=5)))
    twice("vanilla", lambda: (lambda a: (a.x, a.frozen_round, a.node_freeze))(
        vanilla_fractional(g, eps)))
    twice("sampled_forced", lambda: (lambda a, led, d: (a.dump(), led, d))(
        *sampled_fractional(g, eps, seed=7, force_stop_round=4,
                            force_phase_probabilities=Fraction(1, 2))))
    asg = vanilla_fractional(g, eps)
    twice("rounding", lambda: round_matching(asg, seed=11))
    twice("cover", lambda: extract_vertex_cover(asg))

    def sleeping_delta():
        box = MatchBox("sleeping", master_seed=3, host_n=g.n)
        m = delta_maximal(g, box, Fraction(1, 4), iterations=4,
                          orig_ids=range(g.n))
        return m, box.ledger

    twice("delta_maximal", sleeping_delta)

    def sleeping_bipartite():
        box = MatchBox("sleeping", master_seed=9, host_n=bip.n)
        return bipartite_one_plus_eps(bip, box, 0.25,
                                      delta_iterations=6), box.ledger

    twice("bipartite_amplify", sleeping_bipartite)
    twice("general_amplify",
          lambda: general_one_plus_eps(g, MatchBox("greedy"), 0.25, seed=13,
                                       improve_iterations=5))
    twice("pipeline", lambda: full_matching_pipeline(bip, Fraction(1, 4), seed=17,
                                                     improve_iterations=4))

    cfg = ExperimentConfig(algorithm="luby", n=40, p=0.15, trials=2, master_seed=9)
    twice("experiment", lambda: rows_to_csv(run_experiment(cfg)[0]))

    passed = not diffs
    detail = ("all repeated runs identical" if passed
              else "mismatches: " + ", ".join(diffs))
    record_criterion(13, "fixed seeds reproduce outputs and ledgers", passed, detail)
    assert passed, detail
