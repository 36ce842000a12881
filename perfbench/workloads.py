"""The benchmark's workloads: inputs made from a seed, jobs, checks, digest.

A workload is a list of cases (a graph plus algorithm seeds) and a list of
jobs run on every case.  A job is one call into awakesim's public API.  One
pass runs every job on every case; checks, optima and the digest are
computed outside the timed pass.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional

# Sizes per scale.  "full" is what the benchmark measures; "tiny" is the
# warm-up pass before timing, and lets the benchmark's own tests run every
# workload in a second or two.
SIZES = {
    "full": {
        "mis_sparse": {"n": 2 ** 11, "graphs": 24},
        "frac_bipartite": {"side": 256, "p": 20 / 256, "graphs": 12},
        "pipeline_small": {"gnp": 40, "gnp_n": 24, "gnp_p": 0.2,
                           "bip": 10, "bip_side": 40, "bip_p": 0.05},
    },
    "tiny": {
        "mis_sparse": {"n": 256, "graphs": 1},
        "frac_bipartite": {"side": 32, "p": 0.2, "graphs": 1},
        "pipeline_small": {"gnp": 2, "gnp_n": 10, "gnp_p": 0.3,
                           "bip": 1, "bip_side": 8, "bip_p": 0.3},
    },
}

FRAC_EPS = Fraction(1, 20)
PIPELINE_EPS = Fraction(1, 4)
# The general-graph loop stops after ceil(4/eps) = 16 iterations without
# improvement, so 16 is the fewest iterations it ever runs.  Fixing the count
# keeps the work per graph from varying two- to three-fold with the seed.
PIPELINE_ITERATIONS = 16
FORCED_STOP_ROUND = 6
FORCED_PHASE_P = Fraction(1, 2)


def derive_seed(workload: str, seed: int, label: str, index: int) -> int:
    """63-bit seed for one input, independent of awakesim's own generator."""
    digest = hashlib.sha256(f"{workload}/{seed}/{label}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Case:
    graph: Any
    seed: int
    seed2: int


@dataclass
class Failed:
    """Marks a job that raised, or whose input job failed."""

    reason: str


@dataclass
class Job:
    name: str
    call: Callable           # (aw, case, done) -> output
    check: Callable          # (aw, case, output, optimum) -> bool
    record: Callable         # output -> str, hashed into the digest
    ledger: Callable = lambda out: None
    needs: Optional[str] = None
    # ("match" | "frac" | "cover", output -> size), pooled against the optimum
    quality: Optional[tuple] = None


@dataclass
class Workload:
    name: str
    why: str
    build: Callable          # (aw, size, seed) -> list of Case
    jobs: List[Job]
    optimum: Optional[Callable] = None   # (aw, case) -> int


@dataclass
class PassResult:
    wall: float
    scaled: float = 0.0
    outputs: List[Dict[str, Any]] = field(default_factory=list)


# -- recording outputs for the digest -----------------------------------------


def _rec_set(s) -> str:
    return ",".join(map(str, sorted(s)))


def _rec_matching(m) -> str:
    return ";".join(f"{u}-{v}" for u, v in sorted(m.edge_set))


def _rec_ledger(led) -> str:
    parts = "|".join(f"{label}:{led.parts[label].astype('<i8').tobytes().hex()}"
                     for label in sorted(led.parts))
    return f"n={led.n} rounds={led.rounds} {parts}"


def _rec_diag(d) -> str:
    return f"heavy={d.heavy_events} light={d.light_events} spoiled={d.spoiled_value}"


def _load_ok(g, asg) -> bool:
    """Exact check that every node carries at most 1 and only edges of g are set."""
    if asg.n != g.n or any(e not in g.edge_set for e in asg.x):
        return False
    return all(c <= 1 for c in asg.node_values().values())


# -- mis_sparse ---------------------------------------------------------------


def _build_mis(aw, size, seed):
    n = size["n"]
    return [Case(aw.graphs.gen_gnp(n, 10 / n, derive_seed("mis_sparse", seed, "graph", i)),
                 derive_seed("mis_sparse", seed, "alg", i), 0)
            for i in range(size["graphs"])]


def _check_awake_mis(aw, case, out, opt):
    mis, ledger, metrics = out
    return (metrics.validity is True and ledger.n == case.graph.n
            and aw.oracles.verify_mis(case.graph, mis))


def _check_luby(aw, case, out, opt):
    mis, ledger = out
    return ledger.n == case.graph.n and aw.oracles.verify_mis(case.graph, mis)


MIS_SPARSE = Workload(
    name="mis_sparse",
    why="engine runs on 24 graphs G(2^11, 10/n) with thousands of nodes awake "
        "and broadcasting each round; delivery and MIS hooks dominate",
    build=_build_mis,
    jobs=[
        Job("awake_mis", lambda aw, c, d: aw.mis.awake_mis(c.graph, c.seed),
            _check_awake_mis,
            lambda o: f"{_rec_set(o[0])} {_rec_ledger(o[1])}",
            ledger=lambda o: o[1]),
        Job("luby_mis", lambda aw, c, d: aw.mis.luby_mis(c.graph, c.seed),
            _check_luby,
            lambda o: f"{_rec_set(o[0])} {_rec_ledger(o[1])}",
            ledger=lambda o: o[1]),
    ],
)


# -- frac_bipartite -------------------------------------------------------------


def _build_frac(aw, size, seed):
    side = size["side"]
    return [Case(aw.graphs.gen_bipartite(side, side, size["p"],
                                         derive_seed("frac_bipartite", seed, "graph", i)),
                 derive_seed("frac_bipartite", seed, "alg", i),
                 derive_seed("frac_bipartite", seed, "round", i))
            for i in range(size["graphs"])]


def _bipartite_optimum(aw, case):
    g = case.graph
    return len(aw.oracles.max_bipartite_matching(g, list(g.sides)))


def _check_sampled(aw, case, out, opt):
    asg, ledger, _ = out
    return ledger.n == case.graph.n and _load_ok(case.graph, asg)


def _rec_sampled(o) -> str:
    return f"{o[0].dump()} {_rec_ledger(o[1])} {_rec_diag(o[2])}"


FRAC_BIPARTITE = Workload(
    name="frac_bipartite",
    why="exact Fraction arithmetic of fractional matching on twelve 256+256 "
        "bipartite graphs, with one forced run per graph where nodes sleep",
    build=_build_frac,
    optimum=_bipartite_optimum,
    jobs=[
        Job("vanilla", lambda aw, c, d: aw.fractional.vanilla_fractional(c.graph, FRAC_EPS),
            lambda aw, c, o, opt: _load_ok(c.graph, o),
            lambda o: o.dump()),
        Job("sampled", lambda aw, c, d: aw.fractional.sampled_fractional(
                c.graph, FRAC_EPS, c.seed),
            _check_sampled, _rec_sampled, ledger=lambda o: o[1],
            quality=("frac", lambda o: o[0].total())),
        Job("sampled_forced", lambda aw, c, d: aw.fractional.sampled_fractional(
                c.graph, FRAC_EPS, c.seed, force_stop_round=FORCED_STOP_ROUND,
                force_phase_probabilities=FORCED_PHASE_P),
            _check_sampled, _rec_sampled, ledger=lambda o: o[1]),
        Job("round", lambda aw, c, d: aw.fractional.round_matching(d["sampled"][0], c.seed2),
            lambda aw, c, o, opt: aw.oracles.verify_matching(c.graph, o),
            _rec_matching, needs="sampled", quality=("match", len)),
        Job("cover", lambda aw, c, d: aw.fractional.extract_vertex_cover(d["sampled"][0]),
            lambda aw, c, o, opt: aw.oracles.verify_vertex_cover(c.graph, o),
            _rec_set, needs="sampled", quality=("cover", len)),
    ],
)


# -- pipeline_small -------------------------------------------------------------


def _build_pipeline(aw, size, seed):
    cases = []
    for i in range(size["gnp"]):
        g = aw.graphs.gen_gnp(size["gnp_n"], size["gnp_p"],
                              derive_seed("pipeline_small", seed, "gnp", i))
        cases.append(Case(g, derive_seed("pipeline_small", seed, "gnp-alg", i), 0))
    for i in range(size["bip"]):
        side = size["bip_side"]
        g = aw.graphs.gen_bipartite(side, side, size["bip_p"],
                                    derive_seed("pipeline_small", seed, "bip", i))
        cases.append(Case(g, derive_seed("pipeline_small", seed, "bip-alg", i), 0))
    return cases


def _pipeline_optimum(aw, case):
    g = case.graph
    if g.sides is not None:
        return len(aw.oracles.max_bipartite_matching(g, list(g.sides)))
    return len(aw.oracles.exact_max_matching(g))


def _check_pipeline(aw, case, out, opt):
    m, ledger = out
    return (ledger.n == max(1, case.graph.n) and len(m) <= opt
            and aw.oracles.verify_matching(case.graph, m))


PIPELINE_SMALL = Workload(
    name="pipeline_small",
    why="thousands of tiny engine runs inside full_matching_pipeline on "
        "G(24, 0.2) and 40+40 bipartite hosts; fixed per-call cost dominates",
    build=_build_pipeline,
    optimum=_pipeline_optimum,
    jobs=[
        Job("pipeline", lambda aw, c, d: aw.augmentation.full_matching_pipeline(
                c.graph, PIPELINE_EPS, c.seed, improve_iterations=PIPELINE_ITERATIONS),
            _check_pipeline,
            lambda o: f"{_rec_matching(o[0])} {_rec_ledger(o[1])}",
            ledger=lambda o: o[1], quality=("match", lambda o: len(o[0]))),
    ],
)


WORKLOADS = {w.name: w for w in (MIS_SPARSE, FRAC_BIPARTITE, PIPELINE_SMALL)}


# -- running and grading passes ---------------------------------------------------


def job_failures(aw):
    """Exceptions that mark a job as failed instead of ending the run."""
    e = aw.errors
    return (AssertionError, e.RoundCapExceeded, e.InvalidAssignment,
            e.InvalidPath, e.PreconditionViolated)


# Host time of consecutive calls is rescaled in spans of at least this many
# seconds, so the reference loops between spans cost a few percent of a pass.
SCALE_SPAN_S = 0.25


def run_pass(aw, workload: Workload, cases, scaled=None) -> PassResult:
    """Run every job on every case once; only the calls are inside the clock.

    ``wall`` is the host time of the calls.  With a ``refclock.ScaledClock``,
    ``scaled`` is the same time rescaled to the reference speed; the
    reference loops run between calls, outside ``wall``.
    """
    failures = job_failures(aw)
    clock = time.perf_counter
    res = PassResult(0.0)
    span = 0.0
    if scaled is not None:
        scaled.start()
    for case in cases:
        done: Dict[str, Any] = {}
        for job in workload.jobs:
            if job.needs is not None and isinstance(done[job.needs], Failed):
                done[job.name] = Failed(f"input job {job.needs} failed")
                continue
            t0 = clock()
            try:
                done[job.name] = job.call(aw, case, done)
            except failures as exc:
                done[job.name] = Failed(f"{type(exc).__name__}: {exc}")
            span += clock() - t0
            if scaled is not None and span >= SCALE_SPAN_S:
                res.wall += span
                res.scaled += scaled.scale(span)
                span = 0.0
        res.outputs.append(done)
    res.wall += span
    if scaled is not None and span > 0:
        res.scaled += scaled.scale(span)
    return res


@dataclass
class Grade:
    attempted: int
    failed: int
    digest: str
    sim: Dict[str, float]


def grade(aw, workload: Workload, cases, optima, result: PassResult) -> Grade:
    """Check every output of a pass, hash it, and pool the simulated costs."""
    h = hashlib.sha256()
    attempted = failed = 0
    awake = nodes = max_awake = rounds_max = 0
    quality = {"match": [0, 0], "frac": [Fraction(0), 0], "cover": [0, 0]}
    for ci, (case, opt, done) in enumerate(zip(cases, optima, result.outputs)):
        for job in workload.jobs:
            out = done[job.name]
            attempted += 1
            h.update(f"\n{ci}:{job.name}:".encode())
            if isinstance(out, Failed):
                failed += 1
                h.update(b"failed")
                print(f"job {ci}:{job.name} failed: {out.reason}", file=sys.stderr)
                continue
            try:
                ok = bool(job.check(aw, case, out, opt))
                record = job.record(out)
            except Exception:  # a malformed output fails its job, not the run
                traceback.print_exc()
                ok, record = False, "unreadable"
            h.update(record.encode())
            if not ok:
                failed += 1
                print(f"job {ci}:{job.name} output failed its check", file=sys.stderr)
                continue
            led = job.ledger(out)
            if led is not None:
                awake += led.total_awake()
                nodes += led.n
                max_awake = max(max_awake, led.max_awake())
                rounds_max = max(rounds_max, led.rounds)
            if job.quality is not None:
                kind, size = job.quality
                quality[kind][0] += size(out)
                quality[kind][1] += opt
    sim = {
        "failed_frac": failed / attempted if attempted else 0.0,
        "avg_awake": awake / nodes if nodes else 0.0,
        "max_awake": max_awake,
        "rounds_max": rounds_max,
    }
    for kind, (got, best) in quality.items():
        if best:
            sim[f"{kind}_ratio"] = float(Fraction(got) / best)
    return Grade(attempted, failed, h.hexdigest(), sim)
