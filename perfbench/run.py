"""Run one workload of the awakesim benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload mis_sparse --seed 1 --seconds 20 --trace 0

The workload's inputs are made from ``--seed``.  After set-up and a warm-up
pass on tiny inputs, passes repeat until ``--seconds`` of timed passes have
run.  Times are rescaled to a reference speed (see ``refclock.py``).  Every
output of every pass is checked and hashed; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` traced and untraced passes alternate and the metrics are the
per-layer ones, and the spans are written once, at the end, under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up runs this many times in fresh interpreters, besides the one in the
# measuring process; setup_s is the median of all of them.
SETUP_PROBES = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "avg_awake": "rounds"}
# Whole-workload results that are not bounded end-to-end metrics: they are
# zero, or apply to only some workloads, or are the maximum over a few jobs
# and so move with the seed.  Printed on every run, reported when traced.
SIM_EXTRA = {"failed_frac": "ratio", "max_awake": "rounds",
             "rounds_max": "rounds", "match_ratio": "ratio",
             "frac_ratio": "ratio", "cover_ratio": "ratio"}


def import_awakesim():
    """Import awakesim from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, SRC)
    import awakesim

    if not os.path.abspath(awakesim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"awakesim was imported from {awakesim.__file__}, "
                          f"not from {SRC}")
    return awakesim


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in SIM_EXTRA:
        return SIM_EXTRA[name]
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("stop_round"):
        return "round"
    return "count"


def setup_probe(workload, seed, scale) -> float:
    """Time set-up in a fresh interpreter, as a user pays it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload.name, "--seed", str(seed), "--scale", scale]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                         check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def parse_args(argv):
    from workloads import SIZES, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SIZES), default="full",
                    help="input sizes; 'tiny' is for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    from refclock import ScaledClock, ref_time, rescale
    from workloads import SIZES, WORKLOADS, grade, run_pass

    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    size = SIZES[args.scale][workload.name]

    ref0 = ref_time()
    t0 = time.perf_counter()
    aw = import_awakesim()
    if args.setup_probe:
        workload.build(aw, size, args.seed)
        host_s = time.perf_counter() - t0
        print(json.dumps({"setup_s": rescale(host_s, ref0, ref_time())}))
        return 0

    from tracer import Tracer

    tracer = Tracer(aw) if args.trace else None
    if tracer:
        tracer.install()
        tracer.begin("setup")
    cases = workload.build(aw, size, args.seed)
    setup_s = [rescale(time.perf_counter() - t0, ref0, ref_time())]
    layer_setup = {}
    if tracer:
        tracer.end()
        layer_setup = tracer.setup_metrics()
        tracer.uninstall()
    else:
        setup_s += [setup_probe(workload, args.seed, args.scale)
                    for _ in range(SETUP_PROBES)]

    t = time.perf_counter()
    optima = [workload.optimum(aw, c) if workload.optimum else None for c in cases]
    exact_s = time.perf_counter() - t

    # The first full pass is no slower than later ones; a pass on tiny
    # inputs is enough to run every code path once before timing.
    run_pass(aw, workload, workload.build(aw, SIZES["tiny"][workload.name], args.seed))
    grades = []
    walls, scaled_walls, traced_walls, layer_passes = [], [], [], []
    scaled = ScaledClock()
    elapsed = 0.0
    while elapsed < args.seconds or not walls or (tracer and not traced_walls):
        traced = tracer is not None and len(traced_walls) <= len(walls)
        if traced:
            tracer.install()
            tracer.begin("pass")
        res = run_pass(aw, workload, cases, None if traced else scaled)
        if traced:
            wall = tracer.end()
            tracer.uninstall()
            traced_walls.append(wall)
            layer_passes.append(tracer.pass_metrics(wall))
        else:
            walls.append(res.wall)
            scaled_walls.append(res.scaled)
        elapsed += res.wall
        grades.append(grade(aw, workload, cases, optima, res))
        del res

    digests = {g.digest for g in grades}
    attempted = sum(g.attempted for g in grades)
    failed = sum(g.failed for g in grades)
    sim = grades[0].sim
    correct = failed == 0 and len(digests) == 1 and all(g.sim == sim for g in grades)

    e2e = {
        "wall_s": statistics.median(scaled_walls),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "avg_awake": sim["avg_awake"],
    }
    print(f"workload {workload.name} seed {args.seed} scale {args.scale} "
          f"trace {args.trace}: {len(walls)} untraced and {len(traced_walls)} "
          f"traced timed passes, {len(setup_s)} set-ups")
    print("pass_s host untraced %s traced %s" % (
        " ".join(f"{w:.4f}" for w in walls), " ".join(f"{w:.4f}" for w in traced_walls)))
    print("pass_s scaled untraced %s" % " ".join(f"{w:.4f}" for w in scaled_walls))
    for name, value in list(e2e.items()) + [(k, v) for k, v in sim.items()
                                            if k != "avg_awake"]:
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    print(f"digest {workload.name} sha256 {grades[0].digest}"
          f"{'' if len(digests) == 1 else ' (passes differ)'}")

    if tracer:
        metrics = {k: statistics.median(p[k] for p in layer_passes)
                   for k in layer_passes[0]}
        metrics.update(layer_setup)
        metrics["oracles.exact_s"] = exact_s
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
        for name in SIM_EXTRA:
            metrics[name] = sim.get(name, 0.0)
        for name, value in metrics.items():
            print(f"layer {name} {value:.6g} {unit_of(name)}")
        write_spans(tracer.spans, workload.name, args.seed)
    else:
        metrics = e2e
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(spans, workload, seed) -> None:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    t0 = min((s[3] for s in spans), default=0.0)
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "columns": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": [[i, p, n, round(a - t0, 9), round(b - t0, 9)]
                             for i, p, n, a, b in spans]}, f)
    print(f"spans {len(spans)} written to {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
