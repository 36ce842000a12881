"""Tests of the benchmark itself, on tiny inputs.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import refclock  # noqa: E402
import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
           "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=cwd)


def _lines(stdout, prefix):
    return [ln for ln in stdout.splitlines() if ln.startswith(prefix)]


@pytest.fixture(scope="module")
def aw():
    return bench_run.import_awakesim()


def _tiny(aw, name, seed=5):
    workload = wl.WORKLOADS[name]
    cases = workload.build(aw, wl.SIZES["tiny"][name], seed)
    optima = [workload.optimum(aw, c) if workload.optimum else None for c in cases]
    return workload, cases, optima


def _grade_one_pass(aw, name, seed=5):
    workload, cases, optima = _tiny(aw, name, seed)
    return wl.grade(aw, workload, cases, optima, wl.run_pass(aw, workload, cases))


def test_spec_lists_the_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_runs_report_every_metric_and_one_digest(name):
    plain, traced = _run(name, 0), _run(name, 1)
    for proc in (plain, traced):
        assert proc.returncode == 0, proc.stderr
    out0 = json.loads(plain.stdout.splitlines()[-1])
    out1 = json.loads(traced.stdout.splitlines()[-1])
    for out in (out0, out1):
        assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out0["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out0["metrics"].values())
    assert {k: v["unit"] for k, v in out1["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    printed = {ln.split()[1] for ln in _lines(plain.stdout, "metric ")}
    assert {"wall_s", "setup_s", "peak_rss_mb", "failed_frac", "avg_awake",
            "max_awake", "rounds_max"} <= printed
    # tracing changes nothing that is simulated
    assert _lines(plain.stdout, "digest ") == _lines(traced.stdout, "digest ")
    sim = [ln for ln in _lines(plain.stdout, "metric ")
           if ln.split()[1] not in ("wall_s", "setup_s", "peak_rss_mb")]
    assert sim == [ln for ln in _lines(traced.stdout, "metric ")
                   if ln.split()[1] not in ("wall_s", "setup_s", "peak_rss_mb")]


def test_scaled_time_follows_the_reference_loop(aw):
    assert refclock.rescale(2.0, refclock.REF_S, refclock.REF_S) == 2.0
    assert refclock.rescale(2.0, 3 * refclock.REF_S, refclock.REF_S) == 1.0
    workload, cases, _ = _tiny(aw, "pipeline_small")
    res = wl.run_pass(aw, workload, cases, refclock.ScaledClock())
    assert res.wall > 0 and res.scaled > 0


def test_digest_repeats_and_follows_the_seed(aw):
    for name in wl.WORKLOADS:
        first = _grade_one_pass(aw, name)
        assert first.failed == 0
        assert _grade_one_pass(aw, name).digest == first.digest
        assert _grade_one_pass(aw, name, seed=6).digest != first.digest


def test_invalid_output_counts_as_failed(aw, monkeypatch):
    real = aw.mis.luby_mis

    def drop_one(g, seed, **kw):
        mis, ledger = real(g, seed, **kw)
        return set(sorted(mis)[1:]), ledger

    monkeypatch.setattr(aw.mis, "luby_mis", drop_one)
    g = _grade_one_pass(aw, "mis_sparse")
    assert (g.attempted, g.failed, g.sim["failed_frac"]) == (2, 1, 0.5)


def test_raising_job_counts_as_failed_and_run_goes_on(aw, monkeypatch):
    def capped(*args, **kw):
        raise aw.errors.RoundCapExceeded("cap")

    monkeypatch.setattr(aw.fractional, "sampled_fractional", capped)
    g = _grade_one_pass(aw, "frac_bipartite")
    # both sampled runs raise; rounding and cover depend on the first
    assert (g.attempted, g.failed) == (5, 4)


def test_tracer_restores_what_it_patched(aw):
    names = [(aw.mis, "run"), (aw.graphs, "node_rng"), (aw.engine, "_deliver"),
             (aw.graphs.Graph, "__init__"), (aw.augmentation.MatchBox, "__call__")]
    before = [vars(owner)[attr] for owner, attr in names]
    tracer = Tracer(aw)
    tracer.install()
    assert all(vars(o)[a] is not b for (o, a), b in zip(names, before))
    tracer.uninstall()
    assert [vars(o)[a] for o, a in names] == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = _run("frac_bipartite", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
