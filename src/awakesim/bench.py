"""Seeded experiment harness.

Runs one of the packaged algorithms for a configured number of trials,
derives every trial seed from the master seed, and writes one CSV row per
trial plus mean/stddev/max summary rows.  Output bytes depend only on the
config (wall times are blanked unless timing is requested), so result files
are diffable fixtures.
"""

from __future__ import annotations

import dataclasses
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import fractional, mis
from .augmentation import (MatchBox, bipartite_one_plus_eps, full_matching_pipeline,
                           general_one_plus_eps)
from .engine import AwakeLedger, RunMetrics
from .errors import OracleTooLarge
from .graphs import (Graph, complete_graph, cycle_graph, gen_bipartite, gen_gnp,
                     path_graph, star_graph)
from .oracles import (exact_max_matching, exact_min_vertex_cover, verify_matching,
                      verify_mis, verify_vertex_cover)
from .rng import node_rng

ALGORITHMS = ("luby", "awake_mis", "vanilla_match", "sampled_match",
              "vertex_cover", "bipartite_amplify", "general_amplify", "pipeline")

COLUMNS = ("trial", "n", "m", "algorithm", "rounds", "total_awake", "avg_awake",
           "max_awake", "parts", "size", "validity", "optimum", "ratio",
           "heavy", "light", "spoiled", "wall_time")

SWEEP_COLUMNS = ("n", "trials", "mean_rounds", "mean_avg_awake",
                 "mean_max_awake", "mean_size")

_SUMMARY_FIELDS = ("rounds", "total_awake", "avg_awake", "max_awake", "size",
                   "ratio")

# every --override key some algorithm reads; anything else is a typo
OVERRIDE_KEYS = ("participation", "C", "K", "window",            # awake_mis
                 "estimator_constant", "stop_round",             # sampled, cover
                 "box", "improve_iterations", "delta_iterations")  # amplify

# the exact optimum a row's size is compared with: a minimum cover for
# vertex_cover, none for the MIS rows, a maximum matching for the rest
_ORACLES = {"luby": None, "awake_mis": None,
            "vertex_cover": exact_min_vertex_cover}


@dataclass
class ExperimentConfig:
    algorithm: str
    graph: str = "gnp"
    n: int = 256
    n_list: Optional[List[int]] = None      # sweep only
    p: Optional[float] = None               # family density; default 10/n
    eps: float = 0.1
    trials: int = 1
    master_seed: int = 1
    oracle: bool = False
    out: Optional[str] = None
    timing: bool = False
    overrides: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; "
                             f"choose from {', '.join(ALGORITHMS)}")
        if not 0 < self.eps < math.inf:     # also rejects NaN
            raise ValueError(f"eps must be finite and > 0, got {self.eps}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n_list is not None and not self.n_list:
            raise ValueError("n_list must be non-empty")
        negative = [k for k in [self.n, *(self.n_list or ())] if k < 0]
        if negative:
            raise ValueError(f"n must be >= 0, got {negative[0]}")
        unknown = sorted(set(self.overrides) - set(OVERRIDE_KEYS))
        if unknown:
            raise ValueError(f"unknown override {unknown[0]!r}; "
                             f"choose from {', '.join(OVERRIDE_KEYS)}")


def build_graph(family: str, n: int, p: Optional[float], seed: int) -> Graph:
    """Instantiate a test graph.  ``family`` is a generator name or
    ``file:PATH`` pointing at the text format (header ``n m``, one edge per
    line)."""
    if family.startswith("file:"):
        with open(family[5:], "r", encoding="utf-8") as fh:
            return Graph.from_text(fh.read())
    if family == "gnp":
        return gen_gnp(n, p if p is not None else min(1.0, 10 / max(2, n)), seed)
    if family == "bipartite":
        half = min(n, max(1, n // 2))
        return gen_bipartite(half, n - half,
                             p if p is not None else min(1.0, 10 / max(2, n)),
                             seed)
    if family == "cycle":
        return cycle_graph(n)
    if family == "path":
        return path_graph(n)
    if family == "complete":
        return complete_graph(n)
    if family == "star":
        return star_graph(n - 1) if n else Graph(0)
    if family == "edgeless":
        return Graph(n)
    raise ValueError(f"unknown graph family {family!r}")


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _ovr(overrides: Dict[str, str], key: str, cast,
         param: Optional[str] = None) -> Dict[str, Any]:
    """``{param: cast(value)}`` when override ``key`` is set, else ``{}``, so
    an unset override leaves the algorithm's own default in force.
    ``param`` is the keyword it fills, ``key`` itself unless given."""
    return {param or key: cast(overrides[key])} if key in overrides else {}


def _participation(text: str) -> Fraction:
    """The ``participation`` override as a fraction in (0, 1]."""
    try:
        p = Fraction(text)
    except (ValueError, ZeroDivisionError):
        p = None
    if p is None or not 0 < p <= 1:
        raise ValueError(f"participation must be a fraction in (0, 1], got {text!r}")
    return p


def _mis_params(overrides: Dict[str, str]) -> mis.MisParams:
    return mis.MisParams(**_ovr(overrides, "participation", _participation, "p"),
                         **_ovr(overrides, "C", int), **_ovr(overrides, "K", int),
                         **_ovr(overrides, "window", int, "part1_window"))


def _ledger_columns(led: Optional[AwakeLedger]) -> Dict[str, Any]:
    """The rounds / total_awake / avg_awake / max_awake columns of a ledger;
    zeros when no stage ran."""
    met = RunMetrics.from_ledger(led if led is not None else AwakeLedger(0))
    return {"rounds": met.rounds, "total_awake": met.total_awake,
            "avg_awake": met.avg_awake, "max_awake": met.max_awake}


def run_trial(cfg: ExperimentConfig, t: int) -> Dict[str, Any]:
    """Execute trial ``t`` and return one result row (dict keyed by COLUMNS)."""
    seed = node_rng(cfg.master_seed, 0, "trial", t)
    g = build_graph(cfg.graph, cfg.n, cfg.p, seed)
    ovr = cfg.overrides
    row: Dict[str, Any] = {k: "" for k in COLUMNS}
    row.update(trial=t, n=g.n, m=g.m, algorithm=cfg.algorithm)
    t0 = time.perf_counter()

    if cfg.algorithm == "luby":
        s, led = mis.luby_mis(g, seed)
        row.update(_ledger_columns(led), size=len(s), validity=verify_mis(g, s))
    elif cfg.algorithm == "awake_mis":
        s, led, met = mis.awake_mis(g, seed, params=_mis_params(ovr))
        parts = ";".join(f"{k}={v}" for k, v in sorted(led.part_totals().items()))
        row.update(_ledger_columns(led), parts=parts, size=len(s),
                   validity=met.validity)
    elif cfg.algorithm == "vanilla_match":
        asg = fractional.vanilla_fractional(g, cfg.eps)
        rounds = 1 + max((j for j in asg.frozen_round.values() if j is not None),
                         default=-1)
        row.update(rounds=rounds, total_awake=g.n * rounds, avg_awake=float(rounds),
                   max_awake=rounds, size=asg.total_float(), validity=True)
    elif cfg.algorithm in ("sampled_match", "vertex_cover"):
        asg, led, diag = fractional.sampled_fractional(
            g, cfg.eps, seed,
            **_ovr(ovr, "estimator_constant", int),
            **_ovr(ovr, "stop_round", int, "force_stop_round"))
        row.update(_ledger_columns(led), heavy=diag.heavy_events,
                   light=diag.light_events, spoiled=float(diag.spoiled_value))
        if cfg.algorithm == "sampled_match":
            row.update(size=asg.total_float(), validity=True)
        else:
            cover = fractional.extract_vertex_cover(asg)
            row.update(size=len(cover), validity=verify_vertex_cover(g, cover))
    elif cfg.algorithm in ("bipartite_amplify", "general_amplify", "pipeline"):
        if cfg.algorithm == "pipeline":
            m, led = full_matching_pipeline(
                g, cfg.eps, seed,
                **_ovr(ovr, "improve_iterations", int),
                **_ovr(ovr, "delta_iterations", int))
        else:
            box = MatchBox(**_ovr(ovr, "box", str, "mode"),
                           master_seed=seed, host_n=g.n)
            if cfg.algorithm == "bipartite_amplify":
                if g.sides is None:
                    raise ValueError("bipartite_amplify needs a bipartite family")
                if cfg.eps >= 2:    # its extension delta eps^5/32 must stay below 1
                    raise ValueError(f"bipartite_amplify needs eps < 2, got {cfg.eps}")
                m = bipartite_one_plus_eps(g, box, cfg.eps)
            else:
                m = general_one_plus_eps(g, box, cfg.eps, seed,
                                         **_ovr(ovr, "improve_iterations", int))
            led = box.ledger
        row.update(_ledger_columns(led), size=len(m),
                   validity=verify_matching(g, m))
    else:  # pragma: no cover - guarded by ExperimentConfig
        raise AssertionError(cfg.algorithm)

    oracle = _ORACLES.get(cfg.algorithm, exact_max_matching)
    if cfg.oracle and oracle is not None:
        try:
            row["optimum"] = len(oracle(g))
        except OracleTooLarge:
            pass                 # too large to solve: optimum and ratio stay blank
        if row["optimum"]:
            row["ratio"] = float(row["size"]) / row["optimum"]
    if cfg.timing:
        row["wall_time"] = time.perf_counter() - t0
    return row


def _summary_rows(rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    out = []
    for stat in ("mean", "stddev", "max"):
        srow: Dict[str, Any] = {k: "" for k in COLUMNS}
        srow["trial"] = stat
        srow["algorithm"] = rows[0]["algorithm"] if rows else ""
        for key in _SUMMARY_FIELDS:
            vals = [float(r[key]) for r in rows if r[key] != ""]
            if not vals:
                continue
            if stat == "mean":
                srow[key] = statistics.fmean(vals)
            elif stat == "stddev":
                srow[key] = statistics.pstdev(vals)
            else:
                srow[key] = max(vals)
        out.append(srow)
    return out


def rows_to_csv(rows: List[Dict[str, Any]], columns: Sequence[str] = COLUMNS) -> str:
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_fmt(r[k]) for k in columns))
    return "\n".join(lines) + "\n"


def _write(cfg: ExperimentConfig, text: str) -> None:
    """Write ``text`` to cfg.out and the config, less ``out``, to the JSON
    sidecar next to it; nothing when cfg.out is unset."""
    if not cfg.out:
        return
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    sidecar = dataclasses.asdict(cfg)
    del sidecar["out"]
    with open(cfg.out + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig) -> Tuple[List[Dict[str, Any]], bool]:
    """All trials plus summary rows; writes CSV (and a JSON config sidecar)
    when cfg.out is set.  Returns (rows, ok) where ok is False if any
    validity flag came back false."""
    rows = [run_trial(cfg, t) for t in range(cfg.trials)]
    ok = all(r["validity"] in ("", True) for r in rows)
    all_rows = rows + _summary_rows(rows)
    _write(cfg, rows_to_csv(all_rows))
    return all_rows, ok


def sweep(cfg: ExperimentConfig) -> Tuple[List[Dict[str, Any]], bool]:
    """Run the experiment once per n in cfg.n_list and emit a scaling table
    (one row per size) suitable for fitting rounds against log n."""
    if not cfg.n_list:
        raise ValueError("sweep needs n_list")
    table: List[Dict[str, Any]] = []
    ok = True
    for n in cfg.n_list:
        rows, part_ok = run_experiment(dataclasses.replace(cfg, n=n, out=None))
        ok &= part_ok
        mean = next(r for r in rows if r["trial"] == "mean")
        table.append({"n": n, "trials": cfg.trials,
                      "mean_rounds": mean["rounds"],
                      "mean_avg_awake": mean["avg_awake"],
                      "mean_max_awake": mean["max_awake"],
                      "mean_size": mean["size"]})
    _write(cfg, rows_to_csv(table, SWEEP_COLUMNS))
    return table, ok


def fit_log_scaling(ns: Sequence[int], ys: Sequence[float]) -> Tuple[float, float, float]:
    """Least squares y = a*log2(n) + b; returns (a, b, r_squared)."""
    xs = [math.log2(n) for n in ns]
    n = len(xs)
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    a = sxy / sxx if sxx else 0.0
    b = my - a * mx
    ss_res = sum((y - (a * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 - ss_res / ss_tot if ss_tot else 1.0
    return a, b, r2
