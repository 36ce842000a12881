"""Command-line front end for the experiment harness.

Subcommands map onto the measured algorithms: ``mis`` (luby / three-stage),
``match`` (vanilla / sampled fractional), ``vc`` (cover extraction),
``amplify`` (bipartite / general / pipeline), and ``sweep`` (one experiment
per size, scaling table out).  Any flag can also come from a config file of
KEY=VALUE lines; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .bench import (ALGORITHMS, SWEEP_COLUMNS, ExperimentConfig, _fmt, rows_to_csv,
                    run_experiment, sweep)

_SUBCOMMAND_ALGOS = {
    "mis": {"awake": "awake_mis", "luby": "luby"},
    "match": {"sampled": "sampled_match", "vanilla": "vanilla_match"},
    "vc": {None: "vertex_cover"},
    "amplify": {"general": "general_amplify", "bipartite": "bipartite_amplify",
                "pipeline": "pipeline"},
}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--n", type=int, default=None, help="number of nodes")
    p.add_argument("--graph", default=None,
                   help="graph family (gnp, bipartite, cycle, path, complete, "
                        "star, edgeless) or file:PATH")
    p.add_argument("--p", type=float, default=None, dest="density",
                   help="edge density for random families (default 10/n)")
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--oracle", action="store_true", default=None,
                   help="compute exact optima where feasible")
    p.add_argument("--out", default=None, help="CSV output path")
    p.add_argument("--override", action="append", default=None,
                   metavar="KEY=VAL", help="algorithm tunable, repeatable")
    p.add_argument("--config", default=None, help="KEY=VALUE config file")
    p.add_argument("--timing", action="store_true", default=None,
                   help="record wall times (breaks byte-determinism)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="awakesim",
        description="round-synchronous experiments on awake complexity")
    sub = ap.add_subparsers(dest="command", required=True)

    p_mis = sub.add_parser("mis", help="maximal independent set")
    p_mis.add_argument("--algo", choices=("awake", "luby"), default="awake")
    p_match = sub.add_parser("match", help="fractional matching")
    p_match.add_argument("--variant", choices=("sampled", "vanilla"),
                         default="sampled")
    p_vc = sub.add_parser("vc", help="vertex cover from frozen nodes")
    p_amp = sub.add_parser("amplify", help="matching amplification")
    p_amp.add_argument("--mode", choices=("general", "bipartite", "pipeline"),
                       default="general")
    p_sweep = sub.add_parser("sweep", help="scaling table over sizes")
    p_sweep.add_argument("--algo", choices=ALGORITHMS, default="awake_mis")
    p_sweep.add_argument("--n-list", default=None,
                         help="comma-separated sizes, e.g. 1024,4096,16384")
    for p in (p_mis, p_match, p_vc, p_amp, p_sweep):
        _add_common(p)
    return ap


def _parse_overrides(items: Optional[List[str]]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"override {item!r} is not KEY=VAL")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _load_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line {raw.strip()!r} is not KEY=VALUE")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


_CONFIG_KEYS = ("n", "graph", "p", "eps", "trials", "seed", "oracle", "out",
                "timing", "n_list", "algo", "variant", "mode")


def _merged(args: argparse.Namespace) -> Dict[str, str]:
    """File values first, explicit flags on top."""
    merged: Dict[str, str] = {}
    if args.config:
        file_vals = _load_config_file(args.config)
        for k in file_vals:
            if k not in _CONFIG_KEYS and not k.startswith("override."):
                raise ValueError(f"unknown config key {k!r}")
        merged.update(file_vals)
    return merged


def _pick(args_val, fileval: Optional[str], cast, default):
    if args_val is not None:
        return args_val
    if fileval is not None:
        if cast is bool:
            return fileval.lower() in ("1", "true", "yes", "on")
        return cast(fileval)
    return default


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    filed = _merged(args)
    overrides = {k[len("override."):]: v for k, v in filed.items()
                 if k.startswith("override.")}
    overrides.update(_parse_overrides(args.override))

    if args.command == "sweep":
        algorithm = _pick(getattr(args, "algo", None), filed.get("algo"),
                          str, "awake_mis")
    else:
        table = _SUBCOMMAND_ALGOS[args.command]
        if args.command == "mis":
            key = _pick(args.algo, filed.get("algo"), str, "awake")
        elif args.command == "match":
            key = _pick(args.variant, filed.get("variant"), str, "sampled")
        elif args.command == "amplify":
            key = _pick(args.mode, filed.get("mode"), str, "general")
        else:
            key = None
        if key not in table:
            raise ValueError(f"bad variant {key!r} for {args.command}")
        algorithm = table[key]

    n_list = None
    if args.command == "sweep":
        raw = _pick(getattr(args, "n_list", None), filed.get("n_list"), str, None)
        if raw is None:
            raise ValueError("sweep needs --n-list")
        n_list = [int(tok) for tok in str(raw).split(",") if tok.strip()]

    return ExperimentConfig(
        algorithm=algorithm,
        graph=_pick(args.graph, filed.get("graph"), str, "gnp"),
        n=_pick(args.n, filed.get("n"), int, 256),
        n_list=n_list,
        p=_pick(args.density, filed.get("p"), float, None),
        eps=_pick(args.eps, filed.get("eps"), float, 0.1),
        trials=_pick(args.trials, filed.get("trials"), int, 1),
        master_seed=_pick(args.seed, filed.get("seed"), int, 1),
        oracle=bool(_pick(args.oracle, filed.get("oracle"), bool, False)),
        out=_pick(args.out, filed.get("out"), str, None),
        timing=bool(_pick(args.timing, filed.get("timing"), bool, False)),
        overrides=overrides,
    )


def main(argv: Optional[List[str]] = None) -> int:
    """Exit 0 on success, 1 if a validity check failed, 2 on bad input
    (a ``ValueError`` or ``OSError`` while configuring or running)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "sweep":
            table, ok = sweep(cfg)
            if not cfg.out:
                print(",".join(SWEEP_COLUMNS))
                for r in table:
                    print(",".join(_fmt(r[k]) for k in SWEEP_COLUMNS))
        else:
            rows, ok = run_experiment(cfg)
            if not cfg.out:
                sys.stdout.write(rows_to_csv(rows))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not ok:
        print("error: a validity check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
