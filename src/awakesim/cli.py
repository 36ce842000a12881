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
from typing import Dict, List, Optional, Tuple

from .bench import (ALGORITHM_TABLE, COLUMNS, OVERRIDE_KEYS, SWEEP_COLUMNS,
                    ExperimentConfig, rows_to_csv, run_experiment, sweep)

# subcommand -> (help, choice flag, {choice: algorithm}, default choice);
# ``vc`` runs one algorithm and has no choice flag
_SUBCOMMANDS = {
    "mis": ("maximal independent set", "algo",
            {"awake": "awake_mis", "luby": "luby"}, "awake"),
    "match": ("fractional matching", "variant",
              {"sampled": "sampled_match", "vanilla": "vanilla_match"}, "sampled"),
    "vc": ("vertex cover from frozen nodes", None, {None: "vertex_cover"}, None),
    "amplify": ("matching amplification", "mode",
                {"general": "general_amplify", "bipartite": "bipartite_amplify",
                 "pipeline": "pipeline"}, "general"),
    "sweep": ("scaling table over sizes", "algo", {a: a for a in ALGORITHM_TABLE},
              "awake_mis"),
}


def _bool(value) -> bool:
    return str(value).lower() in ("1", "true", "yes", "on")


def _int_list(value: str) -> List[int]:
    return [int(tok) for tok in value.split(",") if tok.strip()]


# config-file key -> (argparse dest, ExperimentConfig field, cast); a key
# applies to the subcommands that have its flag
_SETTINGS = {
    "n": ("n", "n", int),
    "graph": ("graph", "graph", str),
    "p": ("density", "p", float),
    "eps": ("eps", "eps", float),
    "trials": ("trials", "trials", int),
    "seed": ("seed", "master_seed", int),
    "oracle": ("oracle", "oracle", _bool),
    "out": ("out", "out", str),
    "timing": ("timing", "timing", _bool),
    "n_list": ("n_list", "n_list", _int_list),
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
    for command, (help_, flag, algos, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=help_)
        if flag:
            p.add_argument(f"--{flag}", choices=tuple(algos))
        if command == "sweep":
            p.add_argument("--n-list", default=None,
                           help="comma-separated sizes, e.g. 1024,4096,16384")
        _add_common(p)
    return ap


def _split(text: str, what: str) -> Tuple[str, str]:
    """``KEY=VALUE`` as the stripped pair ``(KEY, VALUE)``."""
    if "=" not in text:
        raise ValueError(f"{what} {text!r} is not KEY=VALUE")
    k, v = text.split("=", 1)
    return k.strip(), v.strip()


def _load_config_file(path: str) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [raw.split("#", 1)[0].strip() for raw in fh]
    filed = dict(_split(line, "config line") for line in lines if line)
    known = (set(_SETTINGS) | {flag for _, flag, _, _ in _SUBCOMMANDS.values()}
             | {f"override.{k}" for k in OVERRIDE_KEYS})
    for k in filed:
        if k not in known:
            raise ValueError(f"unknown config key {k!r}")
    return filed


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The run's config: each setting from its flag, else from the config
    file, else ``ExperimentConfig``'s default.  A file's ``override.KEY`` applies
    where KEY is read; a ``--override`` flag must be read by the chosen algorithm."""
    filed = _load_config_file(args.config) if args.config else {}
    _, flag, algos, choice = _SUBCOMMANDS[args.command]
    if flag:
        choice = getattr(args, flag) or filed.get(flag, choice)
    if choice not in algos:
        raise ValueError(f"bad {flag} {choice!r} for {args.command}; "
                         f"choose from {', '.join(algos)}")
    reads = ALGORITHM_TABLE[algos[choice]].reads
    overrides = {k: filed[f"override.{k}"] for k in reads if f"override.{k}" in filed}
    overrides.update(_split(item, "override") for item in args.override or ())

    settings = {}
    for key, (dest, name, cast) in _SETTINGS.items():
        if hasattr(args, dest):
            value = getattr(args, dest)
            if value is None:
                value = filed.get(key)
            if value is not None:
                settings[name] = cast(value)
    return ExperimentConfig(algorithm=algos[choice], overrides=overrides,
                            **settings)


def main(argv: Optional[List[str]] = None) -> int:
    """Exit 0 on success, 1 if a validity check failed, 2 on bad input
    (a ``ValueError`` or ``OSError`` while configuring or running)."""
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "sweep":
            rows, ok = sweep(cfg)
            columns = SWEEP_COLUMNS
        else:
            rows, ok = run_experiment(cfg)
            columns = COLUMNS
        if not cfg.out:
            sys.stdout.write(rows_to_csv(rows, columns))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not ok:
        print("error: a validity check failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
