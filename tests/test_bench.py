"""Experiment driver and the command-line front end."""

import csv
import hashlib
import io
import json

import pytest

from awakesim.bench import (ALGORITHM_TABLE, COLUMNS, OVERRIDE_KEYS,
                            SWEEP_COLUMNS, ExperimentConfig, build_graph,
                            fit_log_scaling, rows_to_csv, run_experiment, sweep)
from awakesim.cli import main


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="dreaming")
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="luby", trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(algorithm="luby", n_list=[])
    for key in ("dd", "d"):
        with pytest.raises(ValueError, match=f"unknown override '{key}'"):
            ExperimentConfig(algorithm="awake_mis", overrides={key: "3"})
    ExperimentConfig(algorithm="awake_mis", overrides={"K": "2", "window": "5"})


# a valid value of every override key
_VALID_OVERRIDES = {"participation": "1/2", "C": "2", "K": "2", "window": "5",
                    "estimator_constant": "2", "stop_round": "1", "box": "exact",
                    "improve_iterations": "1", "delta_iterations": "2"}


@pytest.mark.parametrize("algorithm", list(ALGORITHM_TABLE))
def test_each_algorithm_reads_exactly_its_table_keys(algorithm):
    """Every key the table lists for an algorithm runs with a valid value and
    reaches a callee that refuses a bad one; every other known key is
    refused up front, naming the algorithm and the keys it does read."""
    reads = ALGORITHM_TABLE[algorithm].reads

    def cfg(overrides):
        return ExperimentConfig(algorithm=algorithm, graph="bipartite", n=10,
                                eps=0.25, overrides=overrides)

    assert set(_VALID_OVERRIDES) == set(OVERRIDE_KEYS)
    assert run_experiment(cfg({}))[1]
    for key in reads:
        assert run_experiment(cfg({key: _VALID_OVERRIDES[key]}))[1]
        with pytest.raises(ValueError):
            run_experiment(cfg({key: "-7"}))
    for key in set(OVERRIDE_KEYS) - set(reads):
        with pytest.raises(ValueError) as err:
            cfg({key: _VALID_OVERRIDES[key]})
        assert str(err.value) == (f"{algorithm} does not read override {key!r}; "
                                  f"it reads {', '.join(reads) or 'none'}")


def test_build_graph_families():
    assert build_graph("cycle", 6, None, 0).m == 6
    assert build_graph("path", 5, None, 0).m == 4
    assert build_graph("complete", 5, None, 0).m == 10
    assert build_graph("star", 5, None, 0).m == 4
    assert build_graph("edgeless", 7, None, 0).m == 0
    b = build_graph("bipartite", 10, 1.0, 3)
    assert b.sides is not None and b.m == 25
    with pytest.raises(ValueError):
        build_graph("moebius", 5, None, 0)


def test_no_negative_or_made_up_sizes(capsys):
    """A negative n is bad input, and n = 0 is the empty graph in every
    family rather than a one-node star or a failing bipartite draw."""
    for argv in (["mis", "--graph", "star", "--n", "-4"],
                 ["sweep", "--graph", "star", "--n-list", "0,-2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n must be >= 0")
    for family in ("gnp", "bipartite", "cycle", "path", "complete", "star",
                   "edgeless"):
        assert build_graph(family, 0, None, 0).n == 0
        assert build_graph(family, 1, None, 0).n == 1
    assert main(["mis", "--graph", "bipartite", "--n", "0"]) == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert (rows[0]["n"], rows[0]["m"]) == ("0", "0")


def test_build_graph_from_file(tmp_path):
    g = build_graph("gnp", 12, 0.4, seed=9)
    path = tmp_path / "g.txt"
    path.write_text(g.to_text())
    h = build_graph(f"file:{path}", 0, None, 0)
    assert h.n == g.n and h.edge_set == g.edge_set


def test_run_experiment_is_deterministic():
    cfg = ExperimentConfig(algorithm="luby", n=40, p=0.15, trials=3,
                           master_seed=9)
    rows1, ok1 = run_experiment(cfg)
    rows2, ok2 = run_experiment(cfg)
    assert ok1 and ok2
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    trials = [r for r in rows1 if isinstance(r["trial"], int)]
    assert len(trials) == 3
    assert {r["trial"] for r in rows1 if not isinstance(r["trial"], int)} \
        == {"mean", "stddev", "max"}


def test_matching_csv_golden_digest():
    """The CSV bytes of the three matcher rows, with oracle optima, on five
    families: pins the vanilla row's ``rounds`` and ``total_awake`` as well
    as the sampled ledgers.  Recomputed when matcher nodes began to sleep
    until their wake rung: only the ``sampled_match`` and ``vertex_cover``
    rows' ledger columns (rounds, total, mean and max awake) moved.  Those
    of the edgeless rows moved again, to 0, when nodes without an edge
    stopped waking."""
    h = hashlib.sha256()
    for algorithm in ("vanilla_match", "sampled_match", "vertex_cover"):
        for family in ("gnp", "bipartite", "star", "path", "edgeless"):
            cfg = ExperimentConfig(algorithm=algorithm, graph=family, n=24,
                                   trials=2, oracle=True)
            rows, ok = run_experiment(cfg)
            assert ok
            h.update(rows_to_csv(rows).encode())
    assert h.hexdigest() == (
        "77c7875cbece3fa9c821b99948da809133b6656ced1582a9fa3de1a5716fa200")


# (algorithm, family, n, eps, overrides) rows of the harness digest: the five
# algorithms the matching digest leaves out, each run with and without the
# oracle, with the overrides each reads.
_HARNESS_CORPUS = [
    ("luby", "gnp", 24, 0.1, {}),
    ("luby", "bipartite", 20, 0.1, {}),
    ("awake_mis", "gnp", 24, 0.1, {}),
    ("awake_mis", "gnp", 24, 0.1, {"K": "2", "window": "5"}),
    ("awake_mis", "path", 16, 0.1, {"participation": "1/3", "C": "2"}),
    ("bipartite_amplify", "bipartite", 16, 0.5, {}),
    ("bipartite_amplify", "bipartite", 16, 0.5, {"box": "exact"}),
    ("general_amplify", "gnp", 12, 0.5, {}),
    ("general_amplify", "gnp", 12, 0.5,
     {"box": "sleeping", "improve_iterations": "2"}),
    ("pipeline", "gnp", 10, 0.5, {}),
    ("pipeline", "bipartite", 10, 0.5,
     {"improve_iterations": "1", "delta_iterations": "2"}),
]


def test_harness_golden_digest(tmp_path, capsys):
    """CSV and sidecar bytes of every harness path the matching digest does
    not cover: the corpus above, the ``OracleTooLarge`` fallback on a
    general graph above the oracle's node cap, a sweep table, and the stdout
    of a subcommand configured from a file.  Recomputed when matcher nodes
    began to sleep until their wake rung, which moved the ledger columns of
    the rows that run the sampled matcher, and when the MIS took p = 1/4
    and its stage-2 degree bound from n and p, which moved the
    ``awake_mis`` rows.  When matcher nodes without an edge stopped waking,
    the ledger columns of the configured ``match`` run moved: its graph has
    an isolated node."""
    h = hashlib.sha256()
    out = tmp_path / "run.csv"

    def pin(runner, cfg):
        _, ok = runner(cfg)
        assert ok
        h.update(out.read_bytes())
        h.update((tmp_path / "run.csv.json").read_bytes())

    for algorithm, family, n, eps, ovr in _HARNESS_CORPUS:
        for oracle in (False, True):
            pin(run_experiment,
                ExperimentConfig(algorithm=algorithm, graph=family, n=n,
                                 eps=eps, trials=2, oracle=oracle,
                                 out=str(out), overrides=dict(ovr)))
    for algorithm in ("sampled_match", "vertex_cover", "general_amplify"):
        pin(run_experiment,
            ExperimentConfig(algorithm=algorithm, graph="gnp", n=30, p=0.3,
                             eps=0.25, master_seed=4, oracle=True,
                             out=str(out)))
    pin(sweep,
        ExperimentConfig(algorithm="vanilla_match", n_list=[12, 20], p=0.3,
                         trials=2, master_seed=5, oracle=True, out=str(out)))
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("n = 20\np = 0.25\neps = 0.2\ntrials = 2\nseed = 3\n"
                       "oracle = true\nvariant = sampled\n"
                       "override.stop_round = 2\n")
    assert main(["match", "--config", str(cfgfile)]) == 0
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == (
        "8d031d3be1efb81eade8920725384cf97c3c263c4521ac44a69684b30d307272")


def test_run_experiment_edgeless_mis():
    cfg = ExperimentConfig(algorithm="luby", graph="edgeless", n=10,
                           master_seed=4)
    rows, ok = run_experiment(cfg)
    assert ok
    assert rows[0]["size"] == 10 and rows[0]["validity"] is True


def test_fit_log_scaling_exact_line():
    ns = [4, 16, 64, 256]
    ys = [3.0 * k + 1.0 for k in (2, 4, 6, 8)]
    a, b, r2 = fit_log_scaling(ns, ys)
    assert a == pytest.approx(3.0) and b == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_sweep_table():
    cfg = ExperimentConfig(algorithm="luby", n_list=[16, 32], p=0.2,
                           trials=2, master_seed=6)
    table, ok = sweep(cfg)
    assert ok and [r["n"] for r in table] == [16, 32]
    assert all(set(SWEEP_COLUMNS) <= set(r) for r in table)


def test_cli_mis_stdout(capsys):
    rc = main(["mis", "--algo", "luby", "--n", "24", "--p", "0.2",
               "--trials", "2", "--seed", "11"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = _parse_csv(out)
    assert out.splitlines()[0] == ",".join(COLUMNS)
    assert rows[0]["validity"] == "true"


def test_cli_out_files(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["match", "--variant", "vanilla", "--n", "14", "--p", "0.3",
               "--seed", "2", "--oracle", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    rows = _parse_csv(out.read_text())
    assert rows[0]["algorithm"] == "vanilla_match"
    assert rows[0]["ratio"] != ""
    sidecar = json.loads((tmp_path / "run.csv.json").read_text())
    assert sidecar["algorithm"] == "vanilla_match" and sidecar["oracle"] is True


def test_cli_config_file_and_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# experiment defaults\n"
        "n = 8\n"
        "trials = 3\n"
        "p = 0.3\n"
        "override.window = 12\n")
    rc = main(["mis", "--algo", "luby", "--config", str(cfgfile),
               "--trials", "2", "--seed", "7"])
    assert rc == 0
    rows = _parse_csv(capsys.readouterr().out)
    trial_rows = [r for r in rows if r["trial"].isdigit()]
    assert len(trial_rows) == 2          # flag beats file
    assert trial_rows[0]["n"] == "8"     # file fills the rest


def test_cli_file_override_applies_where_read(tmp_path, capsys):
    """A config file's ``override.KEY`` reaches the algorithms that read KEY
    and is left out, also from the sidecar, for the others."""
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("n = 12\noverride.stop_round = 2\n")
    out = tmp_path / "x.csv"
    for argv, applied in ((["mis", "--algo", "luby"], {}),
                          (["match"], {"stop_round": "2"})):
        assert main(argv + ["--config", str(cfgfile), "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "x.csv.json").read_text())
        assert sidecar["overrides"] == applied
    assert capsys.readouterr().err == ""


def test_cli_config_file_choice_keys(tmp_path, capsys):
    """``algo``, ``variant`` and ``mode`` from a config file pick the
    algorithm; an explicit choice flag still beats the file."""
    def csv_rows(argv, text):
        cfgfile = tmp_path / "choice.cfg"
        cfgfile.write_text("n = 12\np = 0.3\neps = 0.25\n" + text)
        assert main(argv + ["--config", str(cfgfile)]) == 0
        return _parse_csv(capsys.readouterr().out)

    assert csv_rows(["mis"], "algo = luby\n")[0]["algorithm"] == "luby"
    assert csv_rows(["mis", "--algo", "awake"],
                    "algo = luby\n")[0]["algorithm"] == "awake_mis"
    assert csv_rows(["match"],
                    "variant = vanilla\n")[0]["algorithm"] == "vanilla_match"
    assert csv_rows(["amplify"],
                    "mode = pipeline\n")[0]["algorithm"] == "pipeline"

    flagged = ["sweep", "--n-list", "16,32", "--p", "0.2", "--trials", "2"]
    assert main(flagged + ["--algo", "luby"]) == 0
    by_flag = capsys.readouterr().out
    swp = tmp_path / "sweep.cfg"
    swp.write_text("algo = luby\nn_list = 16,32\np = 0.2\ntrials = 2\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(swp), "--out", str(out)]) == 0
    assert out.read_text() == by_flag
    sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
    assert sidecar["algorithm"] == "luby"


def test_cli_rejects_bad_input(tmp_path, capsys):
    assert main(["mis", "--override", "windowtwelve"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("banana = 3\n")
    assert main(["mis", "--config", str(bad)]) == 2
    assert main(["sweep", "--algo", "luby"]) == 2
    assert main(["mis", "--override", "dd=3"]) == 2
    capsys.readouterr()


def test_cli_reports_run_time_input_errors(tmp_path, capsys):
    out_of_range = tmp_path / "far.txt"
    out_of_range.write_text("3 1\n0 7\n")
    cases = [
        (["mis", "--graph", f"file:{tmp_path / 'missing.txt'}"], "missing.txt"),
        (["mis", "--graph", f"file:{out_of_range}"], "out of range"),
        (["amplify", "--mode", "bipartite", "--graph", "gnp", "--n", "10"],
         "needs a bipartite family"),
        (["match", "--n", "10", "--override", "stop_round=-1"],
         "force_stop_round"),
        (["match", "--n", "10", "--override", "stop_round=100000"],
         "force_stop_round"),
        (["mis", "--n", "10", "--override", "participation=1/0"], "participation"),
        (["mis", "--n", "10", "--override", "participation=0"], "participation"),
        (["mis", "--n", "10", "--override", "participation=3/2"], "participation"),
        (["vc", "--n", "10", "--override", "estimator_constant=0"],
         "estimator_constant"),
        (["amplify", "--eps", "0"], "eps"),
        (["amplify", "--eps", "-0.1"], "eps"),
        (["amplify", "--eps", "nan"], "eps"),
        (["match", "--eps", "inf"], "eps"),
        (["amplify", "--mode", "general", "--eps", "inf"], "eps"),
        (["amplify", "--mode", "bipartite", "--graph", "bipartite", "--n", "10",
          "--eps", "5"], "eps"),
        (["mis", "--n", "10", "--override", "window=-3"], "window"),
        (["amplify", "--mode", "pipeline", "--n", "10",
          "--override", "delta_iterations=-5"], "iterations"),
        (["amplify", "--mode", "pipeline", "--n", "10",
          "--override", "delta_iterations=0"], "iterations"),
        (["amplify", "--n", "10", "--override", "improve_iterations=-1"],
         "improve_iterations"),
        (["amplify", "--mode", "general", "--n", "12", "--eps", "0.5",
          "--override", "delta_iterations=1", "--out", str(tmp_path / "r.csv")],
         "delta_iterations"),
        (["mis", "--override", "stop_round=3"], "stop_round"),
        (["amplify", "--mode", "pipeline", "--override", "box=exact"], "box"),
        (["vc", "--override", "delta_iterations=0"], "delta_iterations"),
        (["sweep", "--algo", "luby", "--n-list", "16", "--override", "K=2"], "'K'"),
    ]
    for argv, needle in cases:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err


def test_cli_sweep_stdout(capsys):
    rc = main(["sweep", "--algo", "luby", "--n-list", "16,32", "--p", "0.2",
               "--trials", "2", "--seed", "3"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3


def test_cli_amplify_smoke(capsys):
    rc = main(["amplify", "--mode", "general", "--n", "10", "--p", "0.3",
               "--eps", "0.5", "--seed", "5", "--oracle"])
    assert rc == 0
    rows = _parse_csv(capsys.readouterr().out)
    assert rows[0]["validity"] == "true"
    if rows[0]["ratio"]:
        assert float(rows[0]["ratio"]) <= 1.0
    # an unset override leaves the algorithm's own default in force
    pipeline = ["amplify", "--mode", "pipeline", "--n", "10", "--p", "0.3",
                "--eps", "0.5", "--seed", "5"]
    assert main(pipeline) == 0
    plain = capsys.readouterr().out
    assert main(pipeline + ["--override", "delta_iterations=12"]) == 0
    assert capsys.readouterr().out == plain
    assert _parse_csv(plain)[0]["validity"] == "true"
    assert main(pipeline + ["--override", "delta_iterations=1"]) == 0
    assert capsys.readouterr().out != plain
