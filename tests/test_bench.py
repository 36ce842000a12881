"""Experiment driver and the command-line front end."""

import csv
import io
import json

import pytest

from awakesim.bench import (COLUMNS, SWEEP_COLUMNS, ExperimentConfig,
                            build_graph, fit_log_scaling, rows_to_csv,
                            run_experiment, sweep)
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
        (["vc", "--n", "10", "--override", "estimator_constant=0"],
         "estimator_constant"),
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
