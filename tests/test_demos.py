"""Smoke test: every script in demos/ runs to the end and prints something."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert [d.name for d in DEMOS] == [
        "amplification_demo.py", "fractional_demo.py", "mis_demo.py",
        "scaling_sweep_demo.py", "vertex_cover_demo.py"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
