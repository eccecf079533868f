"""Every demo runs to completion as a script on a short chain."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("01_fixed_region_estimates.py", ["--m", "200", "--k", "8"]),
        ("02_error_vs_region_size.py", ["--m", "200", "--k-max", "20"]),
        ("03_adaptive_region_selection.py", ["--m", "200"]),
        ("04_indicator_profile.py", ["--m", "200", "--k", "10"]),
    ],
)
def test_demo_runs(name, argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
