"""Smoke runs of the study scripts in scripts/ on tiny inputs."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,expect", [
    ("convergence_suite.py",
     ["--observables", "linear", "--base-n", "32", "--t-end", "0.25"],
     "wrote study.csv"),
    ("run_acceptance_campaign.py",
     ["--n-cells", "64", "--r-max", "8", "--t-end", "0.25", "--output-every", "4"],
     "artifacts in acceptance_out"),
    ("shell_transient_study.py",
     ["--n-cells", "64,128", "--r-max", "8", "--t-end", "0.25"],
     "n=  128 a=0"),
])
def test_script_main_runs(tmp_path, monkeypatch, capsys, script, args, expect):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script] + args)
    runpy.run_path(str(SCRIPTS / script))["main"]()
    assert expect in capsys.readouterr().out
