"""Smoke runs of the study scripts in scripts/ on tiny inputs."""

import csv
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


def test_shell_transient_table_round_trips(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["shell_transient_study.py", "--n-cells", "64,128",
                                      "--r-max", "8", "--t-end", "0.25",
                                      "--contrast-amplitude", "0.1", "--out", "floor.csv"])
    main = runpy.run_path(str(SCRIPTS / "shell_transient_study.py"))["main"]
    floor_row, rows = main.__globals__["floor_row"], []

    def recorded(cfg):  # the rows main tabulates, as computed
        rows.append(floor_row(cfg))
        return rows[-1]

    monkeypatch.setitem(main.__globals__, "floor_row", recorded)
    main()
    assert "wrote floor.csv" in capsys.readouterr().out
    with open(tmp_path / "floor.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["n_cells", "dr", "amplitude", "max_drift", "peak_monitor_v",
                        "peak_monitor_vt", "peak_monitor_gradv", "floor_order"]
    assert len(table) == 1 + len(rows) == 5
    for cells, row in zip(table[1:], rows):
        assert cells[0] == str(row["n_cells"])
        assert [float(c) for c in cells[1:7]] == [row[k] for k in table[0][1:7]]
        assert cells[7] == row["floor_order"]
