"""Smoke runs of the study scripts in scripts/ on tiny inputs."""

import csv
import json
import os
import runpy
import sys
from pathlib import Path

import pytest

from faddeevlab import cli
from faddeevlab.verify import convergence_study, study_to_csv

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script,args,expect", [
    ("convergence_suite.py",
     ["--observables", "linear_solution", "--set", "grid.n_cells=32",
      "--set", "integrator.t_end=0.25"],
     "wrote study.csv"),
    ("run_acceptance_campaign.py",
     ["--set", "grid.n_cells=256", "--set", "grid.r_max=8", "--set", "integrator.t_end=0.25",
      "--set", "diagnostics.output_every=2"],
     "artifacts in acceptance_out"),
])
def test_script_main_runs(tmp_path, monkeypatch, capsys, script, args, expect):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script] + args)
    runpy.run_path(str(SCRIPTS / script))["main"]()
    assert expect in capsys.readouterr().out


def _suite_refusal(tmp_path, monkeypatch, capsys, args):
    """The stderr of convergence_suite.py on args that it refuses or that
    halt a level: exit code 2, no file written."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["convergence_suite.py", "--set", "grid.n_cells=32"]
                        + args)
    main = runpy.run_path(str(SCRIPTS / "convergence_suite.py"))["main"]
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []
    return capsys.readouterr().err


def test_the_suite_writes_the_study_of_its_settings(tmp_path, monkeypatch):
    """The script's CSV is, byte for byte, study_to_csv of convergence_study
    on the config that BASE and the --set items build: drift and
    residual_Phi_t evolve that config's own data, as for a library caller."""
    sets, obs = ["grid.n_cells=32", "initial_data.amplitude=0.3"], ("drift", "residual_Phi_t")
    monkeypatch.setattr(sys, "argv", ["convergence_suite.py", "--observables", ",".join(obs),
                                      "--t-center", "0.5",
                                      *[a for s in sets for a in ("--set", s)],
                                      "--out", str(tmp_path / "script.csv")])
    script = runpy.run_path(str(SCRIPTS / "convergence_suite.py"))
    script["main"]()
    base, _ = cli.load_config(None, script["BASE"] + sets)
    study_to_csv(convergence_study(base, 3, obs, t_center=0.5), tmp_path / "library.csv")
    assert (tmp_path / "script.csv").read_bytes() == (tmp_path / "library.csv").read_bytes()


def test_convergence_suite_refuses_an_empty_observable_list(tmp_path, monkeypatch, capsys):
    err = _suite_refusal(tmp_path, monkeypatch, capsys, ["--observables", ""])
    assert "a refinement study needs at least one observable" in err


def test_convergence_suite_exits_2_when_a_level_halts(tmp_path, monkeypatch, capsys):
    """A level that blows up ends the script with one error line naming the
    level and the reason, the halt code of faddeevlab run, and no CSV."""
    err = _suite_refusal(tmp_path, monkeypatch, capsys,
                         ["--observables", "drift",
                          "--set", "initial_data.amplitude=16", "--set", "grid.n_cells=64"])
    assert err == ("error: study drift run at n=64 stopped early: non-finite field "
                   "values at step 8, t=0.25, r=0\n")


def test_convergence_suite_exits_2_when_a_window_halts(tmp_path, monkeypatch, capsys):
    """A residual_Phi* window whose evolution goes non-finite halts by the
    rule of a run: the error line of a halted drift level but for the
    observable's name, and no RuntimeWarning (which pytest makes an error)."""
    args = ["--set", "initial_data.amplitude=16", "--set", "grid.n_cells=64",
            "--t-center", "0.5"]
    drift, window = (_suite_refusal(tmp_path, monkeypatch, capsys, ["--observables", o] + args)
                     for o in ("drift", "residual_Phi_t"))
    assert drift.startswith("error: study drift run at n=64 stopped early: non-finite")
    assert window == drift.replace("study drift", "study residual_Phi_t")


def test_convergence_suite_refuses_the_retired_linear_token(tmp_path, monkeypatch,
                                                            capsys):
    """The free wave is the linear_solution observable; the old bare
    'linear' token is an unknown observable like any other."""
    err = _suite_refusal(tmp_path, monkeypatch, capsys, ["--observables", "linear"])
    assert "unknown observables ['linear']" in err


def test_convergence_suite_refuses_a_repeated_observable(tmp_path, monkeypatch, capsys):
    """A repeated window observable would append its errors twice per level."""
    err = _suite_refusal(tmp_path, monkeypatch, capsys,
                         ["--observables", "residual_Phi,residual_Phi", "--t-center", "0.3"])
    assert "observable 'residual_Phi' is given twice" in err


def test_convergence_suite_refuses_a_base_mesh_below_the_stencils(tmp_path, monkeypatch,
                                                                  capsys):
    """A base the config refuses is a usage line, like a refused study, not
    a traceback."""
    err = _suite_refusal(tmp_path, monkeypatch, capsys, ["--set", "grid.n_cells=3"])
    assert err.startswith("usage:")
    assert "error: n_cells must be >= 6" in err


@pytest.mark.parametrize("args,message", [
    (["--set", "grid.n_cell=64"], "error: unknown key 'grid.n_cell'"),
    (["--set", "integrator.t_end=soon"], "error: bad value for integrator.t_end"),
    (["--set", "output.dir=runs"], "error: output.dir: a study writes one CSV"),
    (["--observables", "solution", "--set", "initial_data.amplitude=0"],
     "error: no observable of this study evolves the base's data, so "
     "initial_data.amplitude would be ignored"),
    (["--observables", "solution,residual_v,linear_solution",
      "--set", "integrator.sponge_strength=2", "--set", " initial_data.width=2",
      "--set", "integrator.sponge_start=5", "--set", "grid.r_max=8"],
     "so initial_data.width, integrator.sponge_start, integrator.sponge_strength "
     "would be ignored"),
])
def test_convergence_suite_refuses_a_setting_it_cannot_use(tmp_path, monkeypatch, capsys,
                                                           args, message):
    """A setting the config refuses, the output dir (whose place is --out),
    and data and sponge settings in a study whose observables all start
    from the manufactured solution (a later --observables wins) are each
    one usage line, not a silent study."""
    err = _suite_refusal(tmp_path, monkeypatch, capsys, ["--observables", "drift"] + args)
    assert err.startswith("usage:") and message in err


def test_the_suite_and_the_sweep_read_one_drift(tmp_path, monkeypatch):
    """The criterion-3 recipe's two commands take one --set list, and each
    level's drift equals the sweep row of its n_cells, bit for bit."""
    sets = [a for s in ("grid.r_max=8", "integrator.t_end=0.5", "diagnostics.output_every=8",
                        "diagnostics.drift_ceiling=1", "initial_data.amplitude=0")
            for a in ("--set", s)]
    assert cli.main(["sweep", *sets, "--sweep", "grid.n_cells=32,64,128",
                     "--out", str(tmp_path / "sweep")]) == 0
    monkeypatch.setattr(sys, "argv", ["convergence_suite.py", "--observables", "drift",
                                      "--set", "grid.n_cells=32", *sets,
                                      "--out", str(tmp_path / "study.csv")])
    runpy.run_path(str(SCRIPTS / "convergence_suite.py"))["main"]()
    with open(tmp_path / "sweep" / "summary.csv") as fh:
        swept = {row["grid.n_cells"]: float(row["max_drift"]) for row in csv.DictReader(fh)}
    with open(tmp_path / "study.csv") as fh:
        studied = {row["n_cells"]: float(row["error"]) for row in csv.DictReader(fh)}
    assert swept == studied and list(studied) == ["32", "64", "128"]
    assert min(studied.values()) > 0.0


def _campaign_main(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_acceptance_campaign.py"] + args)
    return runpy.run_path(str(SCRIPTS / "run_acceptance_campaign.py"))["main"]


@pytest.mark.parametrize("args,message", [
    (["diagnostics.output_every=1"], "diagnostics.output_every must be even and >= 2, got 1"),
    (["diagnostics.output_every=0"], "error: output cadence must be >= 1 step"),
    (["grid.n_cells=64", "diagnostics.output_every=3"],
     "diagnostics.output_every must be even and >= 2, got 3"),
    (["grid.n_cells=65", "diagnostics.output_every=2"], "grid.n_cells must be even, got 65"),
    (["grid.n_cells=65", "diagnostics.output_every=3"], "diagnostics.output_every must be even"),
])
def test_acceptance_campaign_rejects_unaligned_inputs(tmp_path, monkeypatch, capsys,
                                                      args, message):
    """A cadence or mesh the half-resolution companion cannot sample at the
    fine run's times is refused before any run or directory is made."""
    main = _campaign_main(tmp_path, monkeypatch, [a for s in args for a in ("--set", s)])
    monkeypatch.setitem(main.__globals__, "run", lambda c: pytest.fail("a run started"))
    with pytest.raises(SystemExit):
        main()
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("setting,message", [
    ("grid.r_max=big", "error: bad value for grid.r_max"),
    ("output.dir=runs", "error: output.dir: the campaign writes under one directory"),
])
def test_acceptance_campaign_refuses_a_setting_it_cannot_use(tmp_path, monkeypatch, capsys,
                                                             setting, message):
    main = _campaign_main(tmp_path, monkeypatch, ["--set", setting])
    monkeypatch.setitem(main.__globals__, "run", lambda c: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err
    assert list(tmp_path.iterdir()) == []


def test_acceptance_campaign_exits_2_when_a_run_halts(tmp_path, monkeypatch, capsys):
    """At n = 64 both runs halt as scheme_breakdown: every artifact and the
    summary are still written, and the script exits 2 as faddeevlab run does."""
    main = _campaign_main(tmp_path, monkeypatch, [
        "--set", "grid.n_cells=64", "--set", "grid.r_max=8", "--set", "integrator.t_end=0.25",
        "--set", "diagnostics.output_every=4"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    out = capsys.readouterr().out
    assert out.count("status=scheme_breakdown") == 2
    assert "halted early" in out and "artifacts in acceptance_out" in out
    assert sorted(os.listdir(tmp_path / "acceptance_out")) == [
        "diag_coarse.csv", "diag_fine.csv", "final_coarse.csv", "final_coarse.meta",
        "final_fine.csv", "final_fine.meta"]


@pytest.mark.parametrize("t_end,aligned", [("0.25", True), ("0.255", False)])
def test_acceptance_campaign_warns_when_sample_times_differ(tmp_path, monkeypatch, capsys,
                                                            t_end, aligned):
    """At t_end 0.255 the fine run takes 33 steps and the companion 17, so
    an even cadence still samples them at different times."""
    main = _campaign_main(tmp_path, monkeypatch, [
        "--set", "grid.n_cells=256", "--set", "grid.r_max=8",
        "--set", f"integrator.t_end={t_end}", "--set", "diagnostics.output_every=2"])
    main()
    out = capsys.readouterr().out
    assert "status=completed" in out and "halted early" not in out
    assert ("sampled at different times" in out) is not aligned


def _bench_trees(tmp_path):
    """A parent and a change checkout holding only what paired_bench.py reads
    before it runs anything: perfbench/run.py and BENCHMARK.json."""
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "steps_per_s", "better": "higher", "bound": 0.1}]}))
    return ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--workload", "sample_dense", "--out", str(tmp_path / "pairs.json")]


def _bench_result(wall, rate, correct=True):
    return {"correct": correct, "metrics": {"wall_s": {"value": wall},
                                            "steps_per_s": {"value": rate}}}


def _paired_bench(monkeypatch, args, results):
    """paired_bench.py's main with its runs replaced by results, a dict of
    side -> the results of its successive runs; returns (main, runs made)."""
    monkeypatch.setattr(sys, "argv", ["paired_bench.py"] + args)
    main = runpy.run_path(str(SCRIPTS / "paired_bench.py"))["main"]
    made = []

    def fake_run(tree, workload, seconds, seed):
        side = Path(tree).name
        made.append((side, workload, seconds, seed))
        return results[side][sum(m[0] == side for m in made) - 1]
    monkeypatch.setitem(main.__globals__, "run_side", fake_run)
    return main, made


def test_paired_bench_summarizes_each_metric_by_its_direction(tmp_path, monkeypatch,
                                                             capsys):
    """Quartiles are numpy's linear percentiles; a tie counts for neither
    side; wall_s is better lower and steps_per_s higher. The terminal gets
    one line per metric after the file's name."""
    args = _bench_trees(tmp_path)
    results = {"parent": [_bench_result(w, 100.0) for w in (1.0, 1.2, 1.1, 1.3)],
               "change": [_bench_result(w, r) for w, r in
                          ((0.9, 110.0), (1.25, 90.0), (1.0, 100.0), (1.3, 101.0))]}
    main, made = _paired_bench(monkeypatch, args + ["--pairs", "4", "--seconds", "8"], results)
    main()
    assert [m[0] for m in made] == ["parent", "change", "change", "parent"] * 2
    assert {m[1:] for m in made} == {("sample_dense", 8.0, 0)}
    written = json.loads((tmp_path / "pairs.json").read_text())
    assert written["seed"] == 0
    summary = written["summary"]["sample_dense"]
    assert summary["wall_s"] == {
        "parent": {"q1": pytest.approx(1.075), "median": pytest.approx(1.15),
                   "q3": pytest.approx(1.225)},
        "change": {"q1": pytest.approx(0.975), "median": pytest.approx(1.125),
                   "q3": pytest.approx(1.2625)},
        "median_ratio": pytest.approx(1.125 / 1.15), "change_better_pairs": 2, "pairs": 4,
        "bound": 0.25, "worse": False, "unresolved": False}
    rate = summary["steps_per_s"]
    assert (rate["median_ratio"], rate["change_better_pairs"]) == (pytest.approx(1.005), 2)
    assert [run["parent_first"] for run in written["runs"]] == [True, False, True, False]
    assert written["runs"][1]["change"] == results["change"][1]
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {tmp_path / 'pairs.json'}",
        "sample_dense wall_s: parent 1.15 change 1.125 ratio 0.9783 change better in 2/4"
        " pairs (lower is better)",
        "sample_dense steps_per_s: parent 100 change 100.5 ratio 1.0050 change better in"
        " 2/4 pairs (higher is better)",
        "worse than its bound: none"]


def test_paired_bench_summarizes_each_workload_and_marks_a_metric_past_its_bound(
        tmp_path, monkeypatch, capsys):
    """--workload repeats: each workload gets its pairs and its summary in
    one file. A median that moves the wrong way by more than the metric's
    bound, as a fraction of the parent's, is marked WORSE, and the last line
    names it; one that moves by less, or the right way, is not marked."""
    args = _bench_trees(tmp_path) + ["--workload", "verify_small"]
    parent = [_bench_result(1.0, 100.0)] * 4
    results = {"parent": parent, "change": [_bench_result(1.2, 100.0)] * 2
               + [_bench_result(1.3, 89.0)] * 2}
    main, made = _paired_bench(monkeypatch, args + ["--pairs", "2"], results)
    main()
    assert [m[:2] for m in made] == [("parent", "sample_dense"), ("change", "sample_dense"),
                                     ("change", "sample_dense"), ("parent", "sample_dense"),
                                     ("parent", "verify_small"), ("change", "verify_small"),
                                     ("change", "verify_small"), ("parent", "verify_small")]
    written = json.loads((tmp_path / "pairs.json").read_text())
    assert [run["workload"] for run in written["runs"]] == ["sample_dense"] * 2 + [
        "verify_small"] * 2
    worse = {w: {name: m["worse"] for name, m in metrics.items()}
             for w, metrics in written["summary"].items()}
    assert worse == {"sample_dense": {"wall_s": False, "steps_per_s": False},
                     "verify_small": {"wall_s": True, "steps_per_s": True}}
    lines = capsys.readouterr().out.splitlines()
    assert [line.endswith(" WORSE than its bound 0.25") for line in lines[1:3]] == [
        False, False]
    assert lines[3].startswith("verify_small wall_s: parent 1 change 1.3 ratio 1.3000")
    assert lines[3].endswith("(lower is better) WORSE than its bound 0.25")
    assert lines[4].endswith("(higher is better) WORSE than its bound 0.1")
    assert lines[5] == "worse than its bound: verify_small wall_s, verify_small steps_per_s"


def test_paired_bench_marks_a_metric_whose_parent_spread_is_past_its_bound(
        tmp_path, monkeypatch, capsys):
    """A metric whose parent quartiles lie further apart than its bound, as
    a fraction of the parent's median, is UNRESOLVED, and the last line
    names it after the WORSE ones, unless every change run beats every
    parent run; a steady parent leaves a metric resolved."""
    args = _bench_trees(tmp_path) + ["--workload", "verify_small"]
    results = {"parent": [_bench_result(w, 100.0) for w in (1.0, 1.5, 1.0, 1.5) * 2],
               "change": [_bench_result(w, 100.0) for w in
                          (0.9, 1.6, 0.9, 0.9, 0.9, 0.8, 0.9, 0.95)]}
    main, _ = _paired_bench(monkeypatch, args + ["--pairs", "4"], results)
    main()
    written = json.loads((tmp_path / "pairs.json").read_text())
    unresolved = {w: {name: m["unresolved"] for name, m in metrics.items()}
                  for w, metrics in written["summary"].items()}
    assert unresolved == {"sample_dense": {"wall_s": True, "steps_per_s": False},
                          "verify_small": {"wall_s": False, "steps_per_s": False}}
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith("(lower is better) UNRESOLVED: parent spread past its bound 0.25")
    assert not any("UNRESOLVED" in line for line in lines[2:5])
    assert lines[5] == "worse than its bound: none; unresolved: sample_dense wall_s"


@pytest.mark.parametrize("missing,correct", [("parent", True), ("change", True),
                                             (None, False)])
def test_paired_bench_refuses_a_tree_without_the_benchmark_or_a_wrong_run(
        tmp_path, monkeypatch, capsys, missing, correct):
    args = _bench_trees(tmp_path)
    if missing:
        (tmp_path / missing / "perfbench" / "run.py").unlink()
    results = {side: [_bench_result(1.0, 1.0, correct=(side == "parent") or correct)] * 2
               for side in ("parent", "change")}
    main, made = _paired_bench(monkeypatch, args + ["--pairs", "2"], results)
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert not (tmp_path / "pairs.json").exists()
    err = capsys.readouterr().err
    if missing:
        assert made == [] and f"{missing} has no perfbench/run.py" in err
    else:
        assert len(made) == 2 and "pair 0: a run is not correct" in err


@pytest.mark.parametrize("body,why", [
    ("print('  FAIL final.csv: sha256 differs from pin')\nprint('  FAIL max drift 1.0')\n"
     "print('{\"correct\": false}')\n",
     "exit 0: FAIL final.csv: sha256 differs from pin | FAIL max drift 1.0"),
    ("import sys\nprint('workload=x')\nsys.exit('run.py: error: no such workload')\n",
     "exit 1: run.py: error: no such workload"),
])
def test_paired_bench_says_why_a_run_is_not_correct(tmp_path, monkeypatch, capsys, body,
                                                    why):
    """A refused run is named by side, exit code and the FAIL lines
    perfbench/run.py printed, or else the tail of its stderr."""
    args = _bench_trees(tmp_path)
    (tmp_path / "change" / "perfbench" / "run.py").write_text(body)
    monkeypatch.setattr(sys, "argv", ["paired_bench.py"] + args + ["--pairs", "1"])
    main = runpy.run_path(str(SCRIPTS / "paired_bench.py"))["main"]
    run_side = main.__globals__["run_side"]
    assert run_side(str(tmp_path / "change"), "sample_dense", 1, 0) == {"correct": False,
                                                                        "why": why}
    monkeypatch.setitem(main.__globals__, "run_side", lambda tree, *a: (
        _bench_result(1.0, 1.0) if Path(tree).name == "parent" else run_side(tree, *a)))
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"error: sample_dense pair 0: a run is not correct: change ({why})\n")


def test_paired_bench_runs_both_sides_at_the_seed_asked_for(tmp_path, monkeypatch):
    """--seed reaches every run's perfbench/run.py command line and the file,
    so a claim is rechecked on a seed it was not written against."""
    args = _bench_trees(tmp_path)
    echo = ("import json, sys\n"
            "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
            "print(json.dumps({'correct': True, 'metrics': {\n"
            "    'wall_s': {'value': 1.0 + seed}, 'steps_per_s': {'value': 1.0}}}))\n")
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench" / "run.py").write_text(echo)
    monkeypatch.setattr(sys, "argv", ["paired_bench.py"] + args + ["--pairs", "2",
                                                                    "--seed", "7"])
    runpy.run_path(str(SCRIPTS / "paired_bench.py"))["main"]()
    written = json.loads((tmp_path / "pairs.json").read_text())
    assert written["seed"] == 7
    assert {run[side]["metrics"]["wall_s"]["value"] for run in written["runs"]
            for side in ("parent", "change")} == {8.0}


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_paired_bench_refuses_fewer_than_one_pair(tmp_path, monkeypatch, capsys, pairs):
    """No pair would leave nothing to summarize: refused with a usage line
    before any run, and no file is written."""
    main, made = _paired_bench(monkeypatch, _bench_trees(tmp_path) + ["--pairs", pairs], {})
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2 and made == []
    assert not (tmp_path / "pairs.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and f"--pairs must be >= 1, got {pairs}" in err
