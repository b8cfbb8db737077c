"""Command-line interface: config plumbing, exit codes, artifacts."""

import ast
import concurrent.futures
import configparser
import csv
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from faddeevlab import cli, evolve, kernels
from faddeevlab.cli import ConfigError, load_config, main, write_effective_config
from faddeevlab.evolve import CONFIG_TABLE, RunConfig
from faddeevlab.grid import RadialGrid

TINY_GRID = ["--set", "grid.n_cells=64", "--set", "grid.r_max=8",
             "--set", "integrator.t_end=0.25"]
TINY = TINY_GRID + ["--set", "diagnostics.output_every=16"]


def run_dirs(tmp_path, name):
    d = tmp_path / name
    return str(d)


def test_unknown_key_is_a_config_error(capsys):
    rc = main(["run", "--set", "grid.n_sells=64"])
    assert rc == 1
    assert "unknown key 'grid.n_sells'" in capsys.readouterr().err


def test_override_without_equals_is_a_config_error(capsys):
    rc = main(["run", "--set", "grid.n_cells"])
    assert rc == 1
    assert "not of the form" in capsys.readouterr().err


def test_bad_usage_exits_1_not_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_tiny_run_artifacts(tmp_path, capsys):
    out = run_dirs(tmp_path, "out")
    rc = main(["run"] + TINY + ["--out", out])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "status=completed" in stdout

    diag_path = os.path.join(out, "diagnostics.csv")
    rows = Path(diag_path).read_text().splitlines()
    assert rows[0].startswith("time,energy,energy_drift,energy_tail,monitor_v")
    assert len(rows) >= 3

    assert os.path.exists(os.path.join(out, "final.csv"))
    assert os.path.exists(os.path.join(out, "final.meta"))

    # the effective config reproduces the run configuration exactly
    ini = os.path.join(out, "effective_config.ini")
    cfg_expected, _ = load_config(None, [s for s in TINY if "=" in s])
    cfg_echoed, echoed_out = load_config(ini, ())
    assert cfg_echoed == cfg_expected
    assert echoed_out == out


def test_run_is_byte_reproducible(tmp_path):
    outs = []
    for name in ("one", "two"):
        out = run_dirs(tmp_path, name)
        assert main(["run"] + TINY + ["--out", out]) == 0
        outs.append(out)
    a = Path(outs[0], "diagnostics.csv").read_bytes()
    b = Path(outs[1], "diagnostics.csv").read_bytes()
    assert a == b


def test_set_override_lands_in_effective_config(tmp_path):
    out = run_dirs(tmp_path, "alpha")
    rc = main(["run"] + TINY + ["--set", "kernels.alpha=0.7", "--out", out])
    assert rc == 0
    cp = configparser.ConfigParser()
    cp.read(os.path.join(out, "effective_config.ini"))
    assert float(cp["kernels"]["alpha"]) == 0.7


def test_monitor_ceiling_zero_exits_2(tmp_path, capsys):
    out = run_dirs(tmp_path, "halt")
    rc = main(["run"] + TINY + ["--set", "diagnostics.monitor_ceiling=0",
                                "--out", out])
    assert rc == 2
    assert "status=blowup_monitor" in capsys.readouterr().out


def test_missing_profile_table_exits_1(tmp_path, capsys):
    out = run_dirs(tmp_path, "bad")
    rc = main(["run", "--set", "initial_data.family=profile_u",
               "--set", "initial_data.profile_path=/nonexistent.csv",
               "--out", out])
    assert rc == 1
    assert "config-error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["verify", "energy"], ["kernels-table"]])
@pytest.mark.parametrize("alpha", ["1e200", "1e-200", "1e-160"])
def test_an_alpha_whose_square_is_not_a_finite_nonzero_float_is_refused(tmp_path, capsys,
                                                                         command, alpha):
    """1e200 squared overflowed into an OverflowError traceback, 1e-200
    squared to 0 was reported as the initial data's energy overflow, and
    1e-160 squared is subnormal: the energy's q / alpha^2 erred by 5e-5."""
    out = tmp_path / "out"
    rc = main(command + ["--set", f"kernels.alpha={alpha}", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config-error: kernels.alpha must be positive with a finite, normal square, "
        f"got {float(alpha)!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["verify", "energy"], ["kernels-table"]])
def test_kernels_only_subcommands_refuse_settings_they_would_ignore(tmp_path, capsys,
                                                                    command):
    """verify and kernels-table read kernels.* alone: any other setting that
    is not its default is refused by key before any directory is made."""
    out = tmp_path / "out"
    rc = main(command + TINY_GRID + ["--set", "kernels.alpha=0.7", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config-error: {command[0]} reads only kernels.* and output.dir; it would "
        f"ignore grid.n_cells, grid.r_max, integrator.t_end\n")
    assert not out.exists()


def test_kernels_table_accepts_defaults_kernel_settings_and_output_dir(tmp_path):
    """A setting given at its default value is not ignored: it is accepted,
    and so are kernels.* and output.dir, here from a config file."""
    ini = tmp_path / "k.ini"
    out = tmp_path / "tables"
    ini.write_text(f"[grid]\nn_cells = 512\n[kernels]\ncutoff_order = 9\n"
                   f"[output]\ndir = {out}\n")
    assert main(["kernels-table", "--config", str(ini)]) == 0
    assert sorted(os.listdir(out)) == ["cutoffs.csv", "kernels.csv"]


def test_profile_family_without_a_table_is_refused_at_load(tmp_path, capsys):
    out = tmp_path / "no_table"
    rc = main(["run", "--set", "initial_data.family=profile_u", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config-error: initial_data.family=profile_u needs a table: "
        "set initial_data.profile_path\n")
    assert not out.exists()


@pytest.mark.parametrize("command,blocked,written", [
    (["run"] + TINY, "final.csv", ["diagnostics.csv", "effective_config.ini", "final.csv"]),
    (["kernels-table"], "kernels.csv", ["kernels.csv"]),
])
def test_an_output_file_that_cannot_be_written_is_a_config_error(tmp_path, capsys, command,
                                                                 blocked, written):
    """A directory where an output file goes: the subcommand writes what it
    can, then reports the path it could not write in one line, exit 1."""
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    rc = main(command + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config-error: ") and err.count("\n") == 1
    assert str(out / blocked) in err
    assert sorted(os.listdir(out)) == written


def test_config_file_loading(tmp_path):
    path = tmp_path / "conf.ini"
    path.write_text("[grid]\nn_cells = 96\nr_max = 8.0\n"
                    "[diagnostics]\nsobolev_orders = 1,3\n"
                    "[output]\ndir = from_file\n")
    cfg, out_dir = load_config(str(path), ["grid.n_cells=128"])
    assert cfg.n_cells == 128  # --set wins over the file
    assert cfg.r_max == 8.0
    assert cfg.sobolev_orders == (1, 3)
    assert out_dir == "from_file"


@pytest.mark.parametrize("rest", ["", "[grid]\nr_max = 8\n", "[integrator]\nt_end = 0.1\n"])
def test_a_default_section_is_checked_like_any_other(tmp_path, rest):
    """configparser would drop [DEFAULT] keys when no other section is
    given and copy them into every other section: the loader names them
    under their own section instead."""
    path = tmp_path / "conf.ini"
    path.write_text("[DEFAULT]\nn_cells = 64\n" + rest)
    with pytest.raises(ConfigError, match=r"^unknown key 'DEFAULT\.n_cells'$"):
        load_config(str(path))


TABLE_R = RadialGrid(64, 8.0).r  # the nodes of TINY_GRID


def write_table(path, u_t):
    """A profile_u table (r, u, u_t) on TABLE_R with u = pi exp(-r^2)."""
    np.savetxt(path, np.column_stack((TABLE_R, np.pi * np.exp(-TABLE_R ** 2), u_t)),
               delimiter=",", header="r,u,u_t", comments="")


def test_paths_may_contain_a_percent_sign(tmp_path):
    """A % in output.dir or initial_data.profile_path is plain text, in the
    config file read and in the effective config written back."""
    table, out, conf = tmp_path / "50%table.csv", tmp_path / "50%done", tmp_path / "c.ini"
    write_table(table, np.zeros(TABLE_R.size))
    conf.write_text(f"[initial_data]\nfamily = profile_u\nprofile_path = {table}\n"
                    f"[output]\ndir = {out}\n")
    assert main(["run", "--config", str(conf)] + TINY) == 0
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "effective_config.ini",
                                       "final.csv", "final.meta"]
    cfg, echoed_out = load_config(str(out / "effective_config.ini"))
    assert (cfg.initial.profile_path, echoed_out) == (str(table), str(out))


def test_an_initial_gaussian_whose_energy_overflows_names_its_family(tmp_path, capsys):
    # finite data that initial_state accepts; its energy density overflows
    out = tmp_path / "wide"
    rc = main(["run", "--set", "initial_data.amplitude=1e150",
               "--set", "initial_data.width=0.001"] + TINY_GRID + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config-error: initial_data.family=gaussian_v gives a non-finite "
        "energy integrand at r=0\n")
    assert not out.exists()


def test_initial_data_whose_energy_overflows_stops_before_a_step_in_blocks(
        tmp_path, capsys, monkeypatch):
    """Sampled every step on this mesh, samples are taken in blocks of 16;
    the initial sample is taken alone, so overflowing initial data is still
    a config error, raised before the first RK4 step."""
    steps = []
    rk4 = evolve._rk4
    monkeypatch.setattr(evolve, "_rk4", lambda *a: steps.append(1) or rk4(*a))
    args = TINY_GRID + ["--set", "diagnostics.output_every=1"]
    assert evolve._block_size(load_config(None, args[1::2])[0]) == 16
    out = tmp_path / "wide"
    rc = main(["run", "--set", "initial_data.amplitude=1e150",
               "--set", "initial_data.width=0.001"] + args + ["--out", str(out)])
    assert rc == 1 and steps == []
    assert capsys.readouterr().err == (
        "config-error: initial_data.family=gaussian_v gives a non-finite "
        "energy integrand at r=0\n")
    assert not out.exists()


def test_an_initial_table_whose_energy_overflows_names_its_path(tmp_path, capsys):
    table, out = tmp_path / "big.csv", tmp_path / "big"
    write_table(table, np.where(TABLE_R == 3.0, 1e200, 0.0))
    rc = main(["run", "--set", "initial_data.family=profile_u",
               "--set", f"initial_data.profile_path={table}"] + TINY_GRID
              + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config-error: initial_data.family=profile_u, initial_data.profile_path="
        f"{table} gives a non-finite energy integrand at r=3\n")
    assert not out.exists()


# sha256 of each suite's report (numpy 2.4 on x86-64): a refactor keeps them
VERIFY_CSV_SHA256 = {
    "kernels": "1b33d6a61ee0e063b25f561d3b9c2d3b8f62cedf081dc99e4bcb46364b03d979",
    "transforms": "2c771d1dd3bfe47ca1711d5b748a8bd7b083f97a9877fe7b9b99a00a02874f92",
    "convergence": "5d448f96057dea28eb57d490f4cd4d096e452ead6a337a7627dd0e8f0d2132a9",
    "energy": "88cdd022eaaac9118565236fd53fa807f3c13cae0e5ce8bfd0f7e1633d07d93f",
}


@pytest.mark.parametrize("suite,n_checks", [
    ("kernels", 14),
    ("transforms", 3),
    ("energy", 3),
    ("convergence", 3),
])
def test_verify_suites_pass(tmp_path, capsys, suite, n_checks):
    out = run_dirs(tmp_path, suite)
    rc = main(["verify", suite, "--out", out])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert stdout.count("PASS") == n_checks
    assert "FAIL" not in stdout
    assert f"status=ok suite={suite} checks={n_checks} failures=0" in stdout
    report = os.path.join(out, f"verify_{suite}.csv")
    rows = Path(report).read_text().splitlines()
    assert rows[0] == "suite,check,value,tolerance,passed"
    assert len(rows) == 1 + n_checks
    assert all(row.endswith("True") for row in rows[1:])
    digest = hashlib.sha256(Path(report).read_bytes()).hexdigest()
    assert digest == VERIFY_CSV_SHA256[suite]


def test_two_path_samples_are_the_draws_of_default_rng_0():
    """The stored samples of the two-path check are, byte for byte, the
    draws numpy.random.default_rng(0) gives in the order the check used to
    make them: v, v_t and v_r in [-2, 2], then r in [0.05, 0.45]."""
    rng = np.random.default_rng(0)
    draws = [rng.uniform(-2.0, 2.0, 1000) for _ in range(3)] + [
        rng.uniform(0.05, 0.45, 1000)]
    assert Path(cli.TWO_PATH_SAMPLES).read_bytes() == np.concatenate(draws).astype(
        "<f8").tobytes()


def test_every_convergence_row_is_judged_at_its_printed_tolerance(tmp_path, capsys):
    """At alpha = 13 the drift order is 3.31: below the 3.5 the row prints."""
    rc = main(["verify", "convergence", "--set", "kernels.alpha=13",
               "--out", run_dirs(tmp_path, "alpha13")])
    assert rc == 3
    assert "FAIL convergence.drift_order value=3.30697 tolerance=3.5" in capsys.readouterr().out


def test_sweep_single_point_matches_plain_run(tmp_path):
    plain = run_dirs(tmp_path, "plain")
    assert main(["run"] + TINY + ["--set", "initial_data.amplitude=0.3",
                                  "--out", plain]) == 0
    sweep_root = run_dirs(tmp_path, "sweep1")
    rc = main(["sweep"] + TINY + ["--sweep", "initial_data.amplitude=0.3",
                                  "--jobs", "1", "--out", sweep_root])
    assert rc == 0
    a = Path(plain, "diagnostics.csv").read_bytes()
    b = Path(sweep_root, "run_000", "diagnostics.csv").read_bytes()
    assert a == b


def test_sweep_run_writes_what_run_writes(tmp_path):
    snaps = TINY_GRID + ["--set", "output.snapshot_every=4"]
    plain = run_dirs(tmp_path, "plain")
    assert main(["run"] + snaps + ["--out", plain]) == 0
    sweep_root = run_dirs(tmp_path, "sweep1")
    assert main(["sweep"] + snaps + ["--sweep", "initial_data.amplitude=0.5",
                                     "--jobs", "1", "--out", sweep_root]) == 0
    swept = os.path.join(sweep_root, "run_000")
    names = sorted(os.listdir(plain))
    assert sorted(os.listdir(swept)) == names
    snapshot_files = [n for n in names if n.startswith("snapshot_")]
    assert len(snapshot_files) == 6  # steps 0, 4, 8: .csv and .meta each
    for name in snapshot_files:
        assert (Path(plain, name).read_bytes()
                == Path(swept, name).read_bytes())


# retired settings, each with the value older effective_config.ini files hold
RETIRED = {"kernels.x_switch": "0.01", "kernels.series_terms": "8",
           "diagnostics.decay_s_proxy": "2", "integrator.integrator": "rk4",
           "diagnostics.ghost_mode": "reflect"}


@pytest.mark.parametrize("key", sorted(RETIRED))
def test_retired_key_is_an_unknown_key(tmp_path, capsys, key):
    out = tmp_path / "out"
    rc = main(["run"] + TINY + ["--set", f"{key}={RETIRED[key]}", "--out", str(out)])
    assert rc == 1
    assert f"config-error: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_series_terms_above_the_stored_series_is_a_config_error(tmp_path, capsys):
    # the series length is fixed at the 8 stored terms; asking for more is
    # rejected before any output, now as a key that is not a setting
    out = tmp_path / "out"
    rc = main(["run", "--set", "kernels.series_terms=40", "--out", str(out)])
    assert rc == 1
    assert "config-error: unknown key 'kernels.series_terms'" in capsys.readouterr().err
    assert not out.exists()


# settings that RunConfig rejects, with the text the error must show
BAD_SETTINGS = [
    ("grid.n_cells=2", "n_cells must be >= 6"),
    ("grid.n_cells=5", "n_cells must be >= 6"),
    ("integrator.t_end=inf", "integrator.t_end must be finite"),
    ("integrator.t_end=nan", "integrator.t_end must be finite"),
    ("grid.r_max=inf", "grid.r_max must be finite"),
    ("initial_data.amplitude=nan", "initial_data.amplitude must be finite"),
    ("diagnostics.drift_ceiling=nan", "diagnostics.drift_ceiling must be finite"),
    ("integrator.sponge_strength=-50", "integrator.sponge_strength must be >= 0"),
    ("diagnostics.drift_ceiling=-1", "diagnostics.drift_ceiling must be >= 0, got -1.0"),
    ("diagnostics.monitor_ceiling=-5", "diagnostics.monitor_ceiling must be >= 0, got -5.0"),
]


@pytest.mark.parametrize("command,setting,message", [
    (["run"], "output.snapshot_every=-4", "snapshot_every must be >= 0"),
    (["run"], "diagnostics.sobolev_orders=1,5", "sobolev_orders must lie in 0..4"),
    (["sweep", "--sweep", "initial_data.amplitude=0.1,0.3"],
     "diagnostics.sobolev_orders=1,5", "sobolev_orders must lie in 0..4"),
] + [(command, setting, message) for setting, message in BAD_SETTINGS
     for command in (["run"], ["sweep", "--sweep", "initial_data.width=0.9,1.1"])])
def test_out_of_range_setting_fails_before_the_run(tmp_path, capsys, command,
                                                   setting, message):
    out = tmp_path / "out"
    rc = main(command + TINY + ["--set", setting, "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--sweep", "initial_data.amplitude=0.1,0.3"]])
@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_path_through_a_file_fails_before_the_run(tmp_path, capsys,
                                                      monkeypatch, command, out):
    afile = tmp_path / "afile"
    afile.write_text("keep")

    def no_run(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run", no_run)
    rc = main(command + TINY + ["--out", str(tmp_path / out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("config-error: output dir ")
    assert err.rstrip().endswith("is not a directory")
    assert afile.read_text() == "keep"
    assert sorted(os.listdir(tmp_path)) == ["afile"]


def test_sweep_grid(tmp_path, capsys):
    root = run_dirs(tmp_path, "sweep2")
    rc = main(["sweep"] + TINY + ["--sweep", "initial_data.amplitude=0.1,0.3",
                                  "--jobs", "1", "--out", root])
    assert rc == 0
    assert "status=done runs=2 incomplete=0" in capsys.readouterr().out
    rows = Path(root, "summary.csv").read_text().splitlines()
    assert rows[0].startswith("run_dir,initial_data.amplitude,status")
    assert len(rows) == 3
    assert rows[1].startswith("run_000,0.1,completed")
    assert rows[2].startswith("run_001,0.3,completed")
    for sub in ("run_000", "run_001"):
        assert os.path.exists(os.path.join(root, sub, "diagnostics.csv"))


def test_kernels_table(tmp_path, capsys):
    out = run_dirs(tmp_path, "tables")
    rc = main(["kernels-table", "--out", out])
    assert rc == 0
    assert "status=ok" in capsys.readouterr().out
    kern = Path(out, "kernels.csv").read_text().splitlines()
    assert kern[0] == "x,Ftilde0,Ftilde1,Ftilde2,Ftilde3,Ftilde4"
    assert len(kern) == 1 + 601
    cuts = Path(out, "cutoffs.csv").read_text().splitlines()
    assert cuts[0] == "r,phi,dphi,lt1,gt1,lap2_phi,A4_at_v1"
    assert len(cuts) == 1 + 601


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_kernels_table_A4_column_is_A4_at_v_one(tmp_path, alpha):
    """The A4_at_v1 column reads back as A_4(1, r) to the last bit."""
    out = run_dirs(tmp_path, "tables")
    assert main(["kernels-table", "--set", f"kernels.alpha={alpha}", "--out", out]) == 0
    rows = [line.split(",") for line in Path(out, "cutoffs.csv").read_text().splitlines()[1:]]
    r = np.array([float(row[0]) for row in rows])
    a4 = np.array([float(row[-1]) for row in rows])
    assert np.array_equal(a4, kernels._a4(np.ones_like(r), r, kernels.KernelParams(alpha)))


def read_meta(path):
    return dict(line.split(" = ", 1) for line in Path(path).read_text().splitlines())


def test_checkpoints_record_the_step_index(tmp_path):
    # dt = t_end / ceil(t_end / (cfl dr)) = 0.25 / 8: snapshots at steps 0, 4, 8
    out = run_dirs(tmp_path, "snaps")
    assert main(["run"] + TINY_GRID + ["--set", "output.snapshot_every=4",
                                       "--out", out]) == 0
    got = [(m["time"], m["step"]) for m in
           (read_meta(os.path.join(out, f"snapshot_{i:04d}.meta")) for i in range(3))]
    assert got == [("0", "0"), ("0.125", "4"), ("0.25", "8")]
    final = read_meta(os.path.join(out, "final.meta"))
    assert (final["time"], final["step"]) == ("0.25", "8")


# sha256 of one snapshot pair of the run above, as the row-by-row csv
# writer wrote it (numpy 2.4.6, x86-64)
SNAPSHOT_0001_PINS = {
    "snapshot_0001.csv": "217495e45584b3caeb30ece4ce4acb58f9ff06245b2f10df233b5a292958536a",
    "snapshot_0001.meta": "a0729f78b645fdfe3d4bec2257d07feae38d698f533f66075c9eda8250d187b5",
}


def test_snapshot_bytes_are_pinned(tmp_path):
    out = run_dirs(tmp_path, "snaps")
    assert main(["run"] + TINY_GRID + ["--set", "output.snapshot_every=4",
                                       "--out", out]) == 0
    got = {name: hashlib.sha256(Path(out, name).read_bytes()).hexdigest()
           for name in SNAPSHOT_0001_PINS}
    assert got == SNAPSHOT_0001_PINS


def test_halted_run_records_the_halting_step(tmp_path, capsys):
    # the first sample after t = 0 (step 3) exceeds a drift ceiling of 1e-12
    out = run_dirs(tmp_path, "halted")
    rc = main(["run"] + TINY_GRID + ["--set", "diagnostics.output_every=3",
                                     "--set", "diagnostics.drift_ceiling=1e-12",
                                     "--out", out])
    assert rc == 2
    assert "status=scheme_breakdown" in capsys.readouterr().out
    final = read_meta(os.path.join(out, "final.meta"))
    assert (final["time"], final["step"]) == ("0.09375", "3")


def test_non_finite_run_halts_on_its_first_bad_step(tmp_path, capsys):
    # amplitude-16 data on the default grid (dt = 1/128) first goes
    # non-finite at step 20, next to the origin; the first sample after
    # t = 0 would be step 64
    out = run_dirs(tmp_path, "nan")
    rc = main(["run", "--set", "initial_data.amplitude=16",
               "--set", "integrator.t_end=1", "--out", out])
    assert rc == 2
    assert ("status=blowup_nan t_final=0.15625 out=" + out + " reason="
            "'non-finite field values at step 20, t=0.15625, r=0'"
            ) in capsys.readouterr().out
    final = read_meta(os.path.join(out, "final.meta"))
    assert (final["time"], final["step"]) == ("0.15625", "20")
    assert len(Path(out, "diagnostics.csv").read_text().splitlines()) == 2


# narrow amplitude-20 data on dt = 0.6/39: at step 9, max|v| = 2.86e96 and
# max|v_t| = 8.01e193 are finite, but the energy density overflows at r = 0
OVERFLOW = ["--set", "initial_data.amplitude=20", "--set", "initial_data.width=0.3",
            "--set", "grid.n_cells=128", "--set", "grid.r_max=8",
            "--set", "integrator.t_end=0.6", "--set", "diagnostics.output_every=1",
            "--set", "diagnostics.drift_ceiling=1e300",
            "--set", "diagnostics.monitor_ceiling=1e300"]


def test_finite_fields_whose_energy_overflows_halt_as_a_blowup(tmp_path, capsys):
    out = run_dirs(tmp_path, "overflow")
    rc = main(["run"] + OVERFLOW + ["--out", out])
    assert rc == 2
    assert ("status=blowup_nan t_final=0.13846153846153844 out=" + out + " reason="
            "'non-finite energy integrand at r=0 at step 9, t=0.138462'"
            ) in capsys.readouterr().out
    final = read_meta(os.path.join(out, "final.meta"))
    assert (final["time"], final["step"]) == ("0.13846153846153844", "9")
    rows = Path(out, "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 1 + 9  # the samples of steps 0..8
    # in a sweep the same run is a halted row, not an error
    root = run_dirs(tmp_path, "sweep")
    assert main(["sweep"] + OVERFLOW + ["--sweep", "grid.n_cells=128",
                                        "--out", root]) == 0
    summary = Path(root, "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[2] == "blowup_nan"


@pytest.mark.parametrize("out", [None, "root"])
def test_sweep_over_output_dir_is_a_config_error(tmp_path, capsys, monkeypatch, out):
    """Every run of a sweep writes under one directory, so output.dir is no
    axis: refused before any directory is made, with or without --out."""
    monkeypatch.chdir(tmp_path)
    args = ["--out", str(tmp_path / out)] if out else []
    rc = main(["sweep"] + TINY + ["--sweep", "output.dir=a,b", "--jobs", "1"] + args)
    assert rc == 1
    assert capsys.readouterr().err == (
        "config-error: sweep axis 'output.dir': every run of a sweep writes "
        "under one output directory; set it with --out\n")
    assert os.listdir(tmp_path) == []


def test_repeated_sweep_axis_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "sweep_twice"
    rc = main(["sweep"] + TINY + ["--sweep", "grid.n_cells=16,32",
                                  "--sweep", "grid.n_cells=64", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config-error: sweep axis 'grid.n_cells' is given twice\n")
    assert not out.exists()


def test_unwritable_sweep_run_is_an_error_row(tmp_path, capsys):
    root = tmp_path / "sweep_blocked"
    root.mkdir()
    (root / "run_001").write_text("not a directory\n")
    rc = main(["sweep"] + TINY + ["--sweep", "initial_data.amplitude=0.1,0.3",
                                  "--jobs", "1", "--out", str(root)])
    assert rc == 4
    assert "status=done runs=2 incomplete=1" in capsys.readouterr().out
    rows = Path(root, "summary.csv").read_text().splitlines()
    assert [row.split(",")[2] for row in rows[1:]] == ["completed", "error"]
    assert Path(root, "run_000", "diagnostics.csv").exists()


@pytest.mark.parametrize("order", ["23", "1201"])
def test_cutoff_order_past_its_cap_is_a_config_error(tmp_path, capsys, order):
    out = tmp_path / "cutoff_order"
    rc = main(["run"] + TINY + ["--set", f"kernels.cutoff_order={order}",
                                "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config-error: kernels.cutoff_order must be odd and in 5..21, got {order}\n")
    assert not out.exists()


def test_sweep_with_errored_runs_exits_4(tmp_path, capsys):
    root = run_dirs(tmp_path, "sweep_err")
    missing = ",".join(str(tmp_path / name) for name in ("a.csv", "b.csv"))
    rc = main(["sweep", "--set", "initial_data.family=profile_u",
               "--sweep", f"initial_data.profile_path={missing}",
               "--jobs", "1", "--out", root])
    assert rc == 4
    assert "status=done runs=2 incomplete=2" in capsys.readouterr().out
    with open(Path(root, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["error", "error"]
    # an error row's reason names what raised
    assert all(row["reason"].startswith("FileNotFoundError: ") for row in rows)


def test_errored_sweep_runs_leave_no_run_directory(tmp_path):
    root = tmp_path / "sweep_err"
    missing = ",".join(str(tmp_path / name) for name in ("a.csv", "b.csv"))
    assert main(["sweep", "--set", "initial_data.family=profile_u",
                 "--sweep", f"initial_data.profile_path={missing}",
                 "--jobs", "1", "--out", str(root)]) == 4
    assert sorted(os.listdir(root)) == ["summary.csv"]


def test_overflowing_initial_data_is_a_config_error_without_output(tmp_path, capsys):
    out = tmp_path / "overflow"
    rc = main(["run"] + TINY + ["--set", "initial_data.amplitude=1e308",
                                "--out", str(out)])
    assert rc == 1
    assert ("config-error: initial_data.amplitude gives a non-finite initial "
            "state at r=0") in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_velocity_names_its_setting_and_radius(tmp_path, capsys):
    # v_t peaks near -1e308 at r = 3; u_t = r v_t overflows from r = 2.5 on
    out = tmp_path / "overflow_t"
    rc = main(["run"] + TINY + ["--set", "initial_data.amplitude_t=-1e308",
                                "--set", "initial_data.center_t=3",
                                "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config-error: initial_data.amplitude_t gives a non-finite initial "
        "state at r=2.5\n")
    assert not out.exists()


def test_overflowing_energy_density_names_its_setting_and_radius(tmp_path, capsys):
    # r v_t stays finite, but the energy's u_t^2 = (r v_t)^2 overflows at the
    # first node past the origin (dr = 0.03125 on the default grid)
    out = tmp_path / "overflow_e"
    rc = main(["run", "--set", "initial_data.amplitude_t=1e200", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "config-error: initial_data.amplitude_t gives a non-finite initial "
        "state at r=0.03125\n")
    assert not out.exists()


@pytest.mark.parametrize("sets,r_max", [
    (["grid.r_max=1e-200", "integrator.t_end=1e-205"], "1e-200"),  # dr * dr underflows to 0
    (["grid.r_max=1e300"], "1e+300"),  # r^3 overflows
])
def test_a_mesh_outside_floating_point_is_a_config_error(tmp_path, capsys, sets, r_max):
    """One config-error line naming both grid settings, before any array is
    formed: no warning, no out dir (the first once ran to a nan Sobolev row
    and a monitor halt, the second blamed the initial data)."""
    out = tmp_path / "float_mesh"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run"] + [a for kv in sets for a in ("--set", kv)] + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"config-error: grid.r_max and grid.n_cells must give a normal dr * dr and a "
        f"finite r_max ** 3, got r_max={r_max}, n_cells=512\n")
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_is_a_config_error(tmp_path, capsys, jobs):
    out = tmp_path / "sweep_jobs"
    rc = main(["sweep"] + TINY + ["--sweep", "initial_data.amplitude=0.1,0.3",
                                  "--jobs", jobs, "--out", str(out)])
    assert rc == 1
    assert f"config-error: --jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_package_and_its_cli_loads_no_process_pool():
    """Only a sweep with --jobs > 1 loads its pool (1.1 MB of RSS): a fresh
    interpreter importing the package and cli loads neither the pool's
    module nor multiprocessing, nor numpy.polynomial (1.1-1.7 MB)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, faddeevlab, faddeevlab.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'concurrent.futures.process'\n"
            "             or m.split('.')[0] == 'multiprocessing'\n"
            "             or m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sweep_starts_no_more_workers_than_runs(tmp_path, capsys, monkeypatch):
    """A pool that records its size and maps serially: no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    out = str(tmp_path / "sweep_pool")
    rc = main(["sweep"] + TINY + ["--sweep", "initial_data.amplitude=0.1,0.3",
                                  "--jobs", "1000", "--out", out])
    assert rc == 0
    assert "status=done runs=2 incomplete=0" in capsys.readouterr().out
    assert sizes == [2]


def test_parallel_sweep_writes_the_serial_bytes(tmp_path):
    """Two TINY runs in two worker processes write what one process writes,
    byte for byte; only effective_config.ini's output.dir line differs."""
    roots = {}
    for jobs in ("2", "1"):
        roots[jobs] = tmp_path / f"jobs{jobs}"
        assert main(["sweep"] + TINY + ["--sweep", "initial_data.amplitude=0.1,0.3",
                                        "--jobs", jobs, "--out", str(roots[jobs])]) == 0

    def files(root):
        out = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                lines = path.read_bytes().splitlines(keepends=True)
                out[path.relative_to(root)] = [line for line in lines
                                               if not line.startswith(b"dir = ")]
        return out
    parallel, serial = files(roots["2"]), files(roots["1"])
    # summary.csv, and per run diagnostics, effective config, final .csv and .meta
    assert len(serial) == 1 + 2 * 4
    assert parallel == serial


def test_readme_diagnostics_table_names_the_written_columns(tmp_path):
    """The README table lists exactly the columns of a run at the default
    diagnostics settings (TINY changes only the grid, t_end and cadence)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Diagnostics CSV", 1)[1].split("\n## ", 1)[0]
    listed = []
    for line in section.splitlines():
        if line.startswith("| `"):
            for name in re.findall(r"`([^`]+)`", line.split("|")[1]):
                listed += ([f"sobolev_s{k}" for k in RunConfig().sobolev_orders]
                           if name == "sobolev_s{k}" else [name])
    out = tmp_path / "run"
    assert main(["run"] + TINY + ["--out", str(out)]) == 0
    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert listed == header.split(",")


def test_readme_defaults_block_matches_the_dataclasses(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "defaults.ini"
    path.write_text(block)
    assert load_config(str(path)) == (RunConfig(), "faddeev_out")
    # and it documents every settable key, each once
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    cp.read_string(block)
    listed = [f"{section}.{key}" for section in cp.sections() for key in cp[section]]
    assert sorted(listed) == sorted(key for key, _, _ in CONFIG_TABLE)


def test_readme_library_use_block_runs(readme_block_outputs):
    status, energy, drift = readme_block_outputs[0].split()
    assert status == "completed"
    assert float(energy) > 0.0 and float(drift) < 1e-2


def test_readme_residual_window_block_runs(readme_block_outputs):
    """The second python block of README: a residual identity on a window of
    evolved states, at two resolutions."""
    (n0, coarse), (n1, fine) = (line.split() for line in
                                readme_block_outputs[1].splitlines())
    assert (n0, n1) == ("128", "256")
    assert float(coarse) / float(fine) >= 3.0  # measured 3.85


def test_readme_study_block_runs(readme_block_outputs):
    """The third python block of README: a study from a plain base measures
    the manufactured solution and the drift at fourth order."""
    orders = ast.literal_eval(readme_block_outputs[2])
    assert sorted(orders) == ["drift", "solution"]
    assert min(orders.values()) >= 3.5  # measured 3.86 and 3.81


# one valid non-default text per settable key
NON_DEFAULT = {
    "grid.n_cells": "96", "grid.r_max": "8.5",
    "integrator.t_end": "1.5", "integrator.cfl": "0.125",
    "integrator.sponge_start": "7.0", "integrator.sponge_strength": "2.5",
    "initial_data.family": "profile_u", "initial_data.amplitude": "0.1",
    "initial_data.center": "0.75", "initial_data.width": "0.3",
    "initial_data.amplitude_t": "-0.2", "initial_data.center_t": "1.25",
    "initial_data.width_t": "2.0", "initial_data.profile_path": "table.csv",
    "kernels.alpha": "0.7", "kernels.cutoff_order": "9",
    "diagnostics.output_every": "5", "diagnostics.monitor_ceiling": "1e3",
    "diagnostics.drift_ceiling": "0.5",
    "diagnostics.track_spacetime": "false", "diagnostics.sobolev_orders": "",
    "output.snapshot_every": "7",
    "output.dir": "elsewhere",
}


def test_config_table_lists_each_settable_key_once():
    keys = [key for key, _, _ in CONFIG_TABLE]
    assert len(keys) == len(set(keys)) == 23
    assert set(keys) == set(NON_DEFAULT)


def test_the_echo_of_a_numpy_float_setting_loads_back(tmp_path):
    """A setting held as a numpy float is written as its number, not as the
    np.float64(...) of its repr, so the file loads back to an equal config."""
    config = RunConfig(r_max=np.float64(8.0),
                       kernel_params=kernels.KernelParams(np.float64(0.7)))
    path = tmp_path / "effective_config.ini"
    write_effective_config(config, "out", path)
    assert load_config(str(path)) == (config, "out")


# what a key's non-default text cannot be loaded without
COMPANIONS = {"initial_data.family": ["initial_data.profile_path=table.csv"]}


@pytest.mark.parametrize("key", [key for key, _, _ in CONFIG_TABLE])
def test_every_config_key_round_trips(tmp_path, key):
    config, out_dir = load_config(None, [f"{key}={NON_DEFAULT[key]}"]
                                  + COMPANIONS.get(key, []))
    if key == "output.dir":
        assert out_dir == "elsewhere"
    else:
        assert config != RunConfig()
    out_dir = out_dir or "faddeev_out"
    path = tmp_path / "effective_config.ini"
    write_effective_config(config, out_dir, path)
    assert load_config(str(path)) == (config, out_dir)
