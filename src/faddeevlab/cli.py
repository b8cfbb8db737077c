"""Command-line front end: run / verify / sweep / kernels-table.

Config files are INI-style `key = value` text with sections grid,
integrator, initial_data, kernels, diagnostics, output. Unknown keys are
hard errors. Exit codes: 0 success, 1 config error or a file that cannot
be read or written, 2 blow-up or scheme breakdown, 3 verification-suite
failure, 4 a sweep run raised an error.
Identical config and overrides reproduce diagnostics byte for byte.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import itertools
import math
import os
import sys

import numpy as np

from . import diagnostics as diag
from . import kernels
from .evolve import (CONFIG_TABLE, RunConfig, config_from_items, config_items,
                     initial_state, run, write_checkpoint)
from .grid import FieldState, RadialGrid, write_csv
from .transform import (_a3_line_integral, _a4_line_integral, compute_Phi,
                        compute_Phi_t, u_to_v, v_to_u)
from .verify import convergence_study, kernel_limit, kernel_series_oracle

__all__ = ["main", "load_config", "write_effective_config", "ConfigError"]


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage by default; 2 is reserved for blow-up."""

    def error(self, message):
        print(f"config-error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _flatten_file(path):
    # no header can name the "" section: [DEFAULT] is checked like any other
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None, default_section="")
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")
    out = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            out[f"{section}.{key}"] = value
    return out


def load_config(path=None, sets=()):
    """Build (RunConfig, out_dir) from an optional file plus --set overrides.
    Every key is validated against evolve.CONFIG_TABLE; unknown keys raise
    ConfigError naming the key."""
    flat = _flatten_file(path) if path else {}
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, value = item.split("=", 1)
        flat[dotted.strip()] = value.strip()

    casters = {key: caster for key, _, caster in CONFIG_TABLE}
    typed = {}
    for dotted, raw in flat.items():
        caster = casters.get(dotted)
        if caster is None:
            hint = "" if "." in dotted else " (expected section.key)"
            raise ConfigError(f"unknown key {dotted!r}{hint}")
        try:
            typed[dotted] = caster(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {dotted}: {exc}")
    try:
        config = config_from_items(typed)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return config, typed.get("output.dir")


def write_effective_config(config: RunConfig, out_dir, path):
    """Round-trippable echo of every effective setting."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    values = dict(config_items(config), **{"output.dir": out_dir})
    for dotted, _, _ in CONFIG_TABLE:
        section, key = dotted.split(".", 1)
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, str(values[dotted]))
    with open(path, "w") as fh:
        cp.write(fh)


def _out_dir(path):
    """path, once os.makedirs could make it: ConfigError when path, or its
    nearest existing ancestor, is not a directory."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"output dir {path!r}: {probe!r} is not a directory")
    return path


def _load(args):
    """(config, out_dir) from the common options; out_dir is made on write."""
    config, file_out = load_config(args.config, args.set or ())
    return config, _out_dir(args.out or file_out or "faddeev_out")


def _load_kernels(args):
    """_load for a subcommand that reads only kernels.* (and output.dir):
    ConfigError naming every other setting whose value is not its default."""
    config, out_dir = _load(args)
    default = dict(config_items(RunConfig()))
    ignored = [key for key, value in config_items(config)
               if not key.startswith("kernels.") and value != default[key]]
    if ignored:
        raise ConfigError(f"{args.command} reads only kernels.* and output.dir; "
                          f"it would ignore {', '.join(ignored)}")
    return config, out_dir


def _write_run(result, out_dir):
    """A run's files in out_dir: diagnostics.csv, effective_config.ini, the
    snapshot_NNNN checkpoints and the final checkpoint."""
    config = result.config
    os.makedirs(out_dir, exist_ok=True)
    diag.write_diagnostics_csv(result.records, os.path.join(out_dir, "diagnostics.csv"))
    write_effective_config(config, out_dir, os.path.join(out_dir, "effective_config.ini"))
    for i, (k, snap) in enumerate(result.snapshots):
        write_checkpoint(snap, os.path.join(out_dir, f"snapshot_{i:04d}"), config, k)
    write_checkpoint(result.state, os.path.join(out_dir, "final"), config, result.step)


def cmd_run(args) -> int:
    config, out_dir = _load(args)
    try:
        result = run(config)
    except ValueError as exc:
        print(f"config-error: {exc}", file=sys.stderr)
        return 1
    _write_run(result, out_dir)
    print(f"status={result.status} t_final={result.state.time:.17g} "
          f"out={out_dir} reason={result.reason!r}")
    return 0 if result.status == "completed" else 2


# ---------------------------------------------------------------------------
# verify suites: each check yields (check, value, tolerance, passed) rows;
# the acceptance tests call the public ones with their own bounds. They stay
# in cli, not verify: perfbench/instrument.py traces them by patching
# cli.compute_Phi, compute_Phi_t, v_to_u, convergence_study and run.


def check_kernel_limits(p, profile):
    for j in range(5):
        got = kernels.eval_Ftilde(j, 0.0, p)
        ref = kernel_limit(j, p)
        err = abs(got - ref) / max(1.0, abs(ref))
        yield f"Ftilde{j}_limit", err, 1e-12, err <= 1e-12


def _check_kernel_oracle(p, profile):
    xs = np.logspace(-2, 0, 81)
    for j in range(5):
        got = kernels.eval_Ftilde(j, xs, p)
        ref = kernel_series_oracle(j, xs, p)
        err = float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)))
        yield f"Ftilde{j}_oracle_agreement", err, 1e-12, err <= 1e-12


# 1000 samples each of v, v_t, v_r (uniform in [-2, 2]) and r (uniform in
# [0.05, 0.45]), little-endian float64 in that order: the first 4000 draws of
# numpy.random.default_rng(0), stored so the check loads no numpy.random.
TWO_PATH_SAMPLES = os.path.join(os.path.dirname(__file__), "two_path_samples.f8")


def check_two_path_identity(p, profile):
    """F against v/r^2 + N(u)/r on u = r v + pi at 1000 random samples."""
    v, vt, vr, r = np.fromfile(TWO_PATH_SAMPLES, dtype="<f8").reshape(4, 1000)
    f_direct = kernels.eval_F_rhs(v, vt, vr, r, p, profile)
    u = r * v + math.pi
    f_via_u = v / r ** 2 + kernels.eval_N(u, r * vt, r * vr + v, r, p) / r
    err = float(np.max(np.abs(f_direct - f_via_u) / (1.0 + np.abs(f_direct))))
    yield "two_path_identity", err, 1e-9, err <= 1e-9


def _check_cutoff_derivatives(p, profile):
    h = 1e-3

    def cutoff(which, r, order=0):
        return kernels.eval_cutoff(which, r, order, profile)
    for which, r0 in (("phi", 1.5), ("lt1", 0.75)):
        stencil = (8.0 * (cutoff(which, r0 + h) - cutoff(which, r0 - h))
                   - (cutoff(which, r0 + 2 * h) - cutoff(which, r0 - 2 * h))) / (12 * h)
        err = abs(cutoff(which, r0, 1) - stencil)
        yield f"cutoff_{which}_derivative_fd", err, 1e-8, err <= 1e-8
    lap_fd = ((-cutoff("phi", 1.5 + 2 * h) + 16 * cutoff("phi", 1.5 + h)
               - 30 * cutoff("phi", 1.5) + 16 * cutoff("phi", 1.5 - h)
               - cutoff("phi", 1.5 - 2 * h)) / (12 * h * h) + cutoff("phi", 1.5, 1) / 1.5)
    err = abs(kernels.laplacian_phi_2d(1.5, profile) - lap_fd)
    yield "laplacian_phi_2d_fd", err, 1e-8, err <= 1e-8


def _check_charts(p, profile):
    g = RadialGrid(400, 2.0)
    v = 0.3 * np.exp(-g.r ** 2)
    seam = (g.r >= 0.4) & (g.r <= 0.5)
    r_in, v_in = g.r[seam], v[seam]
    inner = _a4_line_integral(v_in, r_in, 0.5, p)
    outer = _a3_line_integral(r_in * v_in, r_in, p) / r_in
    err = float(np.max(np.abs(inner - outer)))
    yield "phi_branch_seam", err, 1e-10, err <= 1e-10

    gv = RadialGrid(256, 8.0, profile, p)
    state = FieldState(0.2 * np.exp(-gv.r ** 2), 0.1 * np.exp(-gv.r ** 2), gv)
    back = u_to_v(v_to_u(state))
    err = float(np.max(np.abs(back.f - state.f)))
    yield "chart_roundtrip", err, 1e-9, err <= 1e-9


def check_phi_t_identity_order(p, profile):
    """Order in dt of the centred difference of Phi along v_t against Phi_t."""
    g = RadialGrid(256, 8.0, profile, p)
    state = FieldState(0.2 * np.exp(-g.r ** 2), 0.1 * np.exp(-g.r ** 2), g)
    phi_t = compute_Phi_t(state)
    errs = []
    for dt in (1e-3, 5e-4):
        plus = FieldState(state.f + dt * state.f_t, state.f_t, g, dt)
        minus = FieldState(state.f - dt * state.f_t, state.f_t, g, -dt)
        fd = (compute_Phi(plus) - compute_Phi(minus)) / (2 * dt)
        errs.append(float(np.max(np.abs(fd - phi_t))))
    order = math.log(errs[0] / errs[1]) / math.log(2.0) if errs[1] > 0 else float("nan")
    yield "phi_t_identity_order", order, 2.0, abs(order - 2.0) <= 0.3


def manufactured_study(p, profile):
    """The `solution`, `residual_v` and `drift` study on n = 128, 256, 512."""
    base = RunConfig(n_cells=128, r_max=8.0, t_end=1.0, output_every=32,
                     drift_ceiling=1.0, kernel_params=p, profile=profile)
    return convergence_study(base, levels=3,
                             observables=("solution", "residual_v", "drift"), t_probe=0.7)


def _check_orders(p, profile):
    study = manufactured_study(p, profile)
    for check, obs in (("manufactured_solution_order", "solution"),
                       ("residual_v_order", "residual_v"), ("drift_order", "drift")):
        yield check, study[obs].ls_order, 3.5, study[obs].ls_order >= 3.5


def _check_energy(p, profile):
    g = RadialGrid(2048, 12.0, profile, p)
    u0 = math.pi * np.exp(-g.r ** 2)
    u_state = FieldState(u0, np.zeros(g.n_nodes), g)
    e = diag.energy(u_state)
    ref = 5.3665119245489741967
    err = abs(e - ref) / ref
    yield "gaussian_u_reference", err, 1e-8, err <= 1e-8

    cfg = RunConfig(n_cells=2048, r_max=40.0, t_end=1.0, output_every=1024,
                    track_spacetime=False, sobolev_orders=(),
                    kernel_params=p, profile=profile)
    v0 = initial_state(cfg)
    e0 = diag.energy(v_to_u(v0), v0)
    ref0 = 16.419293196580507863
    err = abs(e0 - ref0) / ref0
    yield "gaussian_v_initial_energy", err, 5e-7, err <= 5e-7

    small = RunConfig(n_cells=512, r_max=8.0, t_end=1.0, output_every=64,
                      drift_ceiling=1.0, track_spacetime=False,
                      sobolev_orders=(), kernel_params=p, profile=profile)
    drift = diag.peaks(run(small).records)["max_drift"]
    yield "short_run_drift", drift, 5e-3, drift <= 5e-3


_SUITES = {
    "kernels": (check_kernel_limits, _check_kernel_oracle, check_two_path_identity,
                _check_cutoff_derivatives),
    "transforms": (_check_charts, check_phi_t_identity_order),
    "convergence": (_check_orders,),
    "energy": (_check_energy,),
}


def cmd_verify(args) -> int:
    config, out_dir = _load_kernels(args)
    rows = [(args.suite,) + row for check in _SUITES[args.suite]
            for row in check(config.kernel_params, config.profile)]
    os.makedirs(out_dir, exist_ok=True)
    report = os.path.join(out_dir, f"verify_{args.suite}.csv")
    write_csv(report, ["suite", "check", "value", "tolerance", "passed"], rows)
    failed = [row for row in rows if not row[4]]
    for suite, check, value, tol, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {suite}.{check} value={value:.6g} "
              f"tolerance={tol:.6g}")
    print(f"status={'ok' if not failed else 'verify-fail'} suite={args.suite} "
          f"checks={len(rows)} failures={len(failed)} report={report}")
    return 0 if not failed else 3


# ---------------------------------------------------------------------------
# sweep


# the numeric columns of summary.csv, each NaN in an error row
_SUMMARY_NUMBERS = ("t_final",) + tuple(diag.PEAKS)


def _sweep_one(packed):
    config, out_dir = packed
    try:
        result = run(config)
        _write_run(result, out_dir)
    except Exception as exc:  # a failed run or write must not kill the sweep
        return {"status": "error", "reason": f"{type(exc).__name__}: {exc}",
                **dict.fromkeys(_SUMMARY_NUMBERS, math.nan)}
    return {"status": result.status, "reason": result.reason,
            "t_final": result.state.time, **diag.peaks(result.records)}


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    axes = []
    for spec in args.sweep:
        if "=" not in spec:
            raise ConfigError(f"sweep axis {spec!r} is not of the form "
                              "section.key=v1,v2,...")
        dotted, values = (part.strip() for part in spec.split("=", 1))
        vals = [tok.strip() for tok in values.split(",") if tok.strip()]
        if not vals:
            raise ConfigError(f"sweep axis {dotted!r} has no values")
        if dotted == "output.dir":
            raise ConfigError("sweep axis 'output.dir': every run of a sweep "
                              "writes under one output directory; set it with --out")
        if dotted in dict(axes):
            raise ConfigError(f"sweep axis {dotted!r} is given twice")
        axes.append((dotted, vals))
    base_sets = list(args.set or ())
    combos = list(itertools.product(*[vals for _, vals in axes]))
    jobs = []
    for i, combo in enumerate(combos):
        sets = base_sets + [f"{key}={val}" for (key, _), val in zip(axes, combo)]
        config, file_out = load_config(args.config, sets)
        jobs.append((i, combo, config))
    out_root = _out_dir(args.out or file_out or "faddeev_out")
    os.makedirs(out_root, exist_ok=True)

    packed = [(config, os.path.join(out_root, f"run_{i:03d}"))
              for i, _, config in jobs]
    # the fork start method starts every worker at once: no more than runs
    workers = min(args.jobs, len(packed))
    if workers > 1:
        # first read of the attribute loads the pool and multiprocessing (1.1 MB)
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_sweep_one, packed))
    else:
        summaries = [_sweep_one(item) for item in packed]

    columns = ("status", "reason") + _SUMMARY_NUMBERS
    path = os.path.join(out_root, "summary.csv")
    write_csv(path, ["run_dir", *(key for key, _ in axes), *columns],
              ([f"run_{i:03d}"] + list(combo) + [summary[c] for c in columns]
               for (i, combo, _), summary in zip(jobs, summaries)))
    n_bad = sum(1 for s in summaries if s["status"] != "completed")
    print(f"status=done runs={len(summaries)} incomplete={n_bad} summary={path}")
    return 4 if any(s["status"] == "error" for s in summaries) else 0


def cmd_kernels_table(args) -> int:
    config, out_dir = _load_kernels(args)
    p, profile = config.kernel_params, config.profile
    xs = np.linspace(-3.0, 3.0, 601)
    os.makedirs(out_dir, exist_ok=True)
    path_k = os.path.join(out_dir, "kernels.csv")
    write_csv(path_k, ["x"] + [f"Ftilde{j}" for j in range(5)],
              zip(xs, *(kernels.eval_Ftilde(j, xs, p) for j in range(5))))
    rs = np.linspace(0.0, 3.0, 601)
    path_c = os.path.join(out_dir, "cutoffs.csv")
    cut = kernels.cutoff_arrays(rs, profile)
    write_csv(path_c, ["r", "phi", "dphi", "lt1", "gt1", "lap2_phi", "A4_at_v1"],
              zip(rs, cut["phi"], cut["dphi"], cut["lt1"], cut["gt1"], cut["lap2phi"],
                  kernels._a4(1.0, rs, p)))
    print(f"status=ok kernels={path_k} cutoffs={path_c}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="faddeevlab",
                     description="Radial wave laboratory for the lifted "
                                 "equivariant Faddeev field equation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None, help="INI config file")
        sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable)")
        sp.add_argument("--out", default=None, help="output directory")

    sp = sub.add_parser("run", help="evolve one configuration")
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(_SUITES))
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="cartesian parameter sweep")
    common(sp)
    sp.add_argument("--sweep", action="append", required=True,
                    metavar="SECTION.KEY=V1,V2,...",
                    help="sweep axis (repeatable; cartesian product)")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes (>= 1; at most one per run)")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("kernels-table", help="dump kernel and cutoff samples")
    common(sp)
    sp.set_defaults(func=cmd_kernels_table)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:  # a file that cannot be read or written
        print(f"config-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
