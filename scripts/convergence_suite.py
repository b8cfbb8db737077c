#!/usr/bin/env python3
"""Refinement studies over any mix of observables, written as a flat CSV.

The base config is read as `faddeevlab run` reads one: repeatable
`--set section.key=value` items, laid over the defaults in BASE. Its data
is what drift and residual_Phi* evolve; the manufactured data is
--set initial_data.amplitude=0.1 --set initial_data.amplitude_t=0.15000000000000002
--set integrator.sponge_strength=0.

Examples:
    python scripts/convergence_suite.py --observables solution,residual_v
    python scripts/convergence_suite.py --observables solution,drift
    python scripts/convergence_suite.py --observables drift --set initial_data.amplitude=0
    python scripts/convergence_suite.py --observables linear_solution,solution
    python scripts/convergence_suite.py --observables residual_Phi,residual_Phi_t \
        --set grid.n_cells=256 --set grid.r_max=16 --set integrator.t_end=2.5 \
        --t-center 2.0
"""

import argparse

from faddeevlab.cli import ConfigError, load_config
from faddeevlab.verify import BASE_DATA_OBSERVABLES, convergence_study, study_to_csv

BASE = ["grid.n_cells=128", "grid.r_max=8", "integrator.t_end=1",
        "diagnostics.output_every=32", "diagnostics.drift_ceiling=1"]
# the data settings, which a study of manufactured-data observables alone ignores
DATA_KEYS = ("initial_data.", "integrator.sponge_start", "integrator.sponge_strength")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--observables", default="solution",
                    help="comma list: solution, drift, residual_v, "
                         "linear_solution, residual_Phi, residual_Phi_t, "
                         "residual_Phi_tt, residual_Phi_ttt")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--t-probe", type=float, default=0.7)
    ap.add_argument("--t-center", type=float, default=2.0)
    ap.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                    help="override a setting of the base config (repeatable) over "
                         + " ".join(BASE))
    ap.add_argument("--out", default="study.csv")
    args = ap.parse_args()

    try:
        base, out_dir = load_config(None, BASE + args.set)
    except ConfigError as exc:
        ap.error(str(exc))
    if out_dir is not None:
        ap.error("output.dir: a study writes one CSV; set its path with --out")
    obs = tuple(tok.strip() for tok in args.observables.split(",") if tok.strip())
    keys = {item.split("=", 1)[0].strip() for item in args.set}
    dropped = sorted(key for key in keys if key.startswith(DATA_KEYS))
    if dropped and not BASE_DATA_OBSERVABLES.intersection(obs):
        ap.error(f"no observable of this study evolves the base's data, so "
                 f"{', '.join(dropped)} would be ignored")
    try:
        results = convergence_study(base, args.levels, obs, t_probe=args.t_probe,
                                    t_center=args.t_center)
    except ValueError as exc:
        ap.error(str(exc))
    except RuntimeError as exc:  # a level halted: exit 2, as faddeevlab run does
        ap.exit(2, f"error: {exc}\n")

    for name, res in sorted(results.items()):
        rows = " ".join(f"{r.error:.3e}" for r in res.rows)
        print(f"{name}: errors [{rows}] ls_order {res.ls_order:.3f} "
              f"monotone={res.monotone}")
    study_to_csv(results, args.out)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
