#!/usr/bin/env python3
"""Refinement studies over any mix of observables, written as a flat CSV.

Examples:
    python scripts/convergence_suite.py --observables solution,residual_v
    python scripts/convergence_suite.py --observables solution,drift
    python scripts/convergence_suite.py --observables drift --forced no --amplitude 0
    python scripts/convergence_suite.py --observables linear_solution,solution
    python scripts/convergence_suite.py --observables residual_Phi,residual_Phi_t \
        --base-n 256 --r-max 16 --t-end 2.5 --t-center 2.0
"""

import argparse

from faddeevlab.evolve import InitialDataSpec, RunConfig
from faddeevlab.verify import (ManufacturedSolution, convergence_study,
                               manufactured_config, study_to_csv)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--observables", default="solution",
                    help="comma list: solution, drift, residual_v, "
                         "linear_solution, residual_Phi, residual_Phi_t, "
                         "residual_Phi_tt, residual_Phi_ttt")
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--base-n", type=int, default=128)
    ap.add_argument("--r-max", type=float, default=8.0)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--t-probe", type=float, default=0.7)
    ap.add_argument("--t-center", type=float, default=2.0)
    ap.add_argument("--amplitude", type=float, default=0.5)
    ap.add_argument("--forced", choices=("yes", "no"), default="yes",
                    help="initial data of drift and residual_Phi*: the manufactured "
                         "solution's (yes) or the plain Gaussian family's (no)")
    ap.add_argument("--out", default="study.csv")
    args = ap.parse_args()

    obs = tuple(tok.strip() for tok in args.observables.split(",") if tok.strip())
    try:
        base = RunConfig(n_cells=args.base_n, r_max=args.r_max, t_end=args.t_end,
                         output_every=32, drift_ceiling=1.0,
                         initial=InitialDataSpec(amplitude=args.amplitude))
        if args.forced == "yes":
            base = manufactured_config(ManufacturedSolution(), base)
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
