#!/usr/bin/env python3
"""Resolution study of the cutoff-shell startup transient.

Zero initial data is not an equilibrium: the static shell sources a small
wave at t=0 whose imperfect discrete cancellation sets an
amplitude-independent floor under the energy-drift diagnostic. This runs
a = 0 (and optionally one small nonzero amplitude for contrast) across a
list of resolutions and tabulates the floor, its refinement order, and the
peak continuation monitors.
"""

import argparse
import math
from dataclasses import replace

from faddeevlab.evolve import InitialDataSpec, RunConfig, run
from faddeevlab.grid import write_csv
from faddeevlab.verify import pairwise_orders


def floor_row(cfg):
    result = run(cfg)
    if result.status != "completed":
        raise RuntimeError(f"run at n={cfg.n_cells} stopped: {result.reason}")
    recs = result.records
    return {
        "n_cells": cfg.n_cells,
        "dr": cfg.r_max / cfg.n_cells,
        "amplitude": cfg.initial.amplitude,
        "max_drift": max(abs(r.energy_drift) for r in recs),
        "peak_monitor_v": max(r.monitor_v for r in recs),
        "peak_monitor_vt": max(r.monitor_vt for r in recs),
        "peak_monitor_gradv": max(r.monitor_gradv for r in recs),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-cells", default="256,512,1024",
                    help="comma list of resolutions")
    ap.add_argument("--r-max", type=float, default=16.0)
    ap.add_argument("--t-end", type=float, default=2.0)
    ap.add_argument("--contrast-amplitude", type=float, default=0.0,
                    help="if nonzero, rerun each level at this amplitude to "
                         "show the floor is amplitude-independent")
    ap.add_argument("--out", default="",
                    help="optional CSV path for the table")
    args = ap.parse_args()

    ns = [int(tok) for tok in args.n_cells.split(",")]
    base = RunConfig(n_cells=ns[0], r_max=args.r_max, t_end=args.t_end,
                     output_every=16, drift_ceiling=1.0,
                     track_spacetime=False, sobolev_orders=(),
                     initial=InitialDataSpec(amplitude=0.0))

    rows = []
    for n in ns:
        rows.append(floor_row(replace(base, n_cells=n)))
        if args.contrast_amplitude:
            rows.append(floor_row(replace(
                base, n_cells=n,
                initial=InitialDataSpec(amplitude=args.contrast_amplitude))))

    zero_rows = [r for r in rows if r["amplitude"] == 0.0]
    orders = pairwise_orders([r["dr"] for r in zero_rows],
                             [r["max_drift"] for r in zero_rows])
    for r, o in zip(zero_rows, orders):
        r["floor_order"] = "" if math.isnan(o) else f"{o:.3f}"
    for r in rows:
        r.setdefault("floor_order", "")
        print(f"n={r['n_cells']:5d} a={r['amplitude']:g} "
              f"drift_floor={r['max_drift']:.4e} order={r['floor_order'] or '-'} "
              f"peaks v/vt/gradv = {r['peak_monitor_v']:.3e} "
              f"{r['peak_monitor_vt']:.3e} {r['peak_monitor_gradv']:.3e}")

    if args.out:
        header = list(rows[0])
        write_csv(args.out, header, ([r[k] for k in header] for r in rows))
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
