#!/usr/bin/env python3
"""Run the benchmark evolution at two resolutions and report the
acceptance-style summary: peak drift, peak monitors, cross-resolution
monitor agreement, and where the diagnostics were written. Exits 2, as
`faddeevlab run` does, when either run halted before t_end."""

import argparse
import os
from dataclasses import replace

from faddeevlab import diagnostics as diag
from faddeevlab.evolve import InitialDataSpec, RunConfig, run, write_checkpoint


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-cells", type=int, default=2048)
    ap.add_argument("--r-max", type=float, default=40.0)
    ap.add_argument("--t-end", type=float, default=20.0)
    ap.add_argument("--amplitude", type=float, default=0.5)
    ap.add_argument("--output-every", type=int, default=64)
    ap.add_argument("--out", default="acceptance_out")
    args = ap.parse_args()
    # the companion halves both, so its samples fall at the fine run's times
    if args.output_every < 2 or args.output_every % 2:
        ap.error(f"--output-every must be even and >= 2, got {args.output_every}")
    if args.n_cells % 2:
        ap.error(f"--n-cells must be even, got {args.n_cells}")

    cfg = RunConfig(n_cells=args.n_cells, r_max=args.r_max, t_end=args.t_end,
                    output_every=args.output_every,
                    initial=InitialDataSpec(amplitude=args.amplitude))
    companion = replace(cfg, n_cells=cfg.n_cells // 2,
                        output_every=cfg.output_every // 2)

    os.makedirs(args.out, exist_ok=True)
    results = {}
    for tag, c in (("fine", cfg), ("coarse", companion)):
        res = run(c)
        results[tag] = res
        diag.write_diagnostics_csv(res.records,
                                   os.path.join(args.out, f"diag_{tag}.csv"))
        write_checkpoint(res.state, os.path.join(args.out, f"final_{tag}"),
                         c, res.step)
        print(f"{tag}: n={c.n_cells} status={res.status} "
              f"max_drift={diag.peaks(res.records)['max_drift']:.6e}")

    halted = any(res.status != "completed" for res in results.values())
    if halted:
        print("warning: a run halted early; peak comparisons below cover "
              "different time ranges")
    times = [[rec["time"] for rec in res.records] for res in results.values()]
    if times[0] != times[1]:
        print("warning: the two runs were sampled at different times; peak "
              "comparisons below are not aligned")
    fine, coarse = (diag.peaks(results[tag].records) for tag in ("fine", "coarse"))
    for name in ("monitor_v", "monitor_vt", "monitor_gradv"):
        a, b = fine[f"max_{name}"], coarse[f"max_{name}"]
        print(f"peak {name}: fine {a:.6f} coarse {b:.6f} "
              f"rel gap {abs(a - b) / a:.3e}")
    print(f"artifacts in {args.out}")
    if halted:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
