#!/usr/bin/env python3
"""Run the benchmark evolution at two resolutions and report the
acceptance-style summary: peak drift, peak monitors, cross-resolution
monitor agreement, and where the diagnostics were written. The fine run's
config is read as `faddeevlab run` reads one: repeatable
`--set section.key=value` items, laid over the defaults in BASE. Exits 2,
as `faddeevlab run` does, when either run halted before t_end."""

import argparse
import os
from dataclasses import replace

from faddeevlab import diagnostics as diag
from faddeevlab.cli import ConfigError, load_config
from faddeevlab.evolve import run, write_checkpoint

BASE = ["grid.n_cells=2048", "grid.r_max=40", "integrator.t_end=20",
        "diagnostics.output_every=64"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                    help="override a setting of the fine run (repeatable) over "
                         + " ".join(BASE))
    ap.add_argument("--out", default="acceptance_out")
    args = ap.parse_args()
    try:
        cfg, out_dir = load_config(None, BASE + args.set)
    except ConfigError as exc:
        ap.error(str(exc))
    if out_dir is not None:
        ap.error("output.dir: the campaign writes under one directory; set it with --out")
    # the companion halves both, so its samples fall at the fine run's times
    if cfg.output_every < 2 or cfg.output_every % 2:
        ap.error(f"diagnostics.output_every must be even and >= 2, got {cfg.output_every}")
    if cfg.n_cells % 2:
        ap.error(f"grid.n_cells must be even, got {cfg.n_cells}")
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
