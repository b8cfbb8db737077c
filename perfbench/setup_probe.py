"""Time set-up in a fresh interpreter: import faddeevlab, load the config and
build everything the evolver needs before step 1 (grid, initial state,
cutoff arrays, sponge). Prints the seconds it took.

usage: python3 perfbench/setup_probe.py SECTION.KEY=VALUE ...
"""
import time

_t0 = time.perf_counter()

import sys  # noqa: E402

from program import cli, evolve, kernels  # noqa: E402


def main(sets):
    config, _ = cli.load_config(None, sets)
    grid = evolve.make_grid(config)
    evolve.initial_state(config)
    kernels.cutoff_arrays(grid.r, config.profile)
    evolve.sponge_sigma(grid, config.sponge)
    print(repr(time.perf_counter() - _t0))


if __name__ == "__main__":
    main(sys.argv[1:])
