"""The benchmark's workloads: seeded inputs, one repeat, and its output checks.

Every workload is a closed loop: a single caller runs one repeat, waits for
it to finish, checks it and starts the next. A seed picks the Gaussian
initial data (amplitude, width) inside a band where every run completes and
the energy drift stays far below its ceiling; DEFAULT_SEED gives the shapes
the byte pins below were taken at (amplitude 0.5, width 1).
"""
import csv
import hashlib
import math
import os
import random

import numpy as np

from program import cli, evolve, kernels, verify

DEFAULT_SEED = 0
AMPLITUDE_BAND = (0.45, 0.55)
WIDTH_BAND = (0.9, 1.1)

# sha256 of the outputs at DEFAULT_SEED (numpy 2.4.6, x86-64).
PINS = {
    "evolve_large": {
        "diagnostics.csv": "2b71d540c5aabfb2811b96183a44c0a5bc620e98503d438783a7a69f2ddd36fa",
        "final.csv": "5017e3436d74f639e1811120e93e3f47b08116ad036be65c670816786f667640",
    },
    "sample_dense": {
        "diagnostics.csv": "6be5fc6081805bc0057b344bcdc24a2bee1e8658c20abe36c9b0d768793cc448",
        "final.csv": "16f502365a62175c5ab0d7f305bae7ee340dd3056a377fdac2724833ad47375b",
    },
    "verify_small": {
        "study.csv": "c42687ab3bacc18c83f0b59133d822cadb27712585f3a6e335bca66520c632e3",
    },
}
# The verify suites do not depend on the seed, so their pins hold at every seed.
SUITE_PINS = {
    "verify_kernels.csv": "1b33d6a61ee0e063b25f561d3b9c2d3b8f62cedf081dc99e4bcb46364b03d979",
    "verify_transforms.csv": "2c771d1dd3bfe47ca1711d5b748a8bd7b083f97a9877fe7b9b99a00a02874f92",
    "verify_convergence.csv": "5d448f96057dea28eb57d490f4cd4d096e452ead6a337a7627dd0e8f0d2132a9",
    "verify_energy.csv": "88cdd022eaaac9118565236fd53fa807f3c13cae0e5ce8bfd0f7e1633d07d93f",
}


def gaussian(seed):
    """(amplitude, width) of the initial Gaussian for a workload seed."""
    if seed == DEFAULT_SEED:
        return 0.5, 1.0
    rng = random.Random(seed)
    return rng.uniform(*AMPLITUDE_BAND), rng.uniform(*WIDTH_BAND)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def inner_node_share(config):
    """Share of mesh nodes where the inner kernel branch is active (lt1 > 0)."""
    r = evolve.make_grid(config).r
    return float(np.mean(kernels.cutoff_arrays(r, config.profile)["lt1"] > 0.0))


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One workload; why each was chosen is recorded in BENCHMARK.json."""
    name = ""
    pinned = ()          # output files compared against PINS at DEFAULT_SEED

    def __init__(self, seed):
        self.seed = seed
        self.amplitude, self.width = gaussian(seed)
        self.config, _ = cli.load_config(None, self.sets())
        self._first_hashes = None

    def sets(self):
        """`section.key=value` overrides of the workload's configuration."""
        raise NotImplementedError

    def set_args(self):
        return [arg for item in self.sets() for arg in ("--set", item)]

    def repeat(self, out_dir, main):
        """Run the workload's commands once; `main` is cli.main, maybe traced."""
        raise NotImplementedError

    def check(self, out_dir, outcome, log):
        """(failures, max_drift, checks) for the repeat that wrote out_dir."""
        raise NotImplementedError

    def _hash_gate(self, out_dir, failures):
        """Every pinned output must match its pin, and every repeat must
        reproduce the bytes of the first repeat at this seed."""
        names = list(self.pinned) + list(self.always_pinned())
        hashes = {n: sha256(os.path.join(out_dir, n)) for n in names}
        pins = dict(self.always_pinned())
        if self.seed == DEFAULT_SEED:
            pins.update(PINS[self.name])
        for n, want in pins.items():
            if hashes[n] != want:
                failures.append(f"{n}: sha256 {hashes[n]} differs from pin {want}")
        if self._first_hashes is None:
            self._first_hashes = hashes
        for n, first in self._first_hashes.items():
            if hashes[n] != first:
                failures.append(f"{n}: bytes differ from the first repeat")

    def always_pinned(self):
        return {}

    def describe(self, probe):
        """Workload properties, from the grids the repeat stepped on."""
        grids = sorted(probe.configs.items())
        return {"n_nodes": [f"{n}@r_max={r:g}" for (n, r), _ in grids],
                "steps": probe.steps, "samples": probe.samples,
                "snapshots": probe.snapshots,
                "inner_node_share": [round(inner_node_share(c), 4)
                                     for _, c in grids],
                "largest_field_bytes": 8 * max((n for n, _ in probe.configs),
                                               default=0)}


class RunWorkload(Workload):
    """`faddeevlab run` with the workload's overrides."""
    pinned = ("diagnostics.csv", "final.csv")
    overrides = {}

    def sets(self):
        values = dict(self.overrides, **{
            "initial_data.amplitude": repr(self.amplitude),
            "initial_data.width": repr(self.width)})
        return [f"{k}={v}" for k, v in values.items()]

    def repeat(self, out_dir, main):
        return main(["run", *self.set_args(), "--out", out_dir])

    def check(self, out_dir, outcome, log):
        failures = []
        if outcome != 0:
            failures.append(f"run exited {outcome}: {log.strip()[-300:]}")
            return failures, math.nan, 1
        drifts = [abs(float(row["energy_drift"]))
                  for row in read_rows(os.path.join(out_dir, "diagnostics.csv"))]
        max_drift = max(drifts)
        if not max_drift <= self.config.drift_ceiling:
            failures.append(f"max drift {max_drift!r} above the ceiling "
                            f"{self.config.drift_ceiling!r}")
        self._hash_gate(out_dir, failures)
        return failures, max_drift, 2


class EvolveLarge(RunWorkload):
    name = "evolve_large"
    overrides = {"grid.n_cells": 2048, "grid.r_max": 40.0,
                 "integrator.t_end": 5.0, "integrator.cfl": 0.25,
                 "diagnostics.output_every": 64}


class SampleDense(RunWorkload):
    name = "sample_dense"
    overrides = {"grid.n_cells": 512, "grid.r_max": 16.0,
                 "integrator.t_end": 5.0, "integrator.cfl": 0.25,
                 "diagnostics.output_every": 1, "output.snapshot_every": 4}


class VerifySmall(Workload):
    """The four verify suites, then criterion 5's residual-order study with
    all five residual observables."""
    name = "verify_small"
    pinned = ("study.csv",)
    suites = ("kernels", "transforms", "convergence", "energy")
    # Least-squares order each observable must reach: criterion 5's bounds,
    # and second order for the two higher time-derivative identities, whose
    # time differences are second-order like those of Phi and Phi_t.
    order_floor = {"residual_v": 3.5, "residual_Phi": 2.0,
                   "residual_Phi_t": 2.0, "residual_Phi_tt": 2.0,
                   "residual_Phi_ttt": 2.0}

    def sets(self):
        return ["grid.n_cells=256", "grid.r_max=16.0", "integrator.t_end=2.5",
                "diagnostics.output_every=64", "diagnostics.drift_ceiling=1.0",
                "diagnostics.track_spacetime=false",
                "diagnostics.sobolev_orders=",
                f"initial_data.amplitude={self.amplitude!r}",
                f"initial_data.width={self.width!r}"]

    def always_pinned(self):
        return SUITE_PINS

    def repeat(self, out_dir, main):
        codes = {s: main(["verify", s, "--out", out_dir]) for s in self.suites}
        base, _ = cli.load_config(None, self.sets())  # traced as cli.load_config
        study = verify.convergence_study(
            base, levels=3, observables=tuple(self.order_floor),
            ms=verify.ManufacturedSolution(), t_probe=0.7, t_center=2.0)
        verify.study_to_csv(study, os.path.join(out_dir, "study.csv"))
        return codes, study

    def check(self, out_dir, outcome, log):
        codes, study = outcome
        failures = [f"verify {s} exited {rc}" for s, rc in codes.items() if rc != 0]
        checks = 0
        max_drift = math.nan
        for suite in self.suites:
            for row in read_rows(os.path.join(out_dir, f"verify_{suite}.csv")):
                checks += 1
                if row["passed"] != "True":
                    failures.append(f"verify {suite}.{row['check']} failed: "
                                    f"value {row['value']} tolerance {row['tolerance']}")
                if row["check"] == "short_run_drift":
                    max_drift = float(row["value"])
        for obs, floor in self.order_floor.items():
            checks += 1
            order = study[obs].ls_order
            if not order >= floor:
                failures.append(f"study {obs} order {order!r} below {floor}")
        self._hash_gate(out_dir, failures)
        return failures, max_drift, checks


WORKLOADS = {w.name: w for w in (EvolveLarge, SampleDense, VerifySmall)}
