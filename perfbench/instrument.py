"""The entry points the benchmark wraps, by the module attribute the program
calls them through.

Untraced repeats only observe the results of the stepping entry points
(`run`, `evolve_bundles`) to count steps, samples and snapshots; that is one
extra Python call per run, not per step. Traced repeats also record a span
around every call listed in TRACED and around the residual evaluators that
`verify` dispatches through its table.
"""
import math
import os

from program import cli, diagnostics, evolve, kernels, transform, verify

# (owner, attribute); the span is named after where the function is defined.
# kernels.eval_F_given_cutoffs, write_checkpoint, run and evolve_bundles are
# wrapped separately below, because their wrappers also count work.
TRACED = [
    (diagnostics, "energy"),
    (diagnostics, "continuation_monitor"),
    (diagnostics, "decay_report"),
    (diagnostics, "sobolev_norm"),
    (verify, "sobolev_norm"),
    (diagnostics.SpacetimeTracker, "update"),
    (diagnostics, "write_diagnostics_csv"),
    (evolve, "v_to_u"),
    (transform, "v_to_u"),
    (cli, "v_to_u"),
    (transform, "compute_Phi"),
    (cli, "compute_Phi"),
    (transform, "compute_Phi_t"),
    (cli, "compute_Phi_t"),
    (verify, "residual_v_equation"),
    (cli, "load_config"),
    (cli, "convergence_study"),
    (verify, "convergence_study"),
]
RESIDUAL_TABLE = ("residual_Phi", "residual_Phi_t", "residual_Phi_tt",
                  "residual_Phi_ttt")


def span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def fixed_steps(config, t):
    """Steps of the evolver's fixed step dt = t_end / ceil(t_end / (cfl dr))
    needed to reach time t."""
    dr = config.r_max / config.n_cells
    nsteps = max(1, math.ceil(config.t_end / (config.cfl * dr)))
    return round(t / (config.t_end / nsteps))


class Probe:
    """What the entry points did during one repeat, read from their results."""

    def __init__(self):
        self.steps_run = 0
        self.steps_bundles = 0
        self.samples = 0
        self.snapshots = 0
        self.configs = {}        # (n_nodes, r_max) -> a RunConfig stepped on it
        self.checkpoints = []    # path bases handed to write_checkpoint

    @property
    def steps(self):
        return self.steps_run + self.steps_bundles

    def note_run(self, result):
        self.steps_run += fixed_steps(result.config, result.state.time)
        self.samples += len(result.records)
        self.snapshots += len(result.snapshots)
        self._grid(result.config)

    def note_bundles(self, config, bundles):
        if bundles:
            self.steps_bundles += fixed_steps(config, bundles[-1].time)
        self._grid(config)

    def _grid(self, config):
        self.configs.setdefault((config.n_cells + 1, config.r_max), config)

    def checkpoint_bytes(self):
        return sum(os.path.getsize(f"{base}{ext}")
                   for base in self.checkpoints for ext in (".csv", ".meta"))


def install(patches, probe, tracer=None):
    """Patch the entry points for one repeat; traced when a tracer is given."""
    def traced(fn, name=None, count=None):
        return tracer.wrap(fn, name or span_name(fn), count) if tracer else fn

    def observe_run(fn):
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            probe.note_run(result)
            return result
        return traced(observed, span_name(fn))

    def observe_bundles(fn):
        def observed(config, *args, **kwargs):
            bundles = fn(config, *args, **kwargs)
            probe.note_bundles(config, bundles)
            return bundles
        return traced(observed, span_name(fn))

    patches.attr(cli, "run", observe_run)
    patches.attr(verify, "run", observe_run)
    patches.attr(verify, "evolve_bundles", observe_bundles)
    if tracer is None:
        return

    def record_checkpoint(fn):
        def recorded(state, path_base, *args, **kwargs):
            probe.checkpoints.append(path_base)
            return fn(state, path_base, *args, **kwargs)
        return traced(recorded, span_name(fn))

    patches.attr(cli, "write_checkpoint", record_checkpoint)
    patches.attr(kernels, "eval_F_given_cutoffs",
                 lambda fn: traced(fn, count=lambda args: len(args[0])))
    for owner, name in TRACED:
        patches.attr(owner, name, traced)
    for key in RESIDUAL_TABLE:
        patches.entry(verify._RESIDUAL_EVALUATORS, key,
                      lambda entry: (traced(entry[0]),) + tuple(entry[1:]))
