"""faddeevlab benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of workloads.py in this process: one warm-up repeat, then
repeats in a closed loop until S seconds have passed. Every repeat's outputs
are checked. Set-up time is measured separately, in fresh interpreters.
A report goes to standard output, and its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. `attempted` counts repeats
and `failed` the repeats that failed a check, so failed_frac is their ratio.

--trace 0 gives the end-to-end metrics, untraced. The times in them are
scaled by the machine-speed probe of speed.py, run between repeats:
wall_s is the mean repeat time and steps_per_s the ratio of total steps to
total time, both at the probe's reference speed. The report also prints the
unscaled times, each as a median, the highest percentile with ten samples
beyond it where there are enough samples, and the sample count.

--trace 1 alternates untraced and traced repeats. It gives the per-layer
metrics of the traced ones, unscaled, plus the tracing overhead: traced
minus untraced median wall time. Results, the environment record and the
spans are written to perfbench/_out/.
"""
import os

# One thread for every BLAS/OpenMP pool, fixed before numpy is imported. The
# largest field is 16 KB (n=2048), far below the last-level cache, so extra
# threads could only add scheduling noise on a small shared machine.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from program import cli  # noqa: E402
from instrument import Probe, install  # noqa: E402
from spans import Patches, Tracer, self_times, subtree  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
SETUP_PROBES = 5      # timed fresh-interpreter set-ups per run, after one warm-up
MIN_REPEATS = 4       # timed repeats per run, even if --seconds runs out first

# Metric names and units, and why each workload was chosen, as BENCHMARK.json
# at the root of the checkout lists them.
with open(HERE.parent / "BENCHMARK.json") as _fh:
    _SPEC = json.load(_fh)
E2E_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in _SPEC["workloads"]}
SAMPLING_SPANS = ("transform.v_to_u", "diagnostics.energy",
                  "diagnostics.continuation_monitor", "grid.sobolev_norm",
                  "diagnostics.decay_report", "diagnostics.SpacetimeTracker.update")
ROOT_SPAN = "bench.repeat"


@dataclass
class Repeat:
    wall: float
    probe: Probe
    failures: list
    max_drift: float
    checks: int
    root: int = -1       # id of the root span when traced


def run_repeat(workload, out_dir, tracer=None):
    """One closed-loop repeat: patch, run, time, unpatch, check."""
    probe = Probe()
    log = io.StringIO()
    error = None
    gc.collect()         # start every repeat from the same heap state
    with Patches() as patches:
        install(patches, probe, tracer)
        main = tracer.wrap(cli.main, "cli.main") if tracer else cli.main
        root = tracer.begin(ROOT_SPAN) if tracer else -1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log):
                outcome = workload.repeat(str(out_dir), main)
        except Exception:  # a failing repeat is counted, not fatal
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0
            if tracer:
                tracer.end(root)
    if error is not None:
        return Repeat(wall, probe, [error.strip().splitlines()[-1]], math.nan, 0, root)
    failures, max_drift, checks = workload.check(str(out_dir), outcome, log.getvalue())
    return Repeat(wall, probe, failures, max_drift, checks, root)


def measure_setup(workload):
    """Set-up seconds of SETUP_PROBES fresh interpreters, after one untimed
    interpreter that fills the bytecode cache."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), *workload.sets()]
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times[1:]


def summarize(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    out = {"median": statistics.median(vals), "n": len(vals)}
    if len(vals) >= 11:
        k = len(vals) - 11
        out["p_high"] = vals[k]
        out["p_high_pct"] = 100.0 * (k + 1) / len(vals)
    return out


def layer_metrics(spans, selfs, rep):
    """Per-layer numbers of one traced repeat, from the spans under its root."""
    count, total, self_s, nodes = (defaultdict(int), defaultdict(float),
                                   defaultdict(float), defaultdict(int))
    name_of = {s.id: s.name for s in spans}
    rhs_calls = 0
    sampling = 0.0
    for s in spans:
        count[s.name] += 1
        total[s.name] += s.duration
        self_s[s.name] += selfs[s.id]
        nodes[s.name] += s.n
        parent = name_of.get(s.parent)
        if s.name == "kernels.eval_F_given_cutoffs" and parent in (
                "evolve.run", "evolve.evolve_bundles"):
            rhs_calls += 1
        if s.name in SAMPLING_SPANS and parent == "evolve.run":
            sampling += s.duration
    f = "kernels.eval_F_given_cutoffs"
    probe = rep.probe
    table = dict(self_s)
    return {
        "kernels.F_calls": count[f],
        "kernels.F_self_s": self_s[f],
        "kernels.F_us_per_call": self_s[f] / count[f] * 1e6 if count[f] else 0.0,
        "kernels.F_ns_per_node": self_s[f] / nodes[f] * 1e9 if nodes[f] else 0.0,
        "evolve.steps": probe.steps,
        "evolve.rhs_calls": rhs_calls,
        "evolve.self_s": self_s["evolve.run"],
        "evolve.self_us_per_step": (self_s["evolve.run"] / probe.steps_run * 1e6
                                    if probe.steps_run else 0.0),
        "diagnostics.samples": probe.samples,
        "diagnostics.energy_s": self_s["diagnostics.energy"],
        "diagnostics.monitor_s": self_s["diagnostics.continuation_monitor"],
        "diagnostics.decay_s": self_s["diagnostics.decay_report"],
        "diagnostics.tracker_s": self_s["diagnostics.SpacetimeTracker.update"],
        "diagnostics.ms_per_sample": (sampling / probe.samples * 1e3
                                      if probe.samples else 0.0),
        "grid.sobolev_calls": count["grid.sobolev_norm"],
        "grid.sobolev_self_s": self_s["grid.sobolev_norm"],
        "io.checkpoint_writes": count["evolve.write_checkpoint"],
        "io.checkpoint_s": total["evolve.write_checkpoint"],
        "io.checkpoint_bytes": probe.checkpoint_bytes(),
        "io.diagnostics_csv_s": total["diagnostics.write_diagnostics_csv"],
        "transform.v_to_u_s": self_s["transform.v_to_u"],
        "transform.compute_Phi_calls": count["transform.compute_Phi"],
        "transform.compute_Phi_s": self_s["transform.compute_Phi"],
        "transform.compute_Phi_t_s": self_s["transform.compute_Phi_t"],
        "transform.residual_s": sum(v for k, v in self_s.items()
                                    if k.startswith("transform.residual_")),
        "verify.bundles_self_s": self_s["evolve.evolve_bundles"],
        "verify.study_self_s": self_s["verify.convergence_study"],
        "verify.checks": rep.checks,
        "cli.load_config_s": total["cli.load_config"],
        "cli.main_self_s": self_s["cli.main"],
        "trace.wall_s": rep.wall,
        "trace.glue_s": self_s[ROOT_SPAN],
    }, table


def last_level_cache_bytes():
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def environment(largest_field_bytes):
    import numpy
    llc = last_level_cache_bytes()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "last_level_cache_bytes": llc,
        "thread_pins": {var: os.environ[var] for var in _THREAD_VARS},
        "largest_field_bytes": largest_field_bytes,
        "fields_cache_resident": llc is not None and largest_field_bytes < llc,
    }


def fmt(x):
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    # The machine-speed probe runs around set-up and between all timed
    # repeats, so that times can be scaled by the machine's speed meanwhile.
    speed.slowdown()                       # first-call costs of the probe
    probes = [speed.slowdown()]
    setup = measure_setup(workload)
    probes.append(speed.slowdown())
    tracer = Tracer() if args.trace else None
    warm = run_repeat(workload, out_dir)   # fills lazy caches; checked, not timed
    probes.append(speed.slowdown())
    timed = []
    deadline = time.perf_counter() + args.seconds
    while len(timed) < MIN_REPEATS or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(timed) % 2 == 1
        timed.append(run_repeat(workload, out_dir, tracer if traced else None))
        probes.append(speed.slowdown())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Scale by the mean slowdown over the timed loop, and report the ratio of
    # totals: noise that lasts seconds hits repeats and probes alike, and
    # cancels best when both are summed over the same stretch of time.
    slowdown = statistics.mean(probes[2:])

    repeats = [warm] + timed
    attempted = len(repeats)
    failed = sum(1 for r in repeats if r.failures)
    plain = [r for r in timed if r.root < 0]
    props = workload.describe(warm.probe)

    samples = {
        "wall_s": [r.wall / slowdown for r in plain],
        "steps_per_s": [r.probe.steps * slowdown / r.wall for r in plain],
        "setup_s": [t / statistics.mean(probes) for t in setup],
        "peak_rss_mb": [peak_rss_mb],
        "max_drift": [r.max_drift for r in plain],
    }
    e2e = {name: summarize(vals) for name, vals in samples.items()}
    for name in ("setup_s", "peak_rss_mb", "max_drift"):
        e2e[name]["value"] = e2e[name]["median"]
    e2e["wall_s"]["value"] = statistics.mean(samples["wall_s"])
    e2e["steps_per_s"]["value"] = (sum(r.probe.steps for r in plain) * slowdown
                                   / sum(r.wall for r in plain))
    raw = {"wall_s": summarize([r.wall for r in plain]),
           "setup_s": summarize(setup),
           "slowdown": summarize(probes)}
    result = {"workload": workload.name, "why": WHY[workload.name],
              "seed": args.seed, "amplitude": workload.amplitude,
              "width": workload.width, "seconds": args.seconds,
              "trace": args.trace, "properties": props,
              "environment": environment(props["largest_field_bytes"]),
              "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted,
              "failures": [f for r in repeats for f in r.failures],
              "end_to_end": {k: dict(v, unit=E2E_UNITS[k]) for k, v in e2e.items()},
              "unscaled": raw,
              "repeats": [{"wall_s": r.wall, "traced": r.root >= 0}
                          for r in timed],
              "probes": probes}

    print(f"workload={workload.name} seed={args.seed} "
          f"amplitude={workload.amplitude!r} width={workload.width!r} "
          f"trace={args.trace} repeats={len(timed)} (+1 warm-up)")
    print(f"properties: {json.dumps(props)}")
    print(f"environment: {json.dumps(result['environment'])}")
    for name, s in e2e.items():
        tail = (f"p{s['p_high_pct']:.0f}={fmt(s['p_high'])}" if "p_high" in s
                else "no percentile with >= 10 samples beyond it")
        print(f"  {name:<12} {fmt(s['value'])} {E2E_UNITS[name]}: "
              f"median={fmt(s['median'])} n={s['n']} {tail}")
    print(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"  wall_s, steps_per_s and setup_s are scaled by the machine slowdown "
          f"{slowdown:.4g} (mean of {len(probes) - 2} probes); wall_s is the mean "
          f"and steps_per_s the ratio of totals over the timed repeats; unscaled: "
          + " ".join(f"{k} median={fmt(v['median'])}" for k, v in raw.items()))
    for failure in result["failures"]:
        print(f"  FAIL {failure}")

    if args.trace:
        selfs = self_times(tracer.spans)
        traced = [r for r in timed if r.root >= 0]
        per_rep, tables = [], []
        for r in traced:
            metrics, table = layer_metrics(subtree(tracer.spans, r.root), selfs, r)
            per_rep.append(metrics)
            tables.append(table)
        layers = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        layers["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - statistics.median(r.wall for r in plain))
        root_walls = [next(s.duration for s in tracer.spans if s.id == r.root)
                      for r in traced]
        self_sum_gap = max(abs(sum(t.values()) - w) for t, w in zip(tables, root_walls))
        tracer.write_csv(OUT / f"spans-{tag}.csv")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        result["per_layer"] = metrics
        result["self_time_by_span"] = {
            k: statistics.median(t.get(k, 0.0) for t in tables)
            for k in sorted(set().union(*tables))}
        result["self_sum_gap_s"] = self_sum_gap
        print(f"traced repeats={len(traced)}: self times by span (median s), "
              f"summing to the root span {ROOT_SPAN}:")
        for k, v in sorted(result["self_time_by_span"].items(), key=lambda kv: -kv[1]):
            print(f"  {k:<40} {v:.6g}")
        print(f"  largest |sum of self times - root span| = {self_sum_gap:.3g} s")
        for k, v in layers.items():
            print(f"  {k:<30} {fmt(v)} {LAYER_UNITS[k]}")
    else:
        metrics = {k: {"value": s["value"], "unit": E2E_UNITS[k]}
                   for k, s in e2e.items()}

    units = LAYER_UNITS if args.trace else E2E_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
