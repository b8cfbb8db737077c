#!/usr/bin/env python3
"""Paired runs of `perfbench/run.py --seed N --trace 0` (N from --seed,
default 0) in two checkouts, each run in its own interpreter, the parent
first in even pairs, --pairs pairs for each --workload (repeatable), one
workload after the other. Per workload and end-to-end metric the file holds
each side's quartiles, the ratio of the medians (change / parent), the
pairs the change won (ties count for neither) by the direction in the
change's BENCHMARK.json, its bound there, whether the change's median
is worse than the parent's by more than that bound (as a fraction of the
parent's median) and whether the metric is unresolved: the parent's own
spread, (q3 - q1) / |median|, is wider than the bound and not every change
run beats every parent run; then the seed and every run. After `wrote
FILE` it prints one line per workload and metric: the two medians, their
ratio and the pairs the change won, marked WORSE past the bound and
UNRESOLVED when unresolved, and then a last line naming every WORSE
metric, or none, followed by every UNRESOLVED one if there are any. A
claim is rechecked on a seed other than the one it was written against.
Exit 2, writing nothing, when --pairs is below 1, a side has no
perfbench/run.py or a side reports a run that is not correct; the last is
named by side, exit code and the run's FAIL lines or stderr tail."""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_side(tree, workload, seconds, seed):
    """The result object perfbench/run.py prints last, or "correct": false.
    A run that is not correct also gets "why": its exit code and the FAIL
    lines it printed, or else the tail of its stderr."""
    proc = subprocess.run([sys.executable, str(Path(tree, "perfbench", "run.py")),
                           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = (lines or [""])[-1]
    result = json.loads(last) if last.startswith("{") else {"correct": False}
    if not result.get("correct"):
        told = ([line.strip() for line in lines if line.strip().startswith("FAIL ")]
                or proc.stderr.strip().splitlines()[-5:])
        result["why"] = f"exit {proc.returncode}: " + " | ".join(told)
    return result


def summarize(runs, spec):
    """The summary of runs = [{side: result}, ...] by the end-to-end metrics
    of spec, BENCHMARK.json's [{"name", "better", "bound"}, ...]."""
    summary = {}
    for m in spec:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        vals = {s: np.array([r[s]["metrics"][name]["value"] for r in runs]) for s in SIDES}
        gain = (vals["parent"] - vals["change"]) * sign
        q = {s: dict(zip(("q1", "median", "q3"), np.percentile(v, [25, 50, 75]).tolist()))
             for s, v in vals.items()}
        parent, change = q["parent"]["median"], q["change"]["median"]
        wide = q["parent"]["q3"] - q["parent"]["q1"] > m["bound"] * abs(parent)
        apart = np.max(vals["change"] * sign) < np.min(vals["parent"] * sign)
        summary[name] = dict(q, median_ratio=change / parent,
                             change_better_pairs=int(np.sum(gain > 0)), pairs=len(runs),
                             bound=m["bound"],
                             worse=bool((change - parent) * sign > m["bound"] * abs(parent)),
                             unresolved=bool(wide and not apart))
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    for name in SIDES + ("out",):
        ap.add_argument(f"--{name}", required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")
    trees = {s: getattr(args, s) for s in SIDES}
    for tree in trees.values():
        if not Path(tree, "perfbench", "run.py").is_file():
            ap.exit(2, f"error: {tree} has no perfbench/run.py\n")
    runs = {}
    for workload in args.workload:
        for k in range(args.pairs):
            pair = {s: run_side(trees[s], workload, args.seconds, args.seed)
                    for s in (SIDES if k % 2 == 0 else SIDES[::-1])}
            wrong = [f"{s} ({pair[s].get('why', 'no reason given')})"
                     for s in SIDES if not pair[s].get("correct")]
            if wrong:
                ap.exit(2, f"error: {workload} pair {k}: a run is not correct: "
                           f"{'; '.join(wrong)}\n")
            runs.setdefault(workload, []).append(
                dict(pair, workload=workload, parent_first=k % 2 == 0))
    spec = json.loads(Path(trees["change"], "BENCHMARK.json").read_text())["end_to_end"]
    summary = {w: summarize(w_runs, spec) for w, w_runs in runs.items()}
    Path(args.out).write_text(json.dumps(
        {"summary": summary, "seed": args.seed,
         "runs": [r for w_runs in runs.values() for r in w_runs]}, indent=1))
    print(f"wrote {args.out}")
    better = {m["name"]: m["better"] for m in spec}
    for workload, metrics in summary.items():
        for name, m in metrics.items():
            print(f"{workload} {name}: parent {m['parent']['median']:.6g} change "
                  f"{m['change']['median']:.6g} ratio {m['median_ratio']:.4f} change better "
                  f"in {m['change_better_pairs']}/{m['pairs']} pairs ({better[name]} is better)"
                  + (f" WORSE than its bound {m['bound']:g}" if m["worse"] else "")
                  + (f" UNRESOLVED: parent spread past its bound {m['bound']:g}"
                     if m["unresolved"] else ""))
    named = {flag: [f"{w} {name}" for w, metrics in summary.items()
                    for name, m in metrics.items() if m[flag]]
             for flag in ("worse", "unresolved")}
    print(f"worse than its bound: {', '.join(named['worse']) or 'none'}"
          + (f"; unresolved: {', '.join(named['unresolved'])}" if named["unresolved"] else ""))


if __name__ == "__main__":
    main()
