"""Self-test of the benchmark's span arithmetic, patching and hash gate.

usage: python3 -m pytest perfbench -q
"""
import hashlib
import os

import pytest

import run
import workloads
from instrument import Probe, install
from program import cli
from spans import Patches, Span, Tracer, covered_length, self_times, subtree


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered_length([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_self_time_is_span_minus_children():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    spans = [Span(0, -1, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 4.0),
             Span(2, 1, "a1", 2.0, 3.0), Span(3, 0, "b", 5.0, 9.0)]
    selfs = self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == spans[0].duration
    assert {s.id for s in subtree(spans, 1)} == {1, 2}


def test_tracer_records_parents_counts_and_order():
    tracer = Tracer(clock=ticking_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    inner = tracer.wrap(lambda xs: len(xs), "inner", count=lambda args: len(args[0]))
    outer = tracer.wrap(lambda: inner([1, 2, 3]) + inner([4]), "outer")
    assert outer() == 4
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (out,) = by_name["outer"]
    assert (out.start, out.end, out.parent) == (0.0, 5.0, -1)
    assert [(s.start, s.end, s.parent, s.n) for s in by_name["inner"]] == [
        (1.0, 2.0, out.id, 3), (3.0, 4.0, out.id, 1)]
    assert self_times(tracer.spans)[out.id] == 3.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]
    tracer.end(tracer.begin("after"))
    assert tracer.spans[-1].parent == -1


def test_patches_restore_and_refuse_missing_targets():
    class Owner:
        @staticmethod
        def f():
            return 1

    table = {"k": 1}
    with Patches() as p:
        p.attr(Owner, "f", lambda fn: staticmethod(lambda: 2))
        p.entry(table, "k", lambda v: v + 1)
        assert Owner.f() == 2 and table["k"] == 2
        with pytest.raises(LookupError):
            p.attr(Owner, "gone", lambda fn: fn)
        with pytest.raises(LookupError):
            p.entry(table, "gone", lambda v: v)
    assert Owner.f() == 1 and table["k"] == 1


class Tiny(workloads.RunWorkload):
    name = "tiny"
    overrides = {"grid.n_cells": 128, "grid.r_max": 4.0,
                 "integrator.t_end": 0.5, "diagnostics.output_every": 4,
                 "output.snapshot_every": 8}


def test_hash_gate_on_a_tiny_config(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PINS, "tiny", {n: "0" * 64 for n in Tiny.pinned})
    first = run.run_repeat(Tiny(workloads.DEFAULT_SEED), tmp_path)
    assert [f.split(":")[0] for f in first.failures] == list(Tiny.pinned)
    pins = {n: workloads.sha256(tmp_path / n) for n in Tiny.pinned}
    monkeypatch.setitem(workloads.PINS, "tiny", pins)
    work = Tiny(workloads.DEFAULT_SEED)
    assert run.run_repeat(work, tmp_path).failures == []
    assert run.run_repeat(work, tmp_path).failures == []

    monkeypatch.setitem(workloads.PINS, "tiny", dict(pins, **{"final.csv": "0" * 64}))
    failures = run.run_repeat(Tiny(workloads.DEFAULT_SEED), tmp_path).failures
    assert len(failures) == 1 and failures[0].startswith("final.csv: sha256")

    # Another seed has no pin, but must reproduce its own first repeat.
    other = Tiny(7)
    assert run.run_repeat(other, tmp_path).failures == []
    other._first_hashes["diagnostics.csv"] = "0" * 64
    failures = run.run_repeat(other, tmp_path).failures
    assert failures == ["diagnostics.csv: bytes differ from the first repeat"]


def test_seeds_stay_inside_the_band():
    assert workloads.gaussian(workloads.DEFAULT_SEED) == (0.5, 1.0)
    for seed in range(1, 50):
        a, w = workloads.gaussian(seed)
        assert workloads.AMPLITUDE_BAND[0] <= a <= workloads.AMPLITUDE_BAND[1]
        assert workloads.WIDTH_BAND[0] <= w <= workloads.WIDTH_BAND[1]
    assert workloads.gaussian(3) == workloads.gaussian(3) != workloads.gaussian(4)


def test_traced_repeat_self_times_sum_to_its_wall(tmp_path):
    tracer = Tracer()
    rep = run.run_repeat(Tiny(1), tmp_path, tracer)
    assert rep.failures == []
    spans = subtree(tracer.spans, rep.root)
    selfs = self_times(tracer.spans)
    root = next(s for s in spans if s.id == rep.root)
    assert sum(selfs[s.id] for s in spans) == pytest.approx(root.duration, abs=1e-9)
    metrics, _ = run.layer_metrics(spans, selfs, rep)
    assert metrics["evolve.steps"] == 64         # t_end / (cfl * dr) = 0.5 / (0.25 / 32)
    assert metrics["evolve.rhs_calls"] == 4 * 64
    assert metrics["kernels.F_calls"] == 4 * 64
    assert metrics["kernels.F_ns_per_node"] > 0.0
    assert metrics["diagnostics.samples"] == 64 // 4 + 1
    assert metrics["io.checkpoint_writes"] == 64 // 8 + 1 + 1   # snapshots + final
    assert metrics["io.checkpoint_bytes"] > 0
    assert metrics["grid.sobolev_calls"] > 0
    assert set(metrics) | {"trace.overhead_s"} == set(run.LAYER_UNITS)


def test_untraced_install_only_observes(tmp_path):
    probe = Probe()
    original = cli.write_checkpoint
    with Patches() as patches:
        install(patches, probe)
        assert cli.write_checkpoint is original
        cli.main(["run", *Tiny(0).set_args(), "--out", str(tmp_path)])
    assert (probe.steps, probe.samples, probe.snapshots) == (64, 17, 9)


def test_default_run_reproduces_the_roadmap_hash(tmp_path, capsys):
    """`faddeevlab run` with every default must keep its published bytes."""
    assert cli.main(["run", "--out", str(tmp_path)]) == 0
    with open(os.path.join(tmp_path, "diagnostics.csv"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest.startswith("1158d6a1") and digest.endswith("1554")
