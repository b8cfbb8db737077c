"""Acceptance gate: one test per criterion, one printed verdict line each.

The long-run drift magnitude clause is asserted at its stated tolerance and
is expected to fail at this resolution: the cutoff-shell transient radiates
at O(1) no matter how small the data amplitude, and its drift floor at
n = 2048 sits near 5.4e-5 (see the drift-order clause, which passes). The
failure is deliberate; loosening the bound here would hide a real property
of the scheme.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from faddeevlab import diagnostics as diag
from faddeevlab.cli import (check_kernel_limits, check_phi_t_identity_order,
                            check_two_path_identity, manufactured_study)
from faddeevlab.evolve import InitialDataSpec, RunConfig, run
from faddeevlab.grid import FieldState, RadialGrid
from faddeevlab.kernels import DEFAULT_PARAMS, DEFAULT_PROFILE
from faddeevlab.transform import compute_Phi
from faddeevlab.verify import convergence_study

P, PROF = DEFAULT_PARAMS, DEFAULT_PROFILE


VERDICTS = []


def verdict(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}"
    VERDICTS.append(line)
    print(line)


@pytest.fixture(scope="module")
def benchmark_run():
    """a=0.5, sigma=1, r0=0 Gaussian on n=2048, r_max=40, CFL 0.25 to t=20."""
    cfg = RunConfig(n_cells=2048, r_max=40.0, t_end=20.0, output_every=64,
                    initial=InitialDataSpec(amplitude=0.5, center=0.0,
                                            width=1.0))
    res = run(cfg)
    assert res.status == "completed"
    return res


@pytest.fixture(scope="module")
def benchmark_companion(benchmark_run):
    """Half the resolution, half the sampling stride: same sample times."""
    cfg = replace(benchmark_run.config, n_cells=1024, output_every=32)
    res = run(cfg)
    assert res.status == "completed"
    return res


def test_criterion_1_kernel_limits():
    t0 = time.perf_counter()
    worst = max(err for _, err, _, _ in check_kernel_limits(P, PROF))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict(1, ok, f"kernel limits rel err {worst:.3e} (tol 1e-12) "
                   f"in {elapsed:.3f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_two_path_identity():
    t0 = time.perf_counter()
    [(_, worst, _, _)] = check_two_path_identity(P, PROF)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    verdict(2, ok, f"two-path identity rel err {worst:.3e} (tol 1e-9) "
                   f"over 1000 samples in {elapsed:.3f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_3_long_run_drift(benchmark_run):
    drift = diag.peaks(benchmark_run.records)["max_drift"]

    base = RunConfig(n_cells=512, r_max=16.0, t_end=5.0, output_every=16,
                     drift_ceiling=1.0, initial=InitialDataSpec(amplitude=0.5))
    study = convergence_study(base, levels=3, observables=("drift",))["drift"]
    order_ok = study.ls_order >= 3.5 - 0.3
    drift_ok = drift <= 1e-6
    verdict(3, drift_ok and order_ok,
            f"max drift {drift:.4e} (tol 1e-6; shell-transient floor, "
            f"expected shortfall) | drift order {study.ls_order:.3f} "
            f"(>= 3.2: {'ok' if order_ok else 'failed'})")
    assert order_ok
    assert drift_ok  # honest failure: resolution floor is ~5.4e-5 at n=2048


def test_criterion_4_manufactured_order():
    sol = manufactured_study(P, PROF)["solution"]
    ok = sol.ls_order >= 3.5 and sol.monotone
    verdict(4, ok, f"manufactured-solution order {sol.ls_order:.3f} "
                   f"(>= 3.5) errors {[f'{r.error:.2e}' for r in sol.rows]}")
    assert sol.monotone
    assert sol.ls_order >= 3.5


def test_criterion_5_residual_orders():
    base = RunConfig(n_cells=256, r_max=16.0, t_end=2.5, output_every=64,
                     drift_ceiling=1.0, initial=InitialDataSpec(amplitude=0.5))
    studies = convergence_study(
        base, levels=3,
        observables=("residual_v", "residual_Phi", "residual_Phi_t"),
        t_probe=0.7, t_center=2.0)
    o_v = studies["residual_v"].ls_order
    o_phi = studies["residual_Phi"].ls_order
    o_phit = studies["residual_Phi_t"].ls_order
    ok = o_v >= 3.5 and o_phi >= 2.0 and o_phit >= 2.0
    verdict(5, ok, f"residual orders: v {o_v:.3f} (>= 3.5), "
                   f"Phi {o_phi:.3f} (>= 2), Phi_t {o_phit:.3f} (>= 2)")
    assert o_v >= 3.5
    assert o_phi >= 2.0
    assert o_phit >= 2.0


def test_criterion_6_phi_t_identity_order():
    [(_, order, _, _)] = check_phi_t_identity_order(P, PROF)
    ok = abs(order - 2.0) <= 0.3
    verdict(6, ok, f"Phi_t finite-difference identity order {order:.4f} "
                   f"(2 +- 0.3)")
    assert abs(order - 2.0) <= 0.3


def test_criterion_7_far_field_phi():
    g = RadialGrid(512, 16.0)
    zeros = np.zeros(g.n_nodes)
    v_state = FieldState(zeros.copy(), zeros.copy(), g)
    phi = compute_Phi(v_state, P)
    i10 = int(round(10.0 / g.dr))
    expected = -math.pi * P.alpha ** 2 / 10.0 ** 3
    rel = abs(phi[i10] - expected) / abs(expected)
    ok = rel <= 0.02
    verdict(7, ok, f"Phi(10) = {phi[i10]:.6e} vs -pi alpha^2 r^-3 = "
                   f"{expected:.6e}, rel {rel:.4f} (tol 0.02)")
    assert rel <= 0.02


def test_criterion_8_monitor_agreement(benchmark_run, benchmark_companion):
    recs_a, recs_b = benchmark_run.records, benchmark_companion.records
    assert np.allclose([r["time"] for r in recs_a], [r["time"] for r in recs_b])
    vals = [x for rec in recs_a + recs_b for x in list(rec.values())[1:]]  # all but time
    finite = bool(np.all(np.isfinite(vals)))

    peaks_a, peaks_b = diag.peaks(recs_a), diag.peaks(recs_b)
    gaps = {}
    for name in ("monitor_v", "monitor_vt", "monitor_gradv"):
        a, b = peaks_a[f"max_{name}"], peaks_b[f"max_{name}"]
        gaps[name] = abs(a - b) / a
    worst = max(gaps.values())
    ok = finite and worst <= 0.05
    verdict(8, ok, f"all {len(vals)} monitor samples finite: {finite}; "
                   f"peak-monitor gaps n=2048 vs n=1024 "
                   + ", ".join(f"{k} {v:.2%}" for k, v in gaps.items())
                   + " (tol 5%)")
    assert finite
    assert worst <= 0.05


def test_criterion_9_deterministic_diagnostics(tmp_path):
    blobs = []
    for tag in ("first", "second"):
        cfg = RunConfig(n_cells=128, r_max=8.0, t_end=0.5, output_every=16,
                        initial=InitialDataSpec(amplitude=0.4))
        res = run(cfg)
        assert res.status == "completed"
        path = tmp_path / f"{tag}.csv"
        diag.write_diagnostics_csv(res.records, path)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    verdict(9, ok, f"identical configs give byte-identical diagnostics "
                   f"({len(blobs[0])} bytes)")
    assert ok


# sha256 of the benchmark run's diagnostics.csv (numpy 2.4.6, x86-64): a
# change that means to leave the numerics alone must leave these bytes alone
BENCHMARK_DIAGNOSTICS_SHA256 = (
    "2ffce262fd3bbc44dd59360e0f37e3bd786e6817af78582057caaa77afa3d512")


def test_benchmark_diagnostics_bytes_are_pinned(benchmark_run, tmp_path):
    path = tmp_path / "diagnostics.csv"
    diag.write_diagnostics_csv(benchmark_run.records, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BENCHMARK_DIAGNOSTICS_SHA256
