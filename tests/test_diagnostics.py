"""Observables: energy, monitors, decay ratios, window norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faddeevlab import diagnostics as diag
from faddeevlab.diagnostics import DiagnosticsRecord
from faddeevlab.grid import FieldState, RadialField, RadialGrid, sobolev_norm
from faddeevlab.kernels import KernelParams
from faddeevlab.transform import u_to_v, v_to_u

from conftest import gaussian_v_state

# (1/2) * integral [A_1 (u_t^2 + u_r^2) + r^-2 sin^2 u] r dr for
# u = pi exp(-r^2), alpha = 1, frozen by a pre-build adaptive quadrature
ENERGY_GAUSSIAN_U = 5.3665119245489741967


def gaussian_u_state(n=2048, r_max=12.0):
    g = RadialGrid(n, r_max)
    u0 = np.pi * np.exp(-g.r ** 2)
    return FieldState(RadialField(u0, g),
                      RadialField(np.zeros(g.n_nodes), g))


# ----------------------------------------------------------------- energy

def test_energy_matches_quadrature_oracle(params, profile):
    e = diag.energy(gaussian_u_state(), params, profile=profile)
    assert abs(e - ENERGY_GAUSSIAN_U) <= 1e-8 * ENERGY_GAUSSIAN_U


def test_energy_u_r_assembly_paths_agree(params, profile):
    """Differencing u directly vs assembling u_r from the smooth field v;
    the paths differ only by the O(h^3) seam bias (measured 7.7e-9)."""
    us = gaussian_u_state()
    e_direct = diag.energy(us, params, profile=profile)
    vs = u_to_v(us, profile)
    e_chain = diag.energy(us, params, vs, profile)
    assert abs(e_chain - e_direct) <= 1e-7 * e_direct


def test_energy_of_constant_pi_vanishes(params, profile):
    g = RadialGrid(512, 8.0)
    us = FieldState(RadialField(np.full(g.n_nodes, np.pi), g),
                    RadialField(np.zeros(g.n_nodes), g))
    assert abs(diag.energy(us, params, profile=profile)) <= 1e-20


def test_energy_sigma_model_limit(profile):
    """alpha -> 0 reduces the density to u_t^2 + u_r^2 + r^-2 sin^2 u."""
    from scipy.integrate import quad
    e = diag.energy(gaussian_u_state(), KernelParams(alpha=1e-8),
                    profile=profile)
    i1 = 2.0 * np.pi ** 2 * quad(lambda r: r ** 3 * np.exp(-2 * r ** 2),
                                 0.0, 12.0)[0]
    i2 = 0.5 * quad(lambda r: np.sin(np.pi * np.exp(-r ** 2)) ** 2 / r,
                    1e-300, 12.0, limit=200)[0]
    oracle = i1 + i2
    assert abs(e - oracle) <= 1e-7 * oracle


def test_energy_is_nonnegative(params, profile, grid128):
    rng = np.random.default_rng(11)
    for _ in range(5):
        amp = rng.uniform(0.05, 0.8)
        vs = gaussian_v_state(grid128, amp=amp, width=rng.uniform(0.5, 2.0),
                              amp_t=rng.uniform(-0.3, 0.3))
        from faddeevlab.transform import v_to_u
        us = v_to_u(vs, profile)
        e = diag.energy(us, params, vs, profile)
        assert np.isfinite(e) and e > 0.0


def test_energy_tail_vanishes_for_compact_data(params, profile):
    e, tail = diag.energy(gaussian_u_state(), params, profile=profile,
                          return_tail=True)
    assert e > 0.0
    assert 0.0 <= tail <= 1e-50


def test_non_finite_energy_names_its_first_radius(params, profile):
    # a velocity spike at r = 3 whose u_t^2 = (r v_t)^2 overflows there
    g = RadialGrid(64, 8.0)
    vs = gaussian_v_state(g, amp=0.3)
    i = int(np.searchsorted(g.r, 3.0))
    vt = np.zeros(g.n_nodes)
    vt[i] = 1e200
    vs = FieldState(vs.f, vs.f_t.with_values(vt))
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^non-finite energy integrand at r=3$"):
        diag.energy(v_to_u(vs, profile), params, vs, profile)


def test_energy_drift_definition():
    assert diag.energy_drift(1.02, 1.0) == pytest.approx(0.02)
    assert diag.energy_drift(0.5, 0.0) == 0.5  # absolute when e0 = 0


# --------------------------------------------------------------- monitors

def test_monitor_peak_of_unit_gaussian_is_one():
    g = RadialGrid(4096, 6.0)
    st_v = FieldState(RadialField(np.exp(-g.r ** 2), g),
                      RadialField(np.zeros(g.n_nodes), g))
    mv, mvt, mgv = diag.continuation_monitor(st_v)
    assert mv == 1.0  # <r>|v| is maximal at the origin for this profile
    assert mvt == 0.0
    dense = np.linspace(0.0, 6.0, 400_001)
    oracle = np.max(np.sqrt(1.0 + dense ** 2) * 2.0 * dense * np.exp(-dense ** 2))
    assert abs(mgv - oracle) <= 1e-6 * oracle


def test_monitor_doubling_is_exact(grid128):
    vs = gaussian_v_state(grid128, amp=0.25, amp_t=0.1)
    doubled = FieldState(vs.f.with_values(2.0 * vs.f.values),
                         vs.f_t.with_values(2.0 * vs.f_t.values))
    assert diag.continuation_monitor(doubled) == tuple(
        2.0 * m for m in diag.continuation_monitor(vs))


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False))
def test_monitor_homogeneity(lam):
    g = RadialGrid(64, 8.0)
    vs = gaussian_v_state(g, amp=0.3, amp_t=-0.2)
    scaled = FieldState(vs.f.with_values(lam * vs.f.values),
                        vs.f_t.with_values(lam * vs.f_t.values))
    for a, b in zip(diag.continuation_monitor(scaled),
                    diag.continuation_monitor(vs)):
        assert a == pytest.approx(lam * b, rel=1e-14)


# ------------------------------------------------------------------ decay

def test_decay_report_zero_field(grid128):
    rep = diag.decay_report(RadialField(np.zeros(grid128.n_nodes), grid128))
    assert rep == {"outer": 0.0, "inner": 0.0}


def test_decay_report_critical_profile():
    """(1+r^2)^(-3/4) saturates the r^(-3/2) outer envelope."""
    g = RadialGrid(640, 40.0)
    f = RadialField((1.0 + g.r ** 2) ** (-0.75), g)
    rep = diag.decay_report(f)
    assert 0.999 <= rep["outer"] <= 1.0
    inner = (g.r > 0.0) & (g.r <= 1.0)
    assert rep["inner"] == np.max(f.values[inner])  # max |v| on 0 < r <= 1
    assert 0.99 <= rep["inner"] <= 1.0


# ------------------------------------------------------------ window norms

def _window_fields(grid, ts, coeff):
    prof_r = np.exp(-grid.r ** 2)
    return [RadialField(coeff(t) * prof_r, grid) for t in ts]


def test_ys_zero_window(grid128):
    fields = [RadialField(np.zeros(grid128.n_nodes), grid128)
              for _ in range(5)]
    for s in (0, 1, 2):
        assert diag.ys_norm(fields, 0.01, s) == 0.0


def test_ys_s0_is_max_l2(grid128):
    ts = np.arange(0.0, 0.5, 0.05)
    fields = _window_fields(grid128, ts, lambda t: 1.0 + 0.5 * math.sin(3 * t))
    assert diag.ys_norm(fields, 0.05, 0) == max(
        sobolev_norm(f, 0) for f in fields)


def test_ys_closed_form_window():
    g = RadialGrid(512, 8.0)
    dt = 0.01
    ts = np.arange(0.0, 2.5 + dt / 2, dt)
    fields = _window_fields(g, ts, lambda t: 1.0 + 0.5 * math.sin(3 * t))
    prof_f = RadialField(np.exp(-g.r ** 2), g)
    n0, n1 = sobolev_norm(prof_f, 0), sobolev_norm(prof_f, 1)
    tt = np.linspace(dt, 2.5 - dt, 200_001)
    oracle = np.max(np.abs(1.0 + 0.5 * np.sin(3 * tt)) * n1
                    + np.abs(1.5 * np.cos(3 * tt)) * n0)
    y1 = diag.ys_norm(fields, dt, 1)
    assert abs(y1 - oracle) <= 1e-3 * oracle  # measured 5.3e-5
    assert diag.ys_norm(fields, dt, 2) >= y1 >= diag.ys_norm(fields, dt, 0)


def test_ys_validation(grid128):
    fields = [RadialField(np.zeros(grid128.n_nodes), grid128)
              for _ in range(4)]
    with pytest.raises(ValueError, match="at least 5"):
        diag.ys_norm(fields, 0.01, 2)
    with pytest.raises(ValueError, match="supports s"):
        diag.ys_norm(fields, 0.01, 3)


def test_spacetime_norm_separable_oracle():
    g = RadialGrid(512, 8.0)
    ts = np.linspace(0.0, math.pi, 401)
    dt = ts[1] - ts[0]
    fields = _window_fields(g, ts, math.sin)
    got = diag.spacetime_norm(fields, dt, 2, 8)
    oracle = math.sqrt(math.pi / 2.0) * (1.0 / 128.0) ** 0.125
    assert abs(got - oracle) <= 1e-6 * oracle
    # the (inf, 2) pair degenerates to the running max of the L2 norm
    assert diag.spacetime_norm(fields, dt, math.inf, 2) == max(
        sobolev_norm(f, 0) for f in fields)
    zeros = [f.with_values(np.zeros_like(f.values)) for f in fields[:3]]
    assert diag.spacetime_norm(zeros, dt, 2, 8) == 0.0


def test_spacetime_tracker_matches_batch():
    g = RadialGrid(256, 8.0)
    ts = np.linspace(0.0, math.pi, 101)
    dt = ts[1] - ts[0]
    fields = _window_fields(g, ts, math.sin)
    tracker = diag.SpacetimeTracker()
    for i, f in enumerate(fields):
        tracker.update(f, 0.0 if i == 0 else dt)
    vals = tracker.values()
    assert list(vals) == ["Linf_L2", "L2_L8"]  # the diagnostics.csv column order
    assert vals["L2_L8"] == pytest.approx(
        diag.spacetime_norm(fields, dt, 2, 8), rel=1e-13)
    assert vals["Linf_L2"] == pytest.approx(
        diag.spacetime_norm(fields, dt, math.inf, 2), rel=1e-13)


# -------------------------------------------------------------------- csv

def test_diagnostics_csv_layout(tmp_path):
    recs = [DiagnosticsRecord(time=t, energy=1.0, energy_drift=0.0,
                              energy_tail=0.0, monitor_v=0.1, monitor_vt=0.2,
                              monitor_gradv=0.3, sobolev={1: 1.0, 2: 2.0},
                              decay_ratios={"inner": 0.5, "outer": 0.25},
                              spacetime_norms={"Linf_L2": 0.9, "L2_L8": 0.8})
            for t in (0.0, 0.5)]
    path = tmp_path / "diag.csv"
    diag.write_diagnostics_csv(recs, path)
    rows = path.read_text().splitlines()
    assert rows[0] == ("time,energy,energy_drift,energy_tail,"
                       "monitor_v,monitor_vt,monitor_gradv,"
                       "sobolev_s1,sobolev_s2,decay_inner,decay_outer,"
                       "Linf_L2,L2_L8")
    assert len(rows) == 3


def test_diagnostics_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no diagnostics"):
        diag.write_diagnostics_csv([], tmp_path / "empty.csv")
