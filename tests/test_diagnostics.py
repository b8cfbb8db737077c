"""Observables: energy, monitors, decay ratios, window norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faddeevlab import diagnostics as diag
from faddeevlab.evolve import InitialDataSpec, RunConfig, run
from faddeevlab.grid import FieldState, RadialGrid, d_r, integrate_radial, sobolev_norm
from faddeevlab.kernels import CutoffProfile, KernelParams, mesh_cutoffs
from faddeevlab.transform import u_to_v, v_to_u

from conftest import gaussian_v_state

def gaussian_u_state(n=2048, r_max=12.0, alpha=1.0):
    g = RadialGrid(n, r_max, kernel_params=KernelParams(alpha=alpha))
    u0 = np.pi * np.exp(-g.r ** 2)
    return FieldState(u0, np.zeros(g.n_nodes), g)


# ----------------------------------------------------------------- energy

def test_energy_u_r_assembly_paths_agree():
    """Differencing u directly vs assembling u_r from the smooth field v;
    the paths differ only by the O(h^3) seam bias (measured 7.7e-9)."""
    us = gaussian_u_state()
    e_direct = diag.energy(us)
    vs = u_to_v(us)
    e_chain = diag.energy(us, vs)
    assert abs(e_chain - e_direct) <= 1e-7 * e_direct


def test_energy_refuses_a_v_state_from_another_grid():
    """A v state on another mesh would mix two grids' nodes in u_r: refused,
    naming both grids."""
    g, other = RadialGrid(256, 8.0), RadialGrid(256, 16.0)
    vs = FieldState(0.3 * np.exp(-g.r ** 2), np.zeros(g.n_nodes), g)
    wrong = FieldState(vs.f, vs.f_t, other)
    with pytest.raises(ValueError) as err:
        diag.energy(v_to_u(vs), wrong)
    assert str(err.value) == f"the v state lives on {other}, the u state on {g}"


def test_energy_of_constant_pi_vanishes():
    g = RadialGrid(512, 8.0)
    us = FieldState(np.full(g.n_nodes, np.pi), np.zeros(g.n_nodes), g)
    assert abs(diag.energy(us)) <= 1e-20


def test_energy_sigma_model_limit():
    """alpha -> 0 reduces the density to u_t^2 + u_r^2 + r^-2 sin^2 u."""
    from scipy.integrate import quad
    e = diag.energy(gaussian_u_state(alpha=1e-8))
    i1 = 2.0 * np.pi ** 2 * quad(lambda r: r ** 3 * np.exp(-2 * r ** 2),
                                 0.0, 12.0)[0]
    i2 = 0.5 * quad(lambda r: np.sin(np.pi * np.exp(-r ** 2)) ** 2 / r,
                    1e-300, 12.0, limit=200)[0]
    oracle = i1 + i2
    assert abs(e - oracle) <= 1e-7 * oracle


@pytest.mark.parametrize("alpha,lam", [(1.0, 1.0), (1.0, 0.5), (0.3, 1.0)])
def test_energy_of_the_harmonic_bubble_matches_its_closed_form(alpha, lam):
    """u = 2 arctan(lam/r) at rest on [0, R]: the sin^2 u/r^2 and u_r^2 terms
    give 2 R^2/(R^2 + lam^2), the alpha^2 u_r^2 sin^2 u/r^2 term
    (4 alpha^2/(3 lam^2)) (1 - lam^6/(R^2 + lam^2)^3). The chained energy
    of the v chart meets it to 1.2e-5 relative at n = 512 and 7.8e-7 at
    n = 1024, a ratio of about 16: fourth order."""
    r_max = 16.0
    ref = (2 * r_max ** 2 / (r_max ** 2 + lam ** 2) + 4 * alpha ** 2 / (3 * lam ** 2)
           * (1 - lam ** 6 / (r_max ** 2 + lam ** 2) ** 3))
    errs = []
    for n in (512, 1024):
        g = RadialGrid(n, r_max, kernel_params=KernelParams(alpha=alpha))
        s = u_to_v(FieldState(2 * np.arctan2(lam, g.r), np.zeros(g.n_nodes), g))
        errs.append(abs(diag.energy(v_to_u(s), s) - ref) / ref)
    assert errs[0] <= 2e-5
    assert errs[1] <= 1.5e-6
    assert errs[0] >= 10 * errs[1]


def test_energy_is_nonnegative(grid128):
    rng = np.random.default_rng(11)
    for _ in range(5):
        amp = rng.uniform(0.05, 0.8)
        vs = gaussian_v_state(grid128, amp=amp, width=rng.uniform(0.5, 2.0),
                              amp_t=rng.uniform(-0.3, 0.3))
        us = v_to_u(vs)
        e = diag.energy(us, vs)
        assert np.isfinite(e) and e > 0.0


def test_energy_tail_vanishes_for_compact_data():
    e, tail = diag.energy(gaussian_u_state(), return_tail=True)
    assert e > 0.0
    assert 0.0 <= tail <= 1e-50


def test_non_finite_energy_names_its_first_radius():
    # a velocity spike at r = 3 whose u_t^2 = (r v_t)^2 overflows there
    g = RadialGrid(64, 8.0)
    vs = gaussian_v_state(g, amp=0.3)
    i = int(np.searchsorted(g.r, 3.0))
    vt = np.zeros(g.n_nodes)
    vt[i] = 1e200
    vs = FieldState(vs.f, vt, g)
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=r"^non-finite energy integrand at r=3$"):
        diag.energy(v_to_u(vs), vs)


def _stack(states):
    g = states[0].grid
    return FieldState(np.stack([s.f for s in states]), np.stack([s.f_t for s in states]),
                      g, np.array([s.time for s in states]))


@pytest.mark.parametrize("alpha,kind", [(1.0, 7), (0.7, 9)])
def test_a_stack_of_states_gives_each_row_its_own_values(alpha, kind):
    """energy, its tail, the monitors, the decay ratios and the tracker of a
    stack of states are lists whose entries equal, with ==, the values each
    state gives alone (the tracker's after each state, in order)."""
    g = RadialGrid(127, 6.0, CutoffProfile(kind), KernelParams(alpha))
    states = [gaussian_v_state(g, amp=a, width=w, amp_t=b, t=0.1 * j)
              for j, (a, w, b) in enumerate([(0.2, 1.0, 0.0), (-0.5, 0.7, 0.3),
                                             (1.3, 2.0, -0.1), (0.0, 1.0, 0.0)])]
    stack, cut = _stack(states), mesh_cutoffs(g)
    vr = d_r(stack.f, g)
    got = {"energy": list(diag.energy(v_to_u(stack), stack, return_tail=True, v_r=vr)),
           "monitors": list(diag.continuation_monitor(stack, vr, cut)),
           "decay": diag.decay_report(stack.f, cut),
           "tracker": diag.SpacetimeTracker().update(stack.f, g, [0.0, 0.1, 0.1, 0.1])}
    tracker = diag.SpacetimeTracker()
    for j, st in enumerate(states):
        one = {"energy": diag.energy(v_to_u(st), st, return_tail=True),
               "monitors": diag.continuation_monitor(st, d_r(st.f, g), cut),
               "decay": diag.decay_report(st.f, cut),
               "tracker": tracker.update(st.f, g, 0.1 if j else 0.0)}
        assert [e[j] for e in got["energy"]] == list(one["energy"])
        assert [m[j] for m in got["monitors"]] == list(one["monitors"])
        assert {k: v[j] for k, v in got["decay"].items()} == one["decay"]
        assert got["tracker"][j] == one["tracker"]
    with pytest.raises(ValueError, match="a stack of states needs their v_state"):
        diag.energy(v_to_u(stack))


def test_a_stack_is_non_finite_exactly_where_its_states_raise():
    """The energies of a stack are non-finite exactly at the rows whose
    state alone raises EnergyOverflow, and equal, with ==, the lone values
    at the others; a lone state's overflow names its first radius."""
    g = RadialGrid(64, 8.0)
    states = []
    for amp, where in ((0.3, None), (0.3, 3.0), (-0.4, None), (0.3, 5.0)):
        vt = np.zeros(g.n_nodes)
        if where is not None:
            vt[int(np.searchsorted(g.r, where))] = 1e200
        states.append(FieldState(gaussian_v_state(g, amp=amp).f, vt, g))
    stack = _stack(states)
    with np.errstate(over="ignore"):
        got = diag.energy(v_to_u(stack), stack)
    for st, e in zip(states, got):
        with np.errstate(over="ignore"):
            try:
                assert e == diag.energy(v_to_u(st), st) and math.isfinite(e)
            except diag.EnergyOverflow:
                assert not math.isfinite(e)
    assert [math.isfinite(e) for e in got] == [True, False, True, False]
    with np.errstate(over="ignore"), pytest.raises(
            diag.EnergyOverflow, match=r"^non-finite energy integrand at r=3$"):
        diag.energy(v_to_u(states[1]), states[1])


def test_a_non_default_chart_survives_post_processing():
    """A run at cutoff order 9 returns its state on the order-9 grid, so
    post-processing it reads the run's own chart: the energy of that state
    is its last record, bit for bit."""
    cfg = RunConfig(n_cells=256, r_max=8.0, t_end=1.0, profile=CutoffProfile(9),
                    initial=InitialDataSpec(amplitude=0.5))
    res = run(cfg)
    assert res.status == "completed" and res.state.grid.profile == CutoffProfile(9)
    assert diag.energy(v_to_u(res.state), res.state) == res.records[-1]["energy"]


def test_a_non_default_alpha_survives_post_processing():
    """A run at alpha = 0.7 returns its state on a grid of that alpha, so the
    energy of that state, given no alpha, is its last record, bit for bit."""
    cfg = RunConfig(n_cells=128, r_max=8.0, t_end=0.5, kernel_params=KernelParams(alpha=0.7))
    res = run(cfg)
    assert res.status == "completed" and res.state.grid.kernel_params.alpha == 0.7
    s = res.state
    assert diag.energy(v_to_u(s), v_state=s) == res.records[-1]["energy"]


def test_energy_drift_definition():
    assert diag.energy_drift(1.02, 1.0) == pytest.approx(0.02)
    assert diag.energy_drift(0.5, 0.0) == 0.5  # absolute when e0 = 0


# --------------------------------------------------------------- monitors

def monitor(vs):
    cut = mesh_cutoffs(vs.grid)
    return diag.continuation_monitor(vs, d_r(vs.f, vs.grid), cut)


def test_monitor_peak_of_unit_gaussian_is_one():
    g = RadialGrid(4096, 6.0)
    mv, mvt, mgv = monitor(FieldState(np.exp(-g.r ** 2), np.zeros(g.n_nodes), g))
    assert mv == 1.0  # <r>|v| is maximal at the origin for this profile
    assert mvt == 0.0
    dense = np.linspace(0.0, 6.0, 400_001)
    oracle = np.max(np.sqrt(1.0 + dense ** 2) * 2.0 * dense * np.exp(-dense ** 2))
    assert abs(mgv - oracle) <= 1e-6 * oracle


def test_monitor_doubling_is_exact(grid128):
    vs = gaussian_v_state(grid128, amp=0.25, amp_t=0.1)
    doubled = FieldState(2.0 * vs.f, 2.0 * vs.f_t, grid128)
    assert monitor(doubled) == tuple(2.0 * m for m in monitor(vs))


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False))
def test_monitor_homogeneity(lam):
    g = RadialGrid(64, 8.0)
    vs = gaussian_v_state(g, amp=0.3, amp_t=-0.2)
    scaled = FieldState(lam * vs.f, lam * vs.f_t, g)
    for a, b in zip(monitor(scaled), monitor(vs)):
        assert a == pytest.approx(lam * b, rel=1e-14)


# ------------------------------------------------------------------ decay

def test_decay_report_zero_field(grid128):
    rep = diag.decay_report(np.zeros(grid128.n_nodes), mesh_cutoffs(grid128))
    assert rep == {"outer": 0.0, "inner": 0.0}


def test_decay_report_critical_profile():
    """(1+r^2)^(-3/4) saturates the r^(-3/2) outer envelope."""
    g = RadialGrid(640, 40.0)
    f = (1.0 + g.r ** 2) ** (-0.75)
    rep = diag.decay_report(f, mesh_cutoffs(g))
    assert 0.999 <= rep["outer"] <= 1.0
    inner = (g.r > 0.0) & (g.r <= 1.0)
    assert rep["inner"] == np.max(f[inner])  # max |v| on 0 < r <= 1
    assert 0.99 <= rep["inner"] <= 1.0


# ------------------------------------------------------------ window norms

def _window_fields(grid, ts, coeff):
    prof_r = np.exp(-grid.r ** 2)
    return [coeff(t) * prof_r for t in ts]


def ys_norm(fields, grid, dt: float, s: int) -> float:
    """Discrete Y_s over a uniformly sampled window of node values on grid:
    sup over interior samples of sum_{j<=s} ||d_t^j w||_{H^(s-j)}, time
    derivatives by centered differences. Needs at least 2s+1 snapshots;
    s <= 2. A window norm built on sobolev_norm, checked against closed
    forms below."""
    if s not in (0, 1, 2):
        raise ValueError("ys_norm supports s in {0, 1, 2}")
    if len(fields) < 2 * s + 1:
        raise ValueError(f"need at least {2 * s + 1} snapshots for s={s}")
    best = 0.0
    for j in range(s, len(fields) - s):
        total = sobolev_norm(fields[j], grid, s)[-1]
        if s >= 1:
            dt1 = (fields[j + 1] - fields[j - 1]) / (2.0 * dt)
            total += sobolev_norm(dt1, grid, s - 1)[-1]
        if s >= 2:
            dt2 = (fields[j - 1] - 2.0 * fields[j] + fields[j + 1]) / dt ** 2
            total += sobolev_norm(dt2, grid, s - 2)[-1]
        best = max(best, total)
    return best


def test_ys_zero_window(grid128):
    fields = [np.zeros(grid128.n_nodes) for _ in range(5)]
    for s in (0, 1, 2):
        assert ys_norm(fields, grid128, 0.01, s) == 0.0


def test_ys_s0_is_max_l2(grid128):
    ts = np.arange(0.0, 0.5, 0.05)
    fields = _window_fields(grid128, ts, lambda t: 1.0 + 0.5 * math.sin(3 * t))
    assert ys_norm(fields, grid128, 0.05, 0) == max(
        sobolev_norm(f, grid128, 0)[0] for f in fields)


def test_ys_closed_form_window():
    g = RadialGrid(512, 8.0)
    dt = 0.01
    ts = np.arange(0.0, 2.5 + dt / 2, dt)
    fields = _window_fields(g, ts, lambda t: 1.0 + 0.5 * math.sin(3 * t))
    n0, n1 = sobolev_norm(np.exp(-g.r ** 2), g, 1)
    tt = np.linspace(dt, 2.5 - dt, 200_001)
    oracle = np.max(np.abs(1.0 + 0.5 * np.sin(3 * tt)) * n1
                    + np.abs(1.5 * np.cos(3 * tt)) * n0)
    y1 = ys_norm(fields, g, dt, 1)
    assert abs(y1 - oracle) <= 1e-3 * oracle  # measured 5.3e-5
    assert ys_norm(fields, g, dt, 2) >= y1 >= ys_norm(fields, g, dt, 0)


def test_ys_validation(grid128):
    fields = [np.zeros(grid128.n_nodes) for _ in range(4)]
    with pytest.raises(ValueError, match="at least 5"):
        ys_norm(fields, grid128, 0.01, 2)
    with pytest.raises(ValueError, match="supports s"):
        ys_norm(fields, grid128, 0.01, 3)


def spacetime_norm(fields, grid, dt, p, q):
    """Discrete L^p-in-time of L^q-in-space over a sampled window of node
    values on grid (trapezoid in time; p may be math.inf): the batch
    reference for SpacetimeTracker."""
    g = np.array([sobolev_norm(f, grid, 0)[0] if q == 2 else
                  integrate_radial(np.abs(f) ** q, grid, 3) ** (1.0 / q)
                  for f in fields])
    if p == math.inf:
        return float(np.max(g))
    gp = g ** p
    return float((dt * (np.sum(gp) - 0.5 * (gp[0] + gp[-1]))) ** (1.0 / p))


def test_spacetime_norm_separable_oracle():
    g = RadialGrid(512, 8.0)
    ts = np.linspace(0.0, math.pi, 401)
    dt = ts[1] - ts[0]
    fields = _window_fields(g, ts, math.sin)
    got = spacetime_norm(fields, g, dt, 2, 8)
    oracle = math.sqrt(math.pi / 2.0) * (1.0 / 128.0) ** 0.125
    assert abs(got - oracle) <= 1e-6 * oracle
    # the (inf, 2) pair degenerates to the running max of the L2 norm
    assert spacetime_norm(fields, g, dt, math.inf, 2) == max(
        sobolev_norm(f, g, 0)[0] for f in fields)
    zeros = [np.zeros_like(f) for f in fields[:3]]
    assert spacetime_norm(zeros, g, dt, 2, 8) == 0.0


def test_spacetime_tracker_matches_batch():
    g = RadialGrid(256, 8.0)
    ts = np.linspace(0.0, math.pi, 101)
    dt = ts[1] - ts[0]
    fields = _window_fields(g, ts, math.sin)
    tracker = diag.SpacetimeTracker()
    for i, f in enumerate(fields):
        tracker.update(f, g, 0.0 if i == 0 else dt)
    vals = tracker.values()
    assert list(vals) == ["Linf_L2", "L2_L8"]  # the diagnostics.csv column order
    assert vals["L2_L8"] == pytest.approx(
        spacetime_norm(fields, g, dt, 2, 8), rel=1e-13)
    assert vals["Linf_L2"] == pytest.approx(
        spacetime_norm(fields, g, dt, math.inf, 2), rel=1e-13)


# -------------------------------------------------------------------- csv

def test_diagnostics_csv_layout(tmp_path):
    """The keys of a record are the header, in their order; each value is
    written exactly."""
    header = ["time", "energy", "energy_drift", "energy_tail", "monitor_v",
              "monitor_vt", "monitor_gradv", "sobolev_s1", "sobolev_s2",
              "decay_inner", "decay_outer", "Linf_L2", "L2_L8"]
    recs = [dict(zip(header, [t, 1.0, 0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 2.0,
                              0.5, 0.25, 0.9, 0.8])) for t in (0.0, 0.5)]
    path = tmp_path / "diag.csv"
    diag.write_diagnostics_csv(recs, path)
    rows = path.read_text().splitlines()
    assert rows[0] == ",".join(header)
    assert [[float(x) for x in row.split(",")] for row in rows[1:]] == [
        list(rec.values()) for rec in recs]


def test_peaks_are_the_column_maxima_by_their_summary_names():
    recs = [{"monitor_v": 0.1, "monitor_vt": 3.0, "monitor_gradv": 0.5,
             "energy_drift": 0.0},
            {"monitor_v": 0.2, "monitor_vt": 2.0, "monitor_gradv": 0.5,
             "energy_drift": 1e-4}]
    assert diag.peaks(recs) == {"max_monitor_v": 0.2, "max_monitor_vt": 3.0,
                                "max_monitor_gradv": 0.5, "max_drift": 1e-4}


def test_diagnostics_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError, match="no diagnostics"):
        diag.write_diagnostics_csv([], tmp_path / "empty.csv")
