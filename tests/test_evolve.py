"""Evolution loop: configs, initial data, stepping, halts, sponge."""

import csv
import hashlib
import io
import math

import numpy as np
import pytest

from faddeevlab import diagnostics as diag
from faddeevlab import kernels
from faddeevlab.evolve import (
    InitialDataSpec,
    RunConfig,
    SpongeSpec,
    _operator,
    _rk4,
    _schedule,
    config_fingerprint,
    config_items,
    detect_blowup,
    evolve_bundles,
    initial_state,
    make_grid,
    run,
    sponge_sigma,
    trajectory,
    write_checkpoint,
)
from faddeevlab.grid import (FLOAT_FMT, FieldState, RadialGrid, _d1_laplacian, d_r,
                             integrate_radial, sobolev_norm, write_csv)
from faddeevlab.kernels import eval_cutoff
from faddeevlab.transform import u_to_v, v_to_u
from faddeevlab.verify import ManufacturedSolution, make_forcing


def zero_state(grid):
    z = np.zeros(grid.n_nodes)
    return FieldState(z.copy(), z.copy(), grid)


def quiet_forcing(config):
    """Forcing that cancels the static source of the cutoff shell exactly,
    so v = 0 is an equilibrium and a small pulse rides a silent background."""
    vac = ManufacturedSolution(a0=0.0, a1=0.0)
    return make_forcing(vac, make_grid(config), config.kernel_params)


def lean(**kw):
    kw.setdefault("sobolev_orders", ())
    kw.setdefault("track_spacetime", False)
    return RunConfig(**kw)


def last_state(config, state):
    """(t, v, vt) at t_end, stepped from state by trajectory."""
    for st in trajectory(config, state=state):
        pass
    return st.time, st.f, st.f_t


UNDAMPED = SpongeSpec(strength=0.0)


# ---------------------------------------------------------------- configs

@pytest.mark.parametrize("kw", [
    dict(cfl=0.6),
    dict(cfl=0.0),
    dict(t_end=0.0),
    dict(t_end=-1.0),
    dict(snapshot_every=-4),
    dict(sponge=SpongeSpec(start=20.0), r_max=16.0),
    dict(sponge=SpongeSpec(strength=-50.0)),
    dict(output_every=0),
    dict(sobolev_orders=(1, 5)),
    dict(n_cells=5),
    dict(r_max=math.inf),
    dict(t_end=math.nan),
    dict(drift_ceiling=math.nan),
    dict(initial=InitialDataSpec(amplitude=math.inf)),
])
def test_config_validation_rejects(kw):
    with pytest.raises(ValueError):
        RunConfig(**kw)


@pytest.mark.parametrize("kw", [
    dict(family="sine"),
    dict(width=0.0),
    dict(width_t=-1.0),
])
def test_initial_spec_rejects(kw):
    with pytest.raises(ValueError):
        InitialDataSpec(**kw)


def test_config_fingerprint_stability():
    a = RunConfig(n_cells=64, r_max=8.0)
    b = RunConfig(n_cells=64, r_max=8.0)
    assert config_fingerprint(a) == config_fingerprint(b)
    assert len(config_fingerprint(a)) == 16
    assert int(config_fingerprint(a), 16) >= 0
    for other in (RunConfig(n_cells=65, r_max=8.0),
                  RunConfig(n_cells=64, r_max=8.0, cfl=0.2),
                  RunConfig(n_cells=64, r_max=8.0,
                            sponge=SpongeSpec(strength=2.0)),
                  RunConfig(n_cells=64, r_max=8.0, sobolev_orders=(1,))):
        assert config_fingerprint(other) != config_fingerprint(a)


def test_a_list_of_sobolev_orders_is_the_tuple_config(tmp_path):
    """Library code may pass a list: the config stores the tuple, so it is
    equal to, fingerprints as and checkpoints as the tuple's config."""
    listed = lean(n_cells=48, r_max=6.0, t_end=0.2, sobolev_orders=[1, 2])
    tupled = lean(n_cells=48, r_max=6.0, t_end=0.2, sobolev_orders=(1, 2))
    assert listed == tupled
    assert config_fingerprint(listed) == config_fingerprint(tupled)
    write_checkpoint(run(listed).state, tmp_path / "final", listed, step_no=5)
    meta = (tmp_path / "final.meta").read_text()
    assert f"config_hash = {config_fingerprint(tupled)}\n" in meta
    assert "diagnostics.sobolev_orders = 1,2\n" in meta


def test_default_fingerprint_is_pinned():
    """The flattened key order and value text feed the fingerprint, so a
    pinned default value guards both."""
    assert config_fingerprint(RunConfig()) == "05168c3e940751a8"


def test_config_items_cover_every_section():
    keys = dict(config_items(RunConfig()))
    for key in ("grid.n_cells", "grid.r_max", "integrator.t_end",
                "integrator.sponge_strength", "initial_data.family",
                "kernels.alpha", "kernels.cutoff_order",
                "diagnostics.output_every", "diagnostics.track_spacetime",
                "output.snapshot_every"):
        assert key in keys


# ----------------------------------------------------------- initial data

def test_gaussian_initial_peak_is_exact():
    cfg = lean(n_cells=64, r_max=8.0,
               initial=InitialDataSpec(amplitude=0.37))
    st = initial_state(cfg)
    assert st.f[0] == 0.37
    assert np.array_equal(st.f_t, np.zeros(65))


def test_profile_table_matches_direct_transform(tmp_path):
    cfg_grid = RadialGrid(64, 4.0)
    u0 = np.pi * np.exp(-cfg_grid.r ** 2)
    u1 = 0.1 * cfg_grid.r ** 2 * np.exp(-cfg_grid.r ** 2)
    path = tmp_path / "profile.csv"
    with open(path, "w") as fh:
        fh.write("r,u,u_t\n")
        for row in zip(cfg_grid.r, u0, u1):
            fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")
    cfg = lean(n_cells=64, r_max=4.0,
               initial=InitialDataSpec(family="profile_u",
                                       profile_path=str(path)))
    st = initial_state(cfg)
    direct = u_to_v(FieldState(u0, u1, cfg_grid))
    assert np.array_equal(st.f, direct.f)
    assert np.array_equal(st.f_t, direct.f_t)


def test_overflowing_gaussian_names_its_setting_and_radius():
    cfg = lean(n_cells=64, r_max=8.0, initial=InitialDataSpec(amplitude=1e308))
    with pytest.raises(ValueError, match=r"^initial_data\.amplitude gives a "
                                         r"non-finite initial state at r=0$"):
        with np.errstate(over="ignore"):
            initial_state(cfg)


def test_profile_table_rejects_mismatch(tmp_path):
    g = RadialGrid(16, 4.0)
    path = tmp_path / "short.csv"
    with open(path, "w") as fh:
        fh.write("r,u,u_t\n")
        for r in g.r[:-1]:
            fh.write(f"{r},{math.pi},0.0\n")
    spec = InitialDataSpec(family="profile_u", profile_path=str(path))
    with pytest.raises(ValueError, match="does not match"):
        initial_state(lean(n_cells=16, r_max=4.0, initial=spec))

    shifted = tmp_path / "shifted.csv"
    with open(shifted, "w") as fh:
        fh.write("r,u,u_t\n")
        for r in g.r:
            fh.write(f"{r + 0.01},{math.pi},0.0\n")
    spec = InitialDataSpec(family="profile_u", profile_path=str(shifted))
    with pytest.raises(ValueError, match="radii"):
        initial_state(lean(n_cells=16, r_max=4.0, initial=spec))

    holed = tmp_path / "holed.csv"
    with open(holed, "w") as fh:
        fh.write("r,u,u_t\n")
        for r in g.r:
            fh.write(f"{r},{math.pi},{'nan' if r == 2.0 else 0.0}\n")
    spec = InitialDataSpec(family="profile_u", profile_path=str(holed))
    with pytest.raises(ValueError, match="non-finite"):
        initial_state(lean(n_cells=16, r_max=4.0, initial=spec))


# ------------------------------------------------------ operator / stepping

def test_zero_state_source_lives_on_the_shell(params):
    g = RadialGrid(256, 8.0)
    z = np.zeros(g.n_nodes)
    dv, dvt = _operator(g, params, None, None)(z, z, 0.0)
    assert np.array_equal(dv, np.zeros(g.n_nodes))
    inner = g.r <= 0.4
    assert np.array_equal(dvt[inner], np.zeros(inner.sum()))
    # between the gt1 turn-on and the shell only sin(pi) roundoff survives
    mid = (g.r > 0.4) & (g.r < 1.0 - 2 * g.dr)
    assert np.max(np.abs(dvt[mid])) <= 1e-14
    outer = g.r > 2.0 + 2 * g.dr
    assert np.max(np.abs(dvt[outer])) <= 1e-14
    shell = (g.r > 1.0) & (g.r < 2.0)
    assert np.max(np.abs(dvt[shell])) > 0.1


def test_one_step_confinement():
    g = RadialGrid(256, 8.0)
    cfg = lean(n_cells=256, r_max=8.0, t_end=0.25 * g.dr, sponge=UNDAMPED)
    t, v, vt = last_state(cfg, zero_state(g))
    # nothing escapes the shell plus a one-node stencil halo; measured
    # nonzeros live on [0.5 - dr, 2 + dr] and only roundoff below r = 1
    far = g.r >= 2.0 + 2 * g.dr
    near = g.r <= 0.4
    assert np.array_equal(v[far], np.zeros(far.sum()))
    assert np.array_equal(vt[far], np.zeros(far.sum()))
    assert np.array_equal(v[near], np.zeros(near.sum()))
    low = g.r <= 1.0 - 2 * g.dr
    assert np.max(np.abs(v[low])) <= 1e-16
    assert np.max(np.abs(v)) > 1e-4
    assert np.max(np.abs(vt)) > 0.05
    assert t == 0.25 * g.dr


def test_schedule_respects_cfl_and_lands_on_t_end():
    cfg = lean(n_cells=64, r_max=8.0, t_end=0.7)  # 5.6 cells of dr = 0.125
    nsteps, dt = _schedule(cfg)
    bound = cfg.cfl * make_grid(cfg).dr
    assert dt <= bound
    assert (nsteps - 1) * bound < cfg.t_end  # no step count below nsteps fits
    assert nsteps * dt == cfg.t_end
    k, t = [(k, st.time) for k, st in enumerate(trajectory(cfg))][-1]
    assert (k, t) == (nsteps, cfg.t_end)


def test_trajectory_yields_fresh_arrays():
    # 39 steps of dt = 0.03125: every yielded state is at t = k dt on the
    # config's mesh, its pair is its own memory and keeps its values while
    # the evolution goes on
    cfg = lean(n_cells=64, r_max=8.0, t_end=39 * 0.03125)
    _, dt = _schedule(cfg)
    kept, copies = [], []
    for k, st in enumerate(trajectory(cfg)):
        assert st.time == k * dt and st.grid == make_grid(cfg)
        kept += [st.f, st.f_t]
        copies += [st.f.copy(), st.f_t.copy()]
    assert len(kept) == 2 * 40
    for i, a in enumerate(kept):
        assert not any(np.shares_memory(a, b) for b in kept[i + 1:])
    assert all(np.array_equal(a, b) for a, b in zip(kept, copies))


@pytest.mark.parametrize("grid", [RadialGrid(32, 4.0), RadialGrid(16, 8.0),
                                  RadialGrid(32, 8.0, kernels.CutoffProfile(9))])
def test_trajectory_refuses_a_state_from_another_grid(grid):
    """Another r_max would run silently on the config's mesh, another node
    count would fail in the stencils, another profile would read the state
    in the wrong chart: each is refused by name first."""
    with pytest.raises(ValueError, match=r"the state lives on RadialGrid\(n_cells=\d+, "
                                         r"r_max=\d\.0, profile=CutoffProfile\(kind=\d\)\), "
                                         r"the config's mesh is RadialGrid\(n_cells=32, "
                                         r"r_max=8\.0, profile=CutoffProfile\(kind=7\)\)"):
        next(trajectory(lean(n_cells=32, r_max=8.0, t_end=0.5), state=zero_state(grid)))


def _locked(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def test_the_right_hand_side_never_writes_its_inputs(params, profile):
    """F, the stencils and the stepping may form their results in place, but
    only in arrays of their own: read-only inputs give the same bytes, and a
    stray write into a state array raises instead of changing the run."""
    rng = np.random.default_rng(4)
    for r in (RadialGrid(128, 4.0).r, rng.uniform(0.0, 3.0, 97)):  # slices, index arrays
        v, vt, vr = (rng.uniform(-1.5, 1.5, r.size) for _ in range(3))
        cut = kernels.cutoff_arrays(r, profile)
        free = kernels.eval_F_given_cutoffs(v, vt, vr, cut, params)
        locked = kernels.eval_F_given_cutoffs(*_locked(v, vt, vr), cut, params)
        assert locked.tobytes() == free.tobytes()
    g = RadialGrid(64, 8.0)
    values = np.exp(-g.r ** 2)
    d1, lap = _d1_laplacian(values, g)
    _locked(values, d1)
    assert [a.tobytes() for a in _d1_laplacian(values, g)] == [d1.tobytes(), lap.tobytes()]
    assert _d1_laplacian(values, g, d1)[1].tobytes() == lap.tobytes()
    # every yielded array locked as it comes; the final pair's sha256 is the
    # parent commit's, frozen before the stencils and F worked in place
    for k, st in enumerate(trajectory(RunConfig(n_cells=128, r_max=8.0, t_end=0.5))):
        v, vt = _locked(st.f, st.f_t)
    digest = hashlib.sha256(v.tobytes() + vt.tobytes()).hexdigest()
    assert (k, digest) == (32, "c7119104640e0d7151c90ed366b0acee612043d2a68e7ce0c8e41326ac978959")


def test_time_reversal_recovers_initial_data():
    errs = {}
    for n in (128, 256):
        cfg = lean(n_cells=n, r_max=8.0, t_end=0.5, sponge=UNDAMPED)
        g = make_grid(cfg)
        v0 = 0.2 * np.exp(-g.r ** 2)
        zero = np.zeros(g.n_nodes)
        _, v, vt = last_state(cfg, FieldState(v0, zero, g))
        _, v, _ = last_state(cfg, FieldState(v, -vt, g))
        errs[n] = np.max(np.abs(v - v0))
    # measured 2.95e-6 and 3.66e-7, ratio 8.05
    assert errs[128] <= 2e-5
    assert errs[256] <= 2e-6
    assert errs[128] / errs[256] >= 5.0


# ---------------------------------------------------------------- bundles

def test_evolve_bundles_cadence_and_reconstruction(params):
    cfg = lean(n_cells=96, r_max=8.0, t_end=0.5,
               initial=InitialDataSpec(amplitude=0.2))
    bundles = evolve_bundles(cfg, t_center=0.25, n_levels=5)
    assert len(bundles) == 5
    times = np.array([b.time for b in bundles])
    dts = np.diff(times)
    assert np.allclose(dts, dts[0], rtol=0.0, atol=1e-12)
    assert abs(times[2] - 0.25) <= dts[0] / 2 + 1e-12
    g = make_grid(cfg)
    phi = eval_cutoff("phi", g.r, 0, cfg.profile)
    u = v_to_u(bundles[2]).f
    assert u[0] == np.pi
    assert np.array_equal(u[1:], g.r[1:] * bundles[2].f[1:] + phi[1:])


def test_evolve_bundles_returns_the_trajectory_states_bit_for_bit():
    cfg = lean(n_cells=96, r_max=8.0, t_end=0.5,
               initial=InitialDataSpec(amplitude=0.2, amplitude_t=0.1))
    states = evolve_bundles(cfg, t_center=0.25, n_levels=5)
    first = round(states[0].time / _schedule(cfg)[1])
    steps = [(st.time, st.f, st.f_t) for k, st in enumerate(trajectory(cfg))
             if first <= k < first + 5]
    assert len(states) == len(steps) == 5
    for st, (t, v, vt) in zip(states, steps):
        assert st.grid == make_grid(cfg) and st.time == t
        assert st.f.tobytes() == v.tobytes() and st.f_t.tobytes() == vt.tobytes()


@pytest.mark.parametrize("t_end,t_center,n_levels", [
    (1.0, 2.0, 3),     # the window lies past t_end
    (0.5, 0.0, 7),     # it would start three steps before t = 0
    (0.5, 0.47, 5),    # its last level is one step past t_end (24 steps)
])
def test_evolve_bundles_rejects_a_window_outside_the_run(monkeypatch, t_end, t_center,
                                                         n_levels):
    """The window is checked before any step: trajectory is never entered,
    and the error names every quantity that places the window."""
    cfg = lean(n_cells=96, r_max=8.0, t_end=t_end)
    monkeypatch.setattr("faddeevlab.evolve.trajectory",
                        lambda *a, **k: pytest.fail("the evolution started"))
    _, dt = _schedule(cfg)
    with pytest.raises(ValueError) as err:
        evolve_bundles(cfg, t_center=t_center, n_levels=n_levels)
    for part in (f"t_center={t_center:g}", f"n_levels={n_levels}", f"dt={dt:.6g}",
                 f"t_end={t_end:g}"):
        assert part in str(err.value)


def test_evolve_bundles_window_may_end_at_t_end():
    cfg = lean(n_cells=96, r_max=8.0, t_end=0.5)
    bundles = evolve_bundles(cfg, t_center=0.46, n_levels=5)  # steps 20..24 of 24
    assert [round(b.time / _schedule(cfg)[1]) for b in bundles] == [20, 21, 22, 23, 24]


# ------------------------------------------------------------------ halts

def _record(**kw):
    base = dict(time=1.0, energy=1.0, energy_drift=0.0, energy_tail=0.0,
                monitor_v=0.0, monitor_vt=0.0, monitor_gradv=0.0)
    base.update(kw)
    return base


def test_detect_blowup_cases():
    assert detect_blowup(_record(), 1e6, 1e-2, 64, 64) is None

    record = _record(monitor_v=1.0, monitor_vt=2.0, monitor_gradv=1.9)
    assert detect_blowup(record, 1.5, 1e-2, 128, 64) == (
        "blowup_monitor", "continuation monitor monitor_vt = 2 at ceiling 1.5 "
                          "at step 128, t=1 (judged every 64 steps)")

    assert detect_blowup(_record(energy_drift=0.02), 1e6, 0.01, 7, 4) == (
        "scheme_breakdown", "energy drift 0.02 exceeds 0.01 at step 7, t=1 "
                            "(judged every 4 steps)")


def test_halt_reasons_name_the_monitor_the_step_and_the_cadence():
    cfg = lean(n_cells=32, r_max=8.0, t_end=1.0, output_every=4, monitor_ceiling=0.0)
    res = run(cfg)
    name = max(("monitor_v", "monitor_vt", "monitor_gradv"), key=res.records[0].get)
    assert res.reason.startswith(f"continuation monitor {name} = ")
    assert res.reason.endswith("at step 0, t=0 (judged every 4 steps)")

    cfg = lean(n_cells=32, r_max=8.0, t_end=1.0, output_every=4, drift_ceiling=1e-300)
    res = run(cfg)
    _, dt = _schedule(cfg)
    assert (res.status, res.step, len(res.records)) == ("scheme_breakdown", 4, 2)
    assert res.reason.endswith(f"at step 4, t={4 * dt:.6g} (judged every 4 steps)")


def test_run_halts_immediately_at_zero_ceiling():
    cfg = lean(n_cells=32, r_max=8.0, t_end=1.0, monitor_ceiling=0.0)
    res = run(cfg)
    assert res.status == "blowup_monitor"
    assert res.state.time == 0.0
    assert len(res.records) == 1


def test_run_reports_nan_from_forcing():
    cfg = lean(n_cells=32, r_max=4.0, t_end=1.0, output_every=4,
               initial=InitialDataSpec(amplitude=0.1))
    n = make_grid(cfg).n_nodes

    def forcing(t):
        return np.full(n, np.nan) if t > 0.1 else np.zeros(n)

    res = run(cfg, forcing)
    assert res.status == "blowup_nan"
    assert "non-finite" in res.reason
    assert 0.0 < res.state.time <= 0.2
    assert len(res.records) == 1  # sampling short-circuits on bad values


@pytest.mark.parametrize("bad_step", [6, 8])
def test_run_halts_on_the_first_non_finite_step(bad_step):
    """Non-finite values halt the run on the step that makes them, between
    samples (step 6) as well as on a sample step (step 8), where they win
    over the sample's threshold checks: no record is taken of them."""
    cfg = lean(n_cells=32, r_max=4.0, t_end=1.0, output_every=4, drift_ceiling=1.0,
               initial=InitialDataSpec(amplitude=0.1))
    g = make_grid(cfg)
    _, dt = _schedule(cfg)

    def forcing(t):
        # NaN at r = 5 dr, only in the last RK4 stage of bad_step
        out = np.zeros(g.n_nodes)
        if bad_step - 0.25 < t / dt < bad_step + 0.25:
            out[5] = np.nan
        return out

    res = run(cfg, forcing)
    assert res.status == "blowup_nan"
    assert res.step == bad_step
    assert res.state.time == bad_step * dt
    assert (f"non-finite field values at step {bad_step}, "
            f"t={bad_step * dt:.6g}, r=0.625") == res.reason
    assert [rec["time"] for rec in res.records] == [0.0, 4 * dt]


def _old_rk4(f, v, vt, t, dt):
    """_rk4 as it stood before the in-place stages and combine, kept as an
    oracle: _rk4 must match it byte for byte."""
    k1v, k1a = f(v, vt, t)
    k2v, k2a = f(v + 0.5 * dt * k1v, vt + 0.5 * dt * k1a, t + 0.5 * dt)
    k3v, k3a = f(v + 0.5 * dt * k2v, vt + 0.5 * dt * k2a, t + 0.5 * dt)
    k4v, k4a = f(v + dt * k3v, vt + dt * k3a, t + dt)
    return (v + dt / 6.0 * (k1v + 2.0 * (k2v + k3v) + k4v),
            vt + dt / 6.0 * (k1a + 2.0 * (k2a + k3a) + k4a))


@pytest.mark.parametrize("forced", [False, True])
def test_rk4_matches_its_old_expression_bitwise(forced):
    """Ten steps of a damped large-data run, unforced and under a
    time-dependent manufactured forcing, at alpha != 1."""
    cfg = lean(n_cells=64, r_max=8.0, t_end=1.0, sponge=SpongeSpec(start=5.0),
               kernel_params=kernels.KernelParams(alpha=0.7),
               initial=InitialDataSpec(amplitude=1.3, amplitude_t=-0.8, center_t=0.5))
    g = make_grid(cfg)
    forcing = (make_forcing(ManufacturedSolution(), g, cfg.kernel_params)
               if forced else None)
    f = _operator(g, cfg.kernel_params, sponge_sigma(g, cfg.sponge), forcing)
    _, dt = _schedule(cfg)
    st = initial_state(cfg)
    v, vt = st.f, st.f_t
    for k in range(10):
        kept = v.tobytes(), vt.tobytes()
        new, old = _rk4(f, v, vt, k * dt, dt), _old_rk4(f, v, vt, k * dt, dt)
        assert [a.tobytes() for a in new] == [a.tobytes() for a in old]
        assert (v.tobytes(), vt.tobytes()) == kept  # the inputs are left alone
        v, vt = new


# ------------------------------------------------------------ run quality

def test_zero_amplitude_initial_record(params):
    cfg = lean(n_cells=128, r_max=8.0, t_end=0.1,
               initial=InitialDataSpec(amplitude=0.0))
    res = run(cfg)
    rec0 = res.records[0]
    assert (rec0["monitor_v"], rec0["monitor_vt"], rec0["monitor_gradv"]) == (0.0, 0.0, 0.0)
    assert rec0["energy_drift"] == 0.0
    st = initial_state(cfg)
    direct = diag.energy(v_to_u(st), params, st)
    assert rec0["energy"] == direct
    assert direct > 0.0  # the shell contributes even with silent data


def test_small_amplitude_drift_sits_on_the_resolution_floor():
    """The cutoff shell radiates at O(1) regardless of data amplitude, so
    the drift of a tiny pulse is indistinguishable from the a = 0 floor."""
    floors = {}
    for a in (0.0, 1e-3):
        cfg = lean(n_cells=256, r_max=8.0, t_end=2.0, output_every=128,
                   initial=InitialDataSpec(amplitude=a))
        res = run(cfg)
        assert res.status == "completed"
        floors[a] = diag.peaks(res.records)["max_drift"]
    # measured 1.5328e-4 at this resolution, amplitude-independent to 1e-4
    assert floors[0.0] <= 1.5e-3
    assert abs(floors[1e-3] - floors[0.0]) <= 0.05 * floors[0.0]


def test_unforced_run_self_converges_at_fourth_order():
    """Without an exact solution: the final v of the default data at
    n = 128, 256, 512 (r_max 8, t_end 1), differenced level to level on the
    coarse nodes in the r^3-weighted L2 norm; measured order 3.78."""
    coarse = RadialGrid(128, 8.0)
    finals = []
    for n in (128, 256, 512):
        *_, last = trajectory(RunConfig(n_cells=n, r_max=8.0, t_end=1.0))
        finals.append(last.f[::n // 128])
    e = [sobolev_norm(a - b, coarse, 0)[0] for a, b in zip(finals, finals[1:])]
    assert math.log2(e[0] / e[1]) >= 3.5


def test_runs_are_deterministic(tmp_path):
    paths = []
    for tag in ("a", "b"):
        cfg = RunConfig(n_cells=96, r_max=8.0, t_end=0.5, output_every=16,
                        sobolev_orders=(1, 2), track_spacetime=True,
                        initial=InitialDataSpec(amplitude=0.3))
        res = run(cfg)
        assert res.status == "completed"
        path = tmp_path / f"diag_{tag}.csv"
        diag.write_diagnostics_csv(res.records, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_checkpoint_roundtrip(tmp_path):
    cfg = lean(n_cells=48, r_max=6.0, t_end=0.2,
               initial=InitialDataSpec(amplitude=0.2))
    res = run(cfg)
    base = tmp_path / "final"
    write_checkpoint(res.state, base, cfg, step_no=17)
    rows = (tmp_path / "final.csv").read_text().splitlines()
    assert rows[0] == "r,v,v_t"
    assert len(rows) == 1 + 49
    table = np.loadtxt(tmp_path / "final.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 1], res.state.f)
    assert np.array_equal(table[:, 2], res.state.f_t)
    meta = (tmp_path / "final.meta").read_text()
    assert "step = 17\n" in meta
    assert f"config_hash = {config_fingerprint(cfg)}\n" in meta
    assert "grid.n_cells = 48\n" in meta


def test_checkpoint_csv_matches_a_row_by_row_csv_writer(tmp_path):
    """The one-format table writer gives the bytes csv.writer gives for the
    same rows at FLOAT_FMT, on awkward doubles included."""
    cfg = lean(n_cells=48, r_max=6.0, t_end=0.2)
    g = make_grid(cfg)
    awkward = np.array([-0.0, 1e-300, 5e-324, -5e-324, 1e308, -1e308, 0.0,
                        3.0, -7.0, 2.0 ** 53, 1e22, 0.1, 1.0 / 3.0,
                        math.inf, -math.inf, math.nan])
    v = np.resize(awkward, g.n_nodes)
    vt = np.resize(-awkward[::-1], g.n_nodes)
    state = FieldState(v, vt, g, 0.125)
    write_checkpoint(state, tmp_path / "ck", cfg, step_no=3)
    want = io.StringIO(newline="")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["r", "v", "v_t"])
    writer.writerows([FLOAT_FMT % x for x in row] for row in zip(g.r, v, vt))
    got = (tmp_path / "ck.csv").read_bytes()
    assert got.splitlines(keepends=True) == want.getvalue().encode().splitlines(keepends=True)
    assert got == want.getvalue().encode()
    meta = (tmp_path / "ck.meta").read_text()
    assert meta.startswith("time = 0.125\nstep = 3\n"
                           f"config_hash = {config_fingerprint(cfg)}\n")
    assert meta.endswith("".join(f"{k} = {val}\n" for k, val in config_items(cfg)))


def test_checkpoints_across_grids_keep_the_csv_writer_bytes(tmp_path):
    """The per-grid radius column is rebuilt when the grid changes: grids A,
    B, A, each in two charts, give the bytes write_csv gives the stacked
    (r, v, v_t) table every time."""
    for k, (n, kind) in enumerate([(48, 7), (40, 7), (48, 7), (48, 9), (40, 9), (48, 9)]):
        cfg = lean(n_cells=n, r_max=6.0, t_end=0.2, profile=kernels.CutoffProfile(kind))
        g = make_grid(cfg)
        state = FieldState(np.sin(g.r + k), np.cos(3.0 * g.r - k) / 7.0, g, 0.5)
        write_checkpoint(state, tmp_path / "ck", cfg, step_no=k)
        write_csv(tmp_path / "ref.csv", ["r", "v", "v_t"],
                  np.column_stack((g.r, state.f, state.f_t)))
        assert (tmp_path / "ck.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# -------------------------------------------------- wave-physics checks

def test_pulse_travels_at_unit_speed():
    """A weak pulse on the quiet background moves at the light speed of
    the lifted wave operator (front position fit, 2% band)."""
    cfg = lean(n_cells=384, r_max=12.0, t_end=2.5, output_every=512,
               snapshot_every=64, drift_ceiling=1.0,
               initial=InitialDataSpec(amplitude=1e-3, center=4.0, width=0.5))
    res = run(cfg, quiet_forcing(cfg))
    assert res.status == "completed"
    g = make_grid(cfg)
    snaps = {round(s.time, 6): s for _, s in res.snapshots}

    def outgoing_peak(state, r_min):
        a = np.abs(state.f)
        i = int(np.argmax(np.where(g.r > r_min, a, 0.0)))
        y0, y1, y2 = a[i - 1], a[i], a[i + 1]
        return g.r[i] + 0.5 * g.dr * (y0 - y2) / (y0 - 2 * y1 + y2)

    p1 = outgoing_peak(snaps[1.0], 4.4)
    p2 = outgoing_peak(snaps[2.5], 5.5)
    speed = (p2 - p1) / 1.5
    assert abs(speed - 1.0) <= 0.02  # measured 1.0073


def _pulse_energy(state):
    return integrate_radial(state.f_t ** 2 + d_r(state.f, state.grid) ** 2, state.grid)


def test_sponge_absorbs_the_outgoing_pulse():
    """Quantitative sponge check on a quiet background.

    A perfect absorbing layer does not exist for this system (even spatial
    dimension leaves a wake, and the long-range inverse-square potential
    backscatters), so the comparison against a wide reference domain uses
    measured bands: transparency before the reflection returns, a bounded
    reflection band afterwards, and near-total energy absorption where the
    bare outflow boundary instead amplifies.
    """
    base = dict(t_end=12.0, output_every=4096, drift_ceiling=10.0,
                snapshot_every=128,
                initial=InitialDataSpec(amplitude=1e-3, center=3.0, width=0.5))
    big = lean(n_cells=768, r_max=24.0, sponge=SpongeSpec(strength=8.0), **base)
    res_big = run(big, quiet_forcing(big))
    g_big = make_grid(big)
    inner = g_big.r < 4.0
    big_snap = {round(s.time, 4): s.f for _, s in res_big.snapshots}
    i4 = int(round(4.0 / g_big.dr))
    outgoing = max(abs(v[i4]) for v in big_snap.values())
    assert 2e-4 <= outgoing <= 5e-4  # the pulse does reach r = 4

    results = {}
    for label, sponge in (("off", SpongeSpec(strength=0.0)),
                          ("on", SpongeSpec(start=5.6, strength=8.0))):
        cfg = lean(n_cells=256, r_max=8.0, sponge=sponge, **base)
        res = run(cfg, quiet_forcing(cfg))
        snap = {round(s.time, 4): s for _, s in res.snapshots}
        results[label] = snap

    on = results["on"]
    # transparent until the layer reflection can return (measured 2.1e-3)
    early = np.max(np.abs(on[4.0].f[: inner.sum()] - big_snap[4.0][inner]))
    assert early <= 1e-2 * outgoing
    # the quadratic ramp reflects low-frequency content of a bump; the
    # measured band is 0.25 of the outgoing amplitude at strength 8
    refl = max(np.max(np.abs(on[t].f[: inner.sum()] - big_snap[t][inner]))
               for t in (5.0, 6.0, 7.0))
    assert refl <= 0.35 * outgoing

    e0 = _pulse_energy(on[0.0])
    e_on = _pulse_energy(on[12.0])
    e_off = _pulse_energy(results["off"][12.0])
    assert e_on <= 0.15 * e0          # measured 6.5% remaining
    assert e_on <= 1e-2 * e_off       # bare boundary re-injects energy
