"""Manufactured solutions, forcing, and convergence-order measurement."""

import math

import numpy as np
import pytest

from faddeevlab.evolve import (RunConfig, SpongeSpec, initial_state, make_grid, run,
                               trajectory)
from faddeevlab import grid, kernels, transform
from faddeevlab.grid import RadialGrid
from faddeevlab.kernels import eval_F_rhs
from faddeevlab.verify import (
    _RESIDUAL_EVALUATORS,
    ManufacturedSolution,
    convergence_study,
    fit_order,
    kernel_limit,
    kernel_series_oracle,
    make_forcing,
    manufactured_config,
    manufactured_initial_state,
    pairwise_orders,
    solution_error,
    study_to_csv,
)

MS = ManufacturedSolution()


def lean_base(**kw):
    base = dict(n_cells=64, r_max=8.0, t_end=0.5, output_every=32,
                sobolev_orders=(), track_spacetime=False, drift_ceiling=1.0)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------- forcing

def test_forcing_matches_finite_difference_assembly(params, profile):
    """g = v_tt - lap4 v - F(v) rebuilt from 5-point stencils on the
    closed-form solution samples; measured gap 5.2e-12."""
    g = RadialGrid(128, 8.0)
    force = make_forcing(MS, g, params, profile)
    i = int(round(1.0 / g.dr))
    r0 = g.r[i]
    h = 1e-3
    c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    c1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    v_tt = np.dot(c2, [MS.v(k * h, r0) for k in range(-2, 3)]) / h ** 2
    ring = [MS.v(0.0, r0 + k * h) for k in range(-2, 3)]
    lap4 = np.dot(c2, ring) / h ** 2 + 3.0 / r0 * np.dot(c1, ring) / h
    f_val = eval_F_rhs(np.array([MS.v(0.0, r0)]), np.array([MS.v_t(0.0, r0)]),
                       np.array([MS.v_r(0.0, r0)]), np.array([r0]),
                       params, profile)[0]
    assert abs(force(0.0)[i] - (v_tt - lap4 - f_val)) <= 1e-8


def test_forcing_at_a_repeated_time_returns_its_read_only_array(params, profile):
    """RK4's two midpoint stages share t: the second gets the first's array
    back, bytes unchanged, and no caller can write to it."""
    g = RadialGrid(64, 4.0)
    force, fresh = (make_forcing(MS, g, params, profile) for _ in range(2))
    first = force(0.3)
    assert force(0.3) is first and not first.flags.writeable
    assert force(0.45).tobytes() == fresh(0.45).tobytes()
    again = force(0.3)
    assert again is not first and again.tobytes() == first.tobytes()


def test_vacuum_forcing_supported_on_the_shell(params, profile):
    """a0 = a1 = 0 collapses the forcing to minus the static shell source."""
    g = RadialGrid(256, 8.0)
    vac = ManufacturedSolution(a0=0.0, a1=0.0)
    gvals = make_forcing(vac, g, params, profile)(0.7)
    inner = g.r <= 0.4
    assert np.array_equal(gvals[inner], np.zeros(inner.sum()))
    mid = (g.r > 0.4) & (g.r < 1.0 - 2 * g.dr)
    assert np.max(np.abs(gvals[mid])) <= 1e-14
    outer = g.r > 2.0 + 2 * g.dr
    assert np.max(np.abs(gvals[outer])) <= 1e-14
    shell = (g.r > 1.0) & (g.r < 2.0)
    assert np.max(np.abs(gvals[shell])) > 0.1


def test_manufactured_config_reproduces_initial_state():
    cfg = manufactured_config(MS, lean_base())
    st = initial_state(cfg)
    direct = manufactured_initial_state(MS, make_grid(cfg))
    assert np.array_equal(st.f, direct.f)
    assert np.array_equal(st.f_t, direct.f_t)
    assert cfg.sponge.strength == 0.0
    assert solution_error(direct, MS) == 0.0


# ----------------------------------------------------------- order fitting

def test_pairwise_orders_exact_power_law():
    drs = [0.1, 0.05, 0.025]
    errs = [3.0 * d ** 4 for d in drs]
    got = pairwise_orders(drs, errs)
    assert math.isnan(got[0])
    assert got[1] == pytest.approx(4.0, abs=1e-12)
    assert got[2] == pytest.approx(4.0, abs=1e-12)
    assert fit_order(drs, errs) == pytest.approx(4.0, abs=1e-12)


def test_order_fitting_handles_degenerate_input():
    assert all(math.isnan(o) for o in pairwise_orders([0.1, 0.05, 0.025],
                                                      [1e-3, 0.0, 1e-5]))
    assert math.isnan(fit_order([0.1], [1e-3]))


# ---------------------------------------------------------------- studies

def test_manufactured_solution_study_is_fourth_order():
    res = convergence_study(manufactured_config(MS, lean_base()), levels=3,
                            observables=("solution",), ms=MS)
    sol = res["solution"]
    assert sol.monotone
    assert sol.ls_order >= 3.5  # measured 3.988
    assert all(r.order >= 3.5 for r in sol.rows[1:])


def test_linear_solution_is_fourth_order():
    lin = convergence_study(lean_base(), levels=3, observables=("linear_solution",),
                            ms=MS)["linear_solution"]
    assert abs(lin.ls_order - 4.0) <= 0.3  # measured 3.988
    assert lin.rows[0].error < 1e-4


def test_broken_ghost_fill_is_detectable(monkeypatch):
    """A ghost fill perturbed by (k*dr)^3 at the k-th ghost is only
    first-order consistent. It leaves the r^3-weighted L2 error almost alone
    (zero weight at the origin) but shows up as an O(dr) sup-norm error
    at r = 0; measured inflation 137x at n = 256."""
    even_fill = grid.fill_ghosts

    def first_order_fill(dr):
        def fill(values):
            ext = even_fill(values)
            k = np.arange(grid.GHOST, 0, -1)
            ext[:grid.GHOST] = ext[:grid.GHOST] + (k * dr) ** 3
            return ext
        return fill

    def sup_origin_error(n):
        cfg = RunConfig(n_cells=n, r_max=8.0, t_end=0.5,
                        sponge=SpongeSpec(strength=0.0))
        g = make_grid(cfg)
        force = make_forcing(MS, g, include_nonlinearity=False)
        for st in trajectory(cfg, force, manufactured_initial_state(MS, g),
                             nonlinear=False):
            pass
        return float(np.max(np.abs(st.f - MS.v(0.5, g.r))))

    healthy = {n: sup_origin_error(n) for n in (128, 256)}
    broken = {}
    for n in (128, 256):
        monkeypatch.setattr(grid, "fill_ghosts", first_order_fill(8.0 / n))
        broken[n] = sup_origin_error(n)
    assert broken[256] / healthy[256] >= 50.0
    order_healthy = math.log2(healthy[128] / healthy[256])
    order_broken = math.log2(broken[128] / broken[256])
    assert order_healthy >= 3.8  # measured 3.99
    assert order_broken <= 2.0   # measured 1.69


def test_study_validation():
    base = manufactured_config(MS, lean_base())
    with pytest.raises(ValueError, match="at least 3"):
        convergence_study(base, levels=2, observables=("solution",), ms=MS)
    with pytest.raises(ValueError, match="unknown observables"):
        convergence_study(base, observables=("wobble",), ms=MS)
    with pytest.raises(ValueError, match="manufactured reference"):
        convergence_study(base, observables=("solution",))
    with pytest.raises(ValueError, match="manufactured reference"):
        convergence_study(base, observables=("linear_solution",))
    with pytest.raises(ValueError, match="observable 'residual_Phi' is given twice"):
        convergence_study(base, observables=("residual_Phi", "solution", "residual_Phi"),
                          ms=MS, t_center=0.3)
    with pytest.raises(ValueError, match="observable 'drift' is given twice"):
        convergence_study(base, observables=("drift", "drift"))


def test_study_checks_every_residual_window_before_its_first_run(monkeypatch):
    """t_center = 2 lies past t_end = 0.5 at every level: the study stops
    on the window before level 0's forced run starts."""
    monkeypatch.setattr("faddeevlab.verify.run",
                        lambda *a, **k: pytest.fail("a study run started"))
    base = manufactured_config(MS, lean_base())
    with pytest.raises(ValueError, match=r"^a window of n_levels=3 steps .* centred "
                                         r"at t_center=2 does not lie inside"):
        convergence_study(base, observables=("solution", "residual_Phi_t"), ms=MS,
                          t_center=2.0)


def test_solution_study_refuses_a_base_not_started_from_ms(monkeypatch):
    """The solution error compares against ms, so the forced runs must start
    from ms; the base is checked before any run."""
    monkeypatch.setattr("faddeevlab.verify.run",
                        lambda *a, **k: pytest.fail("a study run started"))
    with pytest.raises(ValueError, match=r"manufactured_config\(ms, base\)"):
        convergence_study(lean_base(), observables=("solution", "drift"), ms=MS)


def test_drift_runs_unforced_beside_a_forced_solution(monkeypatch):
    """solution and drift together run each level twice: forced by ms for
    the solution, unforced for the drift, whose errors are those of a
    drift-only study of the same base."""
    calls = []

    def recording(cfg, forcing=None):
        calls.append((cfg.n_cells, forcing is not None))
        return run(cfg, forcing)

    base = manufactured_config(MS, lean_base())
    monkeypatch.setattr("faddeevlab.verify.run", recording)
    both = convergence_study(base, levels=3, observables=("solution", "drift"), ms=MS)
    assert calls == [(n, forced) for n in (64, 128, 256) for forced in (True, False)]
    monkeypatch.undo()
    alone = convergence_study(base, levels=3, observables=("drift",))
    assert [r.error for r in both["drift"].rows] == [r.error for r in alone["drift"].rows]
    assert both["solution"].ls_order >= 3.5


def test_a_mixed_study_matches_its_one_observable_studies():
    """solution and residual_v share one manufactured forcing per level and
    linear_solution builds its own free one; mixed in one study, each gives
    the rows, bit for bit (repr round-trips every float), of a study of
    that observable alone."""
    base, obs = manufactured_config(MS, lean_base()), ("solution", "residual_v",
                                                      "linear_solution")
    mixed = convergence_study(base, levels=3, observables=obs, ms=MS)
    for o in obs:
        alone = convergence_study(base, levels=3, observables=(o,), ms=MS)[o]
        assert repr(mixed[o]) == repr(alone)


def test_residual_study_computes_each_transform_on_the_levels_read(monkeypatch):
    """Per level, residual_Phi reads Phi on 3 levels and the Phi_t family
    reads Phi_t on 3 + 5 + 7, with A_5 once on each of those 15: a window's
    middle Phi_t is taken from the A_5 (= A_1) the window returns, so
    compute_Phi_t runs on the other 2 + 4 + 6."""
    counts = {"compute_Phi": [], "compute_Phi_t": [], "_a5": []}
    for name, calls in counts.items():
        owner = kernels if name == "_a5" else transform
        def counted(st, *args, real=getattr(owner, name), calls=calls,
                    on_values=owner is kernels):
            calls.append(st.size - 1 if on_values else st.grid.n_cells)
            return real(st, *args)
        monkeypatch.setattr(owner, name, counted)
    convergence_study(lean_base(), levels=3, observables=tuple(_RESIDUAL_EVALUATORS),
                      t_center=0.25)
    assert counts["compute_Phi"] == [n for n in (64, 128, 256) for _ in range(3)]
    assert counts["compute_Phi_t"] == [n for n in (64, 128, 256) for _ in range(12)]
    assert sorted(counts["_a5"]) == [n for n in (64, 128, 256) for _ in range(15)]


def test_study_csv_layout(tmp_path):
    res = convergence_study(manufactured_config(MS, lean_base()), levels=3,
                            observables=("residual_v",), ms=MS)
    path = tmp_path / "study.csv"
    study_to_csv(res, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "observable,level,n_cells,dr,error,order,ls_order"
    assert len(rows) == 4
    first = rows[1].split(",")
    assert first[0] == "residual_v" and first[2] == "64"
    assert first[5] == ""  # no pairwise order on the coarsest level


# ----------------------------------------------------------- kernel oracle

def test_kernel_limits_table(params):
    a2 = params.alpha ** 2
    expected = {0: a2, 1: 2.0 / 3.0, 2: -a2 / 3.0, 3: -a2, 4: -2.0 * a2 / 3.0}
    for j, val in expected.items():
        assert kernel_limit(j, params) == val
        assert kernel_series_oracle(j, [0.0], params)[0] == val
    with pytest.raises(ValueError):
        kernel_series_oracle(5, [0.5], params)
