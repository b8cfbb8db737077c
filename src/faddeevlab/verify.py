"""Verification harnesses: manufactured solutions, induced forcing,
convergence-order measurement, and independent kernel reference values.

The manufactured family is an oscillating Gaussian in the lifted chart,
v(t,r) = (a0 + a1 sin wt) e^{-(r/sigma)^2}, chosen because it is exactly
even in r, u = phi + r v meets the center boundary value exactly, and
every derivative the residual operators need has a short closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import kernels
from .diagnostics import peaks
from .evolve import (RunConfig, InitialDataSpec, SpongeSpec, _schedule, _window_start,
                     evolve_bundles, make_grid, run, trajectory)
from .grid import FieldState, RadialGrid, sobolev_norm, write_csv
from .kernels import DEFAULT_PARAMS
from .transform import (residual_Phi_t_wave, residual_Phi_tt_wave,
                        residual_Phi_ttt_wave, residual_Phi_wave,
                        residual_v_equation)

__all__ = [
    "ManufacturedSolution",
    "manufactured_initial_state",
    "manufactured_config",
    "make_forcing",
    "solution_error",
    "StudyRow",
    "StudyResult",
    "pairwise_orders",
    "fit_order",
    "BASE_DATA_OBSERVABLES",
    "convergence_study",
    "kernel_series_oracle",
    "kernel_limit",
    "study_to_csv",
]


@dataclass(frozen=True)
class ManufacturedSolution:
    a0: float = 0.1
    a1: float = 0.05
    omega: float = 3.0
    sigma: float = 1.0

    def _amp(self, t):
        return self.a0 + self.a1 * math.sin(self.omega * t)

    def _amp_t(self, t):
        return self.a1 * self.omega * math.cos(self.omega * t)

    def _amp_tt(self, t):
        return -self.a1 * self.omega ** 2 * math.sin(self.omega * t)

    def envelope(self, r):
        return np.exp(-((np.asarray(r, dtype=float) / self.sigma) ** 2))

    def v(self, t, r):
        return self._amp(t) * self.envelope(r)

    def v_t(self, t, r):
        return self._amp_t(t) * self.envelope(r)

    def v_tt(self, t, r):
        return self._amp_tt(t) * self.envelope(r)

    def v_r(self, t, r):
        r = np.asarray(r, dtype=float)
        return -2.0 * r / self.sigma ** 2 * self.v(t, r)


def manufactured_initial_state(ms: ManufacturedSolution, grid: RadialGrid,
                               t: float = 0.0) -> FieldState:
    return FieldState(ms.v(t, grid.r), ms.v_t(t, grid.r), grid, t)


def manufactured_config(ms: ManufacturedSolution, base: RunConfig) -> RunConfig:
    """Initial data matching ms at t=0 exactly; sponge off (the damping term
    is not part of the manufactured equation)."""
    init = InitialDataSpec(family="gaussian_v", amplitude=ms.a0, center=0.0,
                           width=ms.sigma, amplitude_t=ms.a1 * ms.omega,
                           center_t=0.0, width_t=ms.sigma)
    return replace(base, initial=init, sponge=SpongeSpec(start=-1.0, strength=0.0))


def make_forcing(ms: ManufacturedSolution, grid: RadialGrid, *, include_nonlinearity=True):
    """g(t) -> nodewise array such that ms.v solves v_tt = lap4 v + F(v) + g
    at the grid's alpha exactly (F is pointwise in (v, v_t, v_r), so sampling
    closed-form derivatives gives the exact nodal forcing up to roundoff). A
    repeated t, as at RK4's two midpoint stages, gets the same read-only array back."""
    r, p, cut = grid.r, grid.kernel_params, kernels.mesh_cutoffs(grid)
    env = ms.envelope(r)
    dlog = -2.0 * r / ms.sigma ** 2
    lap_factor = 4.0 * r ** 2 / ms.sigma ** 4 - 8.0 / ms.sigma ** 2

    @lru_cache(maxsize=1)
    def g(t):
        amp = ms._amp(t)
        v = amp * env
        out = ms._amp_tt(t) * env - lap_factor * v
        if include_nonlinearity:
            vt = ms._amp_t(t) * env
            out = out - kernels.eval_F_given_cutoffs(v, vt, dlog * v, cut, p)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite manufactured forcing")
        out.flags.writeable = False
        return out

    return g


def solution_error(state: FieldState, ms: ManufacturedSolution) -> float:
    """L2 distance (radial measure r^3 dr) between a state and ms at its time."""
    diff = state.f - ms.v(state.time, state.grid.r)
    return sobolev_norm(diff, state.grid, 0)[0]


# ---------------------------------------------------------------------------
# order measurement


@dataclass
class StudyRow:
    n_cells: int
    dr: float
    error: float
    order: float  # nan on the coarsest level


@dataclass
class StudyResult:
    observable: str
    rows: list = field(default_factory=list)
    ls_order: float = math.nan
    monotone: bool = True


def pairwise_orders(drs, errors):
    out = [math.nan]
    for i in range(1, len(errors)):
        if errors[i] <= 0.0 or errors[i - 1] <= 0.0:
            out.append(math.nan)
        else:
            out.append(math.log(errors[i - 1] / errors[i])
                       / math.log(drs[i - 1] / drs[i]))
    return out


def fit_order(drs, errors):
    """Least-squares slope of log(error) against log(dr)."""
    pairs = [(d, e) for d, e in zip(drs, errors) if e > 0.0]
    if len(pairs) < 2:
        return math.nan
    x = np.log([d for d, _ in pairs])
    y = np.log([e for _, e in pairs])
    return float(np.polyfit(x, y, 1)[0])


def _build_result(observable, cfgs, errors) -> StudyResult:
    drs = [make_grid(cfg).dr for cfg in cfgs]
    orders = pairwise_orders(drs, errors)
    rows = [StudyRow(c.n_cells, d, e, o) for c, d, e, o in zip(cfgs, drs, errors, orders)]
    mono = all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))
    return StudyResult(observable, rows, fit_order(drs, errors), mono)


def _res_norm(res, grid: RadialGrid) -> float:
    """Residual size as L2 with the radial measure r^3 dr. The origin weight
    matters: evolved trajectories carry slowly-decaying grid-scale ringing
    where the focused shell wave passed through r=0, and its second time
    difference is amplified by dt^-2; the r^3 weight keeps that localized
    noise from dominating the order measurement."""
    return sobolev_norm(res, grid, 0)[0]


_RESIDUAL_EVALUATORS = {
    "residual_Phi": (residual_Phi_wave, 3),
    "residual_Phi_t": (residual_Phi_t_wave, 3),
    "residual_Phi_tt": (residual_Phi_tt_wave, 5),
    "residual_Phi_ttt": (residual_Phi_ttt_wave, 7),
}

# The observables whose levels evolve the base's own data; every other
# observable starts from the manufactured solution, whatever data the base has.
BASE_DATA_OBSERVABLES = frozenset({"drift", *_RESIDUAL_EVALUATORS})


def convergence_study(base: RunConfig, levels=3, observables=("solution", "drift"),
                      ms: ManufacturedSolution = ManufacturedSolution(),
                      t_probe=0.7, t_center=2.0) -> dict:
    """Nested-grid refinement (n, 2n, 4n, ... at fixed CFL) measuring
    Richardson orders per observable.

    Each level is base at its n_cells with no Sobolev norms, spacetime
    norms or snapshots, which no observable reads. solution runs
    manufactured_config(ms, level) forced by ms, whatever data base has;
    drift runs the level unforced, since energy is conserved only there
    (asking for both runs each level twice); residual_v applies the
    discrete operator to exact ms states at t_probe; linear_solution
    evolves the free wave v_tt = lap4 v + g from ms's exact state on
    manufactured_config(ms, level), the nonlinearity dropped on both sides
    (expected order 4: RK4 and 4th-order stencils); the residual_Phi*
    observables difference per-step states centred at t_center on the
    (unforced) evolved trajectory of the level. Every level's window is
    checked before the first run, and t_center must be a step time of
    every level, so that all windows are centred at one time. A level
    whose run, free wave or window evolution halts raises RuntimeError
    naming the observable, the level and the reason.

    Non-monotone error sequences are flagged on the result, not raised."""
    if levels < 3:
        raise ValueError("a refinement study needs at least 3 nested levels")
    if not observables:
        raise ValueError("a refinement study needs at least one observable")
    known = BASE_DATA_OBSERVABLES | {"solution", "residual_v", "linear_solution"}
    unknown = [o for o in observables if o not in known]
    if unknown:
        raise ValueError(f"unknown observables {unknown}; choose from {sorted(known)}")
    for i, o in enumerate(observables):
        if o in observables[:i]:
            raise ValueError(f"observable {o!r} is given twice")
    forced = {"solution", "residual_v"} & set(observables)
    window_obs = [o for o in observables if o in _RESIDUAL_EVALUATORS]
    cfgs = [replace(base, n_cells=base.n_cells * 2 ** lev, track_spacetime=False,
                    sobolev_orders=(), snapshot_every=0) for lev in range(levels)]
    if window_obs:
        need = max(_RESIDUAL_EVALUATORS[o][1] for o in window_obs)
        for cfg in cfgs:
            _window_start(cfg, t_center, need)
        # each level rounds its step count up separately: its grids need not nest
        dts = [_schedule(cfg)[1] for cfg in cfgs]
        if any(abs(t_center / dt - round(t_center / dt)) > 1e-9 for dt in dts):
            raise ValueError(f"t_center={t_center:g} is not a step time of every level "
                             f"(coarsest dt={dts[0]:.6g}), so the levels' windows "
                             f"would be centred at different times")
    errs = {o: [] for o in observables}

    def stopped(obs, cfg, reason):  # a level's evolution halted
        return RuntimeError(f"study {obs} run at n={cfg.n_cells} stopped early: {reason}")
    for cfg in cfgs:
        g, man = make_grid(cfg), manufactured_config(ms, cfg)
        force = make_forcing(ms, g) if forced else None
        for obs, run_cfg, forcing in (("solution", man, force), ("drift", cfg, None)):
            if obs not in observables:
                continue
            result = run(run_cfg, forcing)
            if result.status != "completed":
                raise stopped(obs, cfg, result.reason)
            errs[obs].append(solution_error(result.state, ms) if obs == "solution"
                             else peaks(result.records)["max_drift"])
        if "residual_v" in observables:
            state = manufactured_initial_state(ms, g, t_probe)
            res = residual_v_equation(state, ms.v_tt(t_probe, g.r))
            errs["residual_v"].append(_res_norm(res - force(t_probe), g))
        if "linear_solution" in observables:
            try:
                for state in trajectory(man, make_forcing(ms, g, include_nonlinearity=False),
                                        manufactured_initial_state(ms, g), nonlinear=False):
                    pass
            except FloatingPointError as exc:
                raise stopped("linear_solution", cfg, exc) from None
            errs["linear_solution"].append(solution_error(state, ms))
        if window_obs:
            # identities hold on solutions of the homogeneous equation only
            try:
                states = evolve_bundles(cfg, t_center, need)
            except FloatingPointError as exc:
                raise stopped(",".join(window_obs), cfg, exc) from None
            for o in window_obs:
                fn, _ = _RESIDUAL_EVALUATORS[o]
                errs[o].append(_res_norm(fn(states), g))
    return {o: _build_result(o, cfgs, errs[o]) for o in observables}


# ---------------------------------------------------------------------------
# kernel reference values


def kernel_limit(j: int, p=DEFAULT_PARAMS) -> float:
    """Removable-singularity limits at x=0 (frozen Taylor constants)."""
    a2 = p.alpha ** 2
    return {0: a2, 1: 2.0 / 3.0, 2: -a2 / 3.0, 3: -a2, 4: -2.0 * a2 / 3.0}[j]


def kernel_series_oracle(j: int, xs, p=DEFAULT_PARAMS) -> np.ndarray:
    """Independent reference for the F-tilde kernels: direct formulas in
    extended precision away from 0, exact limits at 0. Meant for cross-
    checking the production evaluator, not for hot loops."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(xs.shape)
    a2 = np.longdouble(p.alpha) ** 2
    for i, xf in enumerate(xs):
        if xf == 0.0:
            out[i] = kernel_limit(j, p)
            continue
        x = np.longdouble(xf)
        s, c = np.sin(x), np.cos(x)
        if j == 0:
            val = a2 * (s / x) ** 2
        elif j == 1:
            val = (2 * x - np.sin(2 * x)) / (2 * x ** 3)
        elif j == 2:
            val = a2 * (x * c - s) * s / x ** 4
        elif j == 3:
            val = -a2 * np.sin(2 * x) / (2 * x)
        elif j == 4:
            val = 2 * a2 * (x * c - s) * s / x ** 4
        else:
            raise ValueError(f"kernel index {j} out of range")
        out[i] = float(val)
    return out


def study_to_csv(results: dict, path):
    """Flat CSV of (observable, level, n_cells, dr, error, order, ls_order)."""
    write_csv(path, ["observable", "level", "n_cells", "dr", "error", "order",
                     "ls_order"],
              ([name, lev, row.n_cells, row.dr, row.error,
                "" if math.isnan(row.order) else row.order, results[name].ls_order]
               for name in sorted(results)
               for lev, row in enumerate(results[name].rows)))
