"""Scalar observables of a trajectory.

Energy and drift, the three continuation monitors (Japanese-bracket
weighted sup norms whose boundedness certifies continuation), integer
Sobolev norms, running space-time norms, and the soft decay-ratio report.
Everything is a deterministic reduction over grid snapshots; the per-mesh
weights of a sample are read from kernels.mesh_cutoffs.
"""
from __future__ import annotations

import numpy as np

from .grid import (FieldState, RadialGrid, _simpson, d_r, integrate_radial,
                   sobolev_norm, write_csv)
from . import kernels
from .kernels import DEFAULT_PARAMS
from .transform import u_to_v

__all__ = [
    "EnergyOverflow",
    "energy",
    "energy_drift",
    "continuation_monitor",
    "decay_report",
    "SpacetimeTracker",
    "write_diagnostics_csv",
    "PEAKS",
    "peaks",
]

# a run's peaks: summary.csv name -> the diagnostics.csv column it maximises
PEAKS = {"max_monitor_v": "monitor_v", "max_monitor_vt": "monitor_vt",
         "max_monitor_gradv": "monitor_gradv", "max_drift": "energy_drift"}


class EnergyOverflow(ValueError):
    """A non-finite energy integrand (of a stepped state: a blow-up)."""


def energy(u_state: FieldState, p=DEFAULT_PARAMS, v_state: FieldState = None, *,
           return_tail=False, v_r=None):
    """Conserved energy (1/2) * integral [A_1(u_t^2 + u_r^2) + r^-2 sin^2 u] r dr.

    On r <= 1 the r^-2 sin^2 u term is v^2 Ftilde_0(r v)/alpha^2 (no 0/0)
    and A_1 the singularity-safe A_5 = 1 + v^2 Ftilde_0(r v), one product
    for both; beyond r = 1 both take one sin u of u_state. With
    return_tail=True also returns the fraction of |integrand| mass in the
    outer tenth of the domain, a truncation-quality report.

    When v_state is available, u_r is assembled as v + r v_r + phi' with
    the cutoff derivative analytic, so stencils only ever touch the smooth
    field v; differencing u directly across the C^3 cutoff seams costs two
    orders there and shows up as an O(h^3) energy bias. v_state must lie on
    u_state's grid (ValueError otherwise). v_r = d_r(v, grid)
    is computed here when not given; phi' and the r = 1 split are read from
    kernels.mesh_cutoffs(grid), the chart of u_state's grid.
    """
    g = u_state.grid
    cut = kernels.mesh_cutoffs(g)
    if v_state is None:
        v_state = u_to_v(u_state)
        u_r = d_r(u_state.f, g)
    else:
        if v_state.grid != g:
            raise ValueError(f"the v state lives on {v_state.grid}, the u state on {g}")
        v_r = d_r(v_state.f, g) if v_r is None else v_r
        u_r = v_state.f + g.r * v_r + cut["dphi"]
    r, near, far, r_far = g.r, cut["near"], cut["far"], cut["r_far"]
    v = v_state.f
    # A_4 = 1 + q as in _a4, written out: q also gives sin^2 u / r^2 below
    q = v[near] * v[near] * kernels._ftilde(cut["r_near"] * v[near], p, (0,),
                                            cut["series_near"])[0]
    # beyond r = 1, A_5 is A_1 of u = r v + phi, which shares sin u
    sin_far = np.sin(u_state.f[far])
    a1 = np.concatenate((1.0 + q, kernels._a3(sin_far, r_far, p)))
    sin2_over_r2 = np.concatenate((q / p.alpha ** 2, (sin_far / r_far) ** 2))
    density = 0.5 * (a1 * (u_state.f_t ** 2 + u_r ** 2) + sin2_over_r2)
    total = integrate_radial(density, g, 1)
    if not np.isfinite(total):
        ok = np.isfinite(density * r)
        where = "" if ok.all() else f" at r={r[np.argmin(ok)]:.6g}"
        raise EnergyOverflow(f"non-finite energy integrand{where}")
    if not return_tail:
        return total
    k = max(4, g.n_cells // 10)
    tail = _simpson(np.abs(density[-(k + 1):]) * r[-(k + 1):], g.dr)
    denom = abs(total) if total != 0.0 else 1.0
    return total, tail / denom


def energy_drift(e: float, e0: float) -> float:
    """Relative drift |E - E0|/|E0| (absolute if E0 = 0)."""
    return abs(e - e0) / abs(e0) if e0 != 0.0 else abs(e - e0)


def continuation_monitor(v_state: FieldState, v_r, cut):
    """Grid maxima of <r>|v|, <r>|v_t|, <r>|d_r v| with <r> = (1+r^2)^(1/2);
    v_r = d_r(v, grid), cut the grid's kernels.mesh_cutoffs table."""
    return tuple(float(np.max(cut["jb"] * np.abs(a))) for a in (v_state.f, v_state.f_t, v_r))


def decay_report(values, cut) -> dict:
    """Soft decay ratios (reported, never asserted): max |v| r^(3/2) on
    r >= 1 and max |v| on 0 < r <= 1; cut the grid's kernels.mesh_cutoffs table."""
    av = np.abs(values)  # >= 0: initial=0.0 changes only an empty maximum
    return {"outer": float(np.max(av[cut["decay"]] * cut["decay_weight"], initial=0.0)),
            "inner": float(np.max(av[cut["near"]][1:], initial=0.0))}


class SpacetimeTracker:
    """Running space-time norms of a sampled trajectory: Linf_L2, the energy
    pair, as a running max, and L2_L8, the p = 2 endpoint of the admissible
    L^p L^(4p/(p-1)) family in four spatial dimensions, by the trapezoid
    rule in time."""

    def __init__(self):
        self._linf_l2 = 0.0
        self._l2_l8 = 0.0
        self._last_l8 = None

    def update(self, values, grid: RadialGrid, dt_since_last: float, l2=None):
        """Add the sample values on grid; l2 = sobolev_norm(values, grid, s)[0]
        when the caller holds it."""
        self._linf_l2 = max(self._linf_l2,
                            sobolev_norm(values, grid, 0)[0] if l2 is None else l2)
        g = integrate_radial(np.abs(values) ** 8, grid, 3) ** (1.0 / 8)
        if self._last_l8 is not None:
            self._l2_l8 += 0.5 * dt_since_last * (self._last_l8 ** 2 + g ** 2)
        self._last_l8 = g

    def values(self) -> dict:
        return {"Linf_L2": self._linf_l2, "L2_L8": self._l2_l8 ** (1.0 / 2)}


def write_diagnostics_csv(records, path):
    """One row per sample, the keys of a record as the header, doubles
    written exactly."""
    if not records:
        raise ValueError("no diagnostics records to write")
    write_csv(path, list(records[0]), np.array([list(rec.values()) for rec in records]))


def peaks(records) -> dict:
    """The largest monitors and energy drift over a run's samples, by their
    summary.csv names."""
    return {name: max(rec[col] for rec in records) for name, col in PEAKS.items()}
