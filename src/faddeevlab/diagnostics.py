"""Scalar observables of a trajectory.

Energy and drift, the three continuation monitors (Japanese-bracket
weighted sup norms whose boundedness certifies continuation), integer
Sobolev norms, running space-time norms, and the soft decay-ratio report.
Everything is a deterministic reduction over grid snapshots; the per-mesh
weights of a sample are read from kernels.mesh_cutoffs.
"""
from __future__ import annotations

import numpy as np

from .grid import (FLOAT_FMT, FieldState, RadialGrid, _simpson, d_r, integrate_radial,
                   sobolev_norm)
from . import kernels
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
    """A non-finite energy integrand of one state (of a stepped state: a blow-up)."""


def energy(u_state: FieldState, v_state: FieldState = None, *, return_tail=False,
           v_r=None):
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
    u_state's grid (ValueError otherwise). v_r = d_r(v, grid) is computed
    here when not given; phi' and the r = 1 split are read from
    kernels.mesh_cutoffs(grid), and alpha from u_state's grid.

    One state whose integral is not finite raises EnergyOverflow, naming
    the first radius where its integrand is not. A stack of states (with
    its v_state) gives a list of values, one per row, each with the bytes
    of its own call: non-finite exactly where that call raises.
    """
    g = u_state.grid
    cut, p = kernels.mesh_cutoffs(g), g.kernel_params
    if v_state is None:
        if u_state.f.ndim > 1:  # u_to_v lifts one state
            raise ValueError("the energy of a stack of states needs their v_state")
        v_state = u_to_v(u_state)
        u_r = d_r(u_state.f, g)
    else:
        if v_state.grid != g:
            raise ValueError(f"the v state lives on {v_state.grid}, the u state on {g}")
        u_r = g.r * (d_r(v_state.f, g) if v_r is None else v_r)
        u_r += v_state.f
        u_r += cut["dphi"]
    r, near, r_far = g.r, cut["near"], cut["r_far"]
    v = v_state.f[..., near]
    # A_4 = 1 + q as in _a4, written out: q also gives sin^2 u / r^2 below
    q = v * v * kernels._ftilde(cut["r_near"] * v, p, (0,), cut["series_near"])[0]
    # beyond r = 1, A_5 is A_1 of u = r v + phi, which shares sin u
    sin_far = np.sin(u_state.f[..., cut["far"]])
    sin2_over_r2 = np.concatenate((q / p.alpha ** 2, np.square(sin_far / r_far)), axis=-1)
    q += 1.0
    density = np.concatenate((q, kernels._a3(sin_far, r_far, p, out=sin_far)), axis=-1)
    np.square(u_r, out=u_r)  # density = 0.5 (A_1 (u_t^2 + u_r^2) + sin^2 u / r^2)
    u_r += np.square(u_state.f_t)
    density *= u_r
    density += sin2_over_r2
    density *= 0.5
    total = _simpson(density * r, g.dr)
    if total.ndim == 0 and not np.isfinite(total):
        ok = np.isfinite(density * r)
        where = "" if ok.all() else f" at r={r[np.argmin(ok)]:.6g}"
        raise EnergyOverflow(f"non-finite energy integrand{where}")
    if not return_tail:
        return total.tolist()
    k = max(4, g.n_cells // 10)
    tail = _simpson(np.abs(density[..., -(k + 1):]) * r[-(k + 1):], g.dr)
    return total.tolist(), (tail / np.where(total != 0.0, np.abs(total), 1.0)).tolist()


def energy_drift(e: float, e0: float) -> float:
    """Relative drift |E - E0|/|E0| (absolute if E0 = 0)."""
    return abs(e - e0) / abs(e0) if e0 != 0.0 else abs(e - e0)


def continuation_monitor(v_state: FieldState, v_r, cut):
    """Grid maxima of <r>|v|, <r>|v_t|, <r>|d_r v| with <r> = (1+r^2)^(1/2);
    v_r = d_r(v, grid), cut the grid's kernels.mesh_cutoffs table. A stack
    of states gives a list per monitor, one value per row."""
    return tuple(np.max(cut["jb"] * np.abs(a), axis=-1).tolist()
                 for a in (v_state.f, v_state.f_t, v_r))


def decay_report(values, cut) -> dict:
    """Soft decay ratios (reported, never asserted): max |v| r^(3/2) on
    r >= 1 and max |v| on 0 < r <= 1; cut the grid's kernels.mesh_cutoffs
    table. A stack of values gives a list per ratio, one value per row."""
    av = np.abs(values)  # >= 0: initial=0.0 changes only an empty maximum
    return {"outer": np.max(av[..., cut["decay"]] * cut["decay_weight"], axis=-1,
                            initial=0.0).tolist(),
            "inner": np.max(av[..., cut["near"]][..., 1:], axis=-1, initial=0.0).tolist()}


class SpacetimeTracker:
    """Running space-time norms of a sampled trajectory: Linf_L2, the energy
    pair, as a running max, and L2_L8, the p = 2 endpoint of the admissible
    L^p L^(4p/(p-1)) family in four spatial dimensions, by the trapezoid
    rule in time."""

    def __init__(self):
        self._linf_l2 = 0.0
        self._l2_l8 = 0.0
        self._last_l8 = None

    def update(self, values, grid: RadialGrid, dt_since_last, l2=None):
        """Add the sample values on grid, dt_since_last after the one before;
        l2 = sobolev_norm(values, grid, s)[0] when the caller holds it.
        Returns values() after the sample. A stack of samples takes a list
        of dt_since_last (and of l2), adds its rows in order and returns the
        list of values() after each."""
        l2 = sobolev_norm(values, grid, 0)[0] if l2 is None else l2
        l8 = integrate_radial(np.abs(values) ** 8, grid, 3)
        if values.ndim == 1:
            return self._add(l2, l8, dt_since_last)
        return [self._add(*terms) for terms in zip(l2, l8, dt_since_last)]

    def _add(self, l2, l8, dt_since_last):
        self._linf_l2 = max(self._linf_l2, l2)
        g = l8 ** (1.0 / 8)
        if self._last_l8 is not None:
            self._l2_l8 += 0.5 * dt_since_last * (self._last_l8 ** 2 + g ** 2)
        self._last_l8 = g
        return self.values()

    def values(self) -> dict:
        return {"Linf_L2": self._linf_l2, "L2_L8": self._l2_l8 ** (1.0 / 2)}


def write_diagnostics_csv(records, path):
    """One row per sample, the keys of a record as the header, doubles
    written exactly, each row formatted by one `%`."""
    if not records:
        raise ValueError("no diagnostics records to write")
    line = ",".join([FLOAT_FMT] * len(records[0])) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(records[0]) + "\n")
        fh.writelines(line % tuple(rec.values()) for rec in records)


def peaks(records) -> dict:
    """The largest monitors and energy drift over a run's samples, by their
    summary.csv names."""
    return {name: max(rec[col] for rec in records) for name, col in PEAKS.items()}
