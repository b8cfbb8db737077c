"""Scalar observables of a trajectory.

Energy and drift, the three continuation monitors (Japanese-bracket
weighted sup norms whose boundedness certifies continuation), integer
Sobolev norms, discrete Y_s and space-time norms, and the soft decay-ratio
report. Everything is a deterministic reduction over grid snapshots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (FieldState, RadialField, _simpson, d_r, integrate_radial,
                   sobolev_norm, write_csv)
from . import kernels
from .kernels import DEFAULT_PARAMS, DEFAULT_PROFILE
from .transform import u_to_v

__all__ = [
    "DiagnosticsRecord",
    "energy",
    "energy_drift",
    "continuation_monitor",
    "decay_report",
    "ys_norm",
    "spacetime_norm",
    "SpacetimeTracker",
    "write_diagnostics_csv",
]


@dataclass
class DiagnosticsRecord:
    time: float
    energy: float
    energy_drift: float
    energy_tail: float
    monitor_v: float
    monitor_vt: float
    monitor_gradv: float
    sobolev: dict = field(default_factory=dict)
    decay_ratios: dict = field(default_factory=dict)
    spacetime_norms: dict = field(default_factory=dict)


def energy(u_state: FieldState, p=DEFAULT_PARAMS, v_state: FieldState = None,
           profile=DEFAULT_PROFILE, return_tail=False):
    """Conserved energy (1/2) * integral [A_1(u_t^2 + u_r^2) + r^-2 sin^2 u] r dr.

    The r^-2 sin^2 u term is evaluated in the v chart on r <= 1
    (sin^2 u = sin^2(r v), so the integrand is v^2 * Ftilde_0(r v)/alpha^2
    with no 0/0), and A_1 comes from the singularity-safe A_5 form.
    With return_tail=True also returns the fraction of |integrand| mass in
    the outer tenth of the domain, a truncation-quality report.

    When v_state is available, u_r is assembled as v + r v_r + phi' with
    the cutoff derivative analytic, so stencils only ever touch the smooth
    field v; differencing u directly across the C^3 cutoff seams costs two
    orders there and shows up as an O(h^3) energy bias.
    """
    if v_state is None:
        v_state = u_to_v(u_state, profile)
        u_r = d_r(u_state.f)
    else:
        u_r = (v_state.f.values + v_state.grid.r * d_r(v_state.f)
               + kernels.eval_cutoff("phi", v_state.grid.r, 1, profile))
    g = u_state.grid
    r = g.r
    v = v_state.f.values
    u = u_state.f.values
    u_t = u_state.f_t.values
    a1 = kernels.eval_A(5, v, r, p, profile)
    sin2_over_r2 = v * v * kernels.eval_Ftilde(0, r * v, p) / p.alpha ** 2
    far = r > 1.0
    sin2_over_r2[far] = (np.sin(u[far]) / r[far]) ** 2
    density = 0.5 * (a1 * (u_t ** 2 + u_r ** 2) + sin2_over_r2)
    dens_field = RadialField(density, g)
    total = integrate_radial(dens_field, 1)
    if not np.isfinite(total):
        ok = np.isfinite(density * r)
        where = "" if ok.all() else f" at r={r[np.argmin(ok)]:.6g}"
        raise ValueError(f"non-finite energy integrand{where}")
    if not return_tail:
        return total
    k = max(4, g.n_cells // 10)
    tail = _simpson((np.abs(density) * r)[-(k + 1):], g.dr)
    denom = abs(total) if total != 0.0 else 1.0
    return total, tail / denom


def energy_drift(e: float, e0: float) -> float:
    """Relative drift |E - E0|/|E0| (absolute if E0 = 0)."""
    return abs(e - e0) / abs(e0) if e0 != 0.0 else abs(e - e0)


def continuation_monitor(v_state: FieldState):
    """Grid maxima of <r>|v|, <r>|v_t|, <r>|d_r v| with <r> = (1+r^2)^(1/2)."""
    jb = np.sqrt(1.0 + v_state.grid.r ** 2)
    vr = d_r(v_state.f)
    return (float(np.max(jb * np.abs(v_state.f.values))),
            float(np.max(jb * np.abs(v_state.f_t.values))),
            float(np.max(jb * np.abs(vr))))


def decay_report(f: RadialField) -> dict:
    """Soft decay ratios (reported, never asserted): max |v| r^(3/2) on
    r >= 1 and max |v| on 0 < r <= 1."""
    r = f.grid.r
    av = np.abs(f.values)
    outer_mask = r >= 1.0
    outer = float(np.max(av[outer_mask] * r[outer_mask] ** 1.5)) if outer_mask.any() else 0.0
    inner_mask = (r > 0.0) & (r <= 1.0)
    inner = float(np.max(av[inner_mask])) if inner_mask.any() else 0.0
    return {"outer": outer, "inner": inner}


def ys_norm(fields, dt: float, s: int) -> float:
    """Discrete Y_s over a uniformly sampled window: sup over interior
    samples of sum_{j<=s} ||d_t^j w||_{H^(s-j)}, time derivatives by
    centered differences. Needs at least 2s+1 snapshots; s <= 2."""
    if s not in (0, 1, 2):
        raise ValueError("ys_norm supports s in {0, 1, 2}")
    if len(fields) < 2 * s + 1:
        raise ValueError(f"need at least {2 * s + 1} snapshots for s={s}")
    best = 0.0
    for j in range(s, len(fields) - s):
        total = sobolev_norm(fields[j], s)
        if s >= 1:
            dt1 = fields[j].with_values(
                (fields[j + 1].values - fields[j - 1].values) / (2.0 * dt))
            total += sobolev_norm(dt1, s - 1)
        if s >= 2:
            dt2 = fields[j].with_values(
                (fields[j - 1].values - 2.0 * fields[j].values
                 + fields[j + 1].values) / dt ** 2)
            total += sobolev_norm(dt2, s - 2)
        best = max(best, total)
    return best


def _spatial_lq(f: RadialField, q) -> float:
    if q == 2:
        return sobolev_norm(f, 0)
    return float(integrate_radial(f.with_values(np.abs(f.values) ** q), 3) ** (1.0 / q))


def spacetime_norm(fields, dt: float, p, q) -> float:
    """Discrete L^p-in-time of L^q-in-space over a sampled window
    (trapezoid in time; p may be math.inf)."""
    g = np.array([_spatial_lq(f, q) for f in fields])
    if p == math.inf:
        return float(np.max(g))
    gp = g ** p
    return float((dt * (np.sum(gp) - 0.5 * (gp[0] + gp[-1]))) ** (1.0 / p))


class SpacetimeTracker:
    """Running space-time norms of a sampled trajectory: Linf_L2, the energy
    pair, as a running max, and L2_L8, the p = 2 endpoint of the admissible
    L^p L^(4p/(p-1)) family in four spatial dimensions, by the trapezoid
    rule in time."""

    def __init__(self):
        self._linf_l2 = 0.0
        self._l2_l8 = 0.0
        self._last_l8 = None

    def update(self, f: RadialField, dt_since_last: float):
        self._linf_l2 = max(self._linf_l2, _spatial_lq(f, 2))
        g = _spatial_lq(f, 8)
        if self._last_l8 is not None:
            self._l2_l8 += 0.5 * dt_since_last * (self._last_l8 ** 2 + g ** 2)
        self._last_l8 = g

    def values(self) -> dict:
        return {"Linf_L2": self._linf_l2, "L2_L8": self._l2_l8 ** (1.0 / 2)}


def write_diagnostics_csv(records, path):
    """One row per sample; stable column order; doubles written exactly."""
    if not records:
        raise ValueError("no diagnostics records to write")
    sob_keys = sorted(records[0].sobolev)
    decay_keys = sorted(records[0].decay_ratios)
    st_keys = list(records[0].spacetime_norms)
    header = (["time", "energy", "energy_drift", "energy_tail",
               "monitor_v", "monitor_vt", "monitor_gradv"]
              + [f"sobolev_s{s}" for s in sob_keys]
              + [f"decay_{k}" for k in decay_keys] + st_keys)
    rows = ([rec.time, rec.energy, rec.energy_drift, rec.energy_tail,
             rec.monitor_v, rec.monitor_vt, rec.monitor_gradv]
            + [rec.sobolev[s] for s in sob_keys]
            + [rec.decay_ratios[k] for k in decay_keys]
            + [rec.spacetime_norms[k] for k in st_keys] for rec in records)
    write_csv(path, header, rows)
