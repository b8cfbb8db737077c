"""The u <-> v <-> Phi change-of-variable chain and residual evaluators.

u is the 2D azimuthal angle (u(t,0) = pi), v = (u - phi)/r its 4D lift, and
Phi the integrated field whose wave equation has a flat principal part.
The residual_* functions discretize each derived wave identity: every time
derivative is a centered 2nd-order difference of stored snapshot levels, so
a window of 3/3/5/7 equally spaced levels is needed for the Phi, Phi_t,
Phi_tt and Phi_ttt identities respectively.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import FieldState, _GL_NODES, _GL_WEIGHTS, d_r, laplacian
from . import kernels
from .kernels import DEFAULT_PARAMS, DEFAULT_PROFILE

__all__ = [
    "TransformBundle",
    "u_to_v",
    "v_to_u",
    "compute_Phi",
    "compute_Phi_t",
    "make_bundle",
    "residual_v_equation",
    "residual_Phi_wave",
    "residual_Phi_t_wave",
    "residual_Phi_tt_wave",
    "residual_Phi_ttt_wave",
    "phi_correction_integral",
]

# Weights reconstructing the node-0 value of a smooth even field from nodes
# 1..4 (solves the even-extension Vandermonde system; error O(dr^8)).
_EVEN_EXTRAP = np.array([8.0 / 5.0, -4.0 / 5.0, 8.0 / 35.0, -1.0 / 35.0])

_ORIGIN_TOL = 1e-10


@dataclass
class TransformBundle:
    v: FieldState
    phi_field: np.ndarray
    phi_t_field: np.ndarray

    @property
    def time(self) -> float:
        return self.v.time


def _extrapolate_origin(values):
    return float(_EVEN_EXTRAP @ values[1:5])


def u_to_v(u_state: FieldState, profile=DEFAULT_PROFILE) -> FieldState:
    """Lift u to v = (u - phi)/r, with v(0) by even extrapolation."""
    g = u_state.grid
    if abs(u_state.f[0] - math.pi) > _ORIGIN_TOL:
        raise ValueError(
            f"u(0) = {u_state.f[0]!r} violates the origin boundary "
            "condition u(0) = pi")
    r = g.r
    phi = kernels.mesh_cutoffs(g, profile)["phi"]
    v = np.empty_like(u_state.f)
    v[1:] = (u_state.f[1:] - phi[1:]) / r[1:]
    v[0] = _extrapolate_origin(v)
    vt = np.empty_like(v)
    vt[1:] = u_state.f_t[1:] / r[1:]
    vt[0] = _extrapolate_origin(vt)
    return FieldState(v, vt, g, u_state.time)


def v_to_u(v_state: FieldState, profile=DEFAULT_PROFILE) -> FieldState:
    """Reconstruct u = r v + phi (exact; u(0) = pi by construction)."""
    g = v_state.grid
    phi = kernels.mesh_cutoffs(g, profile)["phi"]
    return FieldState(g.r * v_state.f + phi, g.r * v_state.f_t, g, v_state.time)


def _panels_for(length):
    return max(8, math.ceil(16.0 * abs(length)))


@lru_cache(maxsize=None)
def _unit_samples(panels):
    """5-point Gauss-Legendre abscissae/weights on [0,1] with `panels` panels,
    flattened; weights sum to 1."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 / panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    return pts, np.tile(half * _GL_WEIGHTS, panels)


def _grouped_line_integral(lengths, integrand):
    """integral_0^L_i f(s, i) ds for every i, sampling each line with the
    panel count max(8, ceil(16 |L_i|)); integrand(s, idx) is vectorized."""
    lengths = np.asarray(lengths, dtype=float)
    out = np.zeros_like(lengths)
    counts = np.fromiter((_panels_for(L) for L in lengths), dtype=int,
                         count=len(lengths))
    for p in np.unique(counts):
        sel = np.nonzero(counts == p)[0]
        pts, wts = _unit_samples(int(p))
        s = lengths[sel, None] * pts[None, :]
        vals = integrand(s, sel)
        out[sel] = lengths[sel] * (vals @ wts)
    return out


def phi_correction_integral(r, p=DEFAULT_PARAMS):
    """integral_0^pi A_3^(-3/2)(y, r) dy, vectorized over r > 0."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    pts, wts = _unit_samples(_panels_for(math.pi))
    y = math.pi * pts
    return math.pi * (kernels._a3(np.sin(y[None, :]), r[:, None], p) ** -1.5 @ wts)


def compute_Phi(v_state: FieldState, p=DEFAULT_PARAMS,
                profile=DEFAULT_PROFILE) -> np.ndarray:
    """The integrated field Phi on the mesh.

    r <= 1/2:  integral_0^v sqrt(A_4(y, r)) dy  (origin-safe kernel form)
    r  > 1/2:  r^-1 integral_pi^u sqrt(A_3(y, r)) dy
               + gt1(r) r^-1 integral_0^pi A_3^(-3/2)(y, r) dy,
    with u = r v + phi formed on those nodes (the bytes v_to_u gives there).
    """
    r = v_state.grid.r
    cut = kernels.mesh_cutoffs(v_state.grid, profile)
    v = v_state.f
    out = np.empty_like(v)

    inner = r <= 0.5
    idx_in = np.nonzero(inner)[0]
    if idx_in.size:
        r_in = r[idx_in]

        def a4_sqrt(y, sel):
            return np.sqrt(kernels._a4(y, r_in[sel][:, None], p))

        out[idx_in] = _grouped_line_integral(v[idx_in], a4_sqrt)

    idx_out = np.nonzero(~inner)[0]
    if idx_out.size:
        r_out = r[idx_out]

        def a3_sqrt(s, sel):
            # y runs from pi toward u along y = pi + s
            return np.sqrt(kernels._a3(np.sin(math.pi + s), r_out[sel][:, None], p))

        u = r_out * v[idx_out] + cut["phi"][idx_out]
        line = _grouped_line_integral(u - math.pi, a3_sqrt)
        out[idx_out] = (line + cut["gt1"][idx_out]
                        * phi_correction_integral(r_out, p)) / r_out
    return out


def compute_Phi_t(v_state: FieldState, p=DEFAULT_PARAMS,
                  profile=DEFAULT_PROFILE) -> np.ndarray:
    """Phi_t = r^-1 A_1^(1/2) u_t, evaluated through the singularity-safe
    identity Phi_t = A_5(v, r)^(1/2) v_t (exact at every node)."""
    a = kernels._a5(v_state.f, kernels.mesh_cutoffs(v_state.grid, profile), p)
    return np.sqrt(a) * v_state.f_t


def make_bundle(v_state: FieldState, p=DEFAULT_PARAMS,
                profile=DEFAULT_PROFILE) -> TransformBundle:
    return TransformBundle(
        v=v_state,
        phi_field=compute_Phi(v_state, p, profile),
        phi_t_field=compute_Phi_t(v_state, p, profile),
    )


def residual_v_equation(v_state: FieldState, v_tt, p=DEFAULT_PARAMS,
                        profile=DEFAULT_PROFILE) -> np.ndarray:
    """Nodewise v_tt - lap4 v - F(v); v_tt, an array, supplied by caller."""
    g = v_state.grid
    lap = laplacian(v_state.f, g)
    vr = d_r(v_state.f, g)
    f = kernels.eval_F_given_cutoffs(v_state.f, v_state.f_t, vr,
                                     kernels.mesh_cutoffs(g, profile), p)
    return v_tt - lap - f


def _window(bundles, need):
    if len(bundles) < need:
        raise ValueError(f"need at least {need} stored time levels, got {len(bundles)}")
    times = np.array([b.time for b in bundles])
    dts = np.diff(times)
    dt = dts[0]
    if dt <= 0 or not np.allclose(dts, dt, rtol=1e-10, atol=0.0):
        raise ValueError("time levels must be uniformly spaced and increasing")
    return len(bundles) // 2, float(dt)


def residual_Phi_wave(bundles, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE) -> np.ndarray:
    """Residual of box Phi = alpha^-2 (Phi - integral_0^v A_4^(-3/2) dy),
    asserted on r < 1/2 only (the cutoff corrections vanish there); values
    outside that region are returned as zero."""
    mid, dt = _window(bundles, 3)
    g = bundles[mid].v.grid
    phi_l = [b.phi_field for b in bundles[mid - 1:mid + 2]]
    phi_tt = (phi_l[0] - 2.0 * phi_l[1] + phi_l[2]) / dt ** 2
    lap = laplacian(phi_l[1], g)
    region = g.r < 0.5
    idx = np.nonzero(region)[0]
    v = bundles[mid].v.f
    r_in = g.r[idx]

    def a4_m32(y, sel):
        return kernels._a4(y, r_in[sel][:, None], p) ** -1.5

    correction = np.zeros_like(v)
    correction[idx] = _grouped_line_integral(v[idx], a4_m32)
    res = phi_tt - lap - (phi_l[1] - correction) / p.alpha ** 2
    return np.where(region, res, 0.0)


def residual_Phi_t_wave(bundles, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE) -> np.ndarray:
    """Residual of box Phi_t = alpha^-2 (1 - A_1^-2) Phi_t, valid at all radii."""
    mid, dt = _window(bundles, 3)
    g = bundles[mid].v.grid
    pt = [b.phi_t_field for b in bundles[mid - 1:mid + 2]]
    pt_tt = (pt[0] - 2.0 * pt[1] + pt[2]) / dt ** 2
    lap = laplacian(pt[1], g)
    a1 = kernels._a5(bundles[mid].v.f, kernels.mesh_cutoffs(g, profile), p)
    rhs = (1.0 - a1 ** -2) * pt[1] / p.alpha ** 2
    return pt_tt - lap - rhs


def residual_Phi_tt_wave(bundles, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE) -> np.ndarray:
    """Residual of box Phi_tt = alpha^-2 [2 A_1^-3 dA_1/dt Phi_t
    + (1 - A_1^-2) Phi_tt]; five time levels."""
    mid, dt = _window(bundles, 5)
    g = bundles[mid].v.grid
    pt = [b.phi_t_field for b in bundles[mid - 2:mid + 3]]
    ptt = [(pt[k + 2] - pt[k]) / (2.0 * dt) for k in range(3)]
    ptt_tt = (ptt[0] - 2.0 * ptt[1] + ptt[2]) / dt ** 2
    lap = laplacian(ptt[1], g)
    v = bundles[mid].v.f
    vt = bundles[mid].v.f_t
    cut = kernels.mesh_cutoffs(g, profile)
    a1 = kernels._a5(v, cut, p)
    da1 = kernels._da1_dt(v, vt, cut, p)
    rhs = (2.0 * a1 ** -3 * da1 * pt[2] + (1.0 - a1 ** -2) * ptt[1]) / p.alpha ** 2
    return ptt_tt - lap - rhs


def residual_Phi_ttt_wave(bundles, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE) -> np.ndarray:
    """Residual of box Phi_ttt = alpha^-2 [-6 A_1^-4 (dA_1/dt)^2 Phi_t
    + 2 A_1^-3 d2A_1/dt2 Phi_t + 4 A_1^-3 dA_1/dt Phi_tt
    + (1 - A_1^-2) Phi_ttt]; seven time levels."""
    mid, dt = _window(bundles, 7)
    g = bundles[mid].v.grid
    pt = [b.phi_t_field for b in bundles[mid - 3:mid + 4]]
    ptt = [(pt[k + 2] - pt[k]) / (2.0 * dt) for k in range(5)]
    pttt = [(ptt[k + 2] - ptt[k]) / (2.0 * dt) for k in range(3)]
    pttt_tt = (pttt[0] - 2.0 * pttt[1] + pttt[2]) / dt ** 2
    lap = laplacian(pttt[1], g)
    v = bundles[mid].v.f
    vt = bundles[mid].v.f_t
    vtt = (bundles[mid + 1].v.f_t - bundles[mid - 1].v.f_t) / (2.0 * dt)
    cut = kernels.mesh_cutoffs(g, profile)
    a1 = kernels._a5(v, cut, p)
    da1 = kernels._da1_dt(v, vt, cut, p)
    dda1 = kernels._da1_dtt(v, vt, vtt, cut, p)
    rhs = (-6.0 * a1 ** -4 * da1 ** 2 * pt[3]
           + 2.0 * a1 ** -3 * dda1 * pt[3]
           + 4.0 * a1 ** -3 * da1 * ptt[2]
           + (1.0 - a1 ** -2) * pttt[1]) / p.alpha ** 2
    return pttt_tt - lap - rhs
