"""The u <-> v <-> Phi change-of-variable chain and residual evaluators.

u is the 2D azimuthal angle (u(t,0) = pi), v = (u - phi)/r its 4D lift, and
Phi the integrated field whose wave equation has a flat principal part.
The residual_* functions discretize each derived wave identity on the
3/3/5/7 equally spaced middle levels of a window of FieldStates (Phi, Phi_t,
Phi_tt, Phi_ttt): each time derivative is a centered 2nd-order difference,
and each evaluator computes Phi or Phi_t on just the levels it reads.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import FieldState, _GL_NODES, _GL_WEIGHTS, d_r, laplacian
from . import kernels
from .kernels import DEFAULT_PARAMS

__all__ = [
    "u_to_v",
    "v_to_u",
    "compute_Phi",
    "compute_Phi_t",
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


def _extrapolate_origin(values):
    return float(_EVEN_EXTRAP @ values[1:5])


def u_to_v(u_state: FieldState) -> FieldState:
    """Lift u to v = (u - phi)/r, phi of u's grid, v(0) by even extrapolation."""
    g = u_state.grid
    if abs(u_state.f[0] - math.pi) > _ORIGIN_TOL:
        raise ValueError(
            f"u(0) = {u_state.f[0]!r} violates the origin boundary "
            "condition u(0) = pi")
    r = g.r
    phi = kernels.mesh_cutoffs(g)["phi"]
    v = np.empty_like(u_state.f)
    v[1:] = (u_state.f[1:] - phi[1:]) / r[1:]
    v[0] = _extrapolate_origin(v)
    vt = np.empty_like(v)
    vt[1:] = u_state.f_t[1:] / r[1:]
    vt[0] = _extrapolate_origin(vt)
    return FieldState(v, vt, g, u_state.time)


def v_to_u(v_state: FieldState) -> FieldState:
    """Reconstruct u = r v + phi, phi of v's grid (exact; u(0) = pi by
    construction); a stack of states gives the stack of their u."""
    g = v_state.grid
    phi = kernels.mesh_cutoffs(g)["phi"]
    return FieldState(g.r * v_state.f + phi, g.r * v_state.f_t, g, v_state.time)


def _gauss_samples(panels):
    """5-point Gauss-Legendre abscissae/weights on [0,1] with `panels` panels,
    flattened; weights sum to 1."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 / panels
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = (mid[:, None] + half * _GL_NODES[None, :]).ravel()
    return pts, np.tile(half * _GL_WEIGHTS, panels)


# Lines up to 4 long (64 panels: u - pi within +-4, the correction's [0, pi]
# among them) reuse their samples; a count costs 80 bytes a panel, so the
# counts 8..64 keep at most 164 KB. Longer lines build theirs per group.
_SHORT_LINE_PANELS = 64
_short_line_samples = lru_cache(maxsize=_SHORT_LINE_PANELS)(_gauss_samples)

# A line group is integrated in row blocks of at most 2^15 samples (256 KB),
# whatever the mesh (lines over 2184 samples, |L| > 27, in 8 to 15 rows).
# OpenBLAS's vals @ wts can give a row other bytes when it lies in a block's
# last (rows mod 4) or in a block under 8 rows, so blocks are cut at
# multiples of 8 rows from the group's start and a last block under 8 rows
# joins the one before: every row keeps the bytes of the one-block product.
_BLOCK_SAMPLES = 2 ** 15


def _unit_samples(panels):
    return (_short_line_samples if panels <= _SHORT_LINE_PANELS else _gauss_samples)(panels)


def _row_blocks(m, width):
    """Slices covering rows 0..m of an (m, width) sample block, cut at
    multiples of 8 rows, none under 8 rows unless it is the only one; each
    holds at most max(_BLOCK_SAMPLES, 15 * width) samples."""
    step = max(8, (_BLOCK_SAMPLES // width - 7) // 8 * 8)  # room for a folded tail
    cuts = list(range(step, m, step))
    if cuts and m - cuts[-1] < 8:
        cuts.pop()
    bounds = [0] + cuts + [m]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _panel_counts(lengths):
    """max(8, ceil(16 |L|)) panels for a line of length L."""
    return np.maximum(8, np.ceil(16.0 * np.abs(lengths))).astype(int)


def _grouped_line_integral(lengths, integrand):
    """integral_0^L_i f(s, i) ds for every i, sampling each line with
    _panel_counts(L_i) panels, one row block of a group at a time;
    integrand(s, idx) is vectorized and may overwrite its abscissa block s,
    which is dropped with the row block."""
    lengths = np.asarray(lengths, dtype=float)
    out = np.zeros_like(lengths)
    counts = _panel_counts(lengths)
    for p in sorted(set(counts.tolist())):  # np.unique would import numpy.ma: 1.2 MB
        group = np.nonzero(counts == p)[0]
        pts, wts = _unit_samples(p)
        for rows in _row_blocks(group.size, pts.size):
            sel = group[rows]
            out[sel] = lengths[sel] * (integrand(lengths[sel, None] * pts[None, :], sel) @ wts)
    return out


def phi_correction_integral(r, p=DEFAULT_PARAMS):
    """integral_0^pi A_3^(-3/2)(y, r) dy, vectorized over r > 0: one row of
    sin(pi y) serves every line, and A_3 is formed one row block of radii
    at a time."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    pts, wts = _unit_samples(int(_panel_counts(math.pi)))
    sin_y = np.sin(math.pi * pts[None, :])
    out = np.empty_like(r)
    for rows in _row_blocks(r.size, pts.size):
        a = kernels._a3(sin_y, r[rows, None], p)
        out[rows] = math.pi * (np.power(a, -1.5, out=a) @ wts)
    return out


@lru_cache(maxsize=4)  # the meshes of one refinement study
def _phi_correction(grid):
    """gt1 * phi_correction_integral on r > 1/2: compute_Phi's per-mesh term."""
    outer = grid.r > 0.5
    r, gt1 = grid.r[outer], kernels.mesh_cutoffs(grid)["gt1"][outer]
    out = gt1 * phi_correction_integral(r, grid.kernel_params)
    out.flags.writeable = False
    return out


def _a4_line_integral(v, r, power, p):
    """integral_0^v A_4(y, r)^power dy at each node (r = 0 allowed)."""
    return _grouped_line_integral(
        v, lambda y, sel: kernels._a4(y, r[sel][:, None], p) ** power)


def _a3_line_integral(lengths, r, p):
    """integral_pi^(pi+L) sqrt(A_3(y, r)) dy at each node (r > 0). It takes
    the length L, not the end point u, because (r v + pi) - pi is not r v
    bit for bit."""
    def integrand(s, sel):  # pi + s, sin, A_3 and sqrt, all in s
        a = kernels._a3(np.sin(np.add(math.pi, s, out=s), out=s), r[sel][:, None], p, out=s)
        return np.sqrt(a, out=a)
    return _grouped_line_integral(lengths, integrand)


def compute_Phi(v_state: FieldState) -> np.ndarray:
    """The integrated field Phi on the mesh, at the alpha of v's grid.

    r <= 1/2:  integral_0^v sqrt(A_4(y, r)) dy  (origin-safe kernel form)
    r  > 1/2:  r^-1 integral_pi^u sqrt(A_3(y, r)) dy
               + gt1(r) r^-1 integral_0^pi A_3^(-3/2)(y, r) dy,
    with u = r v + phi formed on those nodes (the bytes v_to_u gives there).
    """
    g = v_state.grid
    r, p, cut = g.r, g.kernel_params, kernels.mesh_cutoffs(g)
    v = v_state.f
    out = np.empty_like(v)
    inner = r <= 0.5
    out[inner] = _a4_line_integral(v[inner], r[inner], 0.5, p)
    outer = ~inner
    r_out = r[outer]
    u = r_out * v[outer] + cut["phi"][outer]
    out[outer] = (_a3_line_integral(u - math.pi, r_out, p)
                  + _phi_correction(g)) / r_out
    return out


def compute_Phi_t(v_state: FieldState) -> np.ndarray:
    """Phi_t = r^-1 A_1^(1/2) u_t, evaluated through the singularity-safe
    identity Phi_t = A_5(v, r)^(1/2) v_t (exact at every node)."""
    g = v_state.grid
    a = kernels._a5(v_state.f, kernels.mesh_cutoffs(g), g.kernel_params)
    return np.sqrt(a) * v_state.f_t


def residual_v_equation(v_state: FieldState, v_tt) -> np.ndarray:
    """Nodewise v_tt - lap4 v - F(v); v_tt, an array, supplied by caller."""
    g = v_state.grid
    lap = laplacian(v_state.f, g)
    vr = d_r(v_state.f, g)
    f = kernels.eval_F_given_cutoffs(v_state.f, v_state.f_t, vr,
                                     kernels.mesh_cutoffs(g), g.kernel_params)
    return v_tt - lap - f


def _window(states, need):
    """The `need` middle levels of a window of at least `need` states, and
    their time step; they must be equally spaced."""
    if len(states) < need:
        raise ValueError(f"need at least {need} stored time levels, got {len(states)}")
    levels = states[len(states) // 2 - need // 2:][:need]
    dts = np.diff([s.time for s in levels])
    if dts[0] <= 0 or not np.allclose(dts, dts[0], rtol=1e-10, atol=0.0):
        raise ValueError("time levels must be uniformly spaced and increasing")
    return levels, float(dts[0])


def _centered(levels, dt):
    """Centred first differences (l[k+2] - l[k]) / (2 dt): two levels fewer."""
    return [(b - a) / (2.0 * dt) for a, b in zip(levels, levels[2:])]


def _box(levels, dt, grid):
    """The wave operator on three levels: (l0 - 2 l1 + l2)/dt^2 - lap(l1)."""
    return ((levels[0] - 2.0 * levels[1] + levels[2]) / dt ** 2
            - laplacian(levels[1], grid))


def _phi_t_window(states, need):
    """Phi_t on the `need` middle levels of a window, the middle state, its
    mesh's cutoff table, the grid's kernel params, A_1 there, and dt; the
    middle Phi_t is compute_Phi_t's own expression on that A_1 (= A_5)."""
    levels, dt = _window(states, need)
    st = levels[need // 2]
    cut, p = kernels.mesh_cutoffs(st.grid), st.grid.kernel_params
    a1 = kernels._a5(st.f, cut, p)
    pt = [np.sqrt(a1) * s.f_t if s is st else compute_Phi_t(s) for s in levels]
    return pt, st, cut, p, a1, dt


def residual_Phi_wave(states) -> np.ndarray:
    """Residual of box Phi = alpha^-2 (Phi - integral_0^v A_4^(-3/2) dy),
    asserted on r < 1/2 only (the cutoff corrections vanish there); values
    outside that region are returned as zero."""
    levels, dt = _window(states, 3)
    g, p = levels[1].grid, levels[1].grid.kernel_params
    phi_l = [compute_Phi(s) for s in levels]
    region = g.r < 0.5
    correction = np.zeros(g.n_nodes)
    correction[region] = _a4_line_integral(levels[1].f[region], g.r[region], -1.5, p)
    res = _box(phi_l, dt, g) - (phi_l[1] - correction) / p.alpha ** 2
    return np.where(region, res, 0.0)


def residual_Phi_t_wave(states) -> np.ndarray:
    """Residual of box Phi_t = alpha^-2 (1 - A_1^-2) Phi_t, valid at all radii."""
    pt, st, _, p, a1, dt = _phi_t_window(states, 3)
    return _box(pt, dt, st.grid) - (1.0 - a1 ** -2) * pt[1] / p.alpha ** 2


def residual_Phi_tt_wave(states) -> np.ndarray:
    """Residual of box Phi_tt = alpha^-2 [2 A_1^-3 dA_1/dt Phi_t
    + (1 - A_1^-2) Phi_tt]; five time levels."""
    pt, st, cut, p, a1, dt = _phi_t_window(states, 5)
    ptt = _centered(pt, dt)
    da1 = kernels._da1_dt(st.f, st.f_t, cut, p)
    rhs = (2.0 * a1 ** -3 * da1 * pt[2] + (1.0 - a1 ** -2) * ptt[1]) / p.alpha ** 2
    return _box(ptt, dt, st.grid) - rhs


def residual_Phi_ttt_wave(states) -> np.ndarray:
    """Residual of box Phi_ttt = alpha^-2 [-6 A_1^-4 (dA_1/dt)^2 Phi_t
    + 2 A_1^-3 d2A_1/dt2 Phi_t + 4 A_1^-3 dA_1/dt Phi_tt
    + (1 - A_1^-2) Phi_ttt]; seven time levels."""
    pt, st, cut, p, a1, dt = _phi_t_window(states, 7)
    ptt = _centered(pt, dt)
    pttt = _centered(ptt, dt)
    vtt = _centered([s.f_t for s in _window(states, 3)[0]], dt)[0]
    da1 = kernels._da1_dt(st.f, st.f_t, cut, p)
    dda1 = kernels._da1_dtt(st.f, st.f_t, vtt, cut, p)
    rhs = (-6.0 * a1 ** -4 * da1 ** 2 * pt[3]
           + 2.0 * a1 ** -3 * dda1 * pt[3]
           + 4.0 * a1 ** -3 * da1 * ptt[2]
           + (1.0 - a1 ** -2) * pttt[1]) / p.alpha ** 2
    return _box(pttt, dt, st.grid) - rhs
