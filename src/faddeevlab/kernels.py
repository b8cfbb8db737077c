"""Pointwise analytic kernels of the equivariant model.

Everything here is a pure function of its arguments: the cutoff profiles
(phi and the inner/outer partition pair), the coefficient functions
A_1/A_4/A_5, the even analytic kernels Ftilde_0..Ftilde_4 with their
removable singularities at argument 0, the 2D nonlinearity N(u), and the
assembled right-hand side F(v) of the lifted 4D semilinear wave equation.

Convention: the azimuthal angle satisfies u(t,0) = pi and u -> 0 at
infinity; the lifted field is v = (u - phi)/r with phi the static shell
profile (pi on r <= 1, 0 on r >= 2).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "KernelParams",
    "CutoffProfile",
    "eval_Ftilde",
    "eval_cutoff",
    "laplacian_phi_2d",
    "eval_N",
    "eval_F_rhs",
    "cutoff_arrays",
    "mesh_cutoffs",
    "eval_F_given_cutoffs",
]


@dataclass(frozen=True)
class KernelParams:
    """The coupling constant alpha in front of the quartic term."""

    alpha: float = 1.0

    def __post_init__(self):
        # The evaluators take alpha^2 and divide by it: a subnormal square has
        # lost digits (the energy's q / alpha^2 erred by 5e-5 at alpha 1e-160).
        a = float(self.alpha)
        if not (a > 0.0 and sys.float_info.min <= a * a < math.inf):
            raise ValueError(f"kernels.alpha must be positive with a finite, normal "
                             f"square, got {self.alpha!r}")


# The smoothstep's alternating binomial coefficients cancel in float64: on
# [1, 2], phi leaves [0, pi] by 7.0e-9 relative at order 21, 5.5e-8 at 23,
# 2.9e-5 at 29 and spans [-10.3, 17.7] at 41; past ~1200 they overflow.
MAX_CUTOFF_ORDER = 21


@dataclass(frozen=True)
class CutoffProfile:
    """Smoothstep order for the three radial cutoffs.

    kind is the polynomial order of the smoothstep (odd, 5..21); the default
    7 is C^3 at the junctions, enough for 4th-order stencils applied twice.
    """

    kind: int = 7

    def __post_init__(self):
        if not 5 <= self.kind <= MAX_CUTOFF_ORDER or self.kind % 2 == 0:
            raise ValueError(f"kernels.cutoff_order must be odd and in "
                             f"5..{MAX_CUTOFF_ORDER}, got {self.kind}")


# Taylor coefficients in w = x^2 about x = 0 for the alpha-independent part
# of each kernel (Ftilde_1 carries no alpha; the others scale by alpha^2),
# frozen from a 50-digit expansion: 8 terms, converged to rounding below
# every seam. Ftilde_3 = -1 + x^2 Ftilde_1 and Ftilde_4 = 2 Ftilde_2 exactly.
_SERIES = {
    0: np.array([
        1.0, -0.3333333333333333, 0.044444444444444446,
        -0.0031746031746031746, 0.00014109347442680775,
        -4.275559831115387e-06, 9.39683479366019e-08,
        -1.5661391322766984e-09]),
    1: np.array([
        0.6666666666666666, -0.13333333333333333, 0.012698412698412698,
        -0.0007054673721340388, 2.565335898669232e-05,
        -6.577784355562133e-07, 1.2529113058213587e-08,
        -1.8425166262078804e-10]),
    2: np.array([
        -0.3333333333333333, 0.08888888888888889, -0.009523809523809525,
        0.000564373897707231, -2.1377799155576935e-05,
        5.638100876196114e-07, -1.0962973925936889e-08,
        1.637792556629227e-10]),
}
_SERIES[3] = np.concatenate([[-1.0], _SERIES[1][:7]])
_SERIES[4] = 2.0 * _SERIES[2]

# |x| below _SEAM[j] takes the series, the rest the direct formula; j = 4
# takes j = 2's. Ftilde_1, _2 and _4 start with an x^3-order cancellation
# and keep the series up to 0.1: their direct formulas lose ~3/x^2 * eps
# there (a few 1e-12 relative at x ~ 1e-2, above the 1e-12 seam budget).
_SEAM = np.array([1e-2, 0.1, 0.1, 1e-2])
_BASE = (0, 1, 2, 3)

DEFAULT_PARAMS = KernelParams()
DEFAULT_PROFILE = CutoffProfile()


def _pointwise(fn, *args):
    """fn applied to float64, at least 1-d broadcasts of args; a Python
    float when every argument is 0-d. The scalar/array adapter of the
    public evaluators."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    if len(arrays) > 1:
        arrays = np.broadcast_arrays(*arrays)
    scalar = arrays[0].ndim == 0  # broadcast arrays share one shape
    if scalar:
        arrays = [a.reshape(1) for a in arrays]
    out = fn(*arrays)
    return float(out[0]) if scalar else out


@lru_cache(maxsize=32)  # keyed by the kernels asked for, never by node count
def _plan(js):
    """(base kernels 0..3 that js needs, sorted; their seam column; its min)."""
    base = tuple(sorted({2 if j == 4 else j for j in js}))
    seam = _SEAM[list(base), None]
    return base, seam, seam.min()


def _series_rows(base, size):
    """The Horner table of base on _ftilde's flat (m * size) layout, each
    kernel's coefficients repeated over its size nodes (a column at m = 1)."""
    table = np.array([_SERIES[j][::-1] for j in base]).T
    return np.repeat(table, size, axis=1) if len(base) > 1 else table


def _ftilde(x, p, js, rows=None):
    """[Ftilde_j(x) for j in js] shaped like the float64 array x, Ftilde_4 as
    2 * Ftilde_2, base rows as writable views of one (m, size) block: the
    direct formulas row by row (x = 1.0 below the smallest seam: no warning
    at x = 0), then one copyto of the series where |x| < the row's seam,
    Horner on the flat (m * size) layout with rows = _series_rows (the mesh
    table holds F's) and w = x^2 clamped at 0.1^2 (an unused series stays
    finite), then alpha^2 on rows j != 1 unless alpha = 1 (x * 1.0 is x)."""
    base, seam, smallest = _plan(tuple(js))
    shape, x = x.shape, x.ravel()
    m, size = len(base), x.size
    rows = _series_rows(base, size) if rows is None else rows
    ax = np.abs(x)
    w = np.minimum(np.multiply(x, x, out=np.empty((m, size))), 0.1 ** 2).ravel()
    acc = rows[0] * w
    acc += rows[1]
    for coeffs in rows[2:]:
        acc *= w
        acc += coeffs
    # the direct formulas, arranged to avoid cancellation near the seam
    xd = np.where(ax < smallest, 1.0, x)
    s, x2 = np.sin(xd), 2.0 * xd
    s2 = np.sin(x2) if 1 in base or 3 in base else None
    block = np.empty((m, size))
    for j, row in zip(base, block):
        if j == 0:
            np.square(np.divide(s, xd, out=row), out=row)
        elif j == 1:
            np.divide(np.subtract(x2, s2, out=row), 2.0 * xd ** 3, out=row)
        elif j == 2:
            np.multiply(xd, np.cos(xd, out=row), out=row)
            row -= s
            row *= s
            row /= xd ** 4
        else:
            np.divide(np.negative(s2, out=row), x2, out=row)
    np.copyto(block, acc.reshape(m, size), where=ax < seam)
    if p.alpha != 1.0:
        block *= np.array([[1.0 if j == 1 else p.alpha ** 2] for j in base])
    block = block.reshape((m,) + shape)
    return [2.0 * block[base.index(2)] if j == 4 else block[base.index(j)] for j in js]


def eval_Ftilde(j, x, p=DEFAULT_PARAMS):
    """Evaluate the even analytic kernel Ftilde_j at x (scalar or array).

    For |x| below its seam in _SEAM (1e-2 for j = 0, 3; 0.1 for j = 1, 2,
    4) the 8-term Taylor series (Horner in x^2) takes over; both branches
    agree to better than 1e-12 relative at the seam. Ftilde_1 is alpha-free,
    the other four scale by alpha^2.
    """
    if j not in _SERIES:
        raise ValueError(f"kernel index must be 0..4, got {j}")
    return _pointwise(lambda x: _ftilde(x, p, (j,))[0], x)


@lru_cache(maxsize=None)
def _smoothstep_coeffs(kind):
    """Ascending coefficients of the order-`kind` smoothstep and its
    first two derivatives on [0, 1]."""
    m = (kind - 1) // 2
    coeffs = np.zeros(kind + 1)
    for jj in range(m + 1):
        coeffs[m + 1 + jj] = ((-1) ** jj * math.comb(m + jj, jj)
                              * math.comb(2 * m + 1, m - jj))
    d1 = coeffs[1:] * np.arange(1, kind + 1)  # exact: every value is an integer
    d2 = d1[1:] * np.arange(1, kind)
    return coeffs, d1, d2


# (interval start, width, value on the left plateau, value on the right)
_CUTOFF_GEOMETRY = {
    "phi": (1.0, 1.0, np.pi, 0.0),
    "lt1": (0.5, 0.5, 1.0, 0.0),
}


def eval_cutoff(which, r, order=0, profile=DEFAULT_PROFILE):
    """Cutoff profiles and their first two radial derivatives.

    which: "phi" (pi on r<=1, 0 on r>=2), "lt1" (1 on r<=1/2, 0 on r>=1),
    or "gt1" (= 1 - lt1 exactly). order: derivative order 0, 1 or 2.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"derivative order must be 0..2, got {order}")
    if which == "gt1":
        g = eval_cutoff("lt1", r, order, profile)
        return 1.0 - g if order == 0 else -g
    if which not in _CUTOFF_GEOMETRY:
        raise ValueError(f"unknown cutoff {which!r}")
    a, width, lo, hi = _CUTOFF_GEOMETRY[which]
    polys = _smoothstep_coeffs(profile.kind)

    def cutoff(r):
        s = np.clip((r - a) / width, 0.0, 1.0)
        inside = (r > a) & (r < a + width)
        c = polys[order]
        ramp = c[-1] + s * 0  # Horner in numpy.polynomial.polyval's order
        for ci in c[-2::-1]:
            ramp = ci + ramp * s
        if order == 0:
            return lo + (hi - lo) * np.where(inside, ramp, (r >= a + width) * 1.0)
        return np.where(inside, (hi - lo) / width ** order * ramp, 0.0)
    return _pointwise(cutoff, r)


def laplacian_phi_2d(r, profile=DEFAULT_PROFILE):
    """2D radial Laplacian of phi: phi'' + phi'/r, identically 0 outside the
    transition shell [1, 2]. This is the Laplacian that enters the lifted
    right-hand side F(v)."""
    def lap(r):
        d1 = eval_cutoff("phi", r, 1, profile)
        d2 = eval_cutoff("phi", r, 2, profile)
        return d2 + d1 / np.where(r > 0, r, 1.0)
    return _pointwise(lap, r)


def _a3(sin_y, r, p, out=None):
    """A_3(y, r) = 1 + alpha^2 sin^2(y) / r^2 (A_1 at y = u); needs r > 0.
    Squared and shifted in place (x * x is x ** 2, x + 1.0 is 1.0 + x);
    out, if given, takes the result and may be sin_y itself."""
    a = sin_y if p.alpha == 1.0 else np.multiply(p.alpha, sin_y, out=out)
    a = np.divide(a, r, out=out)
    a *= a
    a += 1.0
    return a


def _a4(y, r, p):
    """A_4(y, r) = 1 + y^2 Ftilde_0(r y) >= 1, smooth through r = 0."""
    return 1.0 + y * y * eval_Ftilde(0, r * y, p)


def _a5(y, cut, p):
    """A_5 >= 1 on the mesh of cut = cutoff_arrays(r, profile): A_4 on the
    near nodes (r <= 1), A_1 of u = r y + phi on the far ones. So A_5 on
    (v, r) is A_1 on u = r v + phi at every radius, the r -> 0 limit built in."""
    near, far, out = cut["near"], cut["far"], np.empty_like(y)
    out[near] = _a4(y[near], cut["r_near"], p)
    out[far] = _a3(np.sin(cut["r_far"] * y[far] + cut["phi_far"]), cut["r_far"], p)
    return out


def eval_N(u, u_t, u_r, r, p=DEFAULT_PARAMS):
    """The 2D nonlinearity N(u) away from the origin.

    N(u) = -2 r^-1 (1 - A_1^-1) u_r
           - r^-2 A_1^-1 [alpha^2 (u_t^2 - u_r^2) + 1] sin u cos u.
    """
    if np.any(np.asarray(r) <= 0):
        raise ValueError("N(u) requires r > 0; the v-form covers the origin")
    return _pointwise(lambda u, u_t, u_r, r: _n(u.copy(), u_t.copy(), u_r.copy(), r,
                                                -2.0 / r, r * r, p), u, u_t, u_r, r)


def _n(u, u_t, u_r, r, neg2_r, r_sq, p):
    """N(u) on float arrays with r > 0, given -2/r and r*r, in the operation
    order of eval_N's formula. It overwrites u, u_t and u_r and returns N in
    a fresh array."""
    sin_u = np.sin(u)
    a1 = _a3(sin_u, r, p)
    n = np.divide(1.0, a1)
    np.multiply(neg2_r, np.subtract(1.0, n, out=n), out=n)
    n *= u_r
    np.square(u_t, out=u_t)
    u_t -= np.square(u_r, out=u_r)
    if p.alpha != 1.0:
        np.multiply(p.alpha ** 2, u_t, out=u_t)
    u_t += 1.0
    u_t *= sin_u
    u_t *= np.cos(u, out=u)
    u_t /= np.multiply(r_sq, a1, out=a1)
    n -= u_t
    return n


def _nodes(mask):
    """The nodes where mask holds, as a slice when contiguous (always so on a
    sorted mesh), else as an index array."""
    idx = np.flatnonzero(mask)
    whole = idx.size and idx[-1] - idx[0] == idx.size - 1
    return slice(idx[0], idx[-1] + 1) if whole else idx


def cutoff_arrays(r, profile=DEFAULT_PROFILE):
    """The per-mesh table, the one place the cutoffs are evaluated on a mesh,
    every array read-only: "phi", "dphi", "lt1", "gt1" and "lap2phi" (the 2D
    Laplacian of phi) on every node; the branch nodes of F, "inner" (lt1 > 0)
    and "outer" (gt1 > 0), with "r_in", "lt1_in", "series_in" (_ftilde's
    Horner rows) on the inner ones and "r_out", "phi_out", "dphi_out",
    "gt1_out", "r2_out" (r ** 2 = r * r), "neg2_r_out" (-2 / r), "lap2phi_r_out"
    (lap2phi / r) on outer; the chart split, "near" (r <= 1) and "far" (r > 1),
    with "r_near", "r_far", "phi_far", "series_near" (the energy's Ftilde_0
    rows); the diagnostics' Japanese bracket "jb" ((1 + r^2)^(1/2), every
    node), and "decay" (r >= 1) with "decay_weight" (r^(3/2) there)."""
    r = np.asarray(r, dtype=float)
    cut = {
        "phi": eval_cutoff("phi", r, 0, profile),
        "dphi": eval_cutoff("phi", r, 1, profile),
        "lt1": eval_cutoff("lt1", r, 0, profile),
        "gt1": eval_cutoff("gt1", r, 0, profile),
        "lap2phi": laplacian_phi_2d(r, profile),
    }
    inner = cut["inner"] = _nodes(cut["lt1"] > 0.0)
    outer = cut["outer"] = _nodes(cut["gt1"] > 0.0)
    ro = r[outer]
    cut.update({f"{key}_out": cut[key][outer] for key in ("phi", "dphi", "gt1")})
    cut.update(r_in=r[inner], lt1_in=cut["lt1"][inner], r_out=ro, r2_out=ro ** 2,
               series_in=_series_rows(_BASE, r[inner].size),
               neg2_r_out=-2.0 / ro, lap2phi_r_out=cut["lap2phi"][outer] / ro)
    beyond_one = r > 1.0
    near, far = cut["near"], cut["far"] = _nodes(~beyond_one), _nodes(beyond_one)
    decay = cut["decay"] = _nodes(r >= 1.0)
    cut.update(r_near=r[near], r_far=r[far], phi_far=cut["phi"][far],
               series_near=_series_rows((0,), r[near].size),
               jb=np.sqrt(1.0 + r ** 2), decay_weight=r[decay] ** 1.5)
    for a in cut.values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return cut


_MESH_TABLE = {}  # (n_cells, r_max, profile) -> table: the last mesh asked for


def mesh_cutoffs(grid):
    """cutoff_arrays(grid.r, grid.profile), built once for the last mesh
    asked for: the run, its samples and its transforms share one table, and
    so do grids that differ only in alpha, which the table does not read."""
    key = (grid.n_cells, grid.r_max, grid.profile)
    cut = _MESH_TABLE.get(key)
    if cut is None:
        _MESH_TABLE.clear()
        cut = _MESH_TABLE[key] = cutoff_arrays(grid.r, grid.profile)
    return cut


def eval_F_given_cutoffs(v, v_t, v_r, cut, p=DEFAULT_PARAMS):
    """F(v) on the mesh of cut = cutoff_arrays(r, profile), built once per
    mesh (the evolver's hot path).

    Inner branch, on cut["inner"] (lt1 > 0, r < 1) from "r_in" and "lt1_in",
    Ftilde_0..3 as rows of one _ftilde block, Ftilde_4 = 2 Ftilde_2, in place:
        lt1/A_1 * [Ft_1 v^3 + Ft_2 v^5 + Ft_3 v (v_t^2 - v_r^2) + Ft_4 r v^4 v_r]
    Outer branch, added on cut["outer"] (gt1 > 0, r > 1/2) from the "*_out"
    constants, sin(u) taken once for A_1 and N, formed in place:
        gt1 * (v/r^2 + N(r v + phi)/r) + (2D Laplacian of phi)/r.
    """
    inner, outer = cut["inner"], cut["outer"]
    out = np.zeros(v.shape)
    vi, ri, vri = v[inner], cut["r_in"], v_r[inner]
    a1, s, ft2, ft3 = _ftilde(ri * vi, p, _BASE, cut["series_in"])
    ft4 = 2.0 * ft2 * ri
    a1 *= vi  # A_4 as (Ft_0 v) v + 1, not _a4's (v v) Ft_0: the pins fix this order
    a1 *= vi
    a1 += 1.0
    s *= vi ** 3
    s += np.multiply(ft2, vi ** 5, out=ft2)
    ft3 *= vi
    s += np.multiply(ft3, v_t[inner] ** 2 - vri ** 2, out=ft3)
    ft4 *= vi ** 4
    ft4 *= vri
    s += ft4
    out[inner] = np.divide(np.multiply(cut["lt1_in"], s, out=s), a1, out=s)
    ro, vo, r2 = cut["r_out"], v[outer], cut["r2_out"]
    u = ro * vo
    u += cut["phi_out"]
    u_r = ro * v_r[outer]
    np.add(vo, u_r, out=u_r)
    u_r += cut["dphi_out"]
    n = _n(u, ro * v_t[outer], u_r, ro, cut["neg2_r_out"], r2, p)
    n /= ro
    np.add(np.divide(vo, r2, out=u), n, out=n)
    np.multiply(cut["gt1_out"], n, out=n)
    out[outer] += np.add(n, cut["lap2phi_r_out"], out=n)
    return out


def eval_F_rhs(v, v_t, v_r, r, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE):
    """The full right-hand side F(v) of the lifted equation v_tt = lap4 v + F.

    Total function of (v, v_t, v_r, r >= 0); both cutoff branches blended
    exactly, finite at r = 0 where only the inner kernel sum survives.
    """
    def rhs(v, v_t, v_r, r):
        return eval_F_given_cutoffs(v, v_t, v_r, cutoff_arrays(r, profile), p)
    return _pointwise(rhs, v, v_t, v_r, r)


def _da1_dt(v, v_t, cut, p):
    """dA_1/dt along a trajectory on the mesh of cut = cutoff_arrays(r, profile):
    alpha^2 r^-2 sin(2u) u_t with u = r v + phi, u_t = r v_t, which on r <= 1
    is exactly the singularity-safe -2 v v_t Ftilde_3(r v)."""
    near, far, rn, rf = cut["near"], cut["far"], cut["r_near"], cut["r_far"]
    out = np.empty_like(v)
    out[near] = -2.0 * v[near] * v_t[near] * eval_Ftilde(3, rn * v[near], p)
    u = rf * v[far] + cut["phi_far"]
    out[far] = p.alpha ** 2 * np.sin(2.0 * u) * v_t[far] / rf
    return out


def _da1_dtt(v, v_t, v_tt, cut, p):
    """d^2A_1/dt^2 on the mesh of cut = cutoff_arrays(r, profile), given v_tt."""
    near, far, rn, rf = cut["near"], cut["far"], cut["r_near"], cut["r_far"]
    out = np.empty_like(v)
    vn, vtn = v[near], v_t[near]
    out[near] = (2.0 * p.alpha ** 2 * vtn * vtn * np.cos(2.0 * rn * vn)
                 - 2.0 * vn * v_tt[near] * eval_Ftilde(3, rn * vn, p))
    u = rf * v[far] + cut["phi_far"]
    out[far] = p.alpha ** 2 * (2.0 * np.cos(2.0 * u) * v_t[far] ** 2
                               + np.sin(2.0 * u) * v_tt[far] / rf)
    return out
