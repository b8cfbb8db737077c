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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "KernelParams",
    "CutoffProfile",
    "eval_Ftilde",
    "eval_cutoff",
    "laplacian_phi_2d",
    "eval_A",
    "eval_N",
    "eval_F_rhs",
    "cutoff_arrays",
    "eval_F_given_cutoffs",
    "dA1_dt",
    "dA1_dtt",
]


@dataclass(frozen=True)
class KernelParams:
    """The coupling constant alpha in front of the quartic term."""

    alpha: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class CutoffProfile:
    """Smoothstep order for the three radial cutoffs.

    kind is the polynomial order of the smoothstep (odd, >= 5); the default
    7 is C^3 at the junctions, enough for 4th-order stencils applied twice.
    """

    kind: int = 7

    def __post_init__(self):
        if self.kind < 5 or self.kind % 2 == 0:
            raise ValueError("smoothstep order must be odd and >= 5")


# Taylor coefficients in w = x^2 about x = 0 for the alpha-independent part
# of each kernel (Ftilde_1 carries no alpha; the others scale by alpha^2).
# Frozen from a 50-digit pre-build expansion; 8 terms, converged to
# rounding below every seam in _SEAM.
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
    3: np.array([
        -1.0, 0.6666666666666666, -0.13333333333333333,
        0.012698412698412698, -0.0007054673721340388,
        2.565335898669232e-05, -6.577784355562133e-07,
        1.2529113058213587e-08]),
    4: np.array([
        -0.6666666666666666, 0.17777777777777778, -0.01904761904761905,
        0.001128747795414462, -4.275559831115387e-05,
        1.1276201752392229e-06, -2.1925947851873777e-08,
        3.275585113258454e-10]),
}

# |x| below _SEAM[j] takes the series, the rest the direct formula. The
# kernels with a leading x^3-order cancellation (j = 1, 2, 4) keep the series
# up to 0.1: their direct formulas lose ~3/x^2 * eps there (a few 1e-12
# relative at x ~ 1e-2, above the 1e-12 agreement budget at the seam).
_SEAM = {0: 1e-2, 1: 0.1, 2: 0.1, 3: 1e-2, 4: 0.1}

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


@lru_cache(maxsize=None)
def _horner_table(js):
    """Series coefficients of the kernels js, highest order first: (8,
    len(js), 1) for one Horner pass over all, (8,) for a single kernel."""
    table = np.array([_SERIES[j][::-1] for j in js]).T
    return table[:, :, None] if len(js) > 1 else table[:, 0]


def _ftilde(x, p, js):
    """[Ftilde_j(x) for j in js] from one pass over a float64 array x: one
    mask per seam, one Horner pass, one sin/cos and one sin(2x).
    Ftilde_4 is returned as 2 * Ftilde_2, the same bytes as its own formula:
    scaling by 2 is exact and _SERIES[4] == 2 * _SERIES[2] bitwise."""
    base = sorted({2 if j == 4 else j for j in js})
    seams = [_SEAM[j] for j in base]
    ax = np.abs(x)
    small = {sw: ax < sw for sw in seams}
    near, far = small[max(seams)], ~small[min(seams)]
    w = x[near] ** 2
    table = _horner_table(tuple(base))
    acc = np.zeros(table.shape[1:2] + w.shape)
    for coeffs in table:
        acc = acc * w + coeffs
    acc = acc.reshape(len(base), w.size)
    # the direct formulas, arranged to avoid cancellation near the seam
    xf = x[far]
    s, c, x2 = np.sin(xf), np.cos(xf), 2.0 * xf
    s2 = np.sin(x2) if {1, 3} & set(base) else None
    direct = {0: lambda: (s / xf) ** 2, 1: lambda: (x2 - s2) / (2.0 * xf ** 3),
              2: lambda: (xf * c - s) * s / xf ** 4, 3: lambda: -s2 / x2}
    out = {}
    for row, (j, sw) in enumerate(zip(base, seams)):
        f = np.empty_like(x)
        f[small[sw]] = acc[row] if sw == max(seams) else acc[row][small[sw][near]]
        f[~small[sw]] = direct[j]() if sw == min(seams) else direct[j]()[~small[sw][far]]
        out[j] = f if j == 1 else f * p.alpha ** 2
    return [2.0 * out[2] if j == 4 else out[j] for j in js]


def eval_Ftilde(j, x, p=DEFAULT_PARAMS):
    """Evaluate the even analytic kernel Ftilde_j at x (scalar or array).

    For |x| below the seam _SEAM[j] (1e-2 for j = 0, 3; 0.1 for j = 1, 2,
    4) the 8-term Taylor series (Horner in x^2) takes over; both branches
    agree to better than 1e-12 relative at the seam. Ftilde_1 is alpha-free,
    the other four scale by alpha^2. One kernel of the one-pass evaluator
    _ftilde, from which eval_F_given_cutoffs takes all five.
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
    d1 = np.polynomial.polynomial.polyder(coeffs)
    d2 = np.polynomial.polynomial.polyder(d1)
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
        ramp = np.polynomial.polynomial.polyval(s, polys[order])
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


def _a3(sin_y, r, p):
    """A_3(y, r) = 1 + alpha^2 sin^2(y) / r^2 (A_1 at y = u); needs r > 0."""
    return 1.0 + (p.alpha * sin_y / r) ** 2


def _a4(y, r, p):
    """A_4(y, r) = 1 + y^2 Ftilde_0(r y), smooth through r = 0."""
    return 1.0 + y * y * eval_Ftilde(0, r * y, p)


def _u_chart(v, r, profile):
    """(far, u): the mask r > 1, where the coefficients switch back to the
    u chart, and u = r v + phi on those nodes."""
    far = r > 1.0
    return far, r[far] * v[far] + eval_cutoff("phi", r[far], 0, profile)


def eval_A(which, y, r, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE):
    """The quasilinear coefficient functions, all >= 1.

    which=1: A_1(u=y, r) = 1 + alpha^2 sin^2(y)/r^2           (needs r > 0)
    which=4: A_4(y, r) = 1 + y^2 Ftilde_0(r y), smooth through r = 0
    which=5: A_5(y, r) = A_4(y, r) on r <= 1, else A_1(r y + phi(r), r).

    A_5 evaluated on (v, r) equals A_1 evaluated on the reconstructed
    u = r v + phi at every radius, with the r -> 0 limit built in.
    """
    if which not in (1, 4, 5):
        raise ValueError(f"A-index must be 1, 4 or 5, got {which}")

    def coefficient(y, r):
        if which == 1:
            if np.any(r <= 0):
                raise ValueError("A_1 requires r > 0; use A_4/A_5 at the origin")
            return _a3(np.sin(y), r, p)
        out = _a4(y, r, p)
        if which == 5:
            far, u = _u_chart(y, r, profile)
            out[far] = _a3(np.sin(u), r[far], p)
        return out
    return _pointwise(coefficient, y, r)


def eval_N(u, u_t, u_r, r, p=DEFAULT_PARAMS):
    """The 2D nonlinearity N(u) away from the origin.

    N(u) = -2 r^-1 (1 - A_1^-1) u_r
           - r^-2 A_1^-1 [alpha^2 (u_t^2 - u_r^2) + 1] sin u cos u.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("N(u) requires r > 0; the v-form covers the origin")
    u = np.asarray(u, dtype=float)
    sin_u = np.sin(u)
    a1 = _a3(sin_u, r, p)
    return (-2.0 / r * (1.0 - 1.0 / a1) * u_r
            - (p.alpha ** 2 * (np.asarray(u_t) ** 2 - np.asarray(u_r) ** 2) + 1.0)
            * sin_u * np.cos(u) / (r * r * a1))


def _nodes(mask):
    """The nodes where mask holds, as a slice when contiguous (always so on a
    sorted mesh), else as an index array."""
    idx = np.flatnonzero(mask)
    whole = idx.size and idx[-1] - idx[0] == idx.size - 1
    return slice(idx[0], idx[-1] + 1) if whole else idx


def cutoff_arrays(r, profile=DEFAULT_PROFILE):
    """The per-mesh table eval_F_given_cutoffs reads: the radii "r", every
    cutoff sample, and the branch nodes "inner" (lt1 > 0) and "outer"
    (gt1 > 0)."""
    r = np.asarray(r, dtype=float)
    cut = {
        "r": r,
        "phi": eval_cutoff("phi", r, 0, profile),
        "dphi": eval_cutoff("phi", r, 1, profile),
        "lt1": eval_cutoff("lt1", r, 0, profile),
        "gt1": eval_cutoff("gt1", r, 0, profile),
        "lap2phi": laplacian_phi_2d(r, profile),
    }
    cut["inner"], cut["outer"] = _nodes(cut["lt1"] > 0.0), _nodes(cut["gt1"] > 0.0)
    return cut


def eval_F_given_cutoffs(v, v_t, v_r, cut, p=DEFAULT_PARAMS):
    """F(v) on the mesh of cut = cutoff_arrays(r, profile), built once per
    mesh (the evolver's hot path).

    Inner branch, only on the nodes where lt1 > 0 (r < 1), all five kernels
    from one pass with the series/direct seam of eval_Ftilde:
        lt1/A_1 * [Ft_1 v^3 + Ft_2 v^5 + Ft_3 v (v_t^2 - v_r^2)
                   + Ft_4 r v^4 v_r]
    Outer branch, added only where gt1 > 0 (r > 1/2, so division is safe),
    sin(u) taken once for A_1 and N:  gt1 * (v/r^2 + N(r v + phi)/r)
    plus the shell source (2D Laplacian of phi)/r on the transition shell.
    A non-finite inner value at r >= 1 (lt1 = 0) no longer spreads into F
    through 0 * inf; evolve.run checks (v, v_t) after every step, so it
    still halts the run on the step that makes it.
    """
    r, inner, outer = cut["r"], cut["inner"], cut["outer"]
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    vi, ri, vri = v[inner], r[inner], v_r[inner]
    ft0, ft1, ft2, ft3, ft4 = _ftilde(ri * vi, p, range(5))
    a1 = 1.0 + ft0 * vi * vi
    s = (ft1 * vi ** 3 + ft2 * vi ** 5 + ft3 * vi * (v_t[inner] ** 2 - vri ** 2)
         + ft4 * ri * vi ** 4 * vri)
    out[inner] = cut["lt1"][inner] * s / a1
    ro, vo = r[outer], v[outer]
    u = ro * vo + cut["phi"][outer]
    n = eval_N(u, ro * v_t[outer], vo + ro * v_r[outer] + cut["dphi"][outer], ro, p)
    out[outer] += cut["gt1"][outer] * (vo / ro ** 2 + n / ro) + cut["lap2phi"][outer] / ro
    return out


def eval_F_rhs(v, v_t, v_r, r, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE):
    """The full right-hand side F(v) of the lifted equation v_tt = lap4 v + F.

    Total function of (v, v_t, v_r, r >= 0); both cutoff branches blended
    exactly, finite at r = 0 where only the inner kernel sum survives.
    """
    def rhs(v, v_t, v_r, r):
        return eval_F_given_cutoffs(v, v_t, v_r, cutoff_arrays(r, profile), p)
    return _pointwise(rhs, v, v_t, v_r, r)


def dA1_dt(v, v_t, r, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE):
    """Time derivative of A_1 along a trajectory, singularity-safe.

    dA_1/dt = alpha^2 r^-2 sin(2u) u_t with u = r v + phi, u_t = r v_t;
    on r <= 1 this reduces exactly to -2 v v_t Ftilde_3(r v).
    """
    def rate(v, v_t, r):
        out = -2.0 * v * v_t * eval_Ftilde(3, r * v, p)
        far, u = _u_chart(v, r, profile)
        out[far] = p.alpha ** 2 * np.sin(2.0 * u) * v_t[far] / r[far]
        return out
    return _pointwise(rate, v, v_t, r)


def dA1_dtt(v, v_t, v_tt, r, p=DEFAULT_PARAMS, profile=DEFAULT_PROFILE):
    """Second time derivative of A_1; v_tt supplied by the caller."""
    def rate(v, v_t, v_tt, r):
        out = (2.0 * p.alpha ** 2 * v_t * v_t * np.cos(2.0 * r * v)
               - 2.0 * v * v_tt * eval_Ftilde(3, r * v, p))
        far, u = _u_chart(v, r, profile)
        out[far] = p.alpha ** 2 * (2.0 * np.cos(2.0 * u) * v_t[far] ** 2
                                   + np.sin(2.0 * u) * v_tt[far] / r[far])
        return out
    return _pointwise(rate, v, v_t, v_tt, r)
