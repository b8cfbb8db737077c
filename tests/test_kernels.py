"""Removable-singularity kernels, cutoffs and the pointwise nonlinearity."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faddeevlab import diagnostics as diag
from faddeevlab import kernels
from faddeevlab.kernels import (_SERIES, DEFAULT_PARAMS, DEFAULT_PROFILE,
                                MAX_CUTOFF_ORDER, CutoffProfile, KernelParams, _a3,
                                _ftilde, _series_rows,
                                cutoff_arrays, dA1_dt, dA1_dtt,
                                eval_A, eval_cutoff, eval_F_given_cutoffs,
                                eval_F_rhs, eval_Ftilde, eval_N,
                                laplacian_phi_2d, mesh_cutoffs)
from faddeevlab.grid import FieldState, RadialGrid, d_r
from faddeevlab.transform import (compute_Phi, compute_Phi_t,
                                  residual_Phi_t_wave, residual_Phi_tt_wave,
                                  residual_Phi_ttt_wave, residual_Phi_wave,
                                  residual_v_equation, u_to_v, v_to_u)

LIMITS = {
    0: lambda a: a ** 2,
    1: lambda a: 2.0 / 3.0,
    2: lambda a: -(a ** 2) / 3.0,
    3: lambda a: -(a ** 2),
    4: lambda a: -2.0 * a ** 2 / 3.0,
}


# ---------------------------------------------------------------------------
# Ftilde kernels


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("j", range(5))
def test_kernel_limit_at_zero(j, alpha):
    p = KernelParams(alpha=alpha)
    assert eval_Ftilde(j, 0.0, p) == pytest.approx(LIMITS[j](alpha), rel=1e-12)


@pytest.mark.parametrize("j", range(5))
def test_series_and_direct_branches_agree(j):
    # Past its seam (1e-2 or 0.1) the evaluator takes the direct formula;
    # the 8-term series it uses below the seam must agree with it there.
    assert len(_SERIES[j]) == 8
    xs = np.linspace(0.02, 0.4, 77)
    series = np.zeros_like(xs)
    for c in _SERIES[j][::-1]:
        series = series * xs ** 2 + c
    got = eval_Ftilde(j, xs, DEFAULT_PARAMS)
    assert np.max(np.abs(got - series) / np.abs(series)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(j=st.integers(0, 4), x=st.floats(-100.0, 100.0))
def test_kernels_are_even(j, x):
    left = eval_Ftilde(j, -x, DEFAULT_PARAMS)
    right = eval_Ftilde(j, x, DEFAULT_PARAMS)
    assert left == right or abs(left - right) <= 1e-15 * abs(right)


@pytest.mark.parametrize("j", range(5))
def test_far_field_envelope_decays(j):
    xs = np.linspace(0.0, 100.0, 8001)
    vals = np.abs(eval_Ftilde(j, xs, DEFAULT_PARAMS))
    near = vals[xs <= 10.0].max()
    blocks = [vals[(xs >= a) & (xs < 2.0 * a)].max() for a in (10.0, 20.0, 40.0)]
    assert near >= blocks[0] >= blocks[1] >= blocks[2]


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(alpha=0.0)
    # the series seams and length are constants: alpha is the only setting
    assert [f.name for f in dataclasses.fields(KernelParams)] == ["alpha"]


# ---------------------------------------------------------------------------
# cutoffs


def test_cutoff_plateaus(profile):
    assert eval_cutoff("phi", 0.0, 0, profile) == math.pi
    assert eval_cutoff("phi", 1.0, 0, profile) == math.pi
    assert eval_cutoff("phi", 2.0, 0, profile) == 0.0
    assert eval_cutoff("phi", 3.0, 0, profile) == 0.0
    assert eval_cutoff("lt1", 0.5, 0, profile) == 1.0
    assert eval_cutoff("lt1", 1.0, 0, profile) == 0.0
    assert eval_cutoff("gt1", 0.25, 0, profile) == 0.0
    assert eval_cutoff("gt1", 3.0, 0, profile) == 1.0
    for which in ("phi", "lt1", "gt1"):
        assert eval_cutoff(which, 0.2, 1, profile) == 0.0
        assert eval_cutoff(which, 5.0, 2, profile) == 0.0


def test_cutoff_monotone_and_bounded(profile):
    r = np.linspace(0.0, 3.0, 601)
    phi = eval_cutoff("phi", r, 0, profile)
    assert np.all(np.diff(phi) <= 0.0)
    assert np.all((phi >= 0.0) & (phi <= math.pi))
    lt1 = eval_cutoff("lt1", r, 0, profile)
    gt1 = eval_cutoff("gt1", r, 0, profile)
    assert np.array_equal(lt1 + gt1, np.ones_like(r))


def test_cutoff_rejects_bad_arguments(profile):
    with pytest.raises(ValueError):
        eval_cutoff("phi", 1.0, 3, profile)
    with pytest.raises(ValueError):
        eval_cutoff("psi", 1.0, 0, profile)
    with pytest.raises(ValueError):
        CutoffProfile(kind=6)
    with pytest.raises(ValueError):
        CutoffProfile(kind=3)
    assert CutoffProfile(kind=MAX_CUTOFF_ORDER).kind == 21
    with pytest.raises(ValueError,
                       match=r"^kernels.cutoff_order must be odd and in 5..21, got 23$"):
        CutoffProfile(kind=MAX_CUTOFF_ORDER + 2)


def _fd4(f, r, h):
    return (f(r - 2 * h) - 8 * f(r - h) + 8 * f(r + h) - f(r + 2 * h)) / (12 * h)


@pytest.mark.parametrize("which,rs", [("phi", (1.2, 1.5, 1.8)),
                                      ("lt1", (0.6, 0.75, 0.9))])
def test_cutoff_derivatives_match_finite_differences(which, rs, profile):
    h = 1e-3
    for r in rs:
        d1 = eval_cutoff(which, r, 1, profile)
        fd1 = _fd4(lambda x: eval_cutoff(which, x, 0, profile), r, h)
        assert abs(d1 - fd1) <= 1e-8
        d2 = eval_cutoff(which, r, 2, profile)
        fd2 = _fd4(lambda x: eval_cutoff(which, x, 1, profile), r, h)
        assert abs(d2 - fd2) <= 1e-8 * max(1.0, abs(d2))


def test_laplacian_phi_supported_on_transition_shell(profile):
    r = np.array([0.0, 0.5, 0.999, 2.001, 4.0])
    assert np.array_equal(laplacian_phi_2d(r, profile), np.zeros(5))
    r = 1.5
    d1 = _fd4(lambda x: eval_cutoff("phi", x, 0, profile), r, 1e-3)
    d2 = _fd4(lambda x: eval_cutoff("phi", x, 1, profile), r, 1e-3)
    assert laplacian_phi_2d(r, profile) == pytest.approx(d2 + d1 / r, abs=1e-8)


# ---------------------------------------------------------------------------
# quasilinear coefficients


@settings(max_examples=200, deadline=None)
@given(y=st.floats(-50.0, 50.0), r=st.floats(0.0, 100.0))
def test_A4_A5_at_least_one(y, r):
    assert eval_A(4, y, r) >= 1.0
    assert eval_A(5, y, r) >= 1.0


def test_A1_A3_require_positive_radius():
    with pytest.raises(ValueError):
        eval_A(1, 0.3, 0.0)
    with pytest.raises(ValueError):
        eval_A(1, 0.3, -1.0)
    with pytest.raises(ValueError):
        eval_A(2, 0.3, 1.0)
    with pytest.raises(ValueError):  # A_3 is A_1 with a free argument
        eval_A(3, 0.3, 1.0)


def test_A5_matches_A1_on_reconstructed_u(params, profile):
    r = np.linspace(0.05, 6.0, 301)
    v = 0.4 * np.exp(-r ** 2) + 0.1
    u = r * v + eval_cutoff("phi", r, 0, profile)
    a5 = eval_A(5, v, r, params, profile)
    a1 = eval_A(1, u, r, params)
    assert np.max(np.abs(a5 - a1)) <= 1e-12


def test_dA1_dt_matches_path_derivative(params, profile):
    r = np.array([0.3, 0.7, 1.5, 3.0])
    v, vt = np.array([0.4, -0.2, 0.3, 0.1]), np.array([0.5, 0.3, -0.4, 0.2])
    eps = 1e-5
    fd = (eval_A(5, v + eps * vt, r, params, profile)
          - eval_A(5, v - eps * vt, r, params, profile)) / (2 * eps)
    assert np.max(np.abs(dA1_dt(v, vt, r, params, profile) - fd)) <= 2e-8


def test_dA1_dtt_matches_path_derivative(params, profile):
    r = np.array([0.3, 0.7, 1.5, 3.0])
    v = np.array([0.4, -0.2, 0.3, 0.1])
    vt = np.array([0.5, 0.3, -0.4, 0.2])
    vtt = np.array([-0.3, 0.6, 0.2, -0.5])
    eps = 1e-4

    def along(t):
        return eval_A(5, v + t * vt + 0.5 * t * t * vtt, r, params, profile)

    fd = (along(eps) - 2.0 * along(0.0) + along(-eps)) / eps ** 2
    assert np.max(np.abs(dA1_dtt(v, vt, vtt, r, params, profile) - fd)) <= 1e-6


# ---------------------------------------------------------------------------
# the 2D nonlinearity and the lifted right-hand side


def test_N_closed_form_points(params):
    assert eval_N(math.pi, 0.0, 0.0, 1.0, params) == pytest.approx(0.0, abs=1e-15)
    assert eval_N(math.pi / 2, 0.0, 0.0, 2.0, params) == pytest.approx(0.0, abs=1e-15)
    # A_1 = 3/2 at u = pi/4, r = 1, so N = -(sin u cos u)/A_1 = -1/3
    assert eval_N(math.pi / 4, 0.0, 0.0, 1.0, params) == pytest.approx(-1.0 / 3.0,
                                                                       rel=1e-12)


def test_N_rejects_origin(params):
    with pytest.raises(ValueError):
        eval_N(1.0, 0.0, 0.0, 0.0, params)


def test_two_path_identity_spot(params, profile):
    v, r = 0.3, 0.25
    f = eval_F_rhs(v, 0.0, 0.0, r, params, profile)
    direct = v / r ** 2 + eval_N(r * v + math.pi, 0.0, v, r, params) / r
    assert abs(f - direct) <= 1e-10


def test_two_path_identity_random(params, profile):
    rng = np.random.default_rng(7)
    n = 500
    v, vt, vr = (rng.uniform(-2.0, 2.0, n) for _ in range(3))
    r = rng.uniform(0.05, 0.45, n)
    f = eval_F_rhs(v, vt, vr, r, params, profile)
    direct = v / r ** 2 + eval_N(r * v + math.pi, r * vt, v + r * vr, r, params) / r
    assert np.all(np.abs(f - direct) <= 1e-9 * (1.0 + np.abs(f)))


def test_F_vanishes_off_transition_shell(params, profile):
    z = np.zeros(4)
    r_exact = np.array([0.0, 0.3, 0.5, 2.0])
    assert np.array_equal(eval_F_rhs(z, z, z, r_exact, params, profile), z)
    r_near = np.array([0.6, 0.9, 0.999, 5.0])
    f = eval_F_rhs(z, z, z, r_near, params, profile)
    assert np.max(np.abs(f)) <= 1e-14  # sin(pi) roundoff through N(phi)
    r_shell = np.linspace(1.05, 1.95, 7)
    f_shell = eval_F_rhs(np.zeros(7), np.zeros(7), np.zeros(7), r_shell,
                         params, profile)
    assert np.min(np.abs(f_shell)) > 0.1


def test_F_origin_limit_closed_form(params, profile):
    v, vt, vr = 0.4, 0.3, -0.2
    a = params.alpha
    expected = (2.0 / 3.0 * v ** 3 - a ** 2 / 3.0 * v ** 5
                - a ** 2 * v * (vt ** 2 - vr ** 2)) / (1.0 + a ** 2 * v ** 2)
    f0 = eval_F_rhs(v, vt, vr, 0.0, params, profile)
    assert f0 == pytest.approx(expected, rel=1e-13)
    assert eval_F_rhs(v, vt, vr, 1e-4, params, profile) == pytest.approx(
        f0, abs=1e-3)


def test_F_hot_path_matches_wrapper(params, profile):
    rng = np.random.default_rng(3)
    r = np.sort(rng.uniform(0.0, 5.0, 64))
    v, vt, vr = (rng.uniform(-1.0, 1.0, 64) for _ in range(3))
    cut = cutoff_arrays(r, profile)
    assert np.array_equal(eval_F_given_cutoffs(v, vt, vr, cut, params),
                          eval_F_rhs(v, vt, vr, r, params, profile))


# ---------------------------------------------------------------------------
# the right-hand side as it stood before the one-pass kernels and the sliced
# branches, kept as an oracle (with the series seams and length now fixed):
# the hot path must match it byte for byte


def _old_ftilde_direct(j, x):
    """Direct-formula branch, arranged to avoid cancellation near the seam."""
    s, c = np.sin(x), np.cos(x)
    if j == 0:
        t = s / x
        return t * t
    if j == 1:
        return (2.0 * x - np.sin(2.0 * x)) / (2.0 * x ** 3)
    if j == 2:
        return (x * c - s) * s / x ** 4
    if j == 3:
        return -np.sin(2.0 * x) / (2.0 * x)
    return 2.0 * (x * c - s) * s / x ** 4


def _old_eval_Ftilde(j, x, p):
    """eval_Ftilde on a float64 array, one kernel per call."""
    switch = 0.1 if j in (1, 2, 4) else 1e-2

    def kernel(x):
        out = np.empty_like(x)
        small = np.abs(x) < switch
        if small.any():
            w = x[small] ** 2
            acc = np.zeros_like(w)
            for c in _SERIES[j][:8][::-1]:
                acc = acc * w + c
            out[small] = acc
        big = ~small
        if big.any():
            out[big] = _old_ftilde_direct(j, x[big])
        if j != 1:
            out *= p.alpha ** 2
        return out
    return kernel(x)


def _old_eval_F_given_cutoffs(v, v_t, v_r, r, cut, p=DEFAULT_PARAMS):
    """eval_F_given_cutoffs: both branches on every node, five kernel calls."""
    eval_Ftilde = _old_eval_Ftilde
    v = np.asarray(v, dtype=float)
    x = r * v
    a1 = 1.0 + eval_Ftilde(0, x, p) * v * v
    s = (eval_Ftilde(1, x, p) * v ** 3
         + eval_Ftilde(2, x, p) * v ** 5
         + eval_Ftilde(3, x, p) * v * (np.asarray(v_t) ** 2 - np.asarray(v_r) ** 2)
         + eval_Ftilde(4, x, p) * r * v ** 4 * v_r)
    out = cut["lt1"] * s / a1
    m = cut["gt1"] > 0.0
    if m.any():
        rm = r[m]
        um = rm * v[m] + cut["phi"][m]
        utm = rm * np.asarray(v_t)[m]
        urm = v[m] + rm * np.asarray(v_r)[m] + cut["dphi"][m]
        out[m] += (cut["gt1"][m] * (v[m] / rm ** 2 + eval_N(um, utm, urm, rm, p) / rm)
                   + cut["lap2phi"][m] / rm)
    return out


def _switch_probes():
    """0, both neighbours of each seam and the seam itself, a sweep across
    the seams, and large arguments; every value with both signs."""
    pts = [0.0, 1e3, 12345.678, 1e8, 1e30]
    for sw in (1e-2, 0.1):
        pts += [np.nextafter(sw, 0.0), sw, np.nextafter(sw, 1.0), 0.9 * sw, 1.1 * sw]
    half = np.concatenate([pts, np.linspace(1e-4, 4.0, 97)])
    return np.concatenate([half, -half])


def _block_inputs():
    """At 1, 2 and 52 nodes: all below every seam, all above every seam, and
    a draw from _switch_probes; then every probe at once."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 52):
        sign = rng.choice([-1.0, 1.0], n)
        yield sign * rng.uniform(0.0, 1e-3, n)
        yield sign * np.exp(rng.uniform(np.log(0.2), np.log(1e8), n))
        yield rng.choice(_switch_probes(), n)
    yield _switch_probes()


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_fused_kernels_match_single_kernels(alpha):
    """The block F reads (rows 0..3, with the mesh table's Horner rows), the
    fused list and eval_Ftilde all give the old one-kernel evaluator's bytes."""
    p = KernelParams(alpha=alpha)
    for x in _block_inputs():
        old = [_old_eval_Ftilde(j, x, p).tobytes() for j in range(5)]
        block = _ftilde(x, p, range(4), _series_rows((0, 1, 2, 3), x.size))
        assert [row.tobytes() for row in block] == old[:4]
        assert [f.tobytes() for f in _ftilde(x, p, range(5))] == old
        assert [eval_Ftilde(j, x, p).tobytes() for j in range(5)] == old


def _old_a3(sin_y, r, alpha):
    return (alpha * sin_y / r) ** 2 + 1.0


def _old_eval_N(u, u_t, u_r, r, alpha):
    """eval_N with every alpha multiply made, in _n's operation order."""
    sin_u = np.sin(u)
    a1 = _old_a3(sin_u, r, alpha)
    n = -2.0 / r * (1.0 - 1.0 / a1) * u_r
    return n - (alpha ** 2 * (u_t ** 2 - u_r ** 2) + 1.0) * sin_u * np.cos(u) / (r * r * a1)


def test_alpha_one_skips_only_multiplies_by_one():
    """At alpha = 1, A_3 and N drop their alpha and alpha^2 multiplies; the
    bytes are those of the multiplied form, also on signed zeros, subnormals
    and huge values."""
    rng = np.random.default_rng(23)
    special = np.array([0.0, -0.0, 5e-324, -1e-310, 1e-150, 1e150, -1e300, np.pi])
    y, u_t, u_r = (np.concatenate([special, rng.uniform(-4.0, 4.0, 200)])
                   for _ in range(3))
    r = np.concatenate([[1e-300, 1e-5, 0.5, 1.0, 2.0, 40.0, 1e8, 1e300],
                        rng.uniform(0.01, 10.0, 200)])
    one = KernelParams(alpha=1.0)
    assert _a3(np.sin(y), r, one).tobytes() == _old_a3(np.sin(y), r, 1.0).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert eval_N(y, u_t, u_r, r, one).tobytes() == _old_eval_N(
            y, u_t, u_r, r, 1.0).tobytes()


def test_kernel_tables_do_not_grow_with_the_node_count():
    """The Horner rows of F's inner branch live in the per-mesh table; no
    kernel cache grows when eval_Ftilde meets 200 distinct lengths."""
    caches = [f for f in vars(kernels).values() if hasattr(f, "cache_info")]
    assert caches  # the scan sees the module's caches
    for j in range(5):
        eval_Ftilde(j, np.linspace(-1.0, 1.0, 3))
    _ftilde(np.linspace(-1.0, 1.0, 3), DEFAULT_PARAMS, range(5))
    before = [f.cache_info().currsize for f in caches]
    for n in range(1, 201):
        x = np.linspace(-0.3, 0.3, n)
        for j in range(5):
            eval_Ftilde(j, x)
        _ftilde(x, DEFAULT_PARAMS, range(5))
    assert [f.cache_info().currsize for f in caches] == before


F_ORACLE_RADII = {
    "mesh_from_origin": lambda rng: RadialGrid(128, 4.0).r,
    "unsorted": lambda rng: rng.uniform(0.0, 3.0, 97),
    "below_one_half": lambda rng: np.sort(rng.uniform(0.0, 0.45, 64)),
    "above_one": lambda rng: np.sort(rng.uniform(1.01, 6.0, 64)),
}


@pytest.mark.parametrize("case", sorted(F_ORACLE_RADII))
def test_F_matches_its_old_formula(case, profile):
    rng = np.random.default_rng(11)
    r = F_ORACLE_RADII[case](rng)
    v, vt, vr = (rng.uniform(-1.5, 1.5, r.size) for _ in range(3))
    p = KernelParams(alpha=0.7)
    cut = cutoff_arrays(r, profile)
    old = _old_eval_F_given_cutoffs(v, vt, vr, r, cut, p).tobytes()
    assert eval_F_given_cutoffs(v, vt, vr, cut, p).tobytes() == old
    # a mesh gives two slices; scattered nodes fall back to index arrays
    if case in ("mesh_from_origin", "unsorted"):
        nodes = (cut["inner"], cut["outer"])
        assert all(isinstance(n, slice) for n in nodes) == (case != "unsorted")


# ---------------------------------------------------------------------------
# bitwise guards: refactors of the evaluators must keep every byte


# sha256 of the float64 bytes of each output below (numpy 2.4 on x86-64).
# A refactor of the evaluators keeps every one; a change here is a change
# of numerics and needs its own argued entry in CHANGES.md.
BITWISE_PINS = {
    "eval_A1": "d54c3f8fce46a9ebf2e8ca3d82b95b7c77369050c3ddd2a212f379765c140b60",
    "eval_A4": "0b03bbaf0dac0cd0f8c8bcdb4ce29ced9aaf199db7fc8354ad6121a0d11a4e28",
    "eval_A5": "8ca99f5bdc37d442a7d7d58b756398b3bf464b67a770cffc6cb20059a13937cd",
    "eval_N": "7a2241b88da4f2c169256af9804e100f85ec66ce8ba51f85a8bec1627093a765",
    "dA1_dt": "a0c41d813c617ca390527b148a1bd04654597fc8d24b765114313658b24517d0",
    "dA1_dtt": "863d9b7d5b650e4e6a35d7eef0a6df48f79cf36cbf9ce69e1904c35711d9121b",
    "eval_F_rhs": "628acd584ae9c9351a22274d891f5b541e590d7425cfa36f9581761389258742",
    "laplacian_phi_2d": "1822f01a3f4357da5f9bb87e6bbc32c9f5aee399c7616637e51815e866b9db47",
    "cutoff_phi": "5d188424b57c277647f0d2139c5217413ab97a848137c9a6b3fd17e337366081",
    "cutoff_dphi": "a03c8025680cd089ab4e807aaa1680c9e284db2eb8cca8a84b3a25d041a30c20",
    "cutoff_lt1": "45c20247771924c6ae35c26cc5c0344146a6d380d96cf9e598176b2a2456fc98",
    "cutoff_gt1": "dca3821bd022671296c3bda5b8b30dbd2c632ebc7ddfb5fc493576c5dfc28f10",
    "cutoff_lap2phi": "1822f01a3f4357da5f9bb87e6bbc32c9f5aee399c7616637e51815e866b9db47",
    "compute_Phi": "2ca6dfdc0a47dba09c721cb877b0f692594953e8a5ae26b38a98614004a88fa4",
    "compute_Phi_t": "00be72e352009164fabd0950598bba526940cc79282042141e81949b56e6f271",
    "residual_Phi": "8a1472ccc1898fc22be58a0345f5b562037242b7cffbaf0e4abc1f0dbd3403b7",
    "residual_Phi_t": "b71f4ec5bed1f89bacc71a63df042d481b18d5ccbe944b6b5c9e6c694a1e770e",
    "residual_Phi_tt": "0b580e88f548f5931e097bfbd15a05c2713715385f41045cb4dfaf30d771314b",
    "residual_Phi_ttt": "50698a1061158896c63e6e1fff0101069c082eac38c79ae5b08796315ae9f138",
}


def _bitwise_outputs():
    # r spans the origin-safe chart (r <= 1), the u chart (r > 1) and the
    # shell; alpha != 1 so that the placement of alpha shows in the bytes
    rng = np.random.default_rng(0)
    n = 257
    r = np.sort(rng.uniform(0.01, 3.0, n))
    y, vt, vr, vtt = (rng.uniform(-2.0, 2.0, n) for _ in range(4))
    p = KernelParams(alpha=0.7)
    out = {f"eval_A{w}": eval_A(w, y, r, p) for w in (1, 4, 5)}
    out["eval_N"] = eval_N(y, vt, vr, r, p)
    out["dA1_dt"] = dA1_dt(y, vt, r, p)
    out["dA1_dtt"] = dA1_dtt(y, vt, vtt, r, p)
    out["eval_F_rhs"] = eval_F_rhs(y, vt, vr, r, p)
    out["laplacian_phi_2d"] = laplacian_phi_2d(r)
    cut = cutoff_arrays(r)
    for key in ("phi", "dphi", "lt1", "gt1", "lap2phi"):
        out[f"cutoff_{key}"] = cut[key]
    # seven equally spaced time levels of a Gaussian drifting in amplitude
    g = RadialGrid(64, 4.0)
    env = np.exp(-g.r ** 2)
    a, b = rng.uniform(0.2, 0.4), rng.uniform(-0.3, 0.3)
    dt = 0.01
    bundles = [FieldState((a + b * k * dt) * env, b * env, g, k * dt)
               for k in range(7)]
    st = bundles[3]
    out["compute_Phi"] = compute_Phi(st, p)
    out["compute_Phi_t"] = compute_Phi_t(st, p)
    out["residual_Phi"] = residual_Phi_wave(bundles[2:5], p)
    out["residual_Phi_t"] = residual_Phi_t_wave(bundles[2:5], p)
    out["residual_Phi_tt"] = residual_Phi_tt_wave(bundles[1:6], p)
    out["residual_Phi_ttt"] = residual_Phi_ttt_wave(bundles, p)
    return out


def test_evaluators_are_bitwise_pinned():
    got = {key: hashlib.sha256(np.asarray(val, dtype=np.float64).tobytes()).hexdigest()
           for key, val in _bitwise_outputs().items()}
    assert got == BITWISE_PINS


# ---------------------------------------------------------------------------
# the mesh cutoff table and the r = 1 chart split


def test_mesh_table_is_one_read_only_table_per_mesh(profile):
    g = RadialGrid(64, 4.0)
    cut = mesh_cutoffs(g, profile)
    assert mesh_cutoffs(RadialGrid(64, 4.0), profile) is cut  # equal grids share it
    fresh = cutoff_arrays(g.r, profile)
    assert cut.keys() == fresh.keys()
    for key, val in cut.items():
        if isinstance(val, np.ndarray):
            assert val.tobytes() == fresh[key].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                val[...] = 0.0
    # r = i / 16: the v chart on r <= 1, nodes 0..16; the u chart beyond
    assert (cut["near"], cut["far"]) == (slice(0, 17), slice(17, 65))
    assert np.array_equal(cut["phi_far"], cut["phi"][17:])
    assert cut["phi"][cut["near"]].tobytes() == eval_cutoff(
        "phi", g.r[:17], 0, profile).tobytes()  # elementwise: a subset keeps its bytes


def test_mesh_table_without_a_far_node(profile):
    cut = mesh_cutoffs(RadialGrid(32, 1.0), profile)
    assert cut["near"] == slice(0, 33)
    assert cut["r_far"].size == cut["phi_far"].size == 0


# sha256 of the float64 bytes of each output below (numpy 2.4 on x86-64), as
# the evaluators gave them when each found phi and the r = 1 split on its
# own; the same rules as BITWISE_PINS.
EDGE_PINS = {
    "v_to_u": "c1a3af4533e8e74a67e584801406a52e985db5a97038a1a65ba7020f49bb90d3",
    "u_to_v": "f24504934eb94fde2e114ac0f30928b8bf357a169d4120597489b7808466954a",
    "energy": "b9d4ad0f63d14b42133e2737ad1bfdf5ebc78bbcda41f6f9f3d0a675da52065a",
    "decay_report": "de39eb06ad4a28959dae2013224890f48e432e164d6d8e6a5f9d93e6bf94b380",
    "compute_Phi": "44581d5c15fb66b17664593143061422520bc463f83bb215851cd1dfb288e1d0",
    "compute_Phi_t": "3dc564ac1012d54f3acd62d454b18e6556ec939dc30a4e2d1ef5bc5d73b589da",
    "residual_v": "ccb7d1fdb7d519f9a4ded2a9c38328c08d38d33781c179648e13844dba8e2b27",
    "residual_Phi": "464790cdf187fa3d2107cca6ee7c30303a43e4fe90c5131b63e1483bf89a4619",
    "residual_Phi_t": "6a5c5d55b6135ce7b054410091194fd7338a6f262ee8aa9a67950c74802e4ead",
    "residual_Phi_tt": "484f088cfca90b1e7c490d6382de9af7090472d0d0e61028bd206a08846b6f9a",
    "residual_Phi_ttt": "43347c656ea37cc4670df689cbab73a283c7b959da2ae9fc5aa5757be30476fc",
    "eval_A5": "66cfd6a8de59a39d97a86071883a892bf09aac030298b2996128e46025a9be6b",
    "dA1_dt": "78f79c8dac06dd19f756129a82c15f2d3e5b6598076d270d31c8a6de5fe2b1ed",
    "dA1_dtt": "5ea4f545fc1338be2b87f6032aee5bbc1f73b4d1cec278416371c787a58d3e33",
}


def _edge_outputs():
    """The chart-split consumers on a mesh with no node past r = 1, and the
    pointwise two-chart forms on unsorted radii."""
    p = KernelParams(alpha=0.7)
    g = RadialGrid(32, 1.0)
    env = np.exp(-g.r ** 2)
    bundles = [FieldState((0.3 + 0.01 * k) * env, env, g, 0.01 * k)
               for k in range(7)]
    st = bundles[3]
    u = v_to_u(st)
    vr = d_r(st.f, g)
    out = {"v_to_u": u.f, "u_to_v": u_to_v(u).f,
           "energy": [diag.energy(u, p, st, return_tail=True, v_r=vr)[0],
                      diag.energy(u, p)],
           "decay_report": list(diag.decay_report(st.f, diag.SampleContext(g)).values()),
           "compute_Phi": compute_Phi(st, p), "compute_Phi_t": compute_Phi_t(st, p),
           "residual_v": residual_v_equation(st, env, p),
           "residual_Phi": residual_Phi_wave(bundles[2:5], p),
           "residual_Phi_t": residual_Phi_t_wave(bundles[2:5], p),
           "residual_Phi_tt": residual_Phi_tt_wave(bundles[1:6], p),
           "residual_Phi_ttt": residual_Phi_ttt_wave(bundles, p)}
    rng = np.random.default_rng(5)
    r = rng.uniform(0.0, 3.0, 97)
    y, vt, vtt = (rng.uniform(-2.0, 2.0, r.size) for _ in range(3))
    out.update(eval_A5=eval_A(5, y, r, p), dA1_dt=dA1_dt(y, vt, r, p),
               dA1_dtt=dA1_dtt(y, vt, vtt, r, p))
    return out


def test_chart_split_edges_keep_their_bytes():
    got = {key: hashlib.sha256(np.asarray(val, dtype=np.float64).tobytes()).hexdigest()
           for key, val in _edge_outputs().items()}
    assert got == EDGE_PINS


def test_scalar_input_gives_a_python_float(params, profile):
    values = [eval_Ftilde(j, 0.3, params) for j in range(5)]
    values += [eval_cutoff(which, 1.3, order, profile)
               for which in ("phi", "lt1", "gt1") for order in (0, 1, 2)]
    values += [laplacian_phi_2d(1.5, profile), laplacian_phi_2d(0.0, profile)]
    values += [eval_A(which, 0.4, 1.5, params, profile) for which in (1, 4, 5)]
    values += [eval_N(0.4, 0.3, -0.2, 1.5, params)]
    values += [eval_F_rhs(0.4, 0.3, -0.2, r, params, profile) for r in (0.0, 0.7, 1.5)]
    assert all(type(v) is float for v in values)
