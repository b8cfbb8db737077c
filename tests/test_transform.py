"""Chart changes u <-> v, the integrated field Phi, and the wave-equation
residual evaluators that certify the substitution chain."""

import math

import numpy as np
import pytest

from faddeevlab.grid import (FieldState, RadialField, RadialGrid,
                             quadrature_1d)
from faddeevlab.kernels import (DEFAULT_PARAMS, DEFAULT_PROFILE, eval_A,
                                eval_cutoff)
from faddeevlab.transform import (compute_Phi, compute_Phi_t,
                                  make_bundle, residual_Phi_t_wave,
                                  residual_Phi_tt_wave, residual_Phi_ttt_wave,
                                  residual_Phi_wave, residual_v_equation,
                                  u_to_v, v_to_u)
from faddeevlab.verify import (ManufacturedSolution, _res_norm, make_forcing,
                               manufactured_initial_state)

from conftest import gaussian_v_state

# frozen by a high-precision pre-build quadrature pass
PHI_AT_10_ZERO_STATE = -0.0031182494752811651744
PHI_AT_03_SMALL_GAUSSIAN = 0.18379843046460643621


def zero_state(grid):
    z = np.zeros(grid.n_nodes)
    return FieldState(RadialField(z, grid),
                      RadialField(z.copy(), grid))


# ---------------------------------------------------------------------------
# chart changes


def test_roundtrip_v_u_v(grid256):
    v = gaussian_v_state(grid256, amp=0.3, amp_t=0.1)
    back = u_to_v(v_to_u(v, DEFAULT_PROFILE), DEFAULT_PROFILE)
    assert np.max(np.abs(back.f.values[1:] - v.f.values[1:])) <= 1e-13
    assert np.max(np.abs(back.f_t.values[1:] - v.f_t.values[1:])) <= 1e-13
    # node 0 is rebuilt by even extrapolation, not divided out
    assert abs(back.f.values[0] - v.f.values[0]) <= 1e-9


def test_v_to_u_is_exact_algebra(grid256):
    v = gaussian_v_state(grid256, amp=0.3)
    u = v_to_u(v, DEFAULT_PROFILE)
    phi = eval_cutoff("phi", grid256.r, 0, DEFAULT_PROFILE)
    assert np.array_equal(u.f.values, grid256.r * v.f.values + phi)
    assert np.array_equal(u.f_t.values, grid256.r * v.f_t.values)


def test_u_to_v_requires_boundary_value(grid256):
    u = v_to_u(gaussian_v_state(grid256, amp=0.2), DEFAULT_PROFILE)
    u.f.values[0] += 1e-6
    with pytest.raises(ValueError):
        u_to_v(u, DEFAULT_PROFILE)


def test_u_equal_cutoff_maps_to_zero(grid256):
    u = v_to_u(zero_state(grid256), DEFAULT_PROFILE)
    v = u_to_v(u, DEFAULT_PROFILE)
    assert np.array_equal(v.f.values, np.zeros(grid256.n_nodes))


def test_origin_extrapolation_is_high_order(grid256):
    v = gaussian_v_state(grid256, amp=1.0)
    back = u_to_v(v_to_u(v, DEFAULT_PROFILE), DEFAULT_PROFILE)
    assert abs(back.f.values[0] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Phi and Phi_t


def test_phi_zero_state_values():
    g = RadialGrid(512, 16.0)
    z = zero_state(g)
    phi = compute_Phi(v_to_u(z, DEFAULT_PROFILE), z, DEFAULT_PARAMS,
                      DEFAULT_PROFILE)
    assert np.array_equal(phi.values[g.r <= 0.5], np.zeros(np.sum(g.r <= 0.5)))
    i10 = int(round(10.0 / g.dr))
    assert g.r[i10] == 10.0
    assert phi.values[i10] == pytest.approx(PHI_AT_10_ZERO_STATE, abs=1e-12)
    # 0.743 % from the leading-order far-field form -pi alpha^2 r^-3
    assert phi.values[i10] == pytest.approx(-math.pi * 1e-3, rel=2e-2)


def test_phi_inner_branch_oracle():
    g = RadialGrid(320, 8.0)  # dr = 0.025 puts r = 0.3 on a node
    v = gaussian_v_state(g, amp=0.2)
    phi = compute_Phi(v_to_u(v, DEFAULT_PROFILE), v, DEFAULT_PARAMS,
                      DEFAULT_PROFILE)
    assert phi.values[12] == pytest.approx(PHI_AT_03_SMALL_GAUSSIAN, abs=1e-12)


def test_phi_branch_formulas_agree_on_seam_strip():
    g = RadialGrid(320, 8.0)
    v = gaussian_v_state(g, amp=0.2)
    u = v_to_u(v, DEFAULT_PROFILE)
    phi = compute_Phi(u, v, DEFAULT_PARAMS, DEFAULT_PROFILE)
    for i in np.nonzero((g.r >= 0.4) & (g.r <= 0.5))[0]:
        r = g.r[i]
        outer = quadrature_1d(
            lambda y: np.sqrt(eval_A(1, y, r, DEFAULT_PARAMS)),
            math.pi, u.f.values[i], 64) / r
        assert abs(outer - phi.values[i]) <= 1e-10


def test_phi_t_closed_forms(grid256):
    g = grid256
    still = gaussian_v_state(g, amp=0.3, amp_t=0.0)
    pt = compute_Phi_t(v_to_u(still, DEFAULT_PROFILE), DEFAULT_PARAMS,
                       DEFAULT_PROFILE, still)
    assert np.array_equal(pt.values, np.zeros(g.n_nodes))
    # u identically pi has A_1 = 1, so Phi_t collapses to u_t / r
    gr = np.exp(-g.r ** 2)
    u = FieldState(RadialField(np.full(g.n_nodes, math.pi), g),
                   RadialField(g.r * gr, g))
    pt = compute_Phi_t(u, DEFAULT_PARAMS, DEFAULT_PROFILE)
    assert np.max(np.abs(pt.values[1:] - gr[1:])) <= 1e-13


def test_phi_t_identity_nodewise(grid256):
    g = grid256
    v = gaussian_v_state(g, amp=0.3, amp_t=0.2)
    b = make_bundle(v, DEFAULT_PARAMS, DEFAULT_PROFILE)
    rp = g.r[1:]
    a1 = eval_A(1, b.u.f.values[1:], rp, DEFAULT_PARAMS)
    direct = np.sqrt(a1) * b.u.f_t.values[1:] / rp
    assert np.max(np.abs(direct - b.phi_t_field.values[1:])) <= 1e-12


def test_phi_t_matches_time_differenced_phi_at_second_order():
    ms = ManufacturedSolution()
    g = RadialGrid(256, 8.0)

    def phi_at(t):
        st = manufactured_initial_state(ms, g, t)
        return compute_Phi(v_to_u(st, DEFAULT_PROFILE), st, DEFAULT_PARAMS,
                           DEFAULT_PROFILE).values

    st = manufactured_initial_state(ms, g, 0.4)
    pt = compute_Phi_t(v_to_u(st, DEFAULT_PROFILE), DEFAULT_PARAMS,
                       DEFAULT_PROFILE, st).values
    errs = []
    for dt in (1e-3, 5e-4):
        fd = (phi_at(0.4 + dt) - phi_at(0.4 - dt)) / (2.0 * dt)
        errs.append(np.max(np.abs(fd - pt)))
    assert 1.7 <= math.log2(errs[0] / errs[1]) <= 2.3


# ---------------------------------------------------------------------------
# residual evaluators


def test_residual_v_zero_state_supported_on_shell(grid256):
    g = grid256
    res = residual_v_equation(zero_state(g), np.zeros(g.n_nodes),
                              DEFAULT_PARAMS, DEFAULT_PROFILE)
    off = (g.r <= 0.5) | (g.r >= 2.0 + 2 * g.dr)
    assert np.max(np.abs(res.values[off])) <= 1e-13
    shell = (g.r >= 1.05) & (g.r <= 1.95)
    assert np.min(np.abs(res.values[shell])) > 0.1


def test_residual_v_minus_forcing_refines_at_stencil_order():
    ms = ManufacturedSolution()
    errs = []
    for n in (128, 256, 512):
        g = RadialGrid(n, 8.0)
        st = manufactured_initial_state(ms, g, 0.7)
        res = residual_v_equation(st, ms.v_tt(0.7, g.r), DEFAULT_PARAMS,
                                  DEFAULT_PROFILE)
        gf = make_forcing(ms, g, DEFAULT_PARAMS, DEFAULT_PROFILE)(0.7)
        errs.append(_res_norm(RadialField(res.values - gf, g)))
    # measured ratios approach 2^4 from below (15.94, 15.99)
    assert errs[0] / errs[1] >= 2.0 ** 3.8
    assert errs[1] / errs[2] >= 2.0 ** 3.8


def manufactured_bundles(ms, grid, t0, dt, count):
    out = []
    for k in range(count):
        st = manufactured_initial_state(ms, grid, t0 + k * dt)
        out.append(make_bundle(st, DEFAULT_PARAMS, DEFAULT_PROFILE))
    return out


def test_window_preconditions(grid128):
    ms = ManufacturedSolution()
    bs = manufactured_bundles(ms, grid128, 0.3, 1e-2, 7)
    with pytest.raises(ValueError):
        residual_Phi_t_wave(bs[:2])
    with pytest.raises(ValueError):
        residual_Phi_tt_wave(bs[:4])
    with pytest.raises(ValueError):
        residual_Phi_ttt_wave(bs[:6])
    skewed = [bs[0], bs[1], bs[3]]
    with pytest.raises(ValueError):
        residual_Phi_t_wave(skewed)


def test_stationary_window_residuals_vanish(grid128):
    g = grid128
    still = gaussian_v_state(g, amp=0.2, amp_t=0.0)
    bs = [make_bundle(FieldState(still.f.copy(), still.f_t.copy(), 0.1 * k),
                      DEFAULT_PARAMS, DEFAULT_PROFILE) for k in range(7)]
    zero = np.zeros(g.n_nodes)
    assert np.array_equal(residual_Phi_t_wave(bs[:3]).values, zero)
    assert np.array_equal(residual_Phi_tt_wave(bs[:5]).values, zero)
    assert np.array_equal(residual_Phi_ttt_wave(bs).values, zero)


def test_static_zero_state_phi_residual(grid128):
    g = grid128
    z = zero_state(g)
    bs = [make_bundle(FieldState(z.f.copy(), z.f_t.copy(), 0.1 * k),
                      DEFAULT_PARAMS, DEFAULT_PROFILE) for k in range(3)]
    res = residual_Phi_wave(bs, DEFAULT_PARAMS, DEFAULT_PROFILE)
    # exact zero inside the region except the two-node stencil collar that
    # sees Phi switching on with the gt1 cutoff at r = 1/2
    inner = g.r < 0.5 - 2 * g.dr
    assert np.array_equal(res.values[inner], np.zeros(np.sum(inner)))
    assert np.array_equal(res.values[g.r >= 0.5], np.zeros(np.sum(g.r >= 0.5)))


def test_tt_residual_is_time_derivative_of_t_residual(grid128):
    # Differentiation identity along any smooth trajectory, on or off shell:
    # the five-level evaluator equals the centered difference of the
    # three-level one up to O(dt^2).
    ms = ManufacturedSolution(a0=0.15, a1=0.1, omega=2.0)

    def mismatch(dt):
        bs = manufactured_bundles(ms, grid128, 0.3, dt, 7)
        res_tt = residual_Phi_tt_wave(bs[1:6])
        ra = residual_Phi_t_wave(bs[1:4])
        rb = residual_Phi_t_wave(bs[3:6])
        dres = (rb.values - ra.values) / (2.0 * dt)
        return _res_norm(RadialField(res_tt.values - dres, grid128))

    m1, m2 = mismatch(2e-3), mismatch(1e-3)
    assert m1 / m2 >= 3.0
