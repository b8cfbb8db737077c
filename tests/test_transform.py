"""Chart changes u <-> v, the integrated field Phi, and the wave-equation
residual evaluators that certify the substitution chain."""

import math

import numpy as np
import pytest

from faddeevlab.evolve import RunConfig, evolve_bundles
from faddeevlab.grid import FieldState, RadialGrid
from faddeevlab.kernels import DEFAULT_PARAMS, DEFAULT_PROFILE, _a3, eval_cutoff
from faddeevlab.transform import (compute_Phi, compute_Phi_t,
                                  residual_Phi_t_wave,
                                  residual_Phi_tt_wave, residual_Phi_ttt_wave,
                                  residual_Phi_wave, residual_v_equation,
                                  u_to_v, v_to_u)
from faddeevlab.verify import (_RESIDUAL_EVALUATORS, ManufacturedSolution, _res_norm,
                               make_forcing, manufactured_initial_state)

from conftest import gaussian_v_state, quadrature_1d

# frozen by a high-precision pre-build quadrature pass
PHI_AT_10_ZERO_STATE = -0.0031182494752811651744
PHI_AT_03_SMALL_GAUSSIAN = 0.18379843046460643621


def zero_state(grid):
    z = np.zeros(grid.n_nodes)
    return FieldState(z, z.copy(), grid)


# ---------------------------------------------------------------------------
# chart changes


def test_roundtrip_v_u_v(grid256):
    v = gaussian_v_state(grid256, amp=0.3, amp_t=0.1)
    back = u_to_v(v_to_u(v, DEFAULT_PROFILE), DEFAULT_PROFILE)
    assert np.max(np.abs(back.f[1:] - v.f[1:])) <= 1e-13
    assert np.max(np.abs(back.f_t[1:] - v.f_t[1:])) <= 1e-13
    # node 0 is rebuilt by even extrapolation, not divided out
    assert abs(back.f[0] - v.f[0]) <= 1e-9


def test_v_to_u_is_exact_algebra(grid256):
    v = gaussian_v_state(grid256, amp=0.3)
    u = v_to_u(v, DEFAULT_PROFILE)
    phi = eval_cutoff("phi", grid256.r, 0, DEFAULT_PROFILE)
    assert np.array_equal(u.f, grid256.r * v.f + phi)
    assert np.array_equal(u.f_t, grid256.r * v.f_t)


def test_u_to_v_requires_boundary_value(grid256):
    u = v_to_u(gaussian_v_state(grid256, amp=0.2), DEFAULT_PROFILE)
    u.f[0] += 1e-6
    with pytest.raises(ValueError):
        u_to_v(u, DEFAULT_PROFILE)


def test_u_equal_cutoff_maps_to_zero(grid256):
    u = v_to_u(zero_state(grid256), DEFAULT_PROFILE)
    v = u_to_v(u, DEFAULT_PROFILE)
    assert np.array_equal(v.f, np.zeros(grid256.n_nodes))


def test_origin_extrapolation_is_high_order(grid256):
    v = gaussian_v_state(grid256, amp=1.0)
    back = u_to_v(v_to_u(v, DEFAULT_PROFILE), DEFAULT_PROFILE)
    assert abs(back.f[0] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Phi and Phi_t


def test_phi_zero_state_values():
    g = RadialGrid(512, 16.0)
    z = zero_state(g)
    phi = compute_Phi(z, DEFAULT_PARAMS, DEFAULT_PROFILE)
    assert np.array_equal(phi[g.r <= 0.5], np.zeros(np.sum(g.r <= 0.5)))
    i10 = int(round(10.0 / g.dr))
    assert g.r[i10] == 10.0
    assert phi[i10] == pytest.approx(PHI_AT_10_ZERO_STATE, abs=1e-12)
    # 0.743 % from the leading-order far-field form -pi alpha^2 r^-3
    assert phi[i10] == pytest.approx(-math.pi * 1e-3, rel=2e-2)


def test_phi_inner_branch_oracle():
    g = RadialGrid(320, 8.0)  # dr = 0.025 puts r = 0.3 on a node
    v = gaussian_v_state(g, amp=0.2)
    phi = compute_Phi(v, DEFAULT_PARAMS, DEFAULT_PROFILE)
    assert phi[12] == pytest.approx(PHI_AT_03_SMALL_GAUSSIAN, abs=1e-12)


def test_phi_branch_formulas_agree_on_seam_strip():
    g = RadialGrid(320, 8.0)
    v = gaussian_v_state(g, amp=0.2)
    u = v_to_u(v, DEFAULT_PROFILE)
    phi = compute_Phi(v, DEFAULT_PARAMS, DEFAULT_PROFILE)
    for i in np.nonzero((g.r >= 0.4) & (g.r <= 0.5))[0]:
        r = g.r[i]
        outer = quadrature_1d(
            lambda y: np.sqrt(_a3(np.sin(y), r, DEFAULT_PARAMS)),
            math.pi, u.f[i], 64) / r
        assert abs(outer - phi[i]) <= 1e-10


def test_phi_on_a_mesh_inside_the_inner_branch():
    """Every node at r <= 1/2 leaves the outer branch no node: Phi is the
    inner branch everywhere, with the bytes the same nodes get on a wider
    mesh."""
    narrow, wide = RadialGrid(16, 0.5), RadialGrid(32, 1.0)  # dr = 1/32 on both
    phi = compute_Phi(gaussian_v_state(narrow), DEFAULT_PARAMS, DEFAULT_PROFILE)
    ref = compute_Phi(gaussian_v_state(wide), DEFAULT_PARAMS, DEFAULT_PROFILE)
    assert phi.tobytes() == ref[:17].tobytes()


def test_phi_t_closed_forms(grid256):
    g = grid256
    still = gaussian_v_state(g, amp=0.3, amp_t=0.0)
    pt = compute_Phi_t(still, DEFAULT_PARAMS, DEFAULT_PROFILE)
    assert np.array_equal(pt, np.zeros(g.n_nodes))
    # u identically pi has A_1 = 1, so Phi_t collapses to u_t / r
    gr = np.exp(-g.r ** 2)
    u = FieldState(np.full(g.n_nodes, math.pi), g.r * gr, g)
    pt = compute_Phi_t(u_to_v(u, DEFAULT_PROFILE), DEFAULT_PARAMS,
                       DEFAULT_PROFILE)
    assert np.max(np.abs(pt[1:] - gr[1:])) <= 1e-13


def test_phi_t_identity_nodewise(grid256):
    g = grid256
    v = gaussian_v_state(g, amp=0.3, amp_t=0.2)
    pt = compute_Phi_t(v, DEFAULT_PARAMS, DEFAULT_PROFILE)
    u = v_to_u(v, DEFAULT_PROFILE)
    rp = g.r[1:]
    a1 = _a3(np.sin(u.f[1:]), rp, DEFAULT_PARAMS)
    direct = np.sqrt(a1) * u.f_t[1:] / rp
    assert np.max(np.abs(direct - pt[1:])) <= 1e-12


def test_phi_t_matches_time_differenced_phi_at_second_order():
    ms = ManufacturedSolution()
    g = RadialGrid(256, 8.0)

    def phi_at(t):
        st = manufactured_initial_state(ms, g, t)
        return compute_Phi(st, DEFAULT_PARAMS, DEFAULT_PROFILE)

    st = manufactured_initial_state(ms, g, 0.4)
    pt = compute_Phi_t(st, DEFAULT_PARAMS, DEFAULT_PROFILE)
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
    assert np.max(np.abs(res[off])) <= 1e-13
    shell = (g.r >= 1.05) & (g.r <= 1.95)
    assert np.min(np.abs(res[shell])) > 0.1


def test_residual_v_minus_forcing_refines_at_stencil_order():
    ms = ManufacturedSolution()
    errs = []
    for n in (128, 256, 512):
        g = RadialGrid(n, 8.0)
        st = manufactured_initial_state(ms, g, 0.7)
        res = residual_v_equation(st, ms.v_tt(0.7, g.r), DEFAULT_PARAMS,
                                  DEFAULT_PROFILE)
        gf = make_forcing(ms, g, DEFAULT_PARAMS, DEFAULT_PROFILE)(0.7)
        errs.append(_res_norm(res - gf, g))
    # measured ratios approach 2^4 from below (15.94, 15.99)
    assert errs[0] / errs[1] >= 2.0 ** 3.8
    assert errs[1] / errs[2] >= 2.0 ** 3.8


def manufactured_states(ms, grid, t0, dt, count):
    return [manufactured_initial_state(ms, grid, t0 + k * dt) for k in range(count)]


def test_window_preconditions(grid128):
    ms = ManufacturedSolution()
    bs = manufactured_states(ms, grid128, 0.3, 1e-2, 7)
    with pytest.raises(ValueError):
        residual_Phi_t_wave(bs[:2])
    with pytest.raises(ValueError):
        residual_Phi_tt_wave(bs[:4])
    with pytest.raises(ValueError):
        residual_Phi_ttt_wave(bs[:6])
    skewed = [bs[0], bs[1], bs[3]]
    with pytest.raises(ValueError):
        residual_Phi_t_wave(skewed)


def test_evaluators_read_the_middle_levels_of_any_window():
    """Each evaluator gives a 7-level window the bytes of its middle 3 or 5
    levels, taking dt from those levels: steps 18..24 of dt = 0.7/45 have
    float spacings that are not all equal, and the first differs from the
    middle levels' own."""
    cfg = RunConfig(n_cells=128, r_max=8.0, t_end=0.7)
    window = evolve_bundles(cfg, t_center=0.33, n_levels=7)
    dts = np.diff([s.time for s in window])
    assert dts[0] != dts[2]
    for name, (fn, need) in _RESIDUAL_EVALUATORS.items():
        middle = window[3 - need // 2:4 + need // 2]
        assert len(middle) == need
        assert fn(window).tobytes() == fn(middle).tobytes(), name


def test_stationary_window_residuals_vanish(grid128):
    g = grid128
    still = gaussian_v_state(g, amp=0.2, amp_t=0.0)
    bs = [FieldState(still.f, still.f_t, g, 0.1 * k) for k in range(7)]
    zero = np.zeros(g.n_nodes)
    assert np.array_equal(residual_Phi_t_wave(bs[:3]), zero)
    assert np.array_equal(residual_Phi_tt_wave(bs[:5]), zero)
    assert np.array_equal(residual_Phi_ttt_wave(bs), zero)


def test_static_zero_state_phi_residual(grid128):
    g = grid128
    z = zero_state(g)
    bs = [FieldState(z.f, z.f_t, g, 0.1 * k) for k in range(3)]
    res = residual_Phi_wave(bs, DEFAULT_PARAMS, DEFAULT_PROFILE)
    # exact zero inside the region except the two-node stencil collar that
    # sees Phi switching on with the gt1 cutoff at r = 1/2
    inner = g.r < 0.5 - 2 * g.dr
    assert np.array_equal(res[inner], np.zeros(np.sum(inner)))
    assert np.array_equal(res[g.r >= 0.5], np.zeros(np.sum(g.r >= 0.5)))


def test_tt_residual_is_time_derivative_of_t_residual(grid128):
    # Differentiation identity along any smooth trajectory, on or off shell:
    # the five-level evaluator equals the centered difference of the
    # three-level one up to O(dt^2).
    ms = ManufacturedSolution(a0=0.15, a1=0.1, omega=2.0)

    def mismatch(dt):
        bs = manufactured_states(ms, grid128, 0.3, dt, 7)
        res_tt = residual_Phi_tt_wave(bs[1:6])
        ra = residual_Phi_t_wave(bs[1:4])
        rb = residual_Phi_t_wave(bs[3:6])
        dres = (rb - ra) / (2.0 * dt)
        return _res_norm(res_tt - dres, grid128)

    m1, m2 = mismatch(2e-3), mismatch(1e-3)
    assert m1 / m2 >= 3.0
