"""Chart changes u <-> v, the integrated field Phi, and the wave-equation
residual evaluators that certify the substitution chain."""

import math
import tracemalloc

import numpy as np
import pytest

from faddeevlab.evolve import RunConfig, evolve_bundles
from faddeevlab.grid import FieldState, RadialGrid
from faddeevlab.kernels import (DEFAULT_PARAMS, DEFAULT_PROFILE, CutoffProfile,
                                KernelParams, _a3, _a4, eval_cutoff, mesh_cutoffs)
from faddeevlab.transform import (_BLOCK_SAMPLES, _a3_line_integral, _a4_line_integral,
                                  _phi_correction, _row_blocks, _unit_samples,
                                  compute_Phi, compute_Phi_t, phi_correction_integral,
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
    back = u_to_v(v_to_u(v))
    assert np.max(np.abs(back.f[1:] - v.f[1:])) <= 1e-13
    assert np.max(np.abs(back.f_t[1:] - v.f_t[1:])) <= 1e-13
    # node 0 is rebuilt by even extrapolation, not divided out
    assert abs(back.f[0] - v.f[0]) <= 1e-9


def test_v_to_u_is_exact_algebra(grid256):
    v = gaussian_v_state(grid256, amp=0.3)
    u = v_to_u(v)
    phi = eval_cutoff("phi", grid256.r, 0, DEFAULT_PROFILE)
    assert np.array_equal(u.f, grid256.r * v.f + phi)
    assert np.array_equal(u.f_t, grid256.r * v.f_t)


def test_u_to_v_requires_boundary_value(grid256):
    u = v_to_u(gaussian_v_state(grid256, amp=0.2))
    u.f[0] += 1e-6
    with pytest.raises(ValueError):
        u_to_v(u)


def test_u_equal_cutoff_maps_to_zero(grid256):
    u = v_to_u(zero_state(grid256))
    v = u_to_v(u)
    assert np.array_equal(v.f, np.zeros(grid256.n_nodes))


def test_origin_extrapolation_is_high_order(grid256):
    v = gaussian_v_state(grid256, amp=1.0)
    back = u_to_v(v_to_u(v))
    assert abs(back.f[0] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Phi and Phi_t


def test_phi_zero_state_values():
    g = RadialGrid(512, 16.0)
    z = zero_state(g)
    phi = compute_Phi(z)
    assert np.array_equal(phi[g.r <= 0.5], np.zeros(np.sum(g.r <= 0.5)))
    i10 = int(round(10.0 / g.dr))
    assert g.r[i10] == 10.0
    assert phi[i10] == pytest.approx(PHI_AT_10_ZERO_STATE, abs=1e-12)
    # 0.743 % from the leading-order far-field form -pi alpha^2 r^-3
    assert phi[i10] == pytest.approx(-math.pi * 1e-3, rel=2e-2)


def test_phi_inner_branch_oracle():
    g = RadialGrid(320, 8.0)  # dr = 0.025 puts r = 0.3 on a node
    v = gaussian_v_state(g, amp=0.2)
    phi = compute_Phi(v)
    assert phi[12] == pytest.approx(PHI_AT_03_SMALL_GAUSSIAN, abs=1e-12)


def test_phi_branch_formulas_agree_on_seam_strip():
    g = RadialGrid(320, 8.0)
    v = gaussian_v_state(g, amp=0.2)
    u = v_to_u(v)
    phi = compute_Phi(v)
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
    phi = compute_Phi(gaussian_v_state(narrow))
    ref = compute_Phi(gaussian_v_state(wide))
    assert phi.tobytes() == ref[:17].tobytes()


def _phi_uncached(v_state):
    """compute_Phi with its correction integral evaluated on every call, as
    before it was cached per mesh."""
    g, v, p = v_state.grid, v_state.f, v_state.grid.kernel_params
    inner, outer = g.r <= 0.5, g.r > 0.5
    r_out = g.r[outer]
    gt1 = eval_cutoff("gt1", r_out, 0, g.profile)
    out = np.empty_like(v)
    out[inner] = _a4_line_integral(v[inner], g.r[inner], 0.5, p)
    u = r_out * v[outer] + eval_cutoff("phi", r_out, 0, g.profile)
    out[outer] = (_a3_line_integral(u - math.pi, r_out, p)
                  + gt1 * phi_correction_integral(r_out, p)) / r_out
    return out


def test_phi_interleaved_over_meshes_and_alphas_matches_an_uncached_evaluation():
    meshes = [RadialGrid(64, 4.0, DEFAULT_PROFILE, p)
              for p in (DEFAULT_PARAMS, KernelParams(alpha=0.6))]
    meshes += [RadialGrid(96, 6.0, CutoffProfile(9), m.kernel_params) for m in meshes]
    for k in range(3):
        for g in meshes:
            v = gaussian_v_state(g, amp=0.2 + 0.1 * k)
            assert compute_Phi(v).tobytes() == _phi_uncached(v).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                _phi_correction(g)[...] = 0.0


def _old_grouped_line_integral(lengths, integrand):
    """_grouped_line_integral as it was: the integrand gets a fresh
    abscissa block and returns another."""
    lengths = np.asarray(lengths, dtype=float)
    out = np.zeros_like(lengths)
    counts = np.maximum(8, np.ceil(16.0 * np.abs(lengths))).astype(int)
    for p in np.unique(counts):
        sel = np.nonzero(counts == p)[0]
        pts, wts = _unit_samples(int(p))
        s = lengths[sel, None] * pts[None, :]
        vals = integrand(s, sel)
        out[sel] = lengths[sel] * (vals @ wts)
    return out


def _old_a3(sin_y, r, p):
    a = (sin_y if p.alpha == 1.0 else p.alpha * sin_y) / r
    a *= a
    a += 1.0
    return a


def _old_a3_line_integral(lengths, r, p):
    return _old_grouped_line_integral(lengths, lambda s, sel: np.sqrt(
        _old_a3(np.sin(math.pi + s), r[sel][:, None], p)))


def _old_phi_correction_integral(r, p):
    def integrand(y, sel):  # an (m, 255) block of abscissae, of which one row is read
        a = _old_a3(np.sin(y[:1]), r[sel][:, None], p)
        return np.power(a, -1.5, out=a)
    return _old_grouped_line_integral(np.full(r.size, math.pi), integrand)


def _old_compute_Phi(v_state):
    g, v, p = v_state.grid, v_state.f, v_state.grid.kernel_params
    cut = mesh_cutoffs(g)
    inner, outer = g.r <= 0.5, g.r > 0.5
    r_out = g.r[outer]
    out = np.empty_like(v)
    out[inner] = _old_grouped_line_integral(
        v[inner], lambda y, sel: _a4(y, g.r[inner][sel][:, None], p) ** 0.5)
    u = r_out * v[outer] + cut["phi"][outer]
    out[outer] = (_old_a3_line_integral(u - math.pi, r_out, p)
                  + cut["gt1"][outer] * _old_phi_correction_integral(r_out, p)) / r_out
    return out


def _study_state(alpha):
    """The residual-order study's finest mesh, n = 1024: 992 outer nodes,
    904 of them in the 51-panel group of the correction's length pi."""
    g = RadialGrid(1024, 16.0, DEFAULT_PROFILE, KernelParams(alpha))
    return manufactured_initial_state(ManufacturedSolution(), g, 2.0)


@pytest.mark.parametrize("alpha", [1.0, 0.7])
@pytest.mark.parametrize("amp", [None, 50.0])
def test_phi_line_integrals_keep_the_bytes_of_their_old_expressions(alpha, amp):
    """In place in one block per line group, and the correction from one
    row of abscissae: the bytes of the expressions they replaced, on groups
    of hundreds of nodes and (amplitude 50) on lines past 64 panels."""
    st = _study_state(alpha)
    if amp is not None:
        st = gaussian_v_state(st.grid, amp=amp)
    g, p = st.grid, st.grid.kernel_params
    r = g.r[g.r > 0.5]
    lengths = r * st.f[g.r > 0.5] + mesh_cutoffs(g)["phi"][g.r > 0.5] - math.pi
    assert (_a3_line_integral(lengths, r, p).tobytes()
            == _old_a3_line_integral(lengths, r, p).tobytes())
    assert (phi_correction_integral(r, p).tobytes()
            == _old_phi_correction_integral(r, p).tobytes())
    assert compute_Phi(st).tobytes() == _old_compute_Phi(st).tobytes()
    # one group of 51 panels (255 samples) over several row blocks, its last
    # block 8..16 rows, or 1..7 rows folded into the one before, or whole
    step = _row_blocks(10 ** 4, 255)[0].stop
    for m in [3 * step + t for t in range(9)] + [step + 1, 7]:
        rm, lm = r[:m], np.linspace(3.13, 3.18, m)
        assert (_a3_line_integral(lm, rm, p).tobytes()
                == _old_a3_line_integral(lm, rm, p).tobytes())
        assert (phi_correction_integral(rm, p).tobytes()
                == _old_phi_correction_integral(rm, p).tobytes())
        for power in (0.5, -1.5):
            assert (_a4_line_integral(lm, rm, power, p).tobytes()
                    == _old_grouped_line_integral(
                        lm, lambda y, sel: _a4(y, rm[sel][:, None], p) ** power).tobytes())


def test_row_blocks_keep_the_bytes_of_the_one_block_product():
    """On random (rows, samples) shapes, each row of vals @ wts formed one
    row block at a time has the bytes of the one-block product (a last
    block of 1..7 rows, or a row alone, can give other bytes). Blocks are
    cut at multiples of 8 rows, hold at most _BLOCK_SAMPLES samples (or 15
    rows of lines wider than 2184 samples), and none but a lone block is
    under 8 rows."""
    rng = np.random.default_rng(35)
    for _ in range(300):
        width = 5 * int(rng.integers(8, 1000))
        m = int(rng.integers(1, 4 * (_BLOCK_SAMPLES // width) + 16))
        blocks = _row_blocks(m, width)
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == b.start and a.stop % 8 == 0 for a, b in zip(blocks, blocks[1:]))
        assert all((b.stop - b.start) * width <= max(_BLOCK_SAMPLES, 15 * width)
                   for b in blocks)
        assert len(blocks) == 1 or blocks[-1].stop - blocks[-1].start >= 8
        vals, wts = rng.uniform(-3.0, 3.0, (m, width)), rng.uniform(0.0, 1.0, width)
        by_block = np.concatenate([vals[b].copy() @ wts for b in blocks])
        assert by_block.tobytes() == (vals @ wts).tobytes()


@pytest.mark.parametrize("n_cells,limit_mb", [(1024, 1.0), (4096, 1.6)])
def test_compute_Phi_peak_is_bounded_whatever_the_mesh(n_cells, limit_mb):
    """compute_Phi on a fresh mesh, its correction built, holds one row
    block of at most _BLOCK_SAMPLES samples at a time; with one block per
    line group it peaked at 2.31 MB at n = 1024 and 8.48 MB at n = 4096."""
    if n_cells == 1024:
        st = _study_state(1.0)
    else:
        st = gaussian_v_state(RadialGrid(n_cells, 16.0), amp=0.5)
    _phi_correction.cache_clear()
    tracemalloc.start()
    try:
        compute_Phi(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 1e6


def test_compute_Phi_peaks_at_one_outer_block():
    """compute_Phi on a fresh n = 1024 mesh, its correction included, holds
    one (nodes, 255) block at a time (it peaked at 5.8 MB, 2.9 blocks, when
    each integrand step allocated a block of its own)."""
    st = _study_state(1.0)
    block = np.count_nonzero(st.grid.r > 0.5) * 255 * 8
    _phi_correction.cache_clear()
    tracemalloc.start()
    try:
        compute_Phi(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block


def test_line_samples_keep_at_most_164_kb():
    """Samples of lines up to 64 panels are kept, longer ones built per
    group (keeping every panel count, these two calls left 8.7 MB)."""
    g = RadialGrid(512, 16.0)
    compute_Phi(gaussian_v_state(g, amp=5.0))  # the mesh's tables, built and kept
    states = [gaussian_v_state(g, amp=amp) for amp in (50.0, 200.0)]
    tracemalloc.start()
    try:
        for st in states:
            compute_Phi(st)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 164_000


def test_phi_t_closed_forms(grid256):
    g = grid256
    still = gaussian_v_state(g, amp=0.3, amp_t=0.0)
    pt = compute_Phi_t(still)
    assert np.array_equal(pt, np.zeros(g.n_nodes))
    # u identically pi has A_1 = 1, so Phi_t collapses to u_t / r
    gr = np.exp(-g.r ** 2)
    u = FieldState(np.full(g.n_nodes, math.pi), g.r * gr, g)
    pt = compute_Phi_t(u_to_v(u))
    assert np.max(np.abs(pt[1:] - gr[1:])) <= 1e-13


def test_phi_t_identity_nodewise(grid256):
    g = grid256
    v = gaussian_v_state(g, amp=0.3, amp_t=0.2)
    pt = compute_Phi_t(v)
    u = v_to_u(v)
    rp = g.r[1:]
    a1 = _a3(np.sin(u.f[1:]), rp, DEFAULT_PARAMS)
    direct = np.sqrt(a1) * u.f_t[1:] / rp
    assert np.max(np.abs(direct - pt[1:])) <= 1e-12


def test_phi_t_matches_time_differenced_phi_at_second_order():
    ms = ManufacturedSolution()
    g = RadialGrid(256, 8.0)

    def phi_at(t):
        st = manufactured_initial_state(ms, g, t)
        return compute_Phi(st)

    st = manufactured_initial_state(ms, g, 0.4)
    pt = compute_Phi_t(st)
    errs = []
    for dt in (1e-3, 5e-4):
        fd = (phi_at(0.4 + dt) - phi_at(0.4 - dt)) / (2.0 * dt)
        errs.append(np.max(np.abs(fd - pt)))
    assert 1.7 <= math.log2(errs[0] / errs[1]) <= 2.3


# ---------------------------------------------------------------------------
# residual evaluators


def test_residual_v_zero_state_supported_on_shell(grid256):
    g = grid256
    res = residual_v_equation(zero_state(g), np.zeros(g.n_nodes))
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
        res = residual_v_equation(st, ms.v_tt(0.7, g.r))
        gf = make_forcing(ms, g)(0.7)
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


def test_a_window_is_read_at_the_alpha_of_its_run():
    """A window of an alpha = 0.5 run, given no alpha, has the residual norm
    that the evaluator gave it with the run's alpha passed in by hand."""
    cfg = RunConfig(n_cells=128, r_max=8.0, t_end=1.0, kernel_params=KernelParams(alpha=0.5))
    window = evolve_bundles(cfg, t_center=0.5, n_levels=3)
    norm = _res_norm(residual_Phi_t_wave(window), window[1].grid)
    assert repr(norm) == "0.2463264534738866"


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
    res = residual_Phi_wave(bs)
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
