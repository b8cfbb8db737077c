"""Radial mesh, stencils, quadrature and norms."""

import math

import numpy as np
import pytest

from faddeevlab.diagnostics import SpacetimeTracker
from faddeevlab.evolve import RunConfig, trajectory
from faddeevlab.grid import (_D1_EDGE, _D2_EDGE, GHOST, FieldState, RadialGrid,
                             _d1_laplacian, _d1_values, _simpson, _simpson_weights, d_r,
                             fill_ghosts, integrate_radial, laplacian, sobolev_norm,
                             write_csv)

from conftest import quadrature_1d

# frozen by a high-precision pre-build quadrature pass
A3_INTEGRAL_R2 = 2.6636668886261405693


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(2, 8.0)
    with pytest.raises(ValueError, match="n_cells must be >= 6"):
        RadialGrid(5, 8.0)
    g = RadialGrid(6, 8.0)  # the smallest mesh: every stencil applies
    f = np.exp(-g.r ** 2)
    assert d_r(f, g).shape == laplacian(f, g).shape == (7,)
    with pytest.raises(ValueError):
        RadialGrid(128, 0.0)


def test_grid_nodes():
    g = RadialGrid(128, 8.0)
    assert g.dr == 0.0625
    assert g.n_nodes == 129
    assert g.r[0] == 0.0 and g.r[-1] == 8.0


def test_grid_nodes_are_read_only():
    """Every per-mesh cache (r^3, the cutoff table, the checkpoint template)
    is built from r and keyed by the grid's fields: a write into r would
    leave them stale, so it raises."""
    g = RadialGrid(64, 4.0)
    with pytest.raises(ValueError, match="read-only"):
        g.r[5] = 0.0
    assert g.r3[5] == g.r[5] ** 3


def test_field_validation():
    g = RadialGrid(16, 1.0)
    with pytest.raises(ValueError, match="not aligned"):
        FieldState(np.ones(g.n_nodes - 1), np.ones(g.n_nodes), g)
    other = RadialGrid(32, 1.0)
    with pytest.raises(ValueError, match="not aligned"):
        FieldState(np.ones(g.n_nodes), np.ones(other.n_nodes), g)
    st = FieldState([1, 2, 3, 4, 5, 6, 7], range(7), RadialGrid(6, 1.0))
    assert st.f.dtype == st.f_t.dtype == np.float64


def test_ghost_fill_is_exact_parity():
    g = RadialGrid(16, 2.0)
    f = np.cos(g.r)
    ext = fill_ghosts(f)
    for k in range(1, GHOST + 1):
        assert ext[GHOST - k] == ext[GHOST + k]


def test_d_r_polynomial_exactness():
    g = RadialGrid(128, 8.0)
    const = np.full(g.n_nodes, math.pi)
    assert np.max(np.abs(d_r(const, g))) <= 1e-13
    assert np.max(np.abs(d_r(g.r ** 2, g) - 2.0 * g.r)) <= 1e-12


def test_d_r_fourth_order_on_sine():
    """d_r of the even cos(r) converges to -sin(r) at 4th order."""
    errs = []
    for n in (128, 256):
        g = RadialGrid(n, 8.0)
        errs.append(np.max(np.abs(d_r(np.cos(g.r), g) + np.sin(g.r))))
    assert 3.8 <= math.log2(errs[0] / errs[1]) <= 4.2


def test_d_r_is_exactly_zero_at_the_origin():
    """d_r zeroes node 0, where the raw stencil leaves roundoff; the
    right-hand side reads that raw value through _d1_laplacian."""
    g = RadialGrid(64, 8.0)
    f = 0.3 * np.exp(-g.r ** 2)
    raw = _d1_values(f, g)
    assert raw[0] != 0.0  # 3.7e-17
    assert d_r(f, g)[0] == 0.0
    assert np.array_equal(d_r(f, g)[1:], raw[1:])
    assert _d1_laplacian(f, g)[0][0] == raw[0]


# ---------------------------------------------------------------------------
# the stencils as they stood before the shared ghost fill and the in-place
# bodies, kept as an oracle: the same operations in the same order, one new
# array per operation; the stencils must match them byte for byte


def _old_d1_values(values, grid):
    g, h = GHOST, grid.dr
    n = grid.n_cells
    ext = fill_ghosts(values)
    out = np.empty_like(values)
    out[: n - 1] = (ext[g - 2:g + n - 3] - 8.0 * ext[g - 1:g + n - 2]
                    + 8.0 * ext[g + 1:g + n] - ext[g + 2:g + n + 1]) / (12.0 * h)
    out[-2] = (_D1_EDGE[0] @ values[-1:-6:-1]) / h
    out[-1] = (_D1_EDGE[1] @ values[-1:-6:-1]) / h
    return out


def _old_d2_values(values, grid):
    g, h = GHOST, grid.dr
    n = grid.n_cells
    ext = fill_ghosts(values)
    out = np.empty_like(values)
    out[: n - 1] = (-ext[g - 2:g + n - 3] + 16.0 * ext[g - 1:g + n - 2]
                    - 30.0 * ext[g:g + n - 1] + 16.0 * ext[g + 1:g + n]
                    - ext[g + 2:g + n + 1]) / (12.0 * h * h)
    out[-2] = (_D2_EDGE[0] @ values[-1:-7:-1]) / (h * h)
    out[-1] = (_D2_EDGE[1] @ values[-1:-7:-1]) / (h * h)
    return out


def _old_d1_laplacian(values, grid, d1=None):
    if d1 is None:
        d1 = _old_d1_values(values, grid)
    d2 = _old_d2_values(values, grid)
    lap = np.empty_like(values)
    lap[0] = 4 * d2[0]
    lap[1:] = d2[1:] + 3 * d1[1:] / grid.r[1:]
    return d1, lap


def _stencil_cases():
    """Rough random even fields, Gaussians, all 0.0, all -0.0, a subnormal
    tail and +-1e300 values on the smallest meshes, an odd and an even
    cell count, and the benchmark's n = 2048."""
    rng = np.random.default_rng(5)
    for n in (6, 7, 64, 255, 2048):
        g = RadialGrid(n, 8.0)
        yield g, rng.standard_normal(g.n_nodes)
        yield g, rng.uniform(-1.0, 1.0) * np.exp(-(g.r / rng.uniform(0.3, 2.0)) ** 2)
        yield g, np.zeros(g.n_nodes)
        yield g, np.full(g.n_nodes, -0.0)
        yield g, 5e-324 * rng.integers(-9, 10, g.n_nodes)
        yield g, rng.choice([-1e300, 1e300], g.n_nodes)
        wide = RadialGrid(n, 60.0)
        yield wide, np.exp(-wide.r ** 2)  # exp(-r^2) reaches subnormals


def test_stencils_match_their_old_expressions_bitwise():
    for g, values in _stencil_cases():
        old_d1, old_lap = _old_d1_laplacian(values, g)
        assert d_r(values, g).tobytes() == np.where(g.r == 0.0, 0.0, old_d1).tobytes()
        assert laplacian(values, g).tobytes() == old_lap.tobytes()
        d1, lap = _d1_laplacian(values, g)
        assert (d1.tobytes(), lap.tobytes()) == (old_d1.tobytes(), old_lap.tobytes())
        given = d_r(values, g)  # node 0 zeroed, as sobolev_norm passes it
        lap_given = _d1_laplacian(values, g, given)[1]
        assert lap_given.tobytes() == _old_d1_laplacian(values, g, given)[1].tobytes()


def test_edge_rows_from_one_product_match_one_dot_per_row():
    """Each stencil takes both edge rows from one matrix-vector product; on
    random values of every magnitude it gives each row's own dot product,
    byte for byte."""
    rng = np.random.default_rng(19)
    for _ in range(2000):
        values = rng.choice([-1.0, 1.0], 6) * 10.0 ** rng.uniform(-300.0, 300.0, 6)
        for edge, tail in ((_D1_EDGE, values[-1:-6:-1]), (_D2_EDGE, values[-1:-7:-1])):
            assert (edge @ tail).tobytes() == np.array([edge[0] @ tail,
                                                        edge[1] @ tail]).tobytes()


def test_laplacian_exact_on_quadratic():
    g = RadialGrid(64, 8.0)
    assert np.max(np.abs(laplacian(g.r ** 2, g) - 8.0)) <= 1e-10


def test_laplacian_fourth_order_on_gaussian():
    errs = []
    for n in (128, 256):
        g = RadialGrid(n, 8.0)
        exact = (4.0 * g.r ** 2 - 8.0) * np.exp(-g.r ** 2)
        errs.append(np.max(np.abs(laplacian(np.exp(-g.r ** 2), g) - exact)))
    assert 3.7 <= math.log2(errs[0] / errs[1]) <= 4.3


def test_integrate_radial_examples():
    for n in (64, 65):  # even and odd interval counts (3/8-rule tail)
        g = RadialGrid(n, 1.0)
        assert integrate_radial(np.ones(g.n_nodes), g, 1) == pytest.approx(0.5, abs=1e-10)
    g = RadialGrid(4096, 12.0)
    gauss = np.exp(-g.r ** 2)
    assert integrate_radial(gauss, g, 1) == pytest.approx(0.5, abs=1e-10)
    assert integrate_radial(gauss, g, 3) == pytest.approx(0.5, abs=1e-10)


def _simpson_uncached(y, h):
    """Composite Simpson with its weights built on every call, as before they
    were cached: the reference the cached weights must reproduce bitwise."""
    n = len(y) - 1
    if n % 2 == 0:
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return h / 3.0 * np.dot(w, y)
    head = _simpson_uncached(y[: n - 2], h) if n > 3 else 0.0
    return head + 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])


def test_simpson_matches_its_uncached_weights_bitwise():
    """Every length 4..12, odd interval counts (the 3/8 closing panel)
    included, twice: once building the weights and once reading them back."""
    rng = np.random.default_rng(3)
    for n_nodes in list(range(4, 13)) * 2:
        y = rng.standard_normal(n_nodes)
        assert _simpson(y, 0.37) == _simpson_uncached(y, 0.37)


def test_cached_quadrature_weights_are_read_only():
    g = RadialGrid(64, 4.0)
    assert g.r3.tobytes() == (g.r ** 3).tobytes()
    for cached in (g.r3, _simpson_weights(65)):
        with pytest.raises(ValueError, match="read-only"):
            cached[...] = 0.0


def test_quadrature_examples():
    assert quadrature_1d(lambda y: y, 1.0, 1.0, 8) == 0.0
    assert quadrature_1d(lambda y: y, 0.0, 1.0, 1) == pytest.approx(0.5, abs=1e-14)
    val = quadrature_1d(lambda y: (1.0 + 0.25 * np.sin(y) ** 2) ** -1.5,
                        0.0, math.pi, 8)
    assert val == pytest.approx(A3_INTEGRAL_R2, abs=1e-12)
    doubled = quadrature_1d(lambda y: (1.0 + 0.25 * np.sin(y) ** 2) ** -1.5,
                            0.0, math.pi, 16)
    assert abs(val - doubled) <= 1e-12


def test_quadrature_panel_halving_gains_an_order():
    def f(y):
        return np.exp(np.sin(3.0 * y))

    ref = quadrature_1d(f, 0.0, 2.0, 64)
    e2 = abs(quadrature_1d(f, 0.0, 2.0, 2) - ref)
    e4 = abs(quadrature_1d(f, 0.0, 2.0, 4) - ref)
    assert e2 / e4 >= 16.0


def test_quadrature_rejects_bad_input():
    with pytest.raises(ValueError):
        quadrature_1d(lambda y: y, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        quadrature_1d(lambda y: np.full_like(y, np.nan), 0.0, 1.0, 2)


def test_sobolev_norms():
    g = RadialGrid(2048, 10.0)
    assert sobolev_norm(np.zeros(g.n_nodes), g, 2) == [0.0, 0.0, 0.0]
    f = np.exp(-g.r ** 2)
    l2 = math.sqrt(integrate_radial(f ** 2, g, 3))
    h0, h1 = sobolev_norm(f, g, 1)
    assert h0 == pytest.approx(l2, rel=1e-14)
    # |f|_{L2}^2 = 1/8 and |f'|_{L2}^2 = 1/2 against r^3 dr
    assert h1 == pytest.approx(math.sqrt(0.625), abs=1e-6)
    with pytest.raises(ValueError):
        sobolev_norm(f, g, 5)


def _sobolev_norm_of_order(f, grid, s):
    """The H^s norm as one call per order took it: its own pass up the
    Laplacian ladder, the reference the one-pass ladder must reproduce."""
    total = 0.0
    g = f
    for k in range(0, s // 2 + 1):
        if k > 0:
            g = laplacian(g, grid)
        total += integrate_radial(g ** 2, grid, 3)
        if 2 * k + 1 <= s:
            total += integrate_radial(d_r(g, grid) ** 2, grid, 3)
    return float(np.sqrt(total))


def _ladder_fields():
    """(values, grid) pairs: random even fields (rough node values, and
    smooth random bumps) on even and odd cell counts, and an evolved state
    of the default data."""
    rng = np.random.default_rng(7)
    fields = []
    for n, r_max in ((64, 4.0), (255, 8.0), (512, 16.0)):
        g = RadialGrid(n, r_max)
        fields.append((rng.standard_normal(g.n_nodes), g))
        amps, widths = rng.uniform(-1.0, 1.0, 3), rng.uniform(0.3, 2.0, 3)
        fields.append((sum(a * np.exp(-(g.r / w) ** 2)
                           for a, w in zip(amps, widths)), g))
    cfg = RunConfig(n_cells=128, r_max=8.0, t_end=0.5)
    *_, last = trajectory(cfg)
    g = RadialGrid(128, 8.0)
    fields += [(last.f, g), (last.f_t, g)]
    return fields


def test_sobolev_ladder_matches_one_pass_per_order_bitwise():
    for f, g in _ladder_fields():
        ladder = sobolev_norm(f, g, 4)
        assert ladder == [_sobolev_norm_of_order(f, g, s) for s in range(5)]
        for s in range(4):
            assert sobolev_norm(f, g, s) == ladder[:s + 1]
        # a caller's d_r(f) stands in for the ladder's own first derivative
        assert sobolev_norm(f, g, 4, d_r(f, g)) == ladder


def test_spacetime_tracker_l2_is_the_ladder_first_partial_sum():
    for f, g in _ladder_fields():
        own, given = SpacetimeTracker(), SpacetimeTracker()
        own.update(f, g, 0.0)
        given.update(f, g, 0.0, sobolev_norm(f, g, 4, d_r(f, g))[0])
        assert own.values() == given.values()
        assert own.values()["Linf_L2"] == _sobolev_norm_of_order(f, g, 0)


def test_field_csv_roundtrip(tmp_path):
    g = RadialGrid(32, 4.0)
    f = np.sin(g.r) * math.pi
    path = tmp_path / "snap.csv"
    write_csv(path, ["r", "value"], zip(g.r, f))
    header = path.read_text().splitlines()[0]
    assert header == "r,value"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], g.r)
    assert np.array_equal(table[:, 1], f)
    # non-floats pass through as str() writes them; floats keep every digit
    write_csv(path, ["a", "b", "c", "d", "e"], [["x", 3, True, math.nan, 0.1]])
    assert path.read_text() == "a,b,c,d,e\nx,3,True,nan,0.10000000000000001\n"
