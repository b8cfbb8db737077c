"""Radial mesh, stencils, quadrature and norms."""

import math

import numpy as np
import pytest

from faddeevlab.diagnostics import SpacetimeTracker
from faddeevlab.evolve import RunConfig, trajectory
from faddeevlab.grid import (GHOST, FieldState, RadialField, RadialGrid,
                             _d1_laplacian, _d1_values, d_r, fill_ghosts,
                             integrate_radial, laplacian, sobolev_norm,
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
    f = RadialField(np.exp(-g.r ** 2), g)
    assert d_r(f).shape == laplacian(f).values.shape == (7,)
    with pytest.raises(ValueError):
        RadialGrid(128, 0.0)


def test_grid_nodes():
    g = RadialGrid(128, 8.0)
    assert g.dr == 0.0625
    assert g.n_nodes == 129
    assert g.r[0] == 0.0 and g.r[-1] == 8.0


def test_field_validation():
    g = RadialGrid(16, 1.0)
    with pytest.raises(ValueError):
        RadialField(np.ones(g.n_nodes - 1), g)
    other = RadialGrid(32, 1.0)
    with pytest.raises(ValueError, match="share a grid"):
        FieldState(RadialField(np.ones(g.n_nodes), g),
                   RadialField(np.ones(other.n_nodes), other))


def test_ghost_fill_is_exact_parity():
    g = RadialGrid(16, 2.0)
    f = np.cos(g.r)
    ext = fill_ghosts(f)
    for k in range(1, GHOST + 1):
        assert ext[GHOST - k] == ext[GHOST + k]


def test_d_r_polynomial_exactness():
    g = RadialGrid(128, 8.0)
    const = RadialField(np.full(g.n_nodes, math.pi), g)
    assert np.max(np.abs(d_r(const))) <= 1e-13
    quad = RadialField(g.r ** 2, g)
    assert np.max(np.abs(d_r(quad) - 2.0 * g.r)) <= 1e-12


def test_d_r_fourth_order_on_sine():
    """d_r of the even cos(r) converges to -sin(r) at 4th order."""
    errs = []
    for n in (128, 256):
        g = RadialGrid(n, 8.0)
        f = RadialField(np.cos(g.r), g)
        errs.append(np.max(np.abs(d_r(f) + np.sin(g.r))))
    assert 3.8 <= math.log2(errs[0] / errs[1]) <= 4.2


def test_d_r_is_exactly_zero_at_the_origin():
    """d_r zeroes node 0, where the raw stencil leaves roundoff; the
    right-hand side reads that raw value through _d1_laplacian."""
    g = RadialGrid(64, 8.0)
    f = RadialField(0.3 * np.exp(-g.r ** 2), g)
    raw = _d1_values(f.values, g)
    assert raw[0] != 0.0  # 3.7e-17
    assert d_r(f)[0] == 0.0
    assert np.array_equal(d_r(f)[1:], raw[1:])
    assert _d1_laplacian(f.values, g)[0][0] == raw[0]


def test_laplacian_exact_on_quadratic():
    g = RadialGrid(64, 8.0)
    assert np.max(np.abs(laplacian(RadialField(g.r ** 2, g)).values
                         - 8.0)) <= 1e-10


def test_laplacian_fourth_order_on_gaussian():
    errs = []
    for n in (128, 256):
        g = RadialGrid(n, 8.0)
        f = RadialField(np.exp(-g.r ** 2), g)
        exact = (4.0 * g.r ** 2 - 8.0) * np.exp(-g.r ** 2)
        errs.append(np.max(np.abs(laplacian(f).values - exact)))
    assert 3.7 <= math.log2(errs[0] / errs[1]) <= 4.3


def test_integrate_radial_examples():
    for n in (64, 65):  # even and odd interval counts (3/8-rule tail)
        g = RadialGrid(n, 1.0)
        one = RadialField(np.ones(g.n_nodes), g)
        assert integrate_radial(one, 1) == pytest.approx(0.5, abs=1e-10)
    g = RadialGrid(4096, 12.0)
    gauss = RadialField(np.exp(-g.r ** 2), g)
    assert integrate_radial(gauss, 1) == pytest.approx(0.5, abs=1e-10)
    assert integrate_radial(gauss, 3) == pytest.approx(0.5, abs=1e-10)


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
    zero = RadialField(np.zeros(g.n_nodes), g)
    assert sobolev_norm(zero, 2) == [0.0, 0.0, 0.0]
    f = RadialField(np.exp(-g.r ** 2), g)
    l2 = math.sqrt(integrate_radial(RadialField(f.values ** 2, g), 3))
    h0, h1 = sobolev_norm(f, 1)
    assert h0 == pytest.approx(l2, rel=1e-14)
    # |f|_{L2}^2 = 1/8 and |f'|_{L2}^2 = 1/2 against r^3 dr
    assert h1 == pytest.approx(math.sqrt(0.625), abs=1e-6)
    with pytest.raises(ValueError):
        sobolev_norm(f, 5)


def _sobolev_norm_of_order(f, s):
    """The H^s norm as one call per order took it: its own pass up the
    Laplacian ladder, the reference the one-pass ladder must reproduce."""
    total = 0.0
    g = f
    for k in range(0, s // 2 + 1):
        if k > 0:
            g = laplacian(g)
        total += integrate_radial(g.with_values(g.values ** 2), 3)
        if 2 * k + 1 <= s:
            total += integrate_radial(g.with_values(d_r(g) ** 2), 3)
    return float(np.sqrt(total))


def _ladder_fields():
    """Random even fields (rough node values, and smooth random bumps) on
    even and odd cell counts, and an evolved state of the default data."""
    rng = np.random.default_rng(7)
    fields = []
    for n, r_max in ((64, 4.0), (255, 8.0), (512, 16.0)):
        g = RadialGrid(n, r_max)
        fields.append(RadialField(rng.standard_normal(g.n_nodes), g))
        amps, widths = rng.uniform(-1.0, 1.0, 3), rng.uniform(0.3, 2.0, 3)
        fields.append(RadialField(sum(a * np.exp(-(g.r / w) ** 2)
                                      for a, w in zip(amps, widths)), g))
    cfg = RunConfig(n_cells=128, r_max=8.0, t_end=0.5)
    *_, (_, _, v, vt) = trajectory(cfg)
    g = RadialGrid(128, 8.0)
    fields += [RadialField(v, g), RadialField(vt, g)]
    return fields


def test_sobolev_ladder_matches_one_pass_per_order_bitwise():
    for f in _ladder_fields():
        ladder = sobolev_norm(f, 4)
        assert ladder == [_sobolev_norm_of_order(f, s) for s in range(5)]
        for s in range(4):
            assert sobolev_norm(f, s) == ladder[:s + 1]
        # a caller's d_r(f) stands in for the ladder's own first derivative
        assert sobolev_norm(f, 4, d_r(f)) == ladder


def test_spacetime_tracker_l2_is_the_ladder_first_partial_sum():
    for f in _ladder_fields():
        own, given = SpacetimeTracker(), SpacetimeTracker()
        own.update(f, 0.0)
        given.update(f, 0.0, sobolev_norm(f, 4, d_r(f))[0])
        assert own.values() == given.values()
        assert own.values()["Linf_L2"] == _sobolev_norm_of_order(f, 0)


def test_field_csv_roundtrip(tmp_path):
    g = RadialGrid(32, 4.0)
    f = RadialField(np.sin(g.r) * math.pi, g)
    path = tmp_path / "snap.csv"
    write_csv(path, ["r", "value"], zip(g.r, f.values))
    header = path.read_text().splitlines()[0]
    assert header == "r,value"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], g.r)
    assert np.array_equal(table[:, 1], f.values)
    # non-floats pass through as str() writes them; floats keep every digit
    write_csv(path, ["a", "b", "c", "d", "e"], [["x", 3, True, math.nan, 0.1]])
    assert path.read_text() == "a,b,c,d,e\nx,3,True,nan,0.10000000000000001\n"
