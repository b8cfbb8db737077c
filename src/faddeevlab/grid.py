"""Radial meshes, parity-aware finite differences, quadrature and norms.

Uniform nodes r_i = i*dr on [0, r_max]. Fields carry a parity tag that
controls the ghost fill through the origin (even: f(-r) = f(r), odd:
f(-r) = -f(r)); derivatives use 4th-order centered stencils inside and
one-sided 4th-order stencils at the outer edge. The radial measure is
r^(dim-1) dr with dim 2 or 4.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "RadialGrid",
    "RadialField",
    "FieldState",
    "fill_ghosts",
    "d_r",
    "laplacian",
    "integrate_radial",
    "quadrature_1d",
    "sobolev_norm",
    "write_csv",
]

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class RadialGrid:
    n_cells: int
    r_max: float
    dim: int = 4
    ghost: int = 3

    def __post_init__(self):
        if self.dim not in (2, 4):
            raise ValueError("dim must be 2 or 4")
        if self.n_cells < 3:
            raise ValueError("need at least 3 cells")
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")
        if self.ghost < 2:
            raise ValueError("stencils need at least 2 ghosts")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_cells

    @cached_property
    def r(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.dr

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def with_dim(self, dim: int) -> "RadialGrid":
        return replace(self, dim=dim)


@dataclass
class RadialField:
    values: np.ndarray
    parity: str
    grid: RadialGrid

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("field values not aligned to grid nodes")
        if self.parity == "odd":
            self.values[0] = 0.0

    def with_values(self, values) -> "RadialField":
        return RadialField(np.asarray(values, dtype=float), self.parity, self.grid)

    def copy(self) -> "RadialField":
        return RadialField(self.values.copy(), self.parity, self.grid)


@dataclass
class FieldState:
    """A Cauchy pair (f, f_t) at one instant."""

    f: RadialField
    f_t: RadialField
    time: float = 0.0

    def __post_init__(self):
        if self.f.grid != self.f_t.grid:
            raise ValueError("f and f_t must share a grid")
        if self.f.parity != self.f_t.parity:
            raise ValueError("f and f_t must share a parity")

    @property
    def grid(self) -> RadialGrid:
        return self.f.grid


def fill_ghosts(values, parity, grid):
    """Extend node values through the origin by parity reflection."""
    g = grid.ghost
    sign = 1.0 if parity == "even" else -1.0
    return np.concatenate((sign * values[g:0:-1], values))


# One-sided 4th-order rows for the outer edge, applied to the last nodes in
# descending order (f[-1], f[-2], ...).
_D1_EDGE = np.array([
    [3.0, 10.0, -18.0, 6.0, -1.0],      # next-to-last node
    [25.0, -48.0, 36.0, -16.0, 3.0],    # last node
]) / 12.0
_D2_EDGE = np.array([
    [10.0, -15.0, -4.0, 14.0, -6.0, 1.0],
    [45.0, -154.0, 214.0, -156.0, 61.0, -10.0],
]) / 12.0


def _d1_values(values, parity, grid):
    g, h = grid.ghost, grid.dr
    n = grid.n_cells
    ext = fill_ghosts(values, parity, grid)
    out = np.empty_like(values)
    out[: n - 1] = (ext[g - 2:g + n - 3] - 8.0 * ext[g - 1:g + n - 2]
                    + 8.0 * ext[g + 1:g + n] - ext[g + 2:g + n + 1]) / (12.0 * h)
    out[-2] = (_D1_EDGE[0] @ values[-1:-6:-1]) / h
    out[-1] = (_D1_EDGE[1] @ values[-1:-6:-1]) / h
    return out


def _d2_values(values, parity, grid):
    g, h = grid.ghost, grid.dr
    n = grid.n_cells
    ext = fill_ghosts(values, parity, grid)
    out = np.empty_like(values)
    out[: n - 1] = (-ext[g - 2:g + n - 3] + 16.0 * ext[g - 1:g + n - 2]
                    - 30.0 * ext[g:g + n - 1] + 16.0 * ext[g + 1:g + n]
                    - ext[g + 2:g + n + 1]) / (12.0 * h * h)
    out[-2] = (_D2_EDGE[0] @ values[-1:-7:-1]) / (h * h)
    out[-1] = (_D2_EDGE[1] @ values[-1:-7:-1]) / (h * h)
    return out


def d_r(f: RadialField, order: int = 1) -> RadialField:
    """4th-order radial derivative (order 1 or 2) with parity ghosts."""
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    if f.grid.n_nodes < 7:
        raise ValueError("grid too small for 4th-order stencils")
    if order == 1:
        vals = _d1_values(f.values, f.parity, f.grid)
        parity = "odd" if f.parity == "even" else "even"
    else:
        vals = _d2_values(f.values, f.parity, f.grid)
        parity = f.parity
    return RadialField(vals, parity, f.grid)


def _d1_laplacian(values, grid):
    """(d1, lap) of even node values: the first derivative and the radial
    Laplacian f'' + (dim-1) f'/r with the r=0 column replaced by its limit
    dim*f''(0)."""
    d1 = _d1_values(values, "even", grid)
    d2 = _d2_values(values, "even", grid)
    lap = np.empty_like(values)
    lap[0] = grid.dim * d2[0]
    lap[1:] = d2[1:] + (grid.dim - 1) * d1[1:] / grid.r[1:]
    return d1, lap


def laplacian(f: RadialField) -> RadialField:
    """Radial Laplacian f'' + (dim-1) f'/r with the r=0 column replaced by
    its limit dim*f''(0). Defined on even fields only."""
    if f.parity != "even":
        raise ValueError("laplacian is only evaluated on even-parity fields")
    if f.grid.n_nodes < 7:
        raise ValueError("grid too small for 4th-order stencils")
    return RadialField(_d1_laplacian(f.values, f.grid)[1], "even", f.grid)


def _simpson(y, h):
    n = len(y) - 1
    if n % 2 == 0:
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return h / 3.0 * np.dot(w, y)
    # odd interval count: Simpson up to n-3, then a 3/8 closing panel
    head = _simpson(y[: n - 2], h) if n > 3 else 0.0
    return head + 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])


def integrate_radial(f: RadialField, weight_power: int = 0) -> float:
    """Composite Simpson of f(r) * r^weight_power over the mesh."""
    y = f.values * f.grid.r ** weight_power if weight_power else f.values
    return float(_simpson(y, f.grid.dr))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def quadrature_1d(integrand, lower, upper, panels):
    """Composite 5-point Gauss-Legendre quadrature of a vectorizable
    callable over [lower, upper]."""
    if upper == lower:
        return 0.0
    if panels < 1:
        raise ValueError("need at least one panel")
    edges = np.linspace(lower, upper, panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    mid = 0.5 * (edges[:-1] + edges[1:])
    pts = mid[:, None] + half * _GL_NODES[None, :]
    vals = np.asarray(integrand(pts), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite integrand sample")
    return float(half * np.sum(vals @ _GL_WEIGHTS))


def sobolev_norm(f: RadialField, s: int) -> float:
    """Integer Sobolev norm via Laplacian powers against r^(dim-1) dr:

        ( sum_{2k <= s} ||lap^k f||^2 + sum_{2k+1 <= s} ||d_r lap^k f||^2 )^(1/2)
    """
    if s not in (0, 1, 2, 3, 4):
        raise ValueError("s must be an integer 0..4")
    w = f.grid.dim - 1
    total = 0.0
    g = f
    for k in range(0, s // 2 + 1):
        if k > 0:
            g = laplacian(g)
        sq = g.with_values(g.values ** 2)
        total += integrate_radial(sq, w)
        if 2 * k + 1 <= s:
            dg = d_r(g, 1)
            total += integrate_radial(dg.with_values(dg.values ** 2), w)
    return float(np.sqrt(total))


def write_csv(path, header, rows):
    """Write a header row and data rows. Floats (numpy float64 included) are
    written as FLOAT_FMT, so doubles survive exactly; any other value is
    written as str() writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([FLOAT_FMT % x if isinstance(x, float) else x for x in row]
                    for row in rows)
