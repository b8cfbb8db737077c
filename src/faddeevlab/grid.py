"""The radial mesh, finite differences, quadrature and norms.

Uniform nodes r_i = i*dr on [0, r_max]. Every field is even in r: the
ghost fill through the origin is the reflection f(-r) = f(r).
Derivatives use 4th-order centered stencils inside and one-sided
4th-order stencils at the outer edge. Laplacian and Sobolev norms are
those of the 4D radial measure r^3 dr, the space the lifted field v
lives in.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
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

# Ghost nodes through the origin: the 5-point stencils read two.
GHOST = 2


@dataclass(frozen=True)
class RadialGrid:
    n_cells: int
    r_max: float

    def __post_init__(self):
        if self.n_cells < 6:
            raise ValueError(f"n_cells must be >= 6, the smallest mesh the "
                             f"4th-order stencils accept, got {self.n_cells}")
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_cells

    @cached_property
    def r(self) -> np.ndarray:
        return np.arange(self.n_cells + 1) * self.dr

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1


@dataclass
class RadialField:
    values: np.ndarray
    grid: RadialGrid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_nodes,):
            raise ValueError("field values not aligned to grid nodes")

    def with_values(self, values) -> "RadialField":
        return RadialField(np.asarray(values, dtype=float), self.grid)

    def copy(self) -> "RadialField":
        return RadialField(self.values.copy(), self.grid)


@dataclass
class FieldState:
    """A Cauchy pair (f, f_t) at one instant."""

    f: RadialField
    f_t: RadialField
    time: float = 0.0

    def __post_init__(self):
        if self.f.grid != self.f_t.grid:
            raise ValueError("f and f_t must share a grid")

    @property
    def grid(self) -> RadialGrid:
        return self.f.grid


def fill_ghosts(values):
    """Extend node values through the origin by even reflection."""
    return np.concatenate((values[GHOST:0:-1], values))


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


def _d1_values(values, grid):
    g, h = GHOST, grid.dr
    n = grid.n_cells
    ext = fill_ghosts(values)
    out = np.empty_like(values)
    out[: n - 1] = (ext[g - 2:g + n - 3] - 8.0 * ext[g - 1:g + n - 2]
                    + 8.0 * ext[g + 1:g + n] - ext[g + 2:g + n + 1]) / (12.0 * h)
    out[-2] = (_D1_EDGE[0] @ values[-1:-6:-1]) / h
    out[-1] = (_D1_EDGE[1] @ values[-1:-6:-1]) / h
    return out


def _d2_values(values, grid):
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


def d_r(f: RadialField) -> np.ndarray:
    """4th-order first radial derivative at the nodes. The derivative of an
    even field vanishes at the origin, so node 0 is exactly 0.0 (the raw
    stencil leaves roundoff there)."""
    out = _d1_values(f.values, f.grid)
    out[0] = 0.0
    return out


def _d1_laplacian(values, grid):
    """(d1, lap): the raw first-derivative stencil (node 0 included) and the
    4D radial Laplacian f'' + 3 f'/r with the r=0 column replaced by its
    limit 4 f''(0)."""
    d1 = _d1_values(values, grid)
    d2 = _d2_values(values, grid)
    lap = np.empty_like(values)
    lap[0] = 4 * d2[0]
    lap[1:] = d2[1:] + 3 * d1[1:] / grid.r[1:]
    return d1, lap


def laplacian(f: RadialField) -> RadialField:
    """4D radial Laplacian f'' + 3 f'/r with the r=0 column replaced by its
    limit 4 f''(0)."""
    return RadialField(_d1_laplacian(f.values, f.grid)[1], f.grid)


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
    """Integer Sobolev norm via Laplacian powers against r^3 dr:

        ( sum_{2k <= s} ||lap^k f||^2 + sum_{2k+1 <= s} ||d_r lap^k f||^2 )^(1/2)
    """
    if s not in (0, 1, 2, 3, 4):
        raise ValueError("s must be an integer 0..4")
    total = 0.0
    g = f
    for k in range(0, s // 2 + 1):
        if k > 0:
            g = laplacian(g)
        total += integrate_radial(g.with_values(g.values ** 2), 3)
        if 2 * k + 1 <= s:
            total += integrate_radial(g.with_values(d_r(g) ** 2), 3)
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
