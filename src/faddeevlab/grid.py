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
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .kernels import DEFAULT_PARAMS, DEFAULT_PROFILE, CutoffProfile, KernelParams

__all__ = [
    "RadialGrid",
    "FieldState",
    "fill_ghosts",
    "d_r",
    "laplacian",
    "integrate_radial",
    "sobolev_norm",
    "write_csv",
]

FLOAT_FMT = "%.17g"

# Ghost nodes through the origin: the 5-point stencils read two.
GHOST = 2


@dataclass(frozen=True)
class RadialGrid:
    """The nodes r_i = i*dr, the v chart's shell profile phi and the coupling alpha."""

    n_cells: int
    r_max: float
    profile: CutoffProfile = DEFAULT_PROFILE
    kernel_params: KernelParams = DEFAULT_PARAMS

    def __post_init__(self):
        if self.n_cells < 6:
            raise ValueError(f"n_cells must be >= 6, the smallest mesh the "
                             f"4th-order stencils accept, got {self.n_cells}")
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")
        # The stencils divide by dr * dr, which must not lose digits or be 0,
        # and the norms weigh by r^3, which must not overflow at the last node.
        dr, last = self.dr, self.n_cells * self.dr
        if not (dr * dr >= sys.float_info.min and math.isfinite(last * last * last)):
            raise ValueError(f"grid.r_max and grid.n_cells must give a normal dr * dr "
                             f"and a finite r_max ** 3, got r_max={self.r_max!r}, "
                             f"n_cells={self.n_cells}")

    @property
    def dr(self) -> float:
        return self.r_max / self.n_cells

    @cached_property  # read-only: every per-mesh cache is built from it
    def r(self) -> np.ndarray:
        r = np.arange(self.n_cells + 1) * self.dr
        r.flags.writeable = False
        return r

    @cached_property  # the 4D radial weight, read-only
    def r3(self) -> np.ndarray:
        r3 = self.r ** 3
        r3.flags.writeable = False
        return r3

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1


@dataclass
class FieldState:
    """A Cauchy pair (f, f_t) at one instant: two float arrays on the nodes
    of one grid. Where a function says so, it also takes a stack of m
    pairs: two (m, n_nodes) arrays, time then being the m instants."""

    f: np.ndarray
    f_t: np.ndarray
    grid: RadialGrid
    time: float = 0.0

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.f_t = np.asarray(self.f_t, dtype=float)
        if not (self.f.shape == self.f_t.shape and self.f.ndim in (1, 2)
                and self.f.shape[-1] == self.grid.n_nodes):
            raise ValueError("field values not aligned to grid nodes")


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


def _d1_values(values, grid, ext=None, tmp=None):
    """The raw first-derivative stencil: the centered body formed in place
    from the ghost-filled values ext, with each scaled neighbour in tmp
    (n_cells long; both made here when not passed), then the edge rows."""
    h, n = grid.dr, grid.n_cells
    ext = fill_ghosts(values) if ext is None else ext
    t = (np.empty(n) if tmp is None else tmp)[:n - 1]
    e0, e1, e3, e4 = ext[:n - 1], ext[1:n], ext[3:n + 2], ext[4:n + 3]  # nodes i-2..i+2
    out = np.empty_like(values)
    body = out[:n - 1]
    np.subtract(e0, np.multiply(8.0, e1, out=t), out=body)
    body += np.multiply(8.0, e3, out=t)
    body -= e4
    body /= 12.0 * h
    out[-2:] = (_D1_EDGE @ values[-1:-6:-1]) / h
    return out


def _per_row(fn, y, *more):
    """fn(y, *more) for 1-D y; for an (m, n) stack, fn of each row (with the
    same row of each of more), stacked. Simpson's dot and the stencils take
    this path: a batched BLAS product can give a row other bytes than its
    own call, and a stacked stencil holds (m, n) temporaries. One row is
    returned as a view of its call's result."""
    if y.ndim == 1:
        return fn(y, *more)
    if len(y) == 1:
        return fn(y[0], *(a[0] for a in more))[None]
    return np.array([fn(*rows) for rows in zip(y, *more)])


def d_r(values, grid) -> np.ndarray:
    """4th-order first radial derivative at the nodes, along the trailing
    axis. The derivative of an even field vanishes at the origin, so node 0
    is exactly 0.0 (the raw stencil leaves roundoff there)."""
    if values.ndim > 1:
        return _per_row(lambda row: d_r(row, grid), values)
    out = _d1_values(values, grid)
    out[0] = 0.0
    return out


def _d1_laplacian(values, grid, d1=None):
    """(d1, lap): the raw first-derivative stencil (node 0 included, unless
    the caller passes d1: lap reads it only off the origin) and the 4D
    radial Laplacian f'' + 3 f'/r with the r=0 column replaced by its limit
    4 f''(0). One ghost fill serves both stencils, and f'' is formed in lap."""
    h, n, ext = grid.dr, grid.n_cells, fill_ghosts(values)
    tmp = np.empty(n)
    if d1 is None:
        d1 = _d1_values(values, grid, ext, tmp)
    e0, e1, e2, e3, e4 = ext[:n - 1], ext[1:n], ext[2:n + 1], ext[3:n + 2], ext[4:n + 3]
    lap = np.empty_like(values)
    body, t = lap[:n - 1], tmp[:n - 1]  # (-e0 + 16 e1 - 30 e2 + 16 e3 - e4) / (12 h^2)
    np.negative(e0, out=body)
    body += np.multiply(16.0, e1, out=t)
    body -= np.multiply(30.0, e2, out=t)
    body += np.multiply(16.0, e3, out=t)
    body -= e4
    body /= 12.0 * h * h
    lap[-2:] = (_D2_EDGE @ values[-1:-7:-1]) / (h * h)
    np.multiply(3, d1[1:], out=tmp)
    lap[1:] += np.divide(tmp, grid.r[1:], out=tmp)
    lap[0] = 4 * lap[0]
    return d1, lap


def laplacian(values, grid) -> np.ndarray:
    """4D radial Laplacian f'' + 3 f'/r of one state's node values, with the
    r=0 value replaced by its limit 4 f''(0)."""
    return _d1_laplacian(values, grid)[1]


@lru_cache(maxsize=8)  # a run's meshes and its energy tail: a few lengths
def _simpson_weights(n_nodes):
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on odd n_nodes, read-only."""
    w = np.where(np.arange(n_nodes) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    w.flags.writeable = False
    return w


def _simpson(y, h):
    """Composite Simpson along the trailing axis: a numpy float for 1-D y,
    one per row of an (m, n) stack."""
    n = y.shape[-1] - 1
    if n % 2 == 0:
        return h / 3.0 * _per_row(_simpson_weights(n + 1).dot, y)
    # odd interval count: Simpson up to n-3, then a 3/8 closing panel
    head = _simpson(y[..., : n - 2], h) if n > 3 else 0.0
    return head + 3.0 * h / 8.0 * (y[..., -4] + 3.0 * y[..., -3] + 3.0 * y[..., -2]
                                   + y[..., -1])


def integrate_radial(values, grid, weight_power: int = 0):
    """Composite Simpson of f(r) * r^weight_power over the mesh: a float, or
    for an (m, n) stack a list of one per row."""
    if weight_power:
        values = values * (grid.r3 if weight_power == 3 else grid.r ** weight_power)
    return _simpson(values, grid.dr).tolist()


# The 5-point Gauss-Legendre rule on [-1, 1] with the bytes of numpy's
# legendre.leggauss(5) (its middle weight is 0.5688888888888887, not 128/225).
_GL_NODES = np.array([-0.906179845938664, -0.5384693101056831, 0.0,
                      0.5384693101056831, 0.906179845938664])
_GL_WEIGHTS = np.array([0.23692688505618928, 0.4786286704993663, 0.5688888888888887,
                        0.4786286704993663, 0.23692688505618928])


def sobolev_norm(values, grid, s: int, d1=None) -> list:
    """The integer Sobolev norms of orders 0..s via Laplacian powers against
    r^3 dr, in one pass up the ladder; entry k is

        ( sum_{2j <= k} ||lap^j f||^2 + sum_{2j+1 <= k} ||d_r lap^j f||^2 )^(1/2)

    as a running sum, one term per order: a float, or for an (m, n) stack a
    list of one per row, each with the bytes of its own call. d1 =
    d_r(values, grid) when the caller has it.
    """
    if s not in (0, 1, 2, 3, 4):
        raise ValueError("s must be an integer 0..4")
    r3 = grid.r3
    g, total, norms = values, 0.0, []
    for order in range(s + 1):
        if order % 2:
            if d1 is None:
                d1 = d_r(g, grid)
            y = d1 ** 2
        else:
            if order:
                g, d1 = _per_row(lambda a, b: _d1_laplacian(a, grid, b)[1], g, d1), None
            y = g ** 2
        y *= r3
        total = total + _simpson(y, grid.dr)
        norms.append(np.sqrt(total).tolist())
    return norms


def write_csv(path, header, rows):
    """Write a header row and data rows. Floats (numpy float64 included) are
    written as FLOAT_FMT, so doubles survive exactly; any other value is
    written as str() writes it."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([FLOAT_FMT % x if isinstance(x, float) else x for x in row]
                    for row in rows)
