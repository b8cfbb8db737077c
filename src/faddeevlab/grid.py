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
from functools import cached_property, lru_cache

import numpy as np

from .kernels import DEFAULT_PROFILE, CutoffProfile

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
    """The nodes r_i = i*dr and the shell profile phi of the v chart on them."""

    n_cells: int
    r_max: float
    profile: CutoffProfile = DEFAULT_PROFILE

    def __post_init__(self):
        if self.n_cells < 6:
            raise ValueError(f"n_cells must be >= 6, the smallest mesh the "
                             f"4th-order stencils accept, got {self.n_cells}")
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")

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
    of one grid."""

    f: np.ndarray
    f_t: np.ndarray
    grid: RadialGrid
    time: float = 0.0

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        self.f_t = np.asarray(self.f_t, dtype=float)
        if not self.f.shape == self.f_t.shape == (self.grid.n_nodes,):
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


def d_r(values, grid) -> np.ndarray:
    """4th-order first radial derivative at the nodes. The derivative of an
    even field vanishes at the origin, so node 0 is exactly 0.0 (the raw
    stencil leaves roundoff there)."""
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
    """4D radial Laplacian f'' + 3 f'/r with the r=0 column replaced by its
    limit 4 f''(0)."""
    return _d1_laplacian(values, grid)[1]


@lru_cache(maxsize=8)  # a run's meshes and its energy tail: a few lengths
def _simpson_weights(n_nodes):
    """Composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on odd n_nodes, read-only."""
    w = np.where(np.arange(n_nodes) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    w.flags.writeable = False
    return w


def _simpson(y, h):
    n = len(y) - 1
    if n % 2 == 0:
        return h / 3.0 * np.dot(_simpson_weights(n + 1), y)
    # odd interval count: Simpson up to n-3, then a 3/8 closing panel
    head = _simpson(y[: n - 2], h) if n > 3 else 0.0
    return head + 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])


def integrate_radial(values, grid, weight_power: int = 0) -> float:
    """Composite Simpson of f(r) * r^weight_power over the mesh."""
    if weight_power:
        values = values * (grid.r3 if weight_power == 3 else grid.r ** weight_power)
    return float(_simpson(values, grid.dr))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def sobolev_norm(values, grid, s: int, d1=None) -> list:
    """The integer Sobolev norms of orders 0..s via Laplacian powers against
    r^3 dr, in one pass up the ladder; entry k is

        ( sum_{2j <= k} ||lap^j f||^2 + sum_{2j+1 <= k} ||d_r lap^j f||^2 )^(1/2)

    as a running sum, one term per order. d1 = d_r(values, grid) when the
    caller has it.
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
                g, d1 = _d1_laplacian(g, grid, d1)[1], None
            y = g ** 2
        total += float(_simpson(y * r3, grid.dr))
        norms.append(float(np.sqrt(total)))
    return norms


def write_csv(path, header, rows):
    """Write a header row and data rows. rows is an iterable of rows, or a
    2-D float array, formatted as one table by a single % operation. Floats
    (numpy float64 included) are written as FLOAT_FMT, so doubles survive
    exactly; any other value is written as str() writes it. Both forms give
    the same bytes for the same floats: no formatted float needs quoting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
            fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))
        else:
            w.writerows([FLOAT_FMT % x if isinstance(x, float) else x for x in row]
                        for row in rows)
