"""Time evolution of (v, v_t) for v_tt = lap4 v + F(v) on the radial mesh.

Classical RK4 in time, 4th-order centered stencils in space, a Maxwellian
sponge layer (-sigma(r) v_t with a quadratic ramp over the outer part of
the domain) standing in for the unbounded domain, and blow-up/breakdown
detection that separates monitored field growth from scheme failure.
Runs are deterministic: a fixed config reproduces diagnostics bit for bit.
"""
from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache, reduce
from itertools import islice

import numpy as np

from .grid import FLOAT_FMT, FieldState, RadialGrid, _d1_laplacian, d_r
from . import diagnostics as diag
from . import kernels
from .kernels import CutoffProfile, KernelParams
from .transform import u_to_v, v_to_u

__all__ = [
    "InitialDataSpec",
    "SpongeSpec",
    "RunConfig",
    "RunResult",
    "CONFIG_TABLE",
    "config_from_items",
    "make_grid",
    "initial_state",
    "sponge_sigma",
    "trajectory",
    "run",
    "evolve_bundles",
    "detect_blowup",
    "config_fingerprint",
    "config_items",
    "write_checkpoint",
]


@dataclass(frozen=True)
class InitialDataSpec:
    """Initial data families.

    gaussian_v: v0(r) = amplitude * [e^(-((r-center)/width)^2)
                + e^(-((r+center)/width)^2)] / (1 + e^(-(2 center/width)^2)),
    an evenly symmetrized bump (reduces to a plain Gaussian at center 0,
    peak amplitude ~ amplitude for center >> width); the velocity profile
    is the analogous bump with the _t parameters.

    profile_u: tabulated (r, u0, u1) read from profile_path; the table must
    sit exactly on the run grid and satisfy u0(0) = pi.
    """

    family: str = "gaussian_v"
    amplitude: float = 0.5
    center: float = 0.0
    width: float = 1.0
    amplitude_t: float = 0.0
    center_t: float = 0.0
    width_t: float = 1.0
    profile_path: str = ""

    def __post_init__(self):
        if self.family not in ("gaussian_v", "profile_u"):
            raise ValueError(f"unknown initial-data family {self.family!r}")
        if self.family == "profile_u" and not self.profile_path:
            raise ValueError("initial_data.family=profile_u needs a table: "
                             "set initial_data.profile_path")
        if self.width <= 0 or self.width_t <= 0:
            raise ValueError("gaussian widths must be positive")


@dataclass(frozen=True)
class SpongeSpec:
    """Damping layer; start < 0 means the default 0.85 * r_max."""

    start: float = -1.0
    strength: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    n_cells: int = 512
    r_max: float = 16.0
    t_end: float = 5.0
    cfl: float = 0.25
    sponge: SpongeSpec = field(default_factory=SpongeSpec)
    initial: InitialDataSpec = field(default_factory=InitialDataSpec)
    kernel_params: KernelParams = field(default_factory=KernelParams)
    profile: CutoffProfile = field(default_factory=CutoffProfile)
    output_every: int = 64
    snapshot_every: int = 0
    monitor_ceiling: float = 1e6
    drift_ceiling: float = 1e-2
    sobolev_orders: tuple = (1, 2, 3, 4)
    track_spacetime: bool = True

    def __post_init__(self):
        object.__setattr__(self, "sobolev_orders", tuple(self.sobolev_orders))
        for key, value in config_items(self):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError("cfl must lie in (0, 0.5]")
        if self.t_end <= 0.0:
            raise ValueError("t_end must be positive")
        if self.sponge.start >= self.r_max:
            raise ValueError("sponge start must lie inside the domain")
        if self.sponge.strength < 0.0:
            raise ValueError(f"integrator.sponge_strength must be >= 0, "
                             f"got {self.sponge.strength}")
        if self.output_every < 1:
            raise ValueError("output cadence must be >= 1 step")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0 (0 writes no snapshots)")
        if any(s not in (0, 1, 2, 3, 4) for s in self.sobolev_orders):
            raise ValueError(f"sobolev_orders must lie in 0..4, got {self.sobolev_orders}")
        make_grid(self)  # the grid's own rules: n_cells >= 6, r_max > 0


@dataclass
class RunResult:
    status: str               # completed | blowup_nan | blowup_monitor | scheme_breakdown
    reason: str
    records: list             # diagnostics rows: dicts keyed by diagnostics.csv column
    state: FieldState
    snapshots: list           # (step index, FieldState) of each snapshot
    config: RunConfig
    step: int                 # step index of state: nsteps, or where the run halted


_BOOL_STATES = configparser.ConfigParser.BOOLEAN_STATES


def _bool(text):
    try:
        return _BOOL_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}")


def _orders(text):
    text = text.strip()
    return tuple(int(tok) for tok in text.split(",") if tok.strip()) if text else ()


# Every settable key: (dotted key, RunConfig field path, caster from text),
# in the order config files, fingerprints and checkpoint metadata list them.
# Defaults live only in the dataclasses. output.dir is not part of a
# RunConfig; load_config returns it beside the config.
CONFIG_TABLE = (
    ("grid.n_cells", "n_cells", int),
    ("grid.r_max", "r_max", float),
    ("integrator.t_end", "t_end", float),
    ("integrator.cfl", "cfl", float),
    ("integrator.sponge_start", "sponge.start", float),
    ("integrator.sponge_strength", "sponge.strength", float),
    ("initial_data.family", "initial.family", str),
    ("initial_data.amplitude", "initial.amplitude", float),
    ("initial_data.center", "initial.center", float),
    ("initial_data.width", "initial.width", float),
    ("initial_data.amplitude_t", "initial.amplitude_t", float),
    ("initial_data.center_t", "initial.center_t", float),
    ("initial_data.width_t", "initial.width_t", float),
    ("initial_data.profile_path", "initial.profile_path", str),
    ("kernels.alpha", "kernel_params.alpha", float),
    ("kernels.cutoff_order", "profile.kind", int),
    ("diagnostics.output_every", "output_every", int),
    ("diagnostics.monitor_ceiling", "monitor_ceiling", float),
    ("diagnostics.drift_ceiling", "drift_ceiling", float),
    ("diagnostics.track_spacetime", "track_spacetime", _bool),
    ("diagnostics.sobolev_orders", "sobolev_orders", _orders),
    ("output.snapshot_every", "snapshot_every", int),
    ("output.dir", None, str),
)


def config_from_items(values: dict) -> RunConfig:
    """RunConfig from typed {dotted key: value}; absent keys keep their
    dataclass defaults and keys without a field path are ignored."""
    top, nested = {}, {}
    for key, path, _ in CONFIG_TABLE:
        if path and key in values:
            head, _, attr = path.partition(".")
            if attr:
                nested.setdefault(head, {})[attr] = values[key]
            else:
                top[head] = values[key]
    base = RunConfig()
    for head, kw in nested.items():
        top[head] = replace(getattr(base, head), **kw)
    return replace(base, **top)


def config_items(config: RunConfig):
    """Flatten a RunConfig into deterministic (section.key, value) pairs."""
    items = []
    for key, path, _ in CONFIG_TABLE:
        if path:
            value = reduce(getattr, path.split("."), config)
            if isinstance(value, tuple):
                value = ",".join(str(s) for s in value)
            items.append((key, value))
    return items


def config_fingerprint(config: RunConfig) -> str:
    text = "\n".join(f"{k} = {v}" for k, v in config_items(config))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def make_grid(config: RunConfig) -> RadialGrid:
    return RadialGrid(config.n_cells, config.r_max, config.profile)


def _bump(r, a, center, width):
    norm = 1.0 + math.exp(-(2.0 * center / width) ** 2)
    return a * (np.exp(-((r - center) / width) ** 2)
                + np.exp(-((r + center) / width) ** 2)) / norm


def initial_state(config: RunConfig) -> FieldState:
    g = make_grid(config)
    spec = config.initial
    if spec.family == "gaussian_v":
        # an overflow is reported below, by setting and radius: first where
        # v or its u chart r v overflows, else where the square of r v that
        # the energy takes (u_t = r v1) does
        with np.errstate(over="ignore", invalid="ignore"):
            v0 = _bump(g.r, spec.amplitude, spec.center, spec.width)
            v1 = _bump(g.r, spec.amplitude_t, spec.center_t, spec.width_t)
            for key, v in (("amplitude", v0), ("amplitude_t", v1)):
                for ok in (np.isfinite(v) & np.isfinite(g.r * v),
                           np.isfinite((g.r * v) ** 2)):
                    if not ok.all():
                        raise ValueError(f"initial_data.{key} gives a non-finite "
                                         f"initial state at r={g.r[np.argmin(ok)]:.6g}")
        return FieldState(v0, v1, g)
    table = np.loadtxt(spec.profile_path, delimiter=",", skiprows=1)
    if table.shape != (g.n_nodes, 3):
        raise ValueError("tabulated profile does not match the run grid")
    if not np.all(np.isfinite(table)):
        raise ValueError("tabulated profile holds a non-finite value")
    if not np.allclose(table[:, 0], g.r, rtol=0.0, atol=1e-12 * g.r_max):
        raise ValueError("tabulated radii do not match the run grid nodes")
    return u_to_v(FieldState(table[:, 1], table[:, 2], g))


def sponge_sigma(grid: RadialGrid, spec: SpongeSpec) -> np.ndarray:
    """Quadratic damping ramp over [start, r_max]."""
    start = spec.start if spec.start >= 0.0 else 0.85 * grid.r_max
    sig = np.zeros(grid.n_nodes)
    m = grid.r > start
    sig[m] = spec.strength * ((grid.r[m] - start) / (grid.r_max - start)) ** 2
    return sig


def _operator(grid, p, sig, forcing, nonlinear=True):
    """The right-hand side f(v, vt, t) -> (vt, acc) of the lifted equation on
    one grid; nonlinear=False drops F (free-wave benchmark path)."""
    cut = kernels.mesh_cutoffs(grid) if nonlinear else None

    def f(v, vt, t):
        vr, acc = _d1_laplacian(v, grid)
        if cut is not None:
            acc += kernels.eval_F_given_cutoffs(v, vt, vr, cut, p)
        if sig is not None:
            acc -= sig * vt
        if forcing is not None:
            acc += forcing(t)
        return vt, acc

    return f


def _rk4(f, v, vt, t, dt):
    """One RK4 step: x + c k per stage, x + dt/6 (k1 + 2 (k2 + k3) + k4) per
    result, each formed in place in one new array (+ and * commute bitwise)."""
    h = 0.5 * dt
    ks = [f(v, vt, t)]
    for c, tc in ((h, t + h), (h, t + h), (dt, t + dt)):
        sv, sa = c * ks[-1][0], c * ks[-1][1]
        sv += v
        sa += vt
        ks.append(f(sv, sa, tc))
    new = []
    for x, k1, k2, k3, k4 in zip((v, vt), *ks):
        acc = k2 + k3
        acc *= 2.0
        acc += k1
        acc += k4
        acc *= dt / 6.0
        acc += x
        new.append(acc)
    return tuple(new)


def _schedule(config: RunConfig):
    """(nsteps, dt): the fixed step landing on t_end with dt <= cfl * dr."""
    nsteps = max(1, math.ceil(config.t_end / (config.cfl * make_grid(config).dr)))
    return nsteps, config.t_end / nsteps


def trajectory(config: RunConfig, forcing=None, state=None, nonlinear=True):
    """Yield the FieldState at t = k dt for k = 0..nsteps of the RK4 evolution.

    state is the data at t = 0 on make_grid(config) (default
    initial_state(config)); its arrays are copied. The sponge is dropped
    when it is zero everywhere, and nonlinear=False drops F (free-wave
    path). Yielded states own arrays never modified afterwards: keep them.
    """
    g = make_grid(config)
    state = state if state is not None else initial_state(config)
    if state.grid != g:
        raise ValueError(f"the state lives on {state.grid}, the config's mesh is {g}")
    sig = sponge_sigma(g, config.sponge)
    f = _operator(g, config.kernel_params, sig if sig.any() else None, forcing, nonlinear)
    nsteps, dt = _schedule(config)
    state = FieldState(state.f.copy(), state.f_t.copy(), g)
    yield state
    for k in range(1, nsteps + 1):
        state = FieldState(*_rk4(f, state.f, state.f_t, (k - 1) * dt, dt), g, k * dt)
        yield state


def detect_blowup(record, monitor_ceiling, drift_ceiling, step, every):
    """(status, reason) when a sample's stop condition fires, else None.

    A continuation monitor at or above its ceiling, or energy drift above
    the breakdown threshold (scheme failure, reported separately from
    physical growth), named with the sample's step and cadence. Non-finite
    fields never reach a sample: run halts on the step that produces them.
    """
    when = f"at step {step}, t={record['time']:.6g} (judged every {every} steps)"
    name = max(("monitor_v", "monitor_vt", "monitor_gradv"), key=record.get)
    worst = record[name]
    if worst >= monitor_ceiling:
        return ("blowup_monitor", f"continuation monitor {name} = {worst:.6g} "
                                  f"at ceiling {monitor_ceiling:.6g} {when}")
    if record["energy_drift"] > drift_ceiling:
        return ("scheme_breakdown", f"energy drift {record['energy_drift']:.6g} "
                                    f"exceeds {drift_ceiling:.6g} {when}")
    return None


def _sample(state, config, records, tracker):
    """The diagnostics row of a state: a dict keyed by the diagnostics.csv
    columns, in file order. Its per-mesh weights are read from
    kernels.mesh_cutoffs; one v_r serves the energy, the monitors and the
    Sobolev ladder, which runs once up to the highest order the row or the
    tracker reads. The drift is taken against the energy of records[0], or
    is 0 for the first row."""
    p, orders = config.kernel_params, config.sobolev_orders
    v, t, g = state.f, state.time, state.grid
    cut = kernels.mesh_cutoffs(g)
    vr = d_r(v, g)
    e, tail = diag.energy(v_to_u(state), p, state, return_tail=True, v_r=vr)
    ladder = (diag.sobolev_norm(v, g, max(orders, default=0), vr)
              if orders or tracker is not None else [])
    row = {"time": t, "energy": e,
           "energy_drift": diag.energy_drift(e, records[0]["energy"] if records else e),
           "energy_tail": tail}
    row.update(zip(("monitor_v", "monitor_vt", "monitor_gradv"),
                   diag.continuation_monitor(state, vr, cut)))
    row.update((f"sobolev_s{s}", ladder[s]) for s in sorted(set(orders)))
    decay = diag.decay_report(v, cut)
    row.update(decay_inner=decay["inner"], decay_outer=decay["outer"])
    if tracker is not None:
        tracker.update(v, g, t - records[-1]["time"] if records else 0.0, ladder[0])
        row.update(tracker.values())
    return row


def run(config: RunConfig, forcing=None) -> RunResult:
    """Advance to t_end, or until a step yields a non-finite value or a
    sample fires detect_blowup; diagnostics at the configured cadence (plus
    the initial and final instants)."""
    nsteps, _ = _schedule(config)
    tracker = diag.SpacetimeTracker() if config.track_spacetime else None
    records, snapshots = [], []
    verdict = None
    # overflow and NaN are checked on every step and reported as the halt
    with np.errstate(over="ignore", invalid="ignore"):
        for k, state in enumerate(trajectory(config, forcing)):
            # the initial data is not stepped: its first sample judges it
            finite = np.isfinite(state.f) & np.isfinite(state.f_t)
            if k and not finite.all():
                bad = state.grid.r[np.argmin(finite)]
                verdict = ("blowup_nan", f"non-finite field values at step {k}, "
                                         f"t={state.time:.6g}, r={bad:.6g}")
                break
            if config.snapshot_every and (k % config.snapshot_every == 0 or k == nsteps):
                snapshots.append((k, state))
            if k % config.output_every == 0 or k == nsteps:
                try:
                    records.append(_sample(state, config, records, tracker))
                except diag.EnergyOverflow as exc:  # finite fields too large to square
                    if not k:  # the initial data's: a config error naming it
                        spec = config.initial
                        data = f"initial_data.family={spec.family}" + (
                            f", initial_data.profile_path={spec.profile_path}"
                            if spec.family == "profile_u" else "")
                        raise diag.EnergyOverflow(f"{data} gives a {exc}") from exc
                    verdict = ("blowup_nan", f"{exc} at step {k}, t={state.time:.6g}")
                    break
                verdict = detect_blowup(records[-1], config.monitor_ceiling,
                                        config.drift_ceiling, k, config.output_every)
                if verdict is not None:
                    break
    status, reason = verdict or ("completed", f"reached t_end={config.t_end:g}")
    return RunResult(status, reason, records, state, snapshots, config, k)


def _window_start(config: RunConfig, t_center: float, n_levels: int) -> int:
    """The first step of the n_levels consecutive steps centred near
    t_center; ValueError unless they all lie inside steps 0..nsteps."""
    nsteps, dt = _schedule(config)
    first = round(t_center / dt) - n_levels // 2
    if first < 0 or first + n_levels - 1 > nsteps:
        raise ValueError(f"a window of n_levels={n_levels} steps of dt={dt:.6g} "
                         f"centred at t_center={t_center:g} does not lie inside "
                         f"[0, t_end={config.t_end:g}]")
    return first


def evolve_bundles(config: RunConfig, t_center: float, n_levels: int):
    """Evolve quietly, unforced, and return the n_levels consecutive
    per-step states centred near t_center (the windows the residual-identity
    evaluators read). The window must lie inside steps 0..nsteps; that is
    checked before any step is taken."""
    first = _window_start(config, t_center, n_levels)
    return list(islice(trajectory(config), first, first + n_levels))


@lru_cache(maxsize=1)
def _meta_text(config: RunConfig) -> str:
    """The config lines every .meta file of a run carries, fingerprint first;
    formatted once per run."""
    items = [("config_hash", config_fingerprint(config))] + config_items(config)
    return "".join(f"{k} = {v}\n" for k, v in items)


@lru_cache(maxsize=1)
def _checkpoint_template(grid: RadialGrid) -> str:
    """write_csv's (r, v, v_t) bytes, header and r formatted, v and v_t `%` fields."""
    line = f",{FLOAT_FMT},{FLOAT_FMT}\n"
    return "r,v,v_t\n" + "".join(FLOAT_FMT % r + line for r in grid.r.tolist())


def write_checkpoint(state: FieldState, path_base, config: RunConfig, step_no: int):
    """CSV snapshot (r, v, v_t) plus a key=value metadata sidecar."""
    values = np.column_stack((state.f, state.f_t)).ravel().tolist()
    with open(f"{path_base}.csv", "w", newline="") as fh:
        fh.write(_checkpoint_template(state.grid) % tuple(values))
    with open(f"{path_base}.meta", "w") as fh:
        fh.write(f"time = {FLOAT_FMT % state.time}\nstep = {step_no}\n"
                 + _meta_text(config))
