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
    "NonFiniteStep",
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
        # one order set, one config: (2, 0) and (0, 2, 2) sample and hash alike
        object.__setattr__(self, "sobolev_orders", tuple(sorted(set(self.sobolev_orders))))
        for key, value in config_items(self):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if key.endswith("_ceiling") and value < 0.0:
                raise ValueError(f"{key} must be >= 0, got {value}")
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
        make_grid(self)  # the grid's own rules: n_cells >= 6, r_max > 0, inside float64


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
    return RadialGrid(config.n_cells, config.r_max, config.profile, config.kernel_params)


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
    with np.errstate(over="ignore", invalid="ignore"):  # run's first sample judges v
        return u_to_v(FieldState(table[:, 1], table[:, 2], g))


def sponge_sigma(grid: RadialGrid, spec: SpongeSpec) -> np.ndarray:
    """Quadratic damping ramp over [start, r_max]."""
    start = spec.start if spec.start >= 0.0 else 0.85 * grid.r_max
    sig = np.zeros(grid.n_nodes)
    m = grid.r > start
    sig[m] = spec.strength * ((grid.r[m] - start) / (grid.r_max - start)) ** 2
    return sig


def _operator(grid, sig, forcing, nonlinear=True):
    """The right-hand side f(v, vt, t) -> (vt, acc) of the lifted equation on
    one grid, at its alpha; nonlinear=False drops F (free-wave benchmark path)."""
    cut = kernels.mesh_cutoffs(grid) if nonlinear else None
    p = grid.kernel_params

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


class NonFiniteStep(FloatingPointError):
    """A step of trajectory gave a non-finite value: str(exc) is the halt
    reason, exc.state the halting state and exc.step its step index."""

    def __init__(self, reason, state, step):
        super().__init__(reason)
        self.state, self.step = state, step


def trajectory(config: RunConfig, forcing=None, state=None, nonlinear=True):
    """Yield the FieldState at t = k dt for k = 0..nsteps of the RK4 evolution.

    state is the data at t = 0 on make_grid(config) (default
    initial_state(config)); its arrays are copied, and a state on another
    grid or at another time is refused. The sponge is dropped when it is
    zero everywhere, and nonlinear=False drops F (free-wave path). Yielded
    states own arrays never modified afterwards: keep them. The first step
    to give a non-finite f or f_t raises NonFiniteStep; overflow and invalid
    are ignored within a step only, never across a yield.
    """
    g = make_grid(config)
    state = state if state is not None else initial_state(config)
    if state.grid != g:
        raise ValueError(f"the state lives on {state.grid}, the config's mesh is {g}")
    if state.f.ndim != 1:
        raise ValueError("trajectory evolves one state, not a stack")
    if state.time != 0.0:  # the clock, and so any forcing, starts at t = 0
        raise ValueError(f"the state is at t={state.time!r}; trajectory starts at t = 0")
    sig = sponge_sigma(g, config.sponge)
    f = _operator(g, sig if sig.any() else None, forcing, nonlinear)
    nsteps, dt = _schedule(config)
    state = FieldState(state.f.copy(), state.f_t.copy(), g)
    yield state
    for k in range(1, nsteps + 1):
        with np.errstate(over="ignore", invalid="ignore"):  # this step only
            state = FieldState(*_rk4(f, state.f, state.f_t, (k - 1) * dt, dt), g, k * dt)
        finite = np.isfinite(state.f) & np.isfinite(state.f_t)
        if not finite.all():
            raise NonFiniteStep(f"non-finite field values at step {k}, t={state.time:.6g}, "
                                f"r={g.r[np.argmin(finite)]:.6g}", state, k)
        yield state


def detect_blowup(record, monitor_ceiling, drift_ceiling, step, every):
    """(status, reason) when a sample's stop condition fires, else None.

    A continuation monitor at or above its ceiling, or energy drift above
    the breakdown threshold (scheme failure, reported separately from
    physical growth), named with the sample's step and cadence. Non-finite
    fields never reach a sample: trajectory halts on the step that makes them.
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


def _block_size(config: RunConfig) -> int:
    """Samples evaluated in one stacked pass: about 2^12 nodes' worth and at
    most 16 steps' worth (a halting run steps at most 15 past its halt), at
    least 1. Large meshes and sparse cadences sample one state at a time."""
    return max(1, min(2 ** 12 // (config.n_cells + 1), 16 // config.output_every))


@np.errstate(over="ignore", invalid="ignore")
def _sample(stack, steps, config, records, tracker):
    """Sample a stack of consecutive states taken at steps (a FieldState of
    (m, n_nodes) arrays and m times) in one pass, then append to records and
    judge, row by row, their diagnostics rows: dicts keyed by the
    diagnostics.csv columns in file order, with the bytes each state's own
    pass gives. Its per-mesh weights are read from kernels.mesh_cutoffs; one
    v_r serves the energy, the monitors and the Sobolev ladder, which runs
    once up to the highest order the rows or the tracker read. Drift is
    taken against the energy of records[0], or of the first row when records
    is empty, and the tracker takes the rows in order. Returns (status,
    reason, step, state) of the first state that halts the run, its state a
    copy of its row, else None; a state whose energy is not finite halts
    with no row written (_overflow)."""
    orders, g, v = config.sobolev_orders, stack.grid, stack.f
    cut = kernels.mesh_cutoffs(g)
    vr = d_r(v, g)
    energies, tails = diag.energy(v_to_u(stack), stack, return_tail=True, v_r=vr)
    ladder = (diag.sobolev_norm(v, g, max(orders, default=0), vr)
              if orders or tracker is not None else [])
    monitors = diag.continuation_monitor(stack, vr, cut)
    decay = diag.decay_report(v, cut)
    times = stack.time.tolist()
    if tracker is not None:
        before = [records[-1]["time"] if records else times[0]] + times
        tracked = tracker.update(v, g, [t - b for t, b in zip(times, before)], ladder[0])
    e0 = records[0]["energy"] if records else energies[0]
    for j, (k, t, e) in enumerate(zip(steps, times, energies)):
        if math.isfinite(e):
            row = {"time": t, "energy": e, "energy_drift": diag.energy_drift(e, e0),
                   "energy_tail": tails[j]}
            row.update(zip(("monitor_v", "monitor_vt", "monitor_gradv"),
                           (m[j] for m in monitors)))
            row.update((f"sobolev_s{s}", ladder[s][j]) for s in orders)
            row.update(decay_inner=decay["inner"][j], decay_outer=decay["outer"][j])
            if tracker is not None:
                row.update(tracked[j])
            records.append(row)
            halt = detect_blowup(row, config.monitor_ceiling, config.drift_ceiling, k,
                                 config.output_every)
        else:  # no row: the reason is the state's own EnergyOverflow
            halt = _overflow(FieldState(stack.f[j], stack.f_t[j], g, t), k, config)
        if halt is not None:
            return (*halt, k, FieldState(stack.f[j].copy(), stack.f_t[j].copy(), g, t))
    return None


def _overflow(state, step, config):
    """(status, reason) of a sampled state whose energy is not finite: the
    EnergyOverflow its own energy call raises, named with its step; raised
    as a config error naming the data at step 0."""
    try:
        diag.energy(v_to_u(state), state)
    except diag.EnergyOverflow as exc:
        if step:
            return "blowup_nan", f"{exc} at step {step}, t={state.time:.6g}"
        spec = config.initial  # finite fields too large to square, in the initial data
        data = f"initial_data.family={spec.family}" + (
            f", initial_data.profile_path={spec.profile_path}"
            if spec.family == "profile_u" else "")
        raise diag.EnergyOverflow(f"{data} gives a {exc}") from exc


def run(config: RunConfig, forcing=None) -> RunResult:
    """Advance to t_end, or until a step yields a non-finite value or a
    sample halts the run (detect_blowup, or an energy that is not finite);
    diagnostics at the configured cadence (plus the initial and final
    instants). The initial sample is taken alone, before the first step;
    the others are copied into a stack of _block_size(config) states and
    sampled by _sample when it is full, at the last step or on a non-finite
    step. A halt is judged in sample order and reported at its own sample:
    records, state, step and snapshots end there, as when every sample is
    taken alone."""
    g, (nsteps, dt) = make_grid(config), _schedule(config)
    tracker = diag.SpacetimeTracker() if config.track_spacetime else None
    pending = np.empty((2, _block_size(config), g.n_nodes))  # f and f_t of the samples
    records, snapshots, steps = [], [], []

    def sample():  # a sample's time k * dt, as trajectory's
        m = len(steps)
        stack = FieldState(pending[0, :m], pending[1, :m], g, np.array(steps) * dt)
        halt = _sample(stack, steps, config, records, tracker)
        steps.clear()
        return halt

    halt = None
    try:
        for k, state in enumerate(trajectory(config, forcing)):
            if config.snapshot_every and (k % config.snapshot_every == 0 or k == nsteps):
                snapshots.append((k, state))
            if k % config.output_every == 0 or k == nsteps:
                pending[0, len(steps)] = state.f
                pending[1, len(steps)] = state.f_t
                steps.append(k)
                if not k or len(steps) == len(pending[0]) or k == nsteps:
                    halt = sample()
                    if halt is not None:
                        break
    except NonFiniteStep as exc:
        halt = (sample() if steps else None) or ("blowup_nan", str(exc), exc.step, exc.state)
    status, reason, k, state = halt or ("completed", f"reached t_end={config.t_end:g}", k,
                                        state)
    while snapshots and snapshots[-1][0] > k:  # taken past the halting sample
        snapshots.pop()
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
    checked before any step is taken. A step that halts run raises
    trajectory's NonFiniteStep, a FloatingPointError with run's reason."""
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
