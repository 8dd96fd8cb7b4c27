"""Fixed-step traversal of a pipe network.

The robot's reference point advances along the centerline at the mean of
the three resolved track speeds (the differential holds that mean at the
nominal speed, in straights and bends alike).  Roll orientation is a
scenario constant, measured from each bend's inward direction; no roll
dynamics are modeled.

The model is piecewise constant: compressions, tilts, demanded and resolved
speeds depend only on the segment.  ``run`` plans them once, as per-segment
columns over the segments the robot can enter: in order, up to the first
that fails its checks.  It then steps each segment as one block of numpy
columns: record times are ``k * dt``, and positions and per-track
distances are running sums over the block.  A block ends at the first
record that stops the run or whose next step leaves the segment.  Speeds
switch at the first record after a segment boundary; there is no blending.
The step that enters the first impassable segment aborts the run, even one
that jumps past whole segments.

Runs are deterministic: identical inputs, including the disturbance seed,
produce bit-identical traces.  The block arithmetic does the same
floating-point operations in the same order as stepping one tick at a time
(``np.cumsum`` adds in sequence, the 3-term mean is ``math.fsum``), and the
disturbance takes one row of draws per record in the generator's stream
order.  Independent runs share nothing and may execute in parallel.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibleConstraintError, InvalidScenarioError, NoFitError
from .geometry import Bend, PipeNetwork, segment_length, validate_network
from .kinematics import TRACK_NAMES, apply_disturbance, resolved_speeds, theoretical_speeds
from .robot import RobotConfig, module_state
from .transmission import GearTrainConfig

# Fraction of a segment's arc excluded at each end of the reporting window:
# speeds are averaged over the middle 80 percent, away from transition
# transients at the joints.
WINDOW_MARGIN = 0.1

# Most records one stepping block holds.  A longer segment takes several
# blocks, so a block's working arrays stay a few hundred kilobytes.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DisturbanceConfig:
    """Optional multiplicative speed disturbance for error reporting."""

    amplitude: float = 0.0  # fraction, 0 disables
    seed: int = 0  # >= 0, as numpy's generator requires

    def __post_init__(self):
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError(f"disturbance amplitude must be in [0, 1), got {self.amplitude!r}")
        if self.seed < 0:
            raise ValueError(f"disturbance seed must be non-negative, got {self.seed!r}")


@dataclass(frozen=True)
class SimParams:
    """Time stepping and input drive for one run."""

    omega_u: float  # rad/s, constant input speed
    dt: float = 0.01  # s
    theta_deg: float = 0.0  # roll orientation, degrees
    t_max: float | None = None  # s, optional stop time
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.t_max is not None and not (math.isfinite(self.t_max) and self.t_max > 0.0):
            raise ValueError(f"t_max must be positive when set, got {self.t_max!r}")
        if not math.isfinite(self.omega_u):
            raise ValueError("omega_u must be finite")
        if not math.isfinite(self.theta_deg):
            raise ValueError("theta_deg must be finite")

    @property
    def theta_rad(self) -> float:
        return math.radians(self.theta_deg)


@dataclass(frozen=True)
class TraceRecord:
    """One time sample of the traversal: one row of a ``Trace``."""

    t: float  # s
    s: float  # mm along the centerline
    segment: int
    theta_deg: float
    v: tuple[float, float, float]  # mm/s, resolved (disturbed when enabled)
    v_theo: tuple[float, float, float]  # mm/s, geometry-required
    compression: tuple[float, float, float]  # mm
    slip: tuple[float, float, float]  # mm/s
    distance: tuple[float, float, float]  # mm, cumulative per track


# The per-record columns of a ``Trace``, in trace CSV order.
TRACE_COLUMNS = ("t", "s", "segment", "v", "v_theo", "compression", "slip", "distance")


@dataclass(frozen=True, eq=False)
class Trace:
    """A run's time samples as numpy columns, one row per record.

    ``t``, ``s`` and ``segment`` have shape (n,); ``v``, ``v_theo``,
    ``compression``, ``slip`` and ``distance`` have shape (n, 3), one column
    per track.  Units are those of ``TraceRecord``.  An integer index gives
    one ``TraceRecord``, a slice a shorter ``Trace``, and iteration yields
    the records in time order.
    """

    t: np.ndarray
    s: np.ndarray
    segment: np.ndarray
    theta_deg: float
    v: np.ndarray
    v_theo: np.ndarray
    compression: np.ndarray
    slip: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return replace(self, **{name: getattr(self, name)[key] for name in TRACE_COLUMNS})
        j = range(len(self))[key]
        return next(iter(self[j:j + 1]))

    def __iter__(self):
        rows = zip(*(getattr(self, name).tolist() for name in TRACE_COLUMNS))
        for t, s, segment, v, v_theo, compression, slip, distance in rows:
            yield TraceRecord(t, s, segment, self.theta_deg, tuple(v), tuple(v_theo),
                              tuple(compression), tuple(slip), tuple(distance))

    def __eq__(self, other):
        if not isinstance(other, Trace):
            return NotImplemented
        return self.theta_deg == other.theta_deg and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in TRACE_COLUMNS
        )


@dataclass(frozen=True)
class SegmentSummary:
    """Aggregates over the records that fell inside one segment.

    A segment that one step crossed whole holds no records: its speeds are
    the plan's resolved speeds, its APE is None, and its entry and exit
    times are both that of the first record past it (or the run's last).
    """

    index: int
    kind: str  # "straight" or "bend <sweep>deg"
    length: float  # mm
    entry_time: float  # s
    exit_time: float  # s
    mean_speeds: tuple[float, float, float]  # mm/s, midpoint-window average
    min_speeds: tuple[float, float, float]  # mm/s, over the whole segment
    max_speeds: tuple[float, float, float]
    ape: tuple[float | None, float | None, float | None]  # percent, window average
    max_compression: float  # mm
    max_tilt_deg: float
    compression_headroom_mm: float  # robot limit minus max_compression
    tilt_headroom_deg: float  # robot limit minus max_tilt_deg


@dataclass(frozen=True)
class TrackTotals:
    """Whole-run aggregates for one track."""

    name: str
    distance: float  # mm
    mean_speed: float  # mm/s, distance / total time
    max_slip: float  # mm/s
    max_ape: float | None  # percent, worst segment window


@dataclass(frozen=True)
class RunSummary:
    completed: bool
    stop_reason: str | None  # None, "t_max"
    error: str | None  # abort cause, None on a clean run
    total_time: float  # s, time of the last record
    total_length: float  # mm
    effective_path: float | None  # mm, total minus robot length
    nominal_speed: float  # mm/s
    theta_deg: float
    dt: float
    disturbance_amplitude: float
    disturbance_seed: int
    max_slip: float  # mm/s over all records and tracks
    max_compression: float  # mm over every segment entered and its modules
    segments: tuple[SegmentSummary, ...]
    tracks: tuple[TrackTotals, TrackTotals, TrackTotals]


@dataclass(frozen=True)
class _Plan:
    """Per-segment columns over the m segments a run can enter."""

    resolved: np.ndarray  # (m, 3) mm/s
    demanded: np.ndarray  # (m, 3) mm/s
    compressions: np.ndarray  # (m, 3) mm
    max_tilt_deg: np.ndarray  # (m,)
    error: str | None  # why segment m cannot be entered; None when m covers the network


def _plan(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
    v_nominal: float,
) -> _Plan:
    """Walk the segments in order up to the first that fails ``module_state``,
    the differential solve or the float-range rule."""
    theta, dt = params.theta_rad, params.dt
    amplitude = params.disturbance.amplitude
    # Bounds on the records the run forms up to the end of the segment being
    # planned (a block forms up to two past its segment, none past the last
    # that ``t_max`` keeps) and on the sum of the three track speeds so far.
    limit = math.inf if params.t_max is None else params.t_max / dt + 2.0
    count = speeds = 0.0
    rows = []
    error = None
    for segment in net.segments:
        try:
            state = module_state(robot, net.spec, segment, theta)
            demanded = theoretical_speeds(segment, theta, v_nominal, net.spec.inner_radius)
            # The differential's speed budget and the demands must sum inside
            # the float range: the solve adds them up.
            if not math.isfinite(3.0 * gear.ratio * params.omega_u + sum(demanded.as_tuple())):
                error = f"track speeds exceed the float range at nominal speed {v_nominal:g} mm/s"
                break
            resolved = resolved_speeds(gear, robot, demanded, params.omega_u).as_tuple()
        except (NoFitError, InfeasibleConstraintError) as exc:
            error = str(exc)
            break
        # With the stepper's shortest step here, these bound every record
        # time, position and distance it forms and any speed summed over a
        # segment's records.
        step = sum(resolved) / 3.0 * dt * (1.0 - amplitude)
        count += segment_length(segment) / step + 2.0 if step > 0.0 else math.inf
        speeds = max(speeds, sum(resolved) * (1.0 + amplitude))
        formed = min(count, limit)
        if not all(map(math.isfinite, (formed * dt, formed * speeds * dt, formed * speeds))):
            error = f"steps of {dt:g} s at nominal speed {v_nominal:g} mm/s leave the float range"
            break
        rows.append(resolved + demanded.as_tuple() + state.compressions + (max(state.tilts_deg),))
    table = np.reshape(rows, (-1, 10))
    return _Plan(table[:, 0:3], table[:, 3:6], table[:, 6:9], table[:, 9], error)


def _running_sums(first, increments: np.ndarray) -> np.ndarray:
    """``first``, then ``first`` plus each prefix of ``increments`` (along
    axis 0), added one increment at a time as a sequential loop would."""
    sums = np.empty((len(increments) + 1, *increments.shape[1:]))
    sums[0] = first
    sums[1:] = increments
    return sums.cumsum(axis=0)


def run(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
) -> tuple[Trace, RunSummary]:
    """Simulate until the network end, ``t_max``, or an abort; return the
    ``Trace`` and its ``RunSummary``.

    A no-fit, infeasible-constraint or float-range abort keeps the partial
    trace and records the cause in the summary instead of raising.  It falls
    on the step that enters the first impassable segment, before its record.

    Raises:
        InvalidScenarioError: the network recorded violations when it was
            built, or the nominal track speed is not finite and positive.
    """
    violations = validate_network(net)
    if violations:
        raise InvalidScenarioError(
            "network invalid: " + "; ".join(str(v) for v in violations)
        )
    v_nominal = gear.ratio * params.omega_u * robot.sprocket_radius
    if not (math.isfinite(v_nominal) and v_nominal > 0.0):
        raise InvalidScenarioError(
            f"nominal track speed must be finite and positive, got {v_nominal:g} mm/s"
        )
    total = net.total_length
    dt = params.dt
    t_max = math.inf if params.t_max is None else params.t_max
    amplitude = params.disturbance.amplitude
    rng = np.random.default_rng(params.disturbance.seed) if amplitude > 0.0 else None
    plan = _plan(net, robot, gear, params, v_nominal)
    passable = len(plan.resolved)
    # The sentinel start ends the last segment's block only at ``total``.
    starts = [net.arc_start(i) for i in range(len(net.segments))] + [math.inf]

    # Each column's parts start with an empty array, so that a run without
    # records still joins to columns of the right shape.
    parts = {"t": [np.empty(0)], "s": [np.empty(0)], "segment": [np.empty(0, dtype=int)],
             "v": [np.empty((0, 3))], "distance": [np.empty((0, 3))]}
    draws = np.empty((0, 3))  # disturbance draws not used yet, in stream order
    s = 0.0
    k = 0
    index = 0
    distance = np.zeros(3)
    completed = False
    stop_reason = None
    error = None if passable else plan.error
    while error is None:
        resolved = plan.resolved[index]
        mean_v = math.fsum(resolved) / 3.0
        boundary = min(starts[index + 1], total)
        # Enough rows to reach the boundary at the slowest disturbed speed,
        # and none past ``t_max``.
        step = mean_v * dt * (1.0 - amplitude)
        to_boundary = (boundary - s) / step if step > 0.0 else 0.0
        rows = int(min(to_boundary, t_max / dt - k, BLOCK_ROWS - 2)) + 2
        if rng is None:
            v = np.full((rows, 3), resolved)
            means = np.full(rows, mean_v)
        else:
            if len(draws) < rows:
                draws = np.concatenate((draws, rng.uniform(-1.0, 1.0, size=(BLOCK_ROWS, 3))))
            v = apply_disturbance(resolved, amplitude, draws[:rows])
            means = np.array([math.fsum(r) for r in v.tolist()]) / 3.0
        t = np.arange(k, k + rows, dtype=float) * dt
        positions = _running_sums(s, means * dt)
        distances = _running_sums(distance, v * dt)
        # The block's last record is the first that stops the run or whose
        # next step leaves the segment; a stop on that record wins.
        ends = (positions[:-1] >= total) | (means <= 0.0) | (positions[1:] >= boundary)
        ends |= t >= t_max - 1e-12
        hits = np.flatnonzero(ends)
        n = int(hits[0]) + 1 if hits.size else rows
        for name, column in (("t", t), ("s", positions), ("v", v), ("distance", distances)):
            parts[name].append(column[:n])
        parts["segment"].append(np.full(n, index))
        draws = draws[n:]
        if positions[n - 1] >= total:
            completed = True
            break
        if t[n - 1] >= t_max - 1e-12:
            stop_reason = "t_max"
            break
        if means[n - 1] <= 0.0:
            error = f"stalled: mean track speed {float(means[n - 1]):g} mm/s is not positive"
            break
        s = min(float(positions[n]), total)
        distance = distances[n]
        k += n
        # Joints belong to the later segment.  Check every segment entered
        # on this step, including any the step jumped past entirely.
        while error is None and s >= starts[index + 1]:
            index += 1
            if index == passable:
                error = plan.error

    # Segments up to the last one entered are summarised, never an impassable one.
    entered = min(index + 1, passable)
    columns = {name: np.concatenate(column) for name, column in parts.items()}
    v_theo = plan.demanded[columns["segment"]]
    trace = Trace(
        **columns,
        theta_deg=params.theta_deg,
        v_theo=v_theo,
        compression=plan.compressions[columns["segment"]],
        slip=np.abs(columns["v"] - v_theo),
    )
    summary = _summarize(
        net, robot, params, plan, entered, trace, completed, stop_reason, error, v_nominal
    )
    return trace, summary


def run_orientation_sweep(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
    steps: int,
) -> list[tuple[float, RunSummary]]:
    """Run ``steps`` evenly spaced roll orientations over a full turn and
    return one ``(theta_deg, summary)`` pair per orientation.

    Results come back in orientation order; when a disturbance is active,
    orientation k uses seed ``base_seed + k`` so the runs stay independent
    yet reproducible.  Each run's trace is dropped as soon as it is
    summarised, so the sweep holds one trace at a time.
    """
    if steps < 1:
        raise ValueError("at least one orientation required")
    results = []
    for k in range(steps):
        theta = k * 360.0 / steps
        disturbance = replace(params.disturbance, seed=params.disturbance.seed + k)
        oriented = replace(params, theta_deg=theta, disturbance=disturbance)
        _, summary = run(net, robot, gear, oriented)
        results.append((theta, summary))
    return results


def _summarize(
    net: PipeNetwork,
    robot: RobotConfig,
    params: SimParams,
    plan: _Plan,
    entered: int,
    trace: Trace,
    completed: bool,
    stop_reason: str | None,
    error: str | None,
    v_nominal: float,
) -> RunSummary:
    # Segment indices never decrease along a trace, so each segment's
    # records are one contiguous slice, empty for a segment that a single
    # step crossed whole.
    n = len(trace)
    bounds = np.searchsorted(trace.segment, np.arange(entered + 1)).tolist()
    rows = zip(zip(bounds, bounds[1:]), plan.resolved.tolist(),
               plan.compressions.max(axis=1).tolist(), plan.max_tilt_deg.tolist())
    summaries = []
    for index, ((a, b), resolved, max_compression, max_tilt) in enumerate(rows):
        segment = net.segments[index]
        length = segment_length(segment)
        # A segment is left at the first record of any later segment.
        exit_time = float(trace.t[min(b, n - 1)])
        if a == b:
            entry_time = exit_time
            mean_speeds = min_speeds = max_speeds = tuple(resolved)
            ape = (None, None, None)
        else:
            entry_time = float(trace.t[a])
            start = net.arc_start(index)
            lo = start + WINDOW_MARGIN * length
            hi = start + (1.0 - WINDOW_MARGIN) * length
            s = trace.s[a:b]
            window = (lo <= s) & (s <= hi)
            if not window.any():
                window = slice(None)
            v = trace.v[a:b]
            v_window = v[window]
            mean_speeds = tuple(math.fsum(col) / len(v_window) for col in v_window.T.tolist())
            min_speeds = tuple(v.min(axis=0).tolist())
            max_speeds = tuple(v.max(axis=0).tolist())
            slip, v_theo = trace.slip[a:b][window], trace.v_theo[a:b][window]
            ape = []
            for i in range(3):
                defined = v_theo[:, i] != 0.0
                terms = (100.0 * slip[defined, i] / np.abs(v_theo[defined, i])).tolist()
                ape.append(math.fsum(terms) / len(terms) if terms else None)
        summaries.append(
            SegmentSummary(
                index=index,
                kind=f"bend {segment.sweep_deg:g}deg" if isinstance(segment, Bend) else "straight",
                length=length,
                entry_time=entry_time,
                exit_time=exit_time,
                mean_speeds=mean_speeds,
                min_speeds=min_speeds,
                max_speeds=max_speeds,
                ape=tuple(ape),
                max_compression=max_compression,
                max_tilt_deg=max_tilt,
                compression_headroom_mm=robot.max_compression - max_compression,
                tilt_headroom_deg=robot.max_tilt_deg - max_tilt,
            )
        )

    total_time = float(trace.t[-1]) if n else 0.0
    distances = trace.distance[-1].tolist() if n else [0.0, 0.0, 0.0]
    max_slips = trace.slip.max(axis=0).tolist() if n else [0.0, 0.0, 0.0]
    tracks = []
    for i, name in enumerate(TRACK_NAMES):
        mean_speed = distances[i] / total_time if total_time > 0.0 else 0.0
        worst_ape = max((s.ape[i] for s in summaries if s.ape[i] is not None), default=None)
        tracks.append(TrackTotals(name, distances[i], mean_speed, max_slips[i], worst_ape))

    total = net.total_length
    effective = total - robot.length if total >= robot.length else None
    return RunSummary(
        completed=completed,
        stop_reason=stop_reason,
        error=error,
        total_time=total_time,
        total_length=total,
        effective_path=effective,
        nominal_speed=v_nominal,
        theta_deg=params.theta_deg,
        dt=params.dt,
        disturbance_amplitude=params.disturbance.amplitude,
        disturbance_seed=params.disturbance.seed,
        max_slip=max(max_slips),
        max_compression=max((s.max_compression for s in summaries), default=0.0),
        segments=tuple(summaries),
        tracks=tuple(tracks),
    )
