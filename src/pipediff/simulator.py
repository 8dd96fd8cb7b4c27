"""Fixed-step traversal of a pipe network.

The robot's reference point advances along the centerline at the mean of
the three resolved track speeds (the differential holds that mean at the
nominal speed, in straights and bends alike).  Roll orientation is a
scenario constant: it is measured from each bend's inward direction and no
roll dynamics are modeled, matching the treatment of orientation as an
experiment parameter.

The model is piecewise constant: compressions, tilts, demanded and resolved
speeds, and slip depend only on the segment.  ``run`` derives them once per
segment before stepping, so each tick is plain arithmetic.  Speeds switch
at the first record after a segment boundary; there is no blending.  Every
segment the reference point crosses is checked for admissibility, even one
that a single step jumps past.

Runs are deterministic: identical inputs, including the disturbance seed,
produce bit-identical traces.  A single run is sequential state recurrence;
independent runs share nothing and may execute in parallel.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibleConstraintError, InvalidScenarioError, NoFitError
from .geometry import Bend, PipeNetwork, Segment, segment_length, validate_network
from .kinematics import (
    TRACK_NAMES,
    TrackSpeeds,
    apply_disturbance,
    resolved_speeds,
    slip_and_ape,
    theoretical_speeds,
)
from .robot import ModuleState, RobotConfig, module_state
from .transmission import GearTrainConfig

# Fraction of a segment's arc excluded at each end of the reporting window:
# speeds are averaged over the middle 80 percent, away from transition
# transients at the joints.
WINDOW_MARGIN = 0.1


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
    """One time sample of the traversal."""

    t: float  # s
    s: float  # mm along the centerline
    segment: int
    theta_deg: float
    v: tuple[float, float, float]  # mm/s, resolved (disturbed when enabled)
    v_theo: tuple[float, float, float]  # mm/s, geometry-required
    compression: tuple[float, float, float]  # mm
    slip: tuple[float, float, float]  # mm/s
    distance: tuple[float, float, float]  # mm, cumulative per track


@dataclass(frozen=True)
class SegmentSummary:
    """Aggregates over the records that fell inside one segment."""

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
    max_compression: float  # mm over all records and modules
    segments: tuple[SegmentSummary, ...]
    tracks: tuple[TrackTotals, TrackTotals, TrackTotals]


@dataclass(frozen=True)
class _SegmentPlan:
    """The robot's constant state inside one segment, or why it cannot enter."""

    error: str | None
    state: ModuleState | None = None
    resolved: TrackSpeeds | None = None
    demanded: TrackSpeeds | None = None
    slip: tuple[float, float, float] | None = None


def _plan_segment(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
    segment: Segment,
    v_nominal: float,
) -> _SegmentPlan:
    theta = params.theta_rad
    wall_radius = net.spec.inner_radius
    try:
        state = module_state(robot, net.spec, segment, theta)
        demanded = theoretical_speeds(segment, theta, v_nominal, wall_radius)
        resolved = resolved_speeds(
            gear, robot, segment, theta, params.omega_u, contact_radius=wall_radius
        )
    except (NoFitError, InfeasibleConstraintError) as exc:
        return _SegmentPlan(error=str(exc))
    return _SegmentPlan(None, state, resolved, demanded, slip_and_ape(resolved, demanded).slips)


def run(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
) -> tuple[list[TraceRecord], RunSummary]:
    """Simulate until the network end, ``t_max``, or an abort.

    A no-fit or infeasible-constraint abort keeps the partial trace and
    records the cause in the summary instead of raising.  The abort falls
    on the first step that enters an impassable segment, before that
    step's record.

    Raises:
        InvalidScenarioError: the network recorded violations when it was
            built, or the nominal track speed is not positive.
    """
    violations = validate_network(net)
    if violations:
        raise InvalidScenarioError(
            "network invalid: " + "; ".join(str(v) for v in violations)
        )
    v_nominal = gear.ratio * params.omega_u * robot.sprocket_radius
    if v_nominal <= 0.0:
        raise InvalidScenarioError(
            f"nominal track speed must be positive, got {v_nominal:g} mm/s"
        )
    total = net.total_length
    dt = params.dt
    amplitude = params.disturbance.amplitude
    rng = np.random.default_rng(params.disturbance.seed) if amplitude > 0.0 else None
    plan = [_plan_segment(net, robot, gear, params, seg, v_nominal) for seg in net.segments]
    starts = [net.arc_start(i) for i in range(len(plan))]

    records: list[TraceRecord] = []
    s = 0.0
    k = 0
    index = 0
    distances = (0.0, 0.0, 0.0)
    completed = False
    stop_reason = None
    error = plan[0].error
    while error is None:
        entry = plan[index]
        t = k * dt
        v, slip = entry.resolved.as_tuple(), entry.slip
        if rng is not None:
            disturbed = apply_disturbance(entry.resolved, amplitude, rng)
            v, slip = disturbed.as_tuple(), slip_and_ape(disturbed, entry.demanded).slips
        records.append(
            TraceRecord(
                t=t,
                s=s,
                segment=index,
                theta_deg=params.theta_deg,
                v=v,
                v_theo=entry.demanded.as_tuple(),
                compression=entry.state.compressions,
                slip=slip,
                distance=distances,
            )
        )
        if s >= total:
            completed = True
            break
        if params.t_max is not None and t >= params.t_max - 1e-12:
            stop_reason = "t_max"
            break
        mean_v = math.fsum(v) / 3.0
        if mean_v <= 0.0:
            error = f"stalled: mean track speed {mean_v:g} mm/s is not positive"
            break
        s = min(s + mean_v * dt, total)
        distances = (distances[0] + v[0] * dt, distances[1] + v[1] * dt, distances[2] + v[2] * dt)
        k += 1
        # Joints belong to the later segment.  Check every segment entered
        # on this step, including any the step jumped past entirely.
        while error is None and index + 1 < len(plan) and s >= starts[index + 1]:
            index += 1
            error = plan[index].error

    summary = _summarize(
        net, robot, params, plan, records, completed, stop_reason, error, v_nominal
    )
    return records, summary


def run_orientation_sweep(
    net: PipeNetwork,
    robot: RobotConfig,
    gear: GearTrainConfig,
    params: SimParams,
    steps: int,
) -> list[tuple[float, list[TraceRecord], RunSummary]]:
    """Run ``steps`` evenly spaced roll orientations over a full turn.

    Results come back in orientation order; when a disturbance is active,
    orientation k uses seed ``base_seed + k`` so the runs stay independent
    yet reproducible.
    """
    if steps < 1:
        raise ValueError("at least one orientation required")
    results = []
    for k in range(steps):
        theta = k * 360.0 / steps
        disturbance = replace(params.disturbance, seed=params.disturbance.seed + k)
        oriented = replace(params, theta_deg=theta, disturbance=disturbance)
        records, summary = run(net, robot, gear, oriented)
        results.append((theta, records, summary))
    return results


def _segment_kind(segment) -> str:
    if isinstance(segment, Bend):
        return f"bend {segment.sweep_deg:g}deg"
    return "straight"


def _summarize(
    net: PipeNetwork,
    robot: RobotConfig,
    params: SimParams,
    plan: list[_SegmentPlan],
    records: list[TraceRecord],
    completed: bool,
    stop_reason: str | None,
    error: str | None,
    v_nominal: float,
) -> RunSummary:
    groups: dict[int, list[TraceRecord]] = {}
    for record in records:
        groups.setdefault(record.segment, []).append(record)

    summaries = []
    for index in sorted(groups):
        recs = groups[index]
        segment = net.segments[index]
        length = segment_length(segment)
        start = net.arc_start(index)
        lo = start + WINDOW_MARGIN * length
        hi = start + (1.0 - WINDOW_MARGIN) * length
        window = [r for r in recs if lo <= r.s <= hi] or recs

        mean_speeds = tuple(
            math.fsum(r.v[i] for r in window) / len(window) for i in range(3)
        )
        min_speeds = tuple(min(r.v[i] for r in recs) for i in range(3))
        max_speeds = tuple(max(r.v[i] for r in recs) for i in range(3))
        ape = []
        for i in range(3):
            terms = [
                100.0 * r.slip[i] / abs(r.v_theo[i]) for r in window if r.v_theo[i] != 0.0
            ]
            ape.append(math.fsum(terms) / len(terms) if terms else None)
        max_compression = max(max(r.compression) for r in recs)
        max_tilt = max(plan[index].state.tilts_deg)
        next_recs = groups.get(index + 1)
        exit_time = next_recs[0].t if next_recs else recs[-1].t
        summaries.append(
            SegmentSummary(
                index=index,
                kind=_segment_kind(segment),
                length=length,
                entry_time=recs[0].t,
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

    total_time = records[-1].t if records else 0.0
    tracks = []
    for i, name in enumerate(TRACK_NAMES):
        distance = records[-1].distance[i] if records else 0.0
        apes = [s.ape[i] for s in summaries if s.ape[i] is not None]
        tracks.append(
            TrackTotals(
                name=name,
                distance=distance,
                mean_speed=distance / total_time if total_time > 0.0 else 0.0,
                max_slip=max((r.slip[i] for r in records), default=0.0),
                max_ape=max(apes) if apes else None,
            )
        )

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
        max_slip=max((max(r.slip) for r in records), default=0.0),
        max_compression=max((max(r.compression) for r in records), default=0.0),
        segments=tuple(summaries),
        tracks=tuple(tracks),
    )
