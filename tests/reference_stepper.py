"""The tick-by-tick stepper that ``simulator.run`` replaced by a columnar
block stepper, kept as the reference the block stepper must match exactly.

``reference_run`` steps one record per tick with plain Python floats and
summarises record by record; ``reference_csv`` formats each value with
``f"{x:.6f}"``.  Both are independent of the code under test apart from
the per-segment physics (``module_state`` and the two speed solvers).
"""

import math

import numpy as np

from pipediff import (
    Bend,
    InfeasibleConstraintError,
    NoFitError,
    RunSummary,
    SegmentSummary,
    TRACE_HEADER,
    TrackTotals,
    module_state,
    resolved_speeds,
    segment_length,
    theoretical_speeds,
)
from pipediff.simulator import WINDOW_MARGIN, TraceRecord


def reference_run(net, robot, gear, params):
    """``(records, summary)`` for one run, one ``TraceRecord`` per tick."""
    theta, wall = params.theta_rad, net.spec.inner_radius
    v_nominal = gear.ratio * params.omega_u * robot.sprocket_radius
    plan = []
    for seg in net.segments:
        try:
            state = module_state(robot, net.spec, seg, theta)
            demanded = theoretical_speeds(seg, theta, v_nominal, wall)
            resolved = resolved_speeds(gear, robot, demanded, params.omega_u).as_tuple()
            plan.append((None, state, resolved, demanded.as_tuple()))
        except (NoFitError, InfeasibleConstraintError) as exc:
            plan.append((str(exc), None, None, None))
    total, dt, amplitude = net.total_length, params.dt, params.disturbance.amplitude
    rng = np.random.default_rng(params.disturbance.seed) if amplitude > 0.0 else None
    records, s, k, index, distances = [], 0.0, 0, 0, (0.0, 0.0, 0.0)
    completed, stop_reason, error = False, None, plan[0][0]
    while error is None:
        _, state, v, demanded = plan[index]
        t = k * dt
        if rng is not None:
            u = rng.uniform(-1.0, 1.0, size=3)
            v = tuple(x * (1.0 + amplitude * float(f)) for x, f in zip(v, u))
        slip = tuple(abs(x - y) for x, y in zip(v, demanded))
        records.append(TraceRecord(t, s, index, params.theta_deg, v, demanded,
                                   state.compressions, slip, distances))
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
        distances = tuple(d + x * dt for d, x in zip(distances, v))
        k += 1
        while error is None and index + 1 < len(plan) and s >= net.arc_start(index + 1):
            index += 1
            error = plan[index][0]
    # The segments entered: those starting at or before the last position
    # reached, up to the first that failed its check.
    entered = []
    for i, (failure, state, resolved, _) in enumerate(plan):
        if failure is not None or net.arc_start(i) > s:
            break
        entered.append((state, resolved))
    summary = _reference_summary(net, robot, params, entered, records, v_nominal)
    return records, RunSummary(completed, stop_reason, error, *summary)


def _reference_summary(net, robot, params, entered, records, v_nominal):
    summaries = []
    for index, (state, resolved) in enumerate(entered):
        recs = [r for r in records if r.segment == index]
        later = [r for r in records if r.segment > index]
        exit_time = later[0].t if later else records[-1].t
        segment = net.segments[index]
        length, start = segment_length(segment), net.arc_start(index)
        lo, hi = start + WINDOW_MARGIN * length, start + (1.0 - WINDOW_MARGIN) * length
        window = [r for r in recs if lo <= r.s <= hi] or recs
        ape = []
        for i in range(3):
            terms = [100.0 * r.slip[i] / abs(r.v_theo[i]) for r in window if r.v_theo[i] != 0.0]
            ape.append(math.fsum(terms) / len(terms) if terms else None)
        if recs:
            mean = tuple(math.fsum(r.v[i] for r in window) / len(window) for i in range(3))
            lowest = tuple(min(r.v[i] for r in recs) for i in range(3))
            highest = tuple(max(r.v[i] for r in recs) for i in range(3))
        else:  # crossed within one step
            mean = lowest = highest = resolved
        compression, tilt = max(state.compressions), max(state.tilts_deg)
        summaries.append(SegmentSummary(
            index=index,
            kind=f"bend {segment.sweep_deg:g}deg" if isinstance(segment, Bend) else "straight",
            length=length,
            entry_time=recs[0].t if recs else exit_time,
            exit_time=exit_time,
            mean_speeds=mean,
            min_speeds=lowest,
            max_speeds=highest,
            ape=tuple(ape),
            max_compression=compression,
            max_tilt_deg=tilt,
            compression_headroom_mm=robot.max_compression - compression,
            tilt_headroom_deg=robot.max_tilt_deg - tilt,
        ))
    total_time = records[-1].t if records else 0.0
    tracks = []
    for i, name in enumerate("ABC"):
        distance = records[-1].distance[i] if records else 0.0
        apes = [seg.ape[i] for seg in summaries if seg.ape[i] is not None]
        tracks.append(TrackTotals(
            name, distance, distance / total_time if total_time > 0.0 else 0.0,
            max((r.slip[i] for r in records), default=0.0), max(apes) if apes else None,
        ))
    total = net.total_length
    return (
        total_time, total, total - robot.length if total >= robot.length else None, v_nominal,
        params.theta_deg, params.dt, params.disturbance.amplitude, params.disturbance.seed,
        max((max(r.slip) for r in records), default=0.0),
        max((seg.max_compression for seg in summaries), default=0.0),
        tuple(summaries), tuple(tracks),
    )


def reference_csv(records) -> str:
    """The trace CSV, each float formatted on its own with ``f"{x:.6f}"``."""
    lines = [TRACE_HEADER]
    for r in records:
        cells = [f"{r.t:.6f}", f"{r.s:.6f}", str(r.segment), f"{r.theta_deg:.6f}"]
        for group in (r.v, r.v_theo, r.compression, r.slip, r.distance):
            cells.extend(f"{x:.6f}" for x in group)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
