"""The tick-by-tick stepper that ``simulator.run`` replaced by a columnar
block stepper, and the per-segment planner that ``simulator._plan`` replaced
by whole-network columns, kept as the references the new code must match
exactly.

``reference_module_state`` checks one segment at a time with plain Python
floats; ``reference_plan`` walks the segments in order through it, the
geometric demands and the general differential solver; ``reference_run``
steps one record per tick and summarises record by record;
``reference_csv`` formats each value with ``f"{x:.6f}"``;
``reference_draw`` spells the disturbance stream in Python integers.  The differential
delivers the demanded speeds as they are.  Segment lengths
and starts are their own running sum, and the module angles come from
``MODULE_OFFSETS`` here.  The one rule they share with the code under test
is the differential's budget check, ``first_budget_miss``, which
``solve_output_speeds`` applies.
"""

import math
from dataclasses import fields

import numpy as np

from pipediff import (
    Bend,
    InfeasibleConstraintError,
    LoadState,
    NoFitError,
    RunSummary,
    SegmentColumns,
    Straight,
    TRACE_HEADER,
    TrackTotals,
    imposed_speed,
    solve_output_speeds,
)
from pipediff.geometry import MODULE_OFFSETS
from pipediff.simulator import WINDOW_MARGIN, TraceRecord, _Plan


_WORD = 2**64  # the stream's words are integers modulo 2**64
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment, the odd integer nearest 2**64 / golden ratio


def _splitmix64(z):
    """SplitMix64's finalizer of one word (Steele, Lea and Flood, OOPSLA 2014)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _WORD
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _WORD
    return z ^ (z >> 31)


def reference_key(seed):
    """The stream's key: each 64-bit word of the seed, lowest first, added to
    the key so far, plus the increment, through the finalizer; 0 before the first."""
    key, words = 0, [seed % _WORD]
    while seed >= _WORD:
        seed //= _WORD
        words.append(seed % _WORD)
    for word in words:
        key = _splitmix64(((key ^ word) + _GAMMA) % _WORD)
    return key


def reference_draw(key, n):
    """Draw n of the stream keyed ``key``: the finalizer of ``n * gamma + key``,
    whose top 52 bits ``m`` make ``m / 2**51 - 1``, in [-1, 1)."""
    z = _splitmix64((n * _GAMMA + key) % _WORD)
    return (z >> 12) / 2**51 - 1.0


def reference_lengths(net):
    """``(lengths, starts, total)``: each segment's centerline length, the
    running sum of the lengths before it, and their sum, in mm."""
    lengths = [segment.length if isinstance(segment, Straight)
               else segment.radius * math.radians(segment.sweep_deg) for segment in net.segments]
    starts, total = [], 0.0
    for length in lengths:
        starts.append(total)
        total += length
    return lengths, starts, total


def reference_demands(segment, theta, v_nominal, wall_radius):
    """Track speeds the geometry demands: ``v_nominal * rho_i / R`` in a bend
    with ``rho_i = R - r_c * cos(theta + offset_i)``, ``v_nominal`` in a straight."""
    if isinstance(segment, Straight):
        return (v_nominal,) * 3
    radius = segment.radius
    return tuple(v_nominal * (radius - wall_radius * math.cos(theta + offset)) / radius
                 for offset in MODULE_OFFSETS)


def reference_module_state(cfg, spec, segment, theta):
    """``(compressions, tilts_deg)`` of the three modules inside ``segment``,
    or NoFitError: reach, straight compression, chord, bend compression and
    tilt, checked in that order."""
    base = cfg.preload_compression + (cfg.nominal_body_radius - spec.inner_radius)
    if base < 0.0:
        raise NoFitError(
            f"pipe radius {spec.inner_radius:g} mm is beyond module reach; "
            "no wall contact at zero compression",
            quantity="reach", value=base, limit=0.0,
        )
    if base > cfg.max_compression:
        raise NoFitError(
            f"straight pipe requires {base:.3f} mm compression, "
            f"limit is {cfg.max_compression:g} mm",
            quantity="compression", value=base, limit=cfg.max_compression,
        )
    if isinstance(segment, Straight):
        return (base, base, base), (0.0, 0.0, 0.0)
    radius = segment.radius
    if cfg.length >= 2.0 * radius:
        raise NoFitError(
            f"robot length {cfg.length:g} mm cannot chord a bend of radius {radius:g} mm",
            quantity="chord", value=cfg.length, limit=2.0 * radius,
        )
    shares = tuple(abs(math.cos(theta + offset)) for offset in MODULE_OFFSETS)
    sagitta = cfg.length ** 2 / (8.0 * radius)
    deltas = tuple(base + sagitta * share for share in shares)
    worst = max(deltas)
    if worst > cfg.max_compression:
        module = deltas.index(worst)
        raise NoFitError(
            f"bend of radius {radius:g} mm requires {worst:.3f} mm compression "
            f"on module {module}, limit is {cfg.max_compression:g} mm",
            module=module, quantity="compression", value=worst, limit=cfg.max_compression,
        )
    half_chord_deg = math.degrees(math.asin(cfg.length / (2.0 * radius)))
    tilts = tuple(half_chord_deg * share for share in shares)
    worst = max(tilts)
    if worst > cfg.max_tilt_deg:
        module = tilts.index(worst)
        raise NoFitError(
            f"bend of radius {radius:g} mm demands {worst:.2f} deg "
            f"asymmetric compression on module {module}, "
            f"limit is {cfg.max_tilt_deg:g} deg",
            module=module, quantity="tilt", value=worst, limit=cfg.max_tilt_deg,
        )
    return deltas, tilts


def reference_plan(net, robot, gear, params):
    """``(plan, rule)``: the segments planned one at a time, in order, up to
    the first that fails a check, and the name of the rule that stopped the
    plan (None when it covers the network)."""
    theta, dt = params.theta_rad, params.dt
    amplitude = params.disturbance_amplitude
    v_nominal = gear.ratio * params.omega_u * robot.sprocket_radius
    r = robot.sprocket_radius
    limit = math.inf if params.t_max is None else params.t_max / dt + 2.0
    count = speeds = 0.0
    rows = []
    error = rule = None
    speed_range = f"track speeds exceed the float range at nominal speed {v_nominal:g} mm/s"
    lengths, _, _ = reference_lengths(net)
    for segment, length in zip(net.segments, lengths):
        try:
            compressions, tilts = reference_module_state(robot, net.spec, segment, theta)
        except NoFitError as exc:
            error, rule = str(exc), f"no fit: {exc.quantity}"
            break
        demanded = reference_demands(segment, theta, v_nominal, net.spec.inner_radius)
        if not math.isfinite(3.0 * gear.ratio * params.omega_u + sum(demanded)):
            error, rule = speed_range, "demand range"
            break
        loads = LoadState(tuple(imposed_speed(v / r) for v in demanded))
        try:
            solve_output_speeds(gear, params.omega_u, loads)
        except InfeasibleConstraintError as exc:
            error, rule = str(exc), "budget"
            break
        speeds = max(speeds, sum(demanded) * (1.0 + amplitude))
        if not math.isfinite(100.0 * amplitude * speeds):
            error, rule = speed_range, "APE range"
            break
        step = sum(demanded) / 3.0 * dt * (1.0 - amplitude)
        count += length / step + 2.0 if step > 0.0 else math.inf
        formed = min(count, limit)
        if not all(map(math.isfinite, (formed * dt, formed * speeds * dt, formed * speeds))):
            error = f"steps of {dt:g} s at nominal speed {v_nominal:g} mm/s leave the float range"
            rule = "record range"
            break
        if formed > 2**47 // 144:  # a 47-bit address space over a record's 144 bytes of values
            error = (f"steps of {dt:g} s at nominal speed {v_nominal:g} mm/s form up to "
                     f"{formed:.3g} records, more than memory can hold")
            rule = "record count"
            break
        rows.append(demanded + (math.fsum(demanded) / 3.0,) + compressions + (max(tilts),))
    table = np.reshape(rows, (-1, 8))
    plan = _Plan(table[:, 0:3], table[:, 3], table[:, 4:7], table[:, 7], error)
    return plan, rule


def reference_run(net, robot, gear, params):
    """``(records, summary)`` for one run, one ``TraceRecord`` per tick."""
    v_nominal = gear.ratio * params.omega_u * robot.sprocket_radius
    plan, _ = reference_plan(net, robot, gear, params)
    passable = len(plan.speeds)
    lengths, starts, total = reference_lengths(net)
    dt, amplitude = params.dt, params.disturbance_amplitude
    key = reference_key(params.disturbance_seed)
    records, s, k, index, distances = [], 0.0, 0, 0, (0.0, 0.0, 0.0)
    completed, stop_reason = False, None
    error = plan.error if passable == 0 else None
    while error is None:
        v = demanded = tuple(plan.speeds[index].tolist())
        t = k * dt
        if amplitude > 0.0:
            u = (reference_draw(key, 3 * k + i) for i in range(3))
            v = tuple(x * (1.0 + amplitude * f) for x, f in zip(v, u))
        slip = tuple(abs(x - y) for x, y in zip(v, demanded))
        records.append(TraceRecord(t, s, index, params.theta_deg, v, demanded,
                                   tuple(plan.compressions[index].tolist()), slip, distances))
        if s >= total:
            completed = True
            break
        if params.t_max is not None and t >= params.t_max * (1.0 - 1e-12):
            stop_reason = "t_max"
            break
        mean_v = math.fsum(v) / 3.0
        if mean_v <= 0.0:
            error = f"stalled: mean track speed {mean_v:g} mm/s is not positive"
            break
        s = min(s + mean_v * dt, total)
        distances = tuple(d + x * dt for d, x in zip(distances, v))
        k += 1
        while error is None and index + 1 < len(net.segments) and s >= starts[index + 1]:
            index += 1
            if index == passable:
                error = plan.error
    # The segments entered: those starting at or before the last position
    # reached, up to the first that failed its checks.
    entered = [i for i in range(passable) if starts[i] <= s]
    summary = _reference_summary(net, robot, params, plan, entered, records, v_nominal,
                                 lengths, starts, total)
    return records, RunSummary(completed, stop_reason, error, *summary)


def _reference_summary(net, robot, params, plan, entered, records, v_nominal,
                       lengths, starts, total):
    summaries = []
    for index in entered:
        speeds = tuple(plan.speeds[index].tolist())
        recs = [r for r in records if r.segment == index]
        later = [r for r in records if r.segment > index]
        exit_time = later[0].t if later else records[-1].t
        segment = net.segments[index]
        length, start = lengths[index], starts[index]
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
            mean = lowest = highest = speeds
        compression = max(plan.compressions[index].tolist())
        tilt = float(plan.max_tilt_deg[index])
        summaries.append(dict(
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
        apes = [seg["ape"][i] for seg in summaries if seg["ape"][i] is not None]
        tracks.append(TrackTotals(
            name, distance, distance / total_time if total_time > 0.0 else 0.0,
            max((r.slip[i] for r in records), default=0.0), max(apes) if apes else None,
        ))
    return (
        total_time, total, total - robot.length if total >= robot.length else None, v_nominal,
        params.theta_deg, params.dt, params.disturbance_amplitude, params.disturbance_seed,
        max((max(r.slip) for r in records), default=0.0),
        max((seg["max_compression"] for seg in summaries), default=0.0),
        _columns(summaries), tuple(tracks),
    )


def _columns(rows) -> SegmentColumns:
    """The per-segment rows transposed into columns, a per-track field into
    three, one per track."""
    columns = {f.name: tuple(row[f.name] for row in rows) for f in fields(SegmentColumns)}
    for name in ("mean_speeds", "min_speeds", "max_speeds", "ape"):
        columns[name] = tuple(tuple(values[i] for values in columns[name]) for i in range(3))
    return SegmentColumns(**columns)


def reference_csv(records) -> str:
    """The trace CSV, each float formatted on its own with ``f"{x:.6f}"``."""
    lines = [TRACE_HEADER]
    for r in records:
        cells = [f"{r.t:.6f}", f"{r.s:.6f}", str(r.segment), f"{r.theta_deg:.6f}"]
        for group in (r.v, r.v_theo, r.compression, r.slip, r.distance):
            cells.extend(f"{x:.6f}" for x in group)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
