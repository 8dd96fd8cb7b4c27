"""Trace CSV serialization and run reports (text and JSON)."""

import json

import numpy as np

from .scenario import ReportOptions
from .simulator import TRACE_COLUMNS, RunSummary

TRACE_HEADER = (
    "t,s,segment,theta,vA,vB,vC,vA_theo,vB_theo,vC_theo,"
    "dA,dB,dC,slipA,slipB,slipC,distA,distB,distC"
)

_TRACK_INDEX = {"A": 0, "B": 1, "C": 2}


# Rows formatted per pass: converting one chunk of the columns to Python
# floats at a time keeps the peak memory close to that of the CSV text.
_CHUNK_ROWS = 512


def render_trace(trace) -> str:
    """Header plus one row per record; byte-deterministic for a given trace.

    Floats are fixed to 6 decimals, theta in degrees.  ``trace`` is a
    ``Trace``; an empty sequence gives the header alone.
    """
    lines = [TRACE_HEADER]
    for a in range(0, len(trace), _CHUNK_ROWS):
        chunk = trace[a:a + _CHUNK_ROWS]
        table = np.column_stack([getattr(chunk, name) for name in TRACE_COLUMNS])
        row = f"%.6f,%.6f,%d,{chunk.theta_deg:.6f}" + ",%.6f" * 15
        lines.extend(row % tuple(values) for values in table.tolist())
    return "\n".join(lines) + "\n"


def write_trace(trace, path) -> None:
    """Write the trace CSV; I/O failures surface with the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(render_trace(trace))
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _selected_segments(summary: RunSummary, options: ReportOptions):
    if options.segments is None:
        return summary.segments
    wanted = set(options.segments)
    return tuple(s for s in summary.segments if s.index in wanted)


def _min_headroom(summary: RunSummary) -> tuple[float | None, float | None]:
    """Smallest compression (mm) and tilt (deg) headroom over the segments entered."""
    return (min((s.compression_headroom_mm for s in summary.segments), default=None),
            min((s.tilt_headroom_deg for s in summary.segments), default=None))


def _json_payload(summary: RunSummary, options: ReportOptions) -> dict:
    track_ids = [(_TRACK_INDEX[name], name) for name in options.tracks]
    segments = []
    for seg in _selected_segments(summary, options):
        tracks = {}
        for i, name in track_ids:
            entry = {
                "mean_speed_mm_s": seg.mean_speeds[i],
                "min_speed_mm_s": seg.min_speeds[i],
                "max_speed_mm_s": seg.max_speeds[i],
            }
            if options.ape:
                entry["ape_pct"] = seg.ape[i]
            tracks[name] = entry
        segments.append(
            {
                "index": seg.index,
                "kind": seg.kind,
                "length_mm": seg.length,
                "entry_time_s": seg.entry_time,
                "exit_time_s": seg.exit_time,
                "max_compression_mm": seg.max_compression,
                "max_tilt_deg": seg.max_tilt_deg,
                "compression_headroom_mm": seg.compression_headroom_mm,
                "tilt_headroom_deg": seg.tilt_headroom_deg,
                "tracks": tracks,
            }
        )
    tracks = []
    for i, name in track_ids:
        totals = summary.tracks[i]
        entry = {
            "name": name,
            "distance_mm": totals.distance,
            "mean_speed_mm_s": totals.mean_speed,
            "max_slip_mm_s": totals.max_slip,
        }
        if options.ape:
            entry["max_ape_pct"] = totals.max_ape
        tracks.append(entry)
    compression_headroom, tilt_headroom = _min_headroom(summary)
    limits = {
        "max_compression_mm": summary.max_compression,
        "min_compression_headroom_mm": compression_headroom,
        "max_tilt_deg": max((s.max_tilt_deg for s in summary.segments), default=0.0),
        "min_tilt_headroom_deg": tilt_headroom,
        "max_slip_mm_s": summary.max_slip,
        "completed": summary.completed,
        "error": summary.error,
    }
    run = {
        "completed": summary.completed,
        "stop_reason": summary.stop_reason,
        "error": summary.error,
        "total_time_s": summary.total_time,
        "total_length_mm": summary.total_length,
        "effective_path_mm": summary.effective_path,
        "nominal_speed_mm_s": summary.nominal_speed,
        "theta_deg": summary.theta_deg,
        "dt_s": summary.dt,
        "disturbance_amplitude": summary.disturbance_amplitude,
        "disturbance_seed": summary.disturbance_seed,
    }
    return {"run": run, "segments": segments, "tracks": tracks, "limits": limits}


def _fmt_ape(value) -> str:
    return "  n/a" if value is None else f"{value:5.3f}"


def _render_text(summary: RunSummary, options: ReportOptions) -> str:
    lines = []
    status = "completed" if summary.completed else "stopped"
    if summary.error:
        status = "ABORTED"
    lines.append(
        f"run {status}: t = {summary.total_time:.3f} s over "
        f"{summary.total_length:.3f} mm of pipe"
    )
    if summary.error:
        lines.append(f"abort cause: {summary.error}")
    if summary.stop_reason:
        lines.append(f"stop reason: {summary.stop_reason}")
    effective = (
        f"{summary.effective_path:.3f} mm" if summary.effective_path is not None else "n/a"
    )
    lines.append(
        f"nominal speed {summary.nominal_speed:.3f} mm/s, theta {summary.theta_deg:g} deg, "
        f"effective robot path {effective}"
    )
    lines.append(
        f"disturbance amplitude {summary.disturbance_amplitude:g} "
        f"(seed {summary.disturbance_seed}), dt {summary.dt:g} s"
    )
    lines.append("")
    header = f"{'seg':>3} {'kind':<12} {'entry_s':>9} {'exit_s':>9} {'trk':>3} "
    header += f"{'v_mean':>8} {'v_min':>8} {'v_max':>8}"
    if options.ape:
        header += f" {'ape_pct':>7}"
    header += f" {'d_max':>7} {'d_room':>7} {'tilt_room':>9}"
    lines.append(header)
    for seg in _selected_segments(summary, options):
        for name in options.tracks:
            i = _TRACK_INDEX[name]
            row = (
                f"{seg.index:>3} {seg.kind:<12} {seg.entry_time:>9.3f} {seg.exit_time:>9.3f} "
                f"{name:>3} {seg.mean_speeds[i]:>8.3f} {seg.min_speeds[i]:>8.3f} "
                f"{seg.max_speeds[i]:>8.3f}"
            )
            if options.ape:
                row += f" {_fmt_ape(seg.ape[i]):>7}"
            row += (f" {seg.max_compression:>7.3f} {seg.compression_headroom_mm:>7.3f}"
                    f" {seg.tilt_headroom_deg:>9.3f}")
            lines.append(row)
    lines.append("")
    for name in options.tracks:
        totals = summary.tracks[_TRACK_INDEX[name]]
        row = (
            f"track {name}: distance {totals.distance:.3f} mm, "
            f"mean speed {totals.mean_speed:.3f} mm/s, max slip {totals.max_slip:.3g} mm/s"
        )
        if options.ape and totals.max_ape is not None:
            row += f", max ape {totals.max_ape:.3f}%"
        lines.append(row)
    compression_headroom, tilt_headroom = _min_headroom(summary)
    headroom = (
        "n/a" if compression_headroom is None
        else f"{compression_headroom:.3f} mm compression, {tilt_headroom:.3f} deg tilt"
    )
    lines.append(
        f"limits: max compression {summary.max_compression:.3f} mm, "
        f"max slip {summary.max_slip:.3g} mm/s, min headroom {headroom}"
    )
    return "\n".join(lines) + "\n"


def render_report(summary: RunSummary, options: ReportOptions | None = None,
                  fmt: str = "text") -> str:
    """Render one run summary as text or JSON."""
    options = options or ReportOptions()
    if fmt == "json":
        return json.dumps(_json_payload(summary, options), indent=2, sort_keys=True) + "\n"
    if fmt == "text":
        return _render_text(summary, options)
    raise ValueError(f"unknown report format {fmt!r}")


def render_sweep_report(results, options: ReportOptions | None = None,
                        fmt: str = "text") -> str:
    """Aggregate report over orientation-sweep results.

    ``results`` holds the ``(theta_deg, summary)`` pairs of ``run_orientation_sweep``.
    """
    options = options or ReportOptions()
    if fmt == "json":
        payload = {
            "orientations": [
                {"theta_deg": theta, **_json_payload(summary, options)}
                for theta, summary in results
            ]
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [f"orientation sweep: {len(results)} runs"]
    header = (
        f"{'theta':>7} {'status':<9} {'t_total':>8} {'max_slip':>9} "
        + " ".join(f"{'v_' + t:>8}" for t in options.tracks)
    )
    lines.append(header)
    for theta, summary in results:
        status = "ok" if summary.completed else ("abort" if summary.error else "stop")
        row = f"{theta:>7.1f} {status:<9} {summary.total_time:>8.3f} {summary.max_slip:>9.3g}"
        for name in options.tracks:
            row += f" {summary.tracks[_TRACK_INDEX[name]].mean_speed:>8.3f}"
        lines.append(row)
    return "\n".join(lines) + "\n"
