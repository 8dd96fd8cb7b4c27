"""The JSON report as ``json.dumps`` lays it out, kept as the reference for
the report's template emitter.

``reference_json_report`` and ``reference_json_sweep_report`` build the
report's payload as plain dicts and lists and dump it with
``json.dumps(payload, indent=2, sort_keys=True)``.  They are independent
of ``pipediff.report``.
"""

import json

_TRACK_INDEX = {"A": 0, "B": 1, "C": 2}


def _selected_segments(summary, options):
    if options.segments is None:
        return summary.segments
    wanted = set(options.segments)
    return tuple(s for s in summary.segments if s.index in wanted)


def _min_headroom(summary):
    return (min((s.compression_headroom_mm for s in summary.segments), default=None),
            min((s.tilt_headroom_deg for s in summary.segments), default=None))


def _json_payload(summary, options) -> dict:
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


def reference_json_report(summary, options) -> str:
    """The JSON report of one run."""
    return json.dumps(_json_payload(summary, options), indent=2, sort_keys=True) + "\n"


def reference_json_sweep_report(summaries, options) -> str:
    """The JSON report of an orientation sweep's summaries."""
    payload = {
        "orientations": [
            {"theta_deg": summary.theta_deg, **_json_payload(summary, options)}
            for summary in summaries
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
