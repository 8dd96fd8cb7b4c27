"""Trace CSV serialization and run reports (text and JSON), both byte contracts.

The JSON report reads as ``json.dumps(payload, indent=2, sort_keys=True)``
would write it, but each kind of object is laid out once: a segment row as a
``%``-template, the document as its literal parts, cut at each leaf.
Both reports read a run's segments as the columns of ``RunSummary.segments``
and spell each column, not each segment, at a time.

Each report is an iterator of text pieces, spelled as they are taken, so a
writer never holds a whole report: the JSON report's literal parts
interleaved with its leaf texts, and its segment rows ``_JOIN_ROWS`` at a
time; the text report's lines ``_JOIN_ROWS`` at a time.  ``render_report``
and ``render_sweep_report`` join those same pieces.
"""

import json
import math
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .kinematics import TRACK_NAMES
from .scenario import ReportOptions
from .simulator import TRACE_COLUMNS, RunSummary

TRACE_HEADER = (
    "t,s,segment,theta,vA,vB,vC,vA_theo,vB_theo,vC_theo,"
    "dA,dB,dC,slipA,slipB,slipC,distA,distB,distC"
)

_TRACK_INDEX = {name: i for i, name in enumerate(TRACK_NAMES)}


# Rows spelled per pass: converting one chunk of the columns to text at a
# time keeps the peak memory close to that of the CSV text.  Trace rows are
# joined half a chunk, report rows ``_JOIN_ROWS``, at a time, for the same.
_CHUNK_ROWS = 512
_JOIN_ROWS = 128

# Two ASCII bytes as one little-endian 16-bit cell: ``_CELLS[k]`` spells
# k < 100 as two digits, ``_CELLS[100 + k]`` as a number's NUL-padded leading
# digits and ``_CELLS[200 + k]`` as digit k < 10 and the decimal point.
_CELLS = np.frombuffer(b"".join([b"%02d" % k for k in range(100)]
                                + [(b"%d" % k).lstrip(b"0").rjust(2, b"\0") for k in range(100)]
                                + [b"%d." % k for k in range(10)]), "<u2")


def _padded(texts: list, width: int) -> np.ndarray:
    """``texts`` as the rows of a (len, ``width``) uint8 array, NUL-padded."""
    return np.frombuffer(b"".join([text.ljust(width, b"\0") for text in texts]),
                         np.uint8).reshape(len(texts), width)


def _fields(values: np.ndarray, end: bytes):
    """``(fields, declined)``: each value of the (rows, w) ``values`` as
    ``'%.6f' %`` spells it, then ``,`` (``end`` in the last column), padded
    with NULs to a (rows, w, width) uint8 array, and the (rows, w) mask of
    the values that the digits below cannot spell, whose ``%`` text is
    written in place: those that are not finite, reach 2**52 micro-units or
    whose float product ``|x| * 1e6`` is a half-integer.

    The micro-units ``rint(|x| * 1e6)`` round the exact product twice, both
    times monotonically, so they are what ``%`` rounds it to (half to even,
    as in Gay's correctly rounded conversion) unless the float product is a
    half-integer: below 2**52 the half-integers are floats, so a product
    strictly between two of them rounds to a float between them too, and
    ``micro - units`` is exact.  A field is a byte for the sign, the digits
    right-aligned in NUL-padded two-byte cells, and the separator.
    """
    micro = np.abs(values.ravel())
    with np.errstate(over="ignore", invalid="ignore"):
        micro *= 1e6
        units = np.rint(micro)
        declined = ~(micro < 2.0 ** 52) | (abs(micro - units) == 0.5)
    texts = []
    if declined.any():
        units[declined] = 0.0
        last = np.nonzero(declined.reshape(values.shape))[1] == values.shape[1] - 1
        texts = [b"%.6f%s" % (x, end if at_end else b",")
                 for x, at_end in zip(values.ravel()[declined].tolist(), last.tolist())]
    units = units.astype(np.int64)
    # From the right: three pairs of decimals, the units digit and the point,
    # then the integer digits above it in pairs, as many as the largest has.
    cells = 4 + max(1, len(str(int(units.max()))) - 6) // 2
    # A byte for the sign, the digits and the separator, or a ``%`` text.
    width = max([2 * cells + 2] + [len(text) for text in texts])
    fields = np.zeros((*values.shape, width), np.uint8)
    fields[..., -1] = ord(",")
    fields[:, -1, -1] = ord(end)
    fields[..., -2 * cells - 2][np.signbit(values)] = ord("-")
    digits = fields.reshape(-1, width)[:, -2 * cells - 1:-1].view("<u2")
    for j in reversed(range(cells)):
        place = 10 if j == cells - 4 else 100
        rest = units // place
        units -= place * rest  # this cell's digits
        if j == cells - 4:
            units += 200  # with the decimal point
        elif j < cells - 4:
            units += 100 * (rest == 0)  # leading digits, NUL-padded
        digits[:, j] = _CELLS[units]
        units = rest
    if texts:
        fields.reshape(-1, width)[declined] = _padded(texts, width)
    return fields, declined.reshape(values.shape)


def _held(trace, lo: int, hi: int) -> list:
    """For each column of ``trace.moving``, the fields that hold over each
    segment ``lo`` to ``hi - 1`` and come before that column, as a block of
    NUL-padded bytes with one row per segment: the segment, theta and the
    values of each column that does not move, all spelled in one pass.  Each
    field is cut to the least padding that any segment's field has, and each
    block is C-ordered, as ``np.take`` gathers its rows fastest."""
    # The trace's rows read with one record in each segment, by its own rules.
    segments = replace(trace, segment=np.arange(lo, hi))
    held = [getattr(segments, name) for name in TRACE_COLUMNS[3:] if name not in trace.moving]
    theta = np.full((hi - lo, 1), trace.theta_deg, dtype=float)
    fields, _ = _fields(np.concatenate([theta, *held], axis=1), b",")
    index = _padded([b"%d," % k for k in range(lo, hi)], len(b"%d," % (hi - 1)))
    # The index, theta and three fields per held column before each moving one.
    ends = [index.shape[1] + fields.shape[2] * (1 + 3 * (TRACE_COLUMNS.index(name) - 3 - k))
            for k, name in enumerate(trace.moving)]
    rows = np.concatenate([index, fields.reshape(hi - lo, -1)], axis=1)
    return [np.compress(block.any(axis=0), block, axis=1)
            for block in np.split(rows, ends[:-1], axis=1)]


def _trace_rows(trace):
    """The trace's rows as bytes in pieces, each with the held fields of its
    segment, spelled for the segments from the lowest to the highest that
    the trace's records are in (a slice may run backwards or skip records);
    an empty trace has none."""
    if not len(trace):
        return
    lo = int(trace.segment.min())
    held = _held(trace, lo, int(trace.segment.max()) + 1)
    half = (_CHUNK_ROWS + 1) // 2
    for a in range(0, len(trace), _CHUNK_ROWS):
        chunk = trace[a:a + _CHUNK_ROWS]
        values = np.concatenate([chunk.t[:, None], chunk.s[:, None],
                                 *[getattr(chunk, name) for name in trace.moving]], axis=1)
        fields, _ = _fields(values, b"\n")
        segment = chunk.segment - lo
        for b in range(0, len(chunk), half):
            rows, at = fields[b:b + half], segment[b:b + half]
            # ``t`` and ``s``, then each moving column after its held fields.
            parts = [rows[:, :2]]
            for k, block in enumerate(held):
                parts += [np.take(block, at, axis=0), rows[:, 2 + 3 * k:5 + 3 * k]]
            row = np.concatenate([part.reshape(len(at), -1) for part in parts], axis=1)
            del parts  # the gathered held fields, before the bytes are copied out
            yield row.tobytes().translate(None, b"\0")


def render_trace(trace) -> str:
    """Header plus one row per record; byte-deterministic for a given trace.

    Floats are fixed to 6 decimals, theta in degrees.  ``trace`` is a
    ``Trace``; an empty sequence gives the header alone.

    A ``Trace`` stores per record only ``t``, ``s``, ``segment``, the
    distances and, when disturbed, ``v``; the rest is per-segment rows.  The
    writer spells what holds over a segment once, for the segments from the
    lowest to the highest that the trace's records are in: the segment,
    theta, ``v_theo`` and ``compression``, and ``v`` and ``slip`` too when
    ``v`` is per segment.  Each row joins the fields of the columns that
    move with the held fields of its segment, gathered by ``segment``, as
    NUL-padded bytes, and drops the padding.  Every float goes through one
    speller, ``_fields``: integer arithmetic on numpy columns, or
    ``'%.6f' %`` for each value where that cannot be exact.  The output is
    that of formatting each value alone.
    """
    return TRACE_HEADER + "\n" + "".join([piece.decode() for piece in _trace_rows(trace)])


@contextmanager
def trace_writer(path):
    """A function that writes traces, handed in order, as one trace CSV at
    ``path``, which the first call makes: a run's blocks as ``run`` steps
    them (its ``keep``), or a whole ``Trace`` at once.  Each is spelled as
    ``render_trace`` spells it, for the segments that it spans, one chunk of
    rows at a time, so the text is never held whole.  I/O failures surface
    with the path."""
    handle = None

    def write(block):
        nonlocal handle
        if handle is None:
            handle = files.enter_context(open(path, "wb"))
            handle.write(TRACE_HEADER.encode() + b"\n")
        handle.writelines(_trace_rows(block))

    try:
        with ExitStack() as files:
            yield write
    except OSError as exc:
        raise OSError(f"cannot write trace to {path}: {exc}") from exc


def _taker(summary: RunSummary, options: ReportOptions):
    """A function from a segment column to its values for the segments listed."""
    if options.segments is None:
        return lambda column: column
    wanted = set(options.segments)
    picks = [k for k, index in enumerate(summary.segments.index) if index in wanted]
    return lambda column: [column[k] for k in picks]


# The JSON spellings of the values that are neither numbers nor strings.
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _spell(value) -> str:
    """One JSON value as ``json.dumps`` spells it."""
    if type(value) is float and value - value == 0.0:  # finite: the common case
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None or type(value) is bool:
        return _CONSTANTS[value]
    return json.dumps(value)


def _layout(value, depth: int, leaves: list) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` lays it
    out ``depth`` levels deep, with ``%s`` for each value in it that is not a
    dict or list; those go to ``leaves``, in the order they are written.  The
    text fits every value of the same shape.  No key holds a ``%``."""
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_layout(value[key], depth + 1, leaves)}"
                 for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, list):
        items = [_layout(item, depth + 1, leaves) for item in value]
        brackets = "[]"
    else:
        leaves.append(value)
        return "%s"
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _pieces(value):
    """``value`` laid out whole, with the final newline, in pieces: the parts
    of its ``_layout`` and between them each leaf, a JSON text or an
    iterable of JSON texts."""
    leaves = []
    parts = _layout(value, 0, leaves).split("%s")
    for part, leaf in zip(parts, leaves):
        yield part
        if type(leaf) is str:
            yield leaf
        else:
            yield from leaf
    yield parts[-1] + "\n"


def _texts(column: list):
    """``column``'s values as ``_spell`` spells them, by ``repr`` when all are
    finite floats (a non-finite one makes the sum inf or NaN)."""
    if set(map(type, column)) <= {float} and math.isfinite(sum(column)):
        return map(float.__repr__, column)
    return map(_spell, column)


def _rows(layout, columns: dict, take, depth: int):
    """An array of one object per row that ``take`` keeps of ``columns``, in
    pieces of ``_JOIN_ROWS`` rows, which bounds the texts held.  ``layout``
    is the ``_row_layout``, each leaf naming a column ``(field, None)`` or
    ``(field, track)``."""
    template, leaves = layout
    picked = [take(columns[name] if track is None else columns[name][track])
              for name, track in leaves]
    if not picked[0]:
        yield "[]"
        return
    between = ",\n" + "  " * (depth + 1)
    yield "[\n" + "  " * (depth + 1)
    for lo in range(0, len(picked[0]), _JOIN_ROWS):
        rows = zip(*[_texts(column[lo:lo + _JOIN_ROWS]) for column in picked])
        if lo:
            yield between
        yield between.join([template % row for row in rows])
    yield "\n" + "  " * depth + "]"


# JSON key -> attribute of the RunSummary, its SegmentColumns, whose columns
# the reports read, their per-track columns, and a TrackTotals.
_RUN_KEYS = {"completed": "completed", "stop_reason": "stop_reason", "error": "error",
             "total_time_s": "total_time", "total_length_mm": "total_length",
             "effective_path_mm": "effective_path", "nominal_speed_mm_s": "nominal_speed",
             "theta_deg": "theta_deg", "dt_s": "dt", "disturbance_amplitude":
             "disturbance_amplitude", "disturbance_seed": "disturbance_seed"}
_SEGMENT_KEYS = {"index": "index", "kind": "kind", "length_mm": "length",
                 "entry_time_s": "entry_time", "exit_time_s": "exit_time",
                 "max_compression_mm": "max_compression", "max_tilt_deg": "max_tilt_deg",
                 "compression_headroom_mm": "compression_headroom_mm",
                 "tilt_headroom_deg": "tilt_headroom_deg"}
_SEGMENT_TRACK_KEYS = {"mean_speed_mm_s": "mean_speeds", "min_speed_mm_s": "min_speeds",
                       "max_speed_mm_s": "max_speeds"}
_TOTALS_KEYS = {"name": "name", "distance_mm": "distance", "mean_speed_mm_s": "mean_speed",
                "max_slip_mm_s": "max_slip"}


def _row_layout(options: ReportOptions, depth: int) -> tuple:
    """``(template, leaves)`` of a segment row, for ``_payload`` at
    ``depth``: its ``_layout`` as one ``%``-template, whose leaves name
    columns.  A sweep report lays it out once."""
    per_track = _SEGMENT_TRACK_KEYS | ({"ape_pct": "ape"} if options.ape else {})
    segment = {key: (attr, None) for key, attr in _SEGMENT_KEYS.items()}
    segment["tracks"] = {name: {key: (attr, _TRACK_INDEX[name]) for key, attr in per_track.items()}
                         for name in options.tracks}
    leaves = []
    return _layout(segment, depth + 2, leaves), leaves


def _payload(summary: RunSummary, options: ReportOptions, depth: int, row: tuple) -> dict:
    """One run's JSON object ``depth`` levels deep: its leaves as JSON
    texts, its segments as ``_rows`` pieces of the ``_row_layout`` ``row``."""
    columns = vars(summary.segments)
    totals = _TOTALS_KEYS | ({"max_ape_pct": "max_ape"} if options.ape else {})
    limits = {
        "max_compression_mm": summary.max_compression,
        "min_compression_headroom_mm": min(columns["compression_headroom_mm"], default=None),
        "max_tilt_deg": max(columns["max_tilt_deg"], default=0.0),
        "min_tilt_headroom_deg": min(columns["tilt_headroom_deg"], default=None),
        "max_slip_mm_s": summary.max_slip,
        "completed": summary.completed,
        "error": summary.error,
    }
    return {
        "run": {key: _spell(getattr(summary, attr)) for key, attr in _RUN_KEYS.items()},
        "segments": _rows(row, columns, _taker(summary, options), depth + 1),
        "tracks": [{key: _spell(getattr(summary.tracks[_TRACK_INDEX[name]], attr))
                    for key, attr in totals.items()} for name in options.tracks],
        "limits": {key: _spell(value) for key, value in limits.items()},
    }


def _fmt_ape(value) -> str:
    return "  n/a" if value is None else f"{value:5.3f}"


def _text_lines(summary: RunSummary, options: ReportOptions):
    """The text report's lines, without their newlines."""
    status = "completed" if summary.completed else "stopped"
    if summary.error:
        status = "ABORTED"
    yield (
        f"run {status}: t = {summary.total_time:.3f} s over "
        f"{summary.total_length:.3f} mm of pipe"
    )
    if summary.error:
        yield f"abort cause: {summary.error}"
    if summary.stop_reason:
        yield f"stop reason: {summary.stop_reason}"
    effective = (
        f"{summary.effective_path:.3f} mm" if summary.effective_path is not None else "n/a"
    )
    yield (
        f"nominal speed {summary.nominal_speed:.3f} mm/s, theta {summary.theta_deg:g} deg, "
        f"effective robot path {effective}"
    )
    yield (
        f"disturbance amplitude {summary.disturbance_amplitude:g} "
        f"(seed {summary.disturbance_seed}), dt {summary.dt:g} s"
    )
    yield ""
    header = f"{'seg':>3} {'kind':<12} {'entry_s':>9} {'exit_s':>9} {'trk':>3} "
    header += f"{'v_mean':>8} {'v_min':>8} {'v_max':>8}"
    if options.ape:
        header += f" {'ape_pct':>7}"
    header += f" {'d_max':>7} {'d_room':>7} {'tilt_room':>9}"
    yield header
    # One row per segment and track, through one ``%`` format: ``%8.3f`` is
    # ``{:>8.3f}`` and ``%-12s`` is ``{:<12}``.
    row_format = ("%3d %-12s %9.3f %9.3f %3s %8.3f %8.3f %8.3f" + " %7s" * options.ape
                  + " %7.3f %7.3f %9.3f")
    columns, take = vars(summary.segments), _taker(summary, options)
    head = [take(columns[name]) for name in ("index", "kind", "entry_time", "exit_time")]
    tail = [take(columns[name])
            for name in ("max_compression", "compression_headroom_mm", "tilt_headroom_deg")]
    per_track = []
    for name in options.tracks:
        i = _TRACK_INDEX[name]
        speeds = [take(columns[attr][i]) for attr in _SEGMENT_TRACK_KEYS.values()]
        apes = [map(_fmt_ape, take(columns["ape"][i]))] * options.ape
        per_track.append(zip(*head, repeat(name), *speeds, *apes, *tail))
    yield from (row_format % row for rows in zip(*per_track) for row in rows)
    yield ""
    for name in options.tracks:
        totals = summary.tracks[_TRACK_INDEX[name]]
        row = (
            f"track {name}: distance {totals.distance:.3f} mm, "
            f"mean speed {totals.mean_speed:.3f} mm/s, max slip {totals.max_slip:.3g} mm/s"
        )
        if options.ape and totals.max_ape is not None:
            row += f", max ape {totals.max_ape:.3f}%"
        yield row
    compression_headroom = min(columns["compression_headroom_mm"], default=None)
    tilt_headroom = min(columns["tilt_headroom_deg"], default=None)
    headroom = (
        "n/a" if compression_headroom is None
        else f"{compression_headroom:.3f} mm compression, {tilt_headroom:.3f} deg tilt"
    )
    yield (
        f"limits: max compression {summary.max_compression:.3f} mm, "
        f"max slip {summary.max_slip:.3g} mm/s, min headroom {headroom}"
    )


def _sweep_lines(summaries, options: ReportOptions):
    """The text sweep report's lines, without their newlines."""
    yield f"orientation sweep: {len(summaries)} runs"
    yield (
        f"{'theta':>7} {'status':<9} {'t_total':>8} {'max_slip':>9} "
        + " ".join(f"{'v_' + t:>8}" for t in options.tracks)
    )
    for summary in summaries:
        status = "ok" if summary.completed else ("abort" if summary.error else "stop")
        row = (f"{summary.theta_deg:>7.1f} {status:<9} {summary.total_time:>8.3f} "
               f"{summary.max_slip:>9.3g}")
        for name in options.tracks:
            row += f" {summary.tracks[_TRACK_INDEX[name]].mean_speed:>8.3f}"
        yield row


def _batched(lines):
    """``lines``, each ended by a newline, in pieces of ``_JOIN_ROWS`` lines."""
    lines = iter(lines)
    while batch := list(islice(lines, _JOIN_ROWS)):
        yield "\n".join(batch) + "\n"


def report_pieces(summary: RunSummary, options: ReportOptions | None = None,
                  fmt: str = "text"):
    """The text of ``render_report`` as an iterator of pieces, spelled as
    they are taken; an unknown ``fmt`` is rejected before any is."""
    options = options or ReportOptions()
    if fmt == "json":
        return _pieces(_payload(summary, options, 0, _row_layout(options, 0)))
    if fmt == "text":
        return _batched(_text_lines(summary, options))
    raise ValueError(f"unknown report format {fmt!r}")


def sweep_report_pieces(summaries, options: ReportOptions | None = None,
                        fmt: str = "text"):
    """The text of ``render_sweep_report`` as an iterator of pieces, as
    ``report_pieces`` gives a run's."""
    options = options or ReportOptions()
    if fmt == "json":
        row = _row_layout(options, 2)
        payloads = [{"theta_deg": _spell(summary.theta_deg), **_payload(summary, options, 2, row)}
                    for summary in summaries]
        return _pieces({"orientations": payloads})
    if fmt == "text":
        return _batched(_sweep_lines(summaries, options))
    raise ValueError(f"unknown report format {fmt!r}")


def render_report(summary: RunSummary, options: ReportOptions | None = None,
                  fmt: str = "text") -> str:
    """Render one run summary as text or JSON."""
    return "".join(report_pieces(summary, options, fmt))


def render_sweep_report(summaries, options: ReportOptions | None = None,
                        fmt: str = "text") -> str:
    """Aggregate report over the summaries of ``run_orientation_sweep``, one
    row per orientation, each labelled with its ``theta_deg``."""
    return "".join(sweep_report_pieces(summaries, options, fmt))
