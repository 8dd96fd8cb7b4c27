"""Scenario files: a flat sectioned key-value format with a [segment] list.

Grammar (one construct per line; '#' starts a full-line comment):

    file     := (blank | comment | header | binding)*
    header   := '[' name ']'            name in pipe|robot|gear|sim|report|segment
    binding  := key '=' value

[pipe], [robot], [gear], [sim], and [report] appear at most once; [segment]
repeats, in traversal order.  Units are fixed: mm for lengths and radii,
seconds for times, degrees for angles, rad/s for the input speed.  Unknown
sections and keys are rejected, every diagnostic carries its line number,
and defaults exist only for the documented optional keys.  Files are UTF-8.

``KEYS`` is the one list of file keys: one row per key with its kind,
bounds, default, requiredness and the ``Scenario`` field it fills.
``parse_scenario`` reads every key through its row and
``serialize_scenario`` writes every key from it.  Only the rules that span
keys are code of their own: the segment ``type`` dispatch,
``default_normal`` as the default bend normal, ``preload_compression`` at
most ``max_compression``, and report segment indices within the network.

The parser builds the scenario's ``PipeNetwork`` once and maps its
violations to [segment] lines.  The network, not the parser, resolves the
default start tangent and each straight's default axis, so the parsed
scenario is explicit and ``serialize_scenario`` round-trips it.
"""

import math
from operator import ge, gt, le, lt
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .errors import ScenarioParseError
from .geometry import Bend, PipeNetwork, PipeSpec, Segment, Straight, off_unit
from .kinematics import TRACK_NAMES
from .robot import RobotConfig
from .simulator import SimParams
from .transmission import GearTrainConfig


@dataclass(frozen=True)
class ReportOptions:
    """Which tracks and segments the report shows, and whether APE is on."""

    tracks: tuple[str, ...] = ("A", "B", "C")
    segments: tuple[int, ...] | None = None  # None means every segment
    ape: bool = True


@dataclass(frozen=True)
class Scenario:
    """Fully validated simulation setup, as read from one scenario file.

    ``network`` is built, and so checked, once by the parser; its segments
    and start tangent are stored resolved.
    """

    network: PipeNetwork
    robot: RobotConfig
    gear: GearTrainConfig
    sim: SimParams
    report: ReportOptions = field(default_factory=ReportOptions)

    @property
    def segments(self) -> tuple[Segment, ...]:
        return self.network.segments


class _Kind(NamedTuple):
    """How a value is read from its file text, checked and written back."""

    convert: Callable  # raw text -> value; ValueError or KeyError: not this kind
    expected: str  # what the text must spell, for the diagnostic
    check: Callable | None  # value -> diagnostic for a value this kind rejects, or None
    write: Callable  # value -> text, or None to leave the key out


def _three_numbers(raw):
    vec = tuple(float(part) for part in raw.split())
    if len(vec) != 3:
        raise ValueError
    return vec


def _not_unit(vec):
    norm = off_unit(vec)
    return None if norm is None else f"must be a unit vector, norm is {norm:.12g}"


def _tracks(raw):
    tracks = tuple(tok.upper() for tok in raw.split())
    if not tracks or len(set(tracks)) < len(tracks) or not set(tracks) <= set(TRACK_NAMES):
        raise ValueError
    return tracks


_SWITCH = {"on": True, "true": True, "yes": True, "1": True,
           "off": False, "false": False, "no": False, "0": False}

NUMBER = _Kind(float, "a number", lambda x: None if math.isfinite(x) else "must be finite",
               lambda x: None if x is None else repr(x))
INTEGER = _Kind(int, "an integer", None, repr)
UNIT_VECTOR = _Kind(_three_numbers, "three numbers", _not_unit,
                    lambda vec: " ".join(repr(float(c)) for c in vec))
SWITCH = _Kind(lambda raw: _SWITCH[raw.lower()], "on/off", None, lambda on: "on" if on else "off")
TEXT = _Kind(str, "text", None, lambda text: text or None)
TRACKS = _Kind(_tracks, "a subset of 'A B C'", None, " ".join)
INDICES = _Kind(lambda raw: None if raw.lower() == "all" else tuple(map(int, raw.split())),
                "'all' or indices", None, lambda i: "all" if i is None else " ".join(map(str, i)))

# The diagnostic of each bound test; ``got`` is the value as written.
_BOUND_MESSAGES = {
    gt: "must be greater than {limit:g}, got {got}",
    ge: "must be at least {limit:g}, got {got}",
    le: "must be at most {limit:g}, got {got}",
    lt: "must be below {limit:g}",
}
POSITIVE = ((gt, 0.0),)
NON_NEGATIVE = ((ge, 0.0),)


class Key(NamedTuple):
    """One file key: how it is read, checked, defaulted and stored."""

    section: str
    name: str
    kind: _Kind
    bounds: tuple  # (test, limit) pairs: test(value, limit) must hold
    default: object  # value of an absent optional key, and after a diagnostic
    required: bool
    owner: type | None  # the Scenario part the value fills; None: parser only
    attr: str = ""  # its field there, when not named like the key


KEYS = (
    Key("pipe", "inner_radius", NUMBER, POSITIVE, None, True, PipeSpec),
    Key("pipe", "standard_label", TEXT, (), "", False, PipeSpec),
    Key("pipe", "start_tangent", UNIT_VECTOR, (), None, False, PipeNetwork),
    Key("pipe", "default_normal", UNIT_VECTOR, (), (0.0, 1.0, 0.0), False, None),
    Key("segment", "type", TEXT, (), "", True, None),
    Key("segment", "length", NUMBER, POSITIVE, None, True, Straight),
    Key("segment", "axis", UNIT_VECTOR, (), None, False, Straight),
    Key("segment", "radius", NUMBER, POSITIVE, None, True, Bend),
    Key("segment", "sweep_angle", NUMBER, ((gt, 0.0), (le, 180.0)), None, True, Bend,
        "sweep_deg"),
    Key("segment", "normal", UNIT_VECTOR, (), None, False, Bend),  # None: default_normal
    Key("robot", "sprocket_radius", NUMBER, POSITIVE, None, True, RobotConfig),
    Key("robot", "length", NUMBER, POSITIVE, None, True, RobotConfig),
    Key("robot", "nominal_body_radius", NUMBER, POSITIVE, None, True, RobotConfig),
    Key("robot", "preload_compression", NUMBER, NON_NEGATIVE, None, True, RobotConfig),
    Key("robot", "spring_stiffness", NUMBER, POSITIVE, 2.0, False, RobotConfig),
    Key("robot", "max_compression", NUMBER, POSITIVE, 16.0, False, RobotConfig),
    Key("robot", "max_tilt_deg", NUMBER, POSITIVE, 10.0, False, RobotConfig),
    Key("gear", "ratio", NUMBER, POSITIVE, 1.0, False, GearTrainConfig),
    Key("sim", "omega_u", NUMBER, POSITIVE, None, True, SimParams),
    Key("sim", "dt", NUMBER, POSITIVE, 0.01, False, SimParams),
    Key("sim", "theta_deg", NUMBER, (), 0.0, False, SimParams),
    Key("sim", "t_max", NUMBER, POSITIVE, None, False, SimParams),
    Key("sim", "disturbance_amplitude", NUMBER, ((ge, 0.0), (lt, 1.0)), 0.0, False, SimParams),
    Key("sim", "disturbance_seed", INTEGER, NON_NEGATIVE, 0, False, SimParams),
    Key("report", "tracks", TRACKS, (), ("A", "B", "C"), False, ReportOptions),
    Key("report", "segments", INDICES, (), None, False, ReportOptions),
    Key("report", "ape", SWITCH, (), True, False, ReportOptions),
)

_SECTIONS = tuple(dict.fromkeys(key.section for key in KEYS))
# A segment's type names its class.
_SEGMENT_TYPES = {cls.__name__.lower(): cls for cls in (Straight, Bend)}
# The keys of each section but [segment], and of a [segment] of each class:
# its type key and the keys of the class's fields (None: of no known type,
# the type key alone); and the key names each of them accepts.
_KEYS_OF = {name: [key for key in KEYS if key.section == name]
            for name in _SECTIONS if name != "segment"}
_KEYS_OF |= {cls: [key for key in KEYS if key.section == "segment" and key.owner in (None, cls)]
             for cls in (None, Straight, Bend)}
_NAMES = {group: frozenset(key.name for key in keys) for group, keys in _KEYS_OF.items()}


def _raise_if_any(issues: list):
    if issues:
        raise ScenarioParseError(sorted(issues))


def _tokenize(text: str, issues: list):
    """Split into sections: [(name, header_line, {key: (line, raw_value)})]."""
    sections = []
    seen = set()  # names of the sections opened, to find a repeated one
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[":
            name = line[1:-1].strip().lower()
            current = None
            if not line.endswith("]"):
                issues.append((lineno, f"malformed section header {line!r}"))
            elif name not in _SECTIONS:
                issues.append((lineno, f"unknown section [{name}]"))
            elif name != "segment" and name in seen:
                issues.append((lineno, f"duplicate section [{name}]"))
            else:
                current = (name, lineno, {})
                sections.append(current)
                seen.add(name)
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep:
            issues.append((lineno, f"expected 'key = value', got {line!r}"))
        elif current is None:
            issues.append((lineno, "key outside of any section"))
        elif not key:
            issues.append((lineno, "empty key"))
        elif key in current[2]:
            issues.append((lineno, f"duplicate key {key!r} in [{current[0]}]"))
        else:
            current[2][key] = (lineno, value.strip())
    return sections


def _read(section, keys, issues: list, known=None) -> dict:
    """The value of each of ``keys`` in one tokenized section, as
    ``{owner: {field: value}}``: filed by the ``Scenario`` part it fills,
    None for the parser's own keys.  A key with a diagnostic keeps its
    default.  Keys of the section not in ``known`` are rejected; None
    accepts every key."""
    name, header_line, bindings = section
    values = {}
    for _, key, kind, bounds, default, required, owner, attr in keys:
        entry = bindings.get(key)
        if entry is None:
            value = default
            if required:
                issues.append((header_line, f"[{name}] is missing required key {key!r}"))
        else:
            line, raw = entry
            try:
                value = kind.convert(raw)
            except (ValueError, KeyError):
                value, problem = default, f"expected {kind.expected}, got {raw!r}"
            else:
                problem = kind.check(value) if kind.check else None
            for test, limit in bounds:
                if problem is None and not test(value, limit):
                    # An integer is shown as parsed, a number as written.
                    got = value if isinstance(value, int) else raw
                    problem = _BOUND_MESSAGES[test].format(limit=limit, got=got)
            if problem:
                value = default
                issues.append((line, f"{key}: {problem}"))
        values.setdefault(owner, {})[attr or key] = value
    if known is not None and not known.issuperset(bindings):
        for key, (lineno, _) in bindings.items():
            if key not in known:
                issues.append((lineno, f"unknown key {key!r} in [{name}]"))
    return values


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate scenario text.

    Raises:
        ScenarioParseError: carries every diagnostic with its line number.
    """
    issues: list[tuple[int, str]] = []
    sections = _tokenize(text, issues)

    by_name = {sec[0]: sec for sec in sections if sec[0] != "segment"}
    segment_sections = [sec for sec in sections if sec[0] == "segment"]

    # A section is required when it holds a required key.
    for name in dict.fromkeys(key.section for key in KEYS if key.required):
        if name == "segment" and not segment_sections:
            issues.append((0, "missing [segment] sections: at least one segment required"))
        elif name != "segment" and name not in by_name:
            issues.append((0, f"missing [{name}] section"))
    _raise_if_any(issues)

    # Every section but [segment]; an absent optional one reads as empty.
    values: dict = {}
    for name in _SECTIONS:
        if name != "segment":
            section = by_name.get(name, (name, 0, {}))
            for owner, fields in _read(section, _KEYS_OF[name], issues, _NAMES[name]).items():
                values.setdefault(owner, {}).update(fields)
    preload = values[RobotConfig]["preload_compression"]
    if preload is not None and preload > values[RobotConfig]["max_compression"]:
        issues.append((by_name["robot"][1], "preload_compression exceeds max_compression"))

    # [segment] list: the type picks the class and its keys; a section of no
    # known type reads its type key alone and rejects no key.  The file's
    # default normal is applied here; a missing axis and start tangent are
    # resolved by PipeNetwork.
    segments: list[Segment] = []
    segment_lines: list[int] = []
    for section in segment_sections:
        kind = section[2].get("type", (0, ""))[1].lower()
        cls = _SEGMENT_TYPES.get(kind)
        fields = _read(section, _KEYS_OF[cls], issues, cls and _NAMES[cls])[cls]
        if cls is None:
            issues.append((section[1], f"segment type must be straight or bend, got {kind!r}"))
        else:
            if cls is Bend and fields["normal"] is None:
                fields["normal"] = values[None]["default_normal"]
            segments.append(cls(**fields))
        segment_lines.append(section[1])

    bad = [i for i in values[ReportOptions]["segments"] or () if not 0 <= i < len(segments)]
    if bad:
        line = by_name["report"][2]["segments"][0]
        issues.append((line, f"segments: index {bad[0]} out of range"))

    _raise_if_any(issues)

    # Geometric invariants, mapped back to the offending [segment] line.
    network = PipeNetwork(PipeSpec(**values[PipeSpec]), tuple(segments), **values[PipeNetwork])
    for violation in network.violations:
        if violation.segment_index is None:
            issues.append((by_name["pipe"][1], str(violation)))
        else:
            issues.append((segment_lines[violation.segment_index], str(violation)))
    _raise_if_any(issues)

    return Scenario(network, RobotConfig(**values[RobotConfig]),
                    GearTrainConfig(**values[GearTrainConfig]), SimParams(**values[SimParams]),
                    ReportOptions(**values[ReportOptions]))


def _write(name: str, keys, owners: dict, *first: str) -> str:
    """One section's text: its header, the ``first`` lines, then each key
    of ``keys`` whose owner is in ``owners`` and whose value is set."""
    lines = [f"[{name}]", *first]
    for key in keys:
        if key.owner in owners:
            text = key.kind.write(getattr(owners[key.owner], key.attr or key.name))
            if text is not None:
                lines.append(f"{key.name} = {text}")
    return "\n".join(lines)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text for a Scenario; parse(serialize(s)) equals s."""
    net = scenario.network
    owners = {
        PipeSpec: net.spec, PipeNetwork: net, RobotConfig: scenario.robot,
        GearTrainConfig: scenario.gear, SimParams: scenario.sim, ReportOptions: scenario.report,
    }
    blocks = []
    for name in _SECTIONS:
        if name != "segment":
            blocks.append(_write(name, _KEYS_OF[name], owners))
            continue
        for segment in net.segments:
            cls = type(segment)
            blocks.append(_write(name, _KEYS_OF[cls], {cls: segment}, f"type = {cls.__name__.lower()}"))
    return "\n\n".join(blocks) + "\n"


def load_scenario(path) -> Scenario:
    """Read and parse a UTF-8 scenario file; bytes that are not UTF-8 are a
    ScenarioParseError on the line that holds them.  One leading byte-order
    mark is dropped."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioParseError([(line, f"not UTF-8 text: {exc.reason} at byte {exc.start}")]) from None
    return parse_scenario(text.removeprefix("\ufeff"))
