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

The parser builds the scenario's ``PipeNetwork`` once and maps its
violations to [segment] lines.  The network, not the parser, resolves the
default start tangent and each straight's default axis, so the parsed
scenario is explicit and ``serialize_scenario`` round-trips it.

Keys:

    [pipe]     inner_radius (mm, required); standard_label (text);
               start_tangent (unit vector, default from the first straight);
               default_normal (unit vector for bends, default 0 1 0)
    [segment]  type = straight: length (mm); axis (unit vector, default:
               continue the incoming tangent)
               type = bend: radius (mm); sweep_angle (deg, in (0, 180]);
               normal (unit vector, default default_normal)
    [robot]    sprocket_radius, length, nominal_body_radius,
               preload_compression (mm, required); spring_stiffness
               (N/mm, default 2); max_compression (mm, default 16);
               max_tilt_deg (deg, default 10)
    [gear]     ratio (default 1)
    [sim]      omega_u (rad/s, required, > 0); dt (s, default 0.01);
               theta_deg (default 0); t_max (s, optional);
               disturbance_amplitude (fraction in [0, 1), default 0);
               disturbance_seed (int >= 0, default 0)
    [report]   tracks (subset of "A B C", default all); segments ("all" or
               indices, default all); ape (on/off, default on)
"""

import math
from dataclasses import dataclass, field

from .errors import ScenarioParseError
from .geometry import Bend, PipeNetwork, PipeSpec, Segment, Straight, UNIT_TOL, validate_network
from .robot import RobotConfig
from .simulator import DisturbanceConfig, SimParams
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


class _Issues:
    def __init__(self):
        self.items: list[tuple[int, str]] = []

    def add(self, line: int, message: str):
        self.items.append((line, message))

    def raise_if_any(self):
        if self.items:
            raise ScenarioParseError(sorted(self.items))


def _tokenize(text: str, issues: _Issues):
    """Split into sections: [(name, header_line, {key: (line, raw_value)})]."""
    sections = []
    current = None
    known = {"pipe", "robot", "gear", "sim", "report", "segment"}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                issues.add(lineno, f"malformed section header {line!r}")
                current = None
                continue
            name = line[1:-1].strip().lower()
            if name not in known:
                issues.add(lineno, f"unknown section [{name}]")
                current = None
                continue
            if name != "segment" and any(sec[0] == name for sec in sections):
                issues.add(lineno, f"duplicate section [{name}]")
                current = None
                continue
            current = (name, lineno, {})
            sections.append(current)
            continue
        if "=" not in line:
            issues.add(lineno, f"expected 'key = value', got {line!r}")
            continue
        if current is None:
            issues.add(lineno, "key outside of any section")
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not key:
            issues.add(lineno, "empty key")
            continue
        if key in current[2]:
            issues.add(lineno, f"duplicate key {key!r} in [{current[0]}]")
            continue
        current[2][key] = (lineno, value)
    return sections


class _SectionReader:
    """Typed key access over one section, recording diagnostics."""

    def __init__(self, name: str, header_line: int, bindings: dict, issues: _Issues):
        self.name = name
        self.header_line = header_line
        self.bindings = bindings
        self.issues = issues
        self.consumed: set[str] = set()

    def _raw(self, key: str):
        self.consumed.add(key)
        return self.bindings.get(key)

    def get_float(self, key: str, required=False, default=None,
                  minimum=None, maximum=None, exclusive_min=False):
        entry = self._raw(key)
        if entry is None:
            if required:
                self.issues.add(self.header_line, f"[{self.name}] is missing required key {key!r}")
            return default
        lineno, raw = entry
        try:
            value = float(raw)
        except ValueError:
            self.issues.add(lineno, f"{key}: expected a number, got {raw!r}")
            return default
        if not math.isfinite(value):
            self.issues.add(lineno, f"{key}: must be finite")
            return default
        if minimum is not None and (value <= minimum if exclusive_min else value < minimum):
            bound = "greater than" if exclusive_min else "at least"
            self.issues.add(lineno, f"{key}: must be {bound} {minimum:g}, got {raw}")
            return default
        if maximum is not None and value > maximum:
            self.issues.add(lineno, f"{key}: must be at most {maximum:g}, got {raw}")
            return default
        return value

    def get_int(self, key: str, default=None):
        entry = self._raw(key)
        if entry is None:
            return default
        lineno, raw = entry
        try:
            return int(raw)
        except ValueError:
            self.issues.add(lineno, f"{key}: expected an integer, got {raw!r}")
            return default

    def get_str(self, key: str, required=False, default=""):
        entry = self._raw(key)
        if entry is None:
            if required:
                self.issues.add(self.header_line, f"[{self.name}] is missing required key {key!r}")
            return default
        return entry[1]

    def get_vec3(self, key: str, default=None):
        entry = self._raw(key)
        if entry is None:
            return default
        lineno, raw = entry
        parts = raw.split()
        if len(parts) != 3:
            self.issues.add(lineno, f"{key}: expected three numbers, got {raw!r}")
            return default
        try:
            vec = tuple(float(p) for p in parts)
        except ValueError:
            self.issues.add(lineno, f"{key}: expected three numbers, got {raw!r}")
            return default
        norm = math.sqrt(sum(c * c for c in vec))
        if not abs(norm - 1.0) <= UNIT_TOL:
            self.issues.add(lineno, f"{key}: must be a unit vector, norm is {norm:.12g}")
            return default
        return vec

    def get_bool(self, key: str, default=None):
        entry = self._raw(key)
        if entry is None:
            return default
        lineno, raw = entry
        lowered = raw.strip().lower()
        if lowered in ("on", "true", "yes", "1"):
            return True
        if lowered in ("off", "false", "no", "0"):
            return False
        self.issues.add(lineno, f"{key}: expected on/off, got {raw!r}")
        return default

    def reject_unknown(self):
        for key, (lineno, _) in self.bindings.items():
            if key not in self.consumed:
                self.issues.add(lineno, f"unknown key {key!r} in [{self.name}]")


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate scenario text.

    Raises:
        ScenarioParseError: carries every diagnostic with its line number.
    """
    issues = _Issues()
    sections = _tokenize(text, issues)

    by_name = {name: (line, bindings) for name, line, bindings in sections if name != "segment"}
    segment_sections = [(line, bindings) for name, line, bindings in sections if name == "segment"]

    for required in ("pipe", "robot", "sim"):
        if required not in by_name:
            issues.add(0, f"missing [{required}] section")
    if not segment_sections:
        issues.add(0, "missing [segment] sections: at least one segment required")
    issues.raise_if_any()

    # [pipe]
    line, bindings = by_name["pipe"]
    pipe_reader = _SectionReader("pipe", line, bindings, issues)
    inner_radius = pipe_reader.get_float("inner_radius", required=True, minimum=0.0,
                                         exclusive_min=True, default=1.0)
    standard_label = pipe_reader.get_str("standard_label")
    start_tangent = pipe_reader.get_vec3("start_tangent")
    default_normal = pipe_reader.get_vec3("default_normal", default=(0.0, 1.0, 0.0))
    pipe_reader.reject_unknown()
    pipe = PipeSpec(inner_radius=inner_radius, standard_label=standard_label)

    # [segment] list.  The file-format default normal is applied here; a
    # missing axis and start tangent are resolved by PipeNetwork.
    segments: list[Segment] = []
    segment_lines: list[int] = []
    for line, bindings in segment_sections:
        reader = _SectionReader("segment", line, bindings, issues)
        kind = reader.get_str("type", required=True).strip().lower()
        if kind == "straight":
            length = reader.get_float("length", required=True, minimum=0.0,
                                      exclusive_min=True, default=1.0)
            axis = reader.get_vec3("axis")
            reader.reject_unknown()
            segments.append(Straight(length=length, axis=axis))
        elif kind == "bend":
            radius = reader.get_float("radius", required=True, minimum=0.0,
                                      exclusive_min=True, default=1.0)
            sweep = reader.get_float("sweep_angle", required=True, minimum=0.0,
                                     maximum=180.0, exclusive_min=True, default=90.0)
            normal = reader.get_vec3("normal", default=default_normal)
            reader.reject_unknown()
            segments.append(Bend(radius=radius, sweep_deg=sweep, normal=normal))
        else:
            issues.add(line, f"segment type must be straight or bend, got {kind!r}")
        segment_lines.append(line)

    # [robot]
    line, bindings = by_name["robot"]
    robot_reader = _SectionReader("robot", line, bindings, issues)
    robot_kwargs = dict(
        sprocket_radius=robot_reader.get_float("sprocket_radius", required=True, minimum=0.0,
                                               exclusive_min=True, default=1.0),
        length=robot_reader.get_float("length", required=True, minimum=0.0,
                                      exclusive_min=True, default=1.0),
        nominal_body_radius=robot_reader.get_float("nominal_body_radius", required=True,
                                                   minimum=0.0, exclusive_min=True, default=1.0),
        preload_compression=robot_reader.get_float("preload_compression", required=True,
                                                   minimum=0.0, default=0.0),
        spring_stiffness=robot_reader.get_float("spring_stiffness", minimum=0.0,
                                                exclusive_min=True, default=2.0),
        max_compression=robot_reader.get_float("max_compression", minimum=0.0,
                                               exclusive_min=True, default=16.0),
        max_tilt_deg=robot_reader.get_float("max_tilt_deg", minimum=0.0,
                                            exclusive_min=True, default=10.0),
    )
    robot_reader.reject_unknown()
    if robot_kwargs["preload_compression"] > robot_kwargs["max_compression"]:
        issues.add(line, "preload_compression exceeds max_compression")
        robot_kwargs["preload_compression"] = 0.0

    # [gear]
    if "gear" in by_name:
        line, bindings = by_name["gear"]
        gear_reader = _SectionReader("gear", line, bindings, issues)
        ratio = gear_reader.get_float("ratio", minimum=0.0, exclusive_min=True, default=1.0)
        gear_reader.reject_unknown()
    else:
        ratio = 1.0

    # [sim]
    line, bindings = by_name["sim"]
    sim_reader = _SectionReader("sim", line, bindings, issues)
    omega_u = sim_reader.get_float("omega_u", required=True, minimum=0.0,
                                   exclusive_min=True, default=1.0)
    dt = sim_reader.get_float("dt", minimum=0.0, exclusive_min=True, default=0.01)
    theta_deg = sim_reader.get_float("theta_deg", default=0.0)
    t_max = sim_reader.get_float("t_max", minimum=0.0, exclusive_min=True, default=None)
    amplitude = sim_reader.get_float("disturbance_amplitude", minimum=0.0, default=0.0)
    if amplitude is not None and amplitude >= 1.0:
        sim_line = bindings["disturbance_amplitude"][0]
        issues.add(sim_line, "disturbance_amplitude: must be below 1")
        amplitude = 0.0
    seed = sim_reader.get_int("disturbance_seed", default=0)
    if seed < 0:
        issues.add(bindings["disturbance_seed"][0], f"disturbance_seed: must be at least 0, got {seed}")
        seed = 0
    sim_reader.reject_unknown()

    # [report]
    report = ReportOptions()
    if "report" in by_name:
        line, bindings = by_name["report"]
        report_reader = _SectionReader("report", line, bindings, issues)
        tracks_raw = report_reader.get_str("tracks", default="A B C")
        tracks = tuple(tok.upper() for tok in tracks_raw.split())
        if not tracks or any(t not in ("A", "B", "C") for t in tracks):
            where = bindings.get("tracks", (line, ""))[0]
            issues.add(where, f"tracks: expected a subset of 'A B C', got {tracks_raw!r}")
            tracks = ("A", "B", "C")
        segments_raw = report_reader.get_str("segments", default="all")
        if segments_raw.strip().lower() == "all":
            report_segments = None
        else:
            where = bindings.get("segments", (line, ""))[0]
            try:
                report_segments = tuple(int(tok) for tok in segments_raw.split())
            except ValueError:
                issues.add(where, f"segments: expected 'all' or indices, got {segments_raw!r}")
                report_segments = None
            else:
                bad = [i for i in report_segments if not 0 <= i < len(segments)]
                if bad:
                    issues.add(where, f"segments: index {bad[0]} out of range")
                    report_segments = None
        ape = report_reader.get_bool("ape", default=True)
        report_reader.reject_unknown()
        report = ReportOptions(tracks=tracks, segments=report_segments, ape=ape)

    issues.raise_if_any()

    # Geometric invariants, mapped back to the offending [segment] line.
    network = PipeNetwork(pipe, tuple(segments), start_tangent=start_tangent)
    for violation in validate_network(network):
        if violation.segment_index is None:
            issues.add(by_name["pipe"][0], str(violation))
        else:
            issues.add(segment_lines[violation.segment_index], str(violation))
    issues.raise_if_any()

    return Scenario(
        network=network,
        robot=RobotConfig(**robot_kwargs),
        gear=GearTrainConfig(ratio=ratio),
        sim=SimParams(
            omega_u=omega_u,
            dt=dt,
            theta_deg=theta_deg,
            t_max=t_max,
            disturbance=DisturbanceConfig(amplitude=amplitude, seed=seed),
        ),
        report=report,
    )


def _fmt_vec(vec) -> str:
    return " ".join(repr(float(c)) for c in vec)


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text for a Scenario; parse(serialize(s)) equals s."""
    net = scenario.network
    lines = ["[pipe]"]
    lines.append(f"inner_radius = {net.spec.inner_radius!r}")
    if net.spec.standard_label:
        lines.append(f"standard_label = {net.spec.standard_label}")
    lines.append(f"start_tangent = {_fmt_vec(net.start_tangent)}")
    for segment in net.segments:
        lines.append("")
        lines.append("[segment]")
        if isinstance(segment, Straight):
            lines.append("type = straight")
            lines.append(f"length = {segment.length!r}")
            lines.append(f"axis = {_fmt_vec(segment.axis)}")
        else:
            lines.append("type = bend")
            lines.append(f"radius = {segment.radius!r}")
            lines.append(f"sweep_angle = {segment.sweep_deg!r}")
            lines.append(f"normal = {_fmt_vec(segment.normal)}")
    robot = scenario.robot
    lines += [
        "",
        "[robot]",
        f"sprocket_radius = {robot.sprocket_radius!r}",
        f"length = {robot.length!r}",
        f"nominal_body_radius = {robot.nominal_body_radius!r}",
        f"preload_compression = {robot.preload_compression!r}",
        f"spring_stiffness = {robot.spring_stiffness!r}",
        f"max_compression = {robot.max_compression!r}",
        f"max_tilt_deg = {robot.max_tilt_deg!r}",
        "",
        "[gear]",
        f"ratio = {scenario.gear.ratio!r}",
        "",
        "[sim]",
        f"omega_u = {scenario.sim.omega_u!r}",
        f"dt = {scenario.sim.dt!r}",
        f"theta_deg = {scenario.sim.theta_deg!r}",
    ]
    if scenario.sim.t_max is not None:
        lines.append(f"t_max = {scenario.sim.t_max!r}")
    lines += [
        f"disturbance_amplitude = {scenario.sim.disturbance.amplitude!r}",
        f"disturbance_seed = {scenario.sim.disturbance.seed!r}",
        "",
        "[report]",
        f"tracks = {' '.join(scenario.report.tracks)}",
        "segments = "
        + ("all" if scenario.report.segments is None
           else " ".join(str(i) for i in scenario.report.segments)),
        f"ape = {'on' if scenario.report.ape else 'off'}",
    ]
    return "\n".join(lines) + "\n"


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
