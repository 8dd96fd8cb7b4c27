"""Pipe network geometry: arc-length-parameterized straights and bends.

A network is an ordered chain of segments sharing endpoint and tangent.
Straights declare their axis; bends inherit the incoming tangent and turn
inside the plane orthogonal to their normal (right-hand rule).  All queries
are pure and the types are immutable, so networks are thread-safe values.

Inside a bend the three drive modules ride circles of different radii: the
module whose contact point sits at circumferential angle ``theta_i`` from
the bend-center direction follows

    rho_i = R - r_c * cos(theta_i)

with ``R`` the centerline bend radius and ``r_c`` the contact radius from
the pipe axis.  The three angles are 120 degrees apart, so the path radii
always average to ``R`` -- the identity the passive differential exploits.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometryError

UNIT_TOL = 1e-9  # accepted |norm - 1| for declared unit vectors
ANGLE_TOL = 1e-9  # rad, accepted tangent mismatch at joints

MODULE_OFFSETS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)


@dataclass(frozen=True)
class PipeSpec:
    """Circular pipe cross-section."""

    inner_radius: float  # mm
    standard_label: str = ""


@dataclass(frozen=True)
class Straight:
    length: float  # mm
    axis: tuple[float, float, float]  # unit direction of travel


@dataclass(frozen=True)
class Bend:
    """Circular-arc elbow swept inside the plane orthogonal to ``normal``."""

    radius: float  # mm, centerline bend radius
    sweep_deg: float  # degrees, in (0, 180]
    normal: tuple[float, float, float]  # bend plane normal, sets turn sense

    @property
    def sweep_rad(self) -> float:
        return math.radians(self.sweep_deg)

    @property
    def arc_length(self) -> float:
        return self.radius * self.sweep_rad


Segment = Straight | Bend


def segment_length(segment: Segment) -> float:
    """Centerline length of one segment in mm."""
    if isinstance(segment, Straight):
        return segment.length
    return segment.arc_length


def rotate_vector(v, axis, angle: float) -> np.ndarray:
    """Rotate ``v`` about unit ``axis`` by ``angle`` radians (right-hand rule)."""
    v = np.asarray(v, dtype=float)
    k = np.asarray(axis, dtype=float)
    c = math.cos(angle)
    s = math.sin(angle)
    return v * c + np.cross(k, v) * s + k * float(np.dot(k, v)) * (1.0 - c)


def _unit(v, fallback) -> np.ndarray:
    """Normalize ``v``; fall back when it is degenerate (validate flags it)."""
    a = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(a))
    if not math.isfinite(n) or n < 1e-12:
        return np.array(fallback, dtype=float)
    return a / n


def _angle_between(a: np.ndarray, b: np.ndarray) -> float:
    return math.atan2(float(np.linalg.norm(np.cross(a, b))), float(np.dot(a, b)))


@dataclass(frozen=True)
class LocatedFrame:
    """Result of an arc-length query: segment, local offset, and frame."""

    index: int
    offset: float  # mm into the segment
    point: tuple[float, float, float]
    tangent: tuple[float, float, float]


@dataclass(frozen=True)
class Violation:
    """One broken network invariant; data, not an exception."""

    segment_index: int | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = "network" if self.segment_index is None else f"segment {self.segment_index}"
        return f"{self.rule} @ {where}: {self.message}"


@dataclass(frozen=True)
class PipeNetwork:
    """Ordered, tangent-continuous chain of straights and bends.

    ``start_tangent`` seeds the chain; when omitted it is taken from the
    first straight's axis (or +z if the chain opens with a bend).  Frames
    are precomputed so arc-length queries stay cheap.
    """

    spec: PipeSpec
    segments: tuple[Segment, ...]
    start_point: tuple[float, float, float] = (0.0, 0.0, 0.0)
    start_tangent: tuple[float, float, float] | None = None

    _entry_points: tuple = field(init=False, repr=False, compare=False, default=())
    _entry_tangents: tuple = field(init=False, repr=False, compare=False, default=())
    _exit_tangents: tuple = field(init=False, repr=False, compare=False, default=())
    _starts: tuple = field(init=False, repr=False, compare=False, default=())
    _ends: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        tangent = _unit(self.resolved_start_tangent(), (0.0, 0.0, 1.0))
        point = np.asarray(self.start_point, dtype=float)
        entry_points = []
        entry_tangents = []
        exit_tangents = []
        starts = []
        ends = []
        s = 0.0
        for segment in self.segments:
            if isinstance(segment, Straight):
                tangent = _unit(segment.axis, tangent)
                entry_points.append(point.copy())
                entry_tangents.append(tangent.copy())
                point = point + tangent * segment.length
            else:
                normal = _unit(segment.normal, (0.0, 1.0, 0.0))
                entry_points.append(point.copy())
                entry_tangents.append(tangent.copy())
                center = point + segment.radius * np.cross(normal, tangent)
                point = center + rotate_vector(point - center, normal, segment.sweep_rad)
                tangent = _unit(rotate_vector(tangent, normal, segment.sweep_rad), tangent)
            exit_tangents.append(tangent.copy())
            starts.append(s)
            s += segment_length(segment)
            ends.append(s)
        object.__setattr__(self, "_entry_points", tuple(entry_points))
        object.__setattr__(self, "_entry_tangents", tuple(entry_tangents))
        object.__setattr__(self, "_exit_tangents", tuple(exit_tangents))
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_ends", tuple(ends))

    def resolved_start_tangent(self) -> tuple[float, float, float]:
        if self.start_tangent is not None:
            return self.start_tangent
        if self.segments and isinstance(self.segments[0], Straight):
            return self.segments[0].axis
        return (0.0, 0.0, 1.0)

    @property
    def total_length(self) -> float:
        """Total centerline length in mm; bends contribute R * sweep."""
        return self._ends[-1] if self._ends else 0.0

    def arc_start(self, index: int) -> float:
        """Arc-length coordinate where segment ``index`` begins."""
        return self._starts[index]

    def segment_at(self, s: float) -> tuple[int, float]:
        """Segment index and local offset for arc length ``s``.

        Joints belong to the later segment; ``s == total_length`` maps to
        the end of the last segment.
        """
        if not self.segments:
            raise ValueError("empty network")
        if not (0.0 <= s <= self.total_length):
            raise ValueError(
                f"arc length {s!r} outside [0, {self.total_length!r}]"
            )
        index = bisect_right(self._ends, s)
        if index == len(self.segments):
            index -= 1
        return index, s - self._starts[index]

    def locate(self, s: float) -> LocatedFrame:
        """Interpolated centerline frame at arc length ``s``."""
        index, offset = self.segment_at(s)
        segment = self.segments[index]
        p0 = self._entry_points[index]
        t0 = self._entry_tangents[index]
        if isinstance(segment, Straight):
            point = p0 + t0 * offset
            tangent = t0
        else:
            normal = _unit(segment.normal, (0.0, 1.0, 0.0))
            center = p0 + segment.radius * np.cross(normal, t0)
            angle = offset / segment.radius
            point = center + rotate_vector(p0 - center, normal, angle)
            tangent = rotate_vector(t0, normal, angle)
        return LocatedFrame(index, offset, tuple(point), tuple(tangent))


def module_path_radius(
    bend: Bend, theta: float, module_index: int, contact_radius: float
) -> float:
    """Path radius of one module's contact point inside a bend.

    ``theta`` is the robot's roll measured so that ``theta = 0`` puts module
    0's contact point nearest the bend center; modules sit 120 degrees
    apart around the pipe axis.
    """
    if module_index not in (0, 1, 2):
        raise ValueError(f"module index must be 0, 1, or 2, got {module_index!r}")
    if not math.isfinite(theta):
        raise ValueError("orientation angle must be finite")
    if not (0.0 <= contact_radius < bend.radius):
        raise InvalidGeometryError(
            f"contact radius {contact_radius:g} mm must lie in [0, bend radius "
            f"{bend.radius:g} mm)"
        )
    return bend.radius - contact_radius * math.cos(theta + MODULE_OFFSETS[module_index])


def validate_network(net: PipeNetwork) -> list[Violation]:
    """Check every type invariant and joint; violations are returned as data.

    The list is empty iff the network is well-formed: positive lengths,
    unit axes and normals, bend radius above the pipe radius, sweep within
    (0, 180], normals orthogonal to the incoming tangent, and G1 continuity
    at every joint.
    """
    violations: list[Violation] = []
    if not (math.isfinite(net.spec.inner_radius) and net.spec.inner_radius > 0.0):
        violations.append(
            Violation(None, "pipe-radius", f"inner radius must be positive, got {net.spec.inner_radius!r}")
        )
    if not net.segments:
        violations.append(Violation(None, "empty-network", "at least one segment required"))
        return violations

    prev_exit = _unit(net.resolved_start_tangent(), (0.0, 0.0, 1.0))
    for k, segment in enumerate(net.segments):
        if isinstance(segment, Straight):
            if not (math.isfinite(segment.length) and segment.length > 0.0):
                violations.append(
                    Violation(k, "segment-length", f"straight length must be positive, got {segment.length!r}")
                )
            norm = float(np.linalg.norm(np.asarray(segment.axis, dtype=float)))
            if abs(norm - 1.0) > UNIT_TOL:
                violations.append(
                    Violation(k, "unit-axis", f"axis norm is {norm:.12g}, expected 1")
                )
            axis = _unit(segment.axis, prev_exit)
            if _angle_between(prev_exit, axis) > ANGLE_TOL:
                violations.append(
                    Violation(
                        k,
                        "continuity",
                        f"axis deviates {_angle_between(prev_exit, axis):.3g} rad from the incoming tangent",
                    )
                )
        else:
            if not (math.isfinite(segment.radius) and segment.radius > net.spec.inner_radius):
                violations.append(
                    Violation(
                        k,
                        "bend-radius",
                        f"bend radius {segment.radius!r} mm must exceed the pipe radius "
                        f"{net.spec.inner_radius!r} mm",
                    )
                )
            if not (math.isfinite(segment.sweep_deg) and 0.0 < segment.sweep_deg <= 180.0):
                violations.append(
                    Violation(k, "sweep-angle", f"sweep must be in (0, 180] degrees, got {segment.sweep_deg!r}")
                )
            norm = float(np.linalg.norm(np.asarray(segment.normal, dtype=float)))
            if abs(norm - 1.0) > UNIT_TOL:
                violations.append(
                    Violation(k, "unit-normal", f"normal norm is {norm:.12g}, expected 1")
                )
            else:
                n_hat = _unit(segment.normal, (0.0, 1.0, 0.0))
                tilt = abs(float(np.dot(n_hat, prev_exit)))
                if tilt > ANGLE_TOL:
                    violations.append(
                        Violation(
                            k,
                            "normal-orthogonality",
                            f"bend normal is not orthogonal to the incoming tangent (dot = {tilt:.3g})",
                        )
                    )
        prev_exit = net._exit_tangents[k]
    return violations
