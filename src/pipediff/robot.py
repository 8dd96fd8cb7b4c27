"""Robot body and the spring-loaded wall-press model.

Three tracked modules sit 120 degrees apart around the body and are pushed
radially against the pipe wall by linear springs.  In a straight pipe all
three springs compress identically.  Inside a bend a rigid body of length L
sees a tighter effective cross-section; the chord-sagitta height

    h = L**2 / (8 * R)

is the extra squeeze, distributed over the modules by how much of their
contact direction lies in the bend plane (|cos theta_i|).  The same
projection scales the asymmetric front/rear compression, reported as a
per-module tilt angle and checked against the robot's tilt limit.
"""

import math
from dataclasses import dataclass

from .errors import NoFitError
from .geometry import MODULE_OFFSETS, Bend, PipeSpec, Segment, Straight


@dataclass(frozen=True)
class RobotConfig:
    """Physical parameters of the three-module tracked robot.

    ``nominal_body_radius`` is the contact radius at preload: with every
    spring compressed by exactly ``preload_compression`` the modules reach
    that far from the robot axis.
    """

    sprocket_radius: float  # mm, converts output rotation to track speed
    length: float  # mm, rigid body length
    nominal_body_radius: float  # mm
    preload_compression: float  # mm, spring compression at the reference fit
    spring_stiffness: float = 2.0  # N/mm
    max_compression: float = 16.0  # mm, hard per-module limit
    max_tilt_deg: float = 10.0  # deg, asymmetric-compression limit

    def __post_init__(self):
        for name in ("sprocket_radius", "length", "nominal_body_radius",
                     "spring_stiffness", "max_compression", "max_tilt_deg"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (math.isfinite(self.preload_compression) and self.preload_compression >= 0.0):
            raise ValueError(f"preload_compression must be >= 0, got {self.preload_compression!r}")
        if self.preload_compression > self.max_compression:
            raise ValueError("preload_compression exceeds max_compression")


@dataclass(frozen=True)
class ModuleState:
    """Spring state of the three modules at one position along the pipe."""

    compressions: tuple[float, float, float]  # mm
    tilts_deg: tuple[float, float, float]  # deg, asymmetric front/rear share


def spring_force(cfg: RobotConfig, delta: float) -> float:
    """Radial wall-press force in N at compression ``delta``."""
    return cfg.spring_stiffness * delta


def compression_in_straight(cfg: RobotConfig, spec: PipeSpec) -> tuple[float, float, float]:
    """Identical compression of all three modules inside a straight pipe.

    Raises:
        NoFitError: the pipe is too narrow (compression above the limit) or
            too wide (no wall contact even at zero compression).
    """
    required = cfg.preload_compression + (cfg.nominal_body_radius - spec.inner_radius)
    if required < 0.0:
        raise NoFitError(
            f"pipe radius {spec.inner_radius:g} mm is beyond module reach; "
            "no wall contact at zero compression"
        )
    if required > cfg.max_compression:
        raise NoFitError(
            f"straight pipe requires {required:.3f} mm compression, "
            f"limit is {cfg.max_compression:g} mm"
        )
    return (required, required, required)


def bend_extra_compression(cfg: RobotConfig, bend: Bend, theta: float) -> tuple[float, float, float]:
    """Sagitta squeeze per module, projected onto its in-plane share."""
    if cfg.length >= 2.0 * bend.radius:
        raise NoFitError(
            f"robot length {cfg.length:g} mm cannot chord a bend of radius {bend.radius:g} mm"
        )
    h = cfg.length ** 2 / (8.0 * bend.radius)
    return tuple(h * abs(math.cos(theta + offset)) for offset in MODULE_OFFSETS)


def bend_tilts(cfg: RobotConfig, bend: Bend, theta: float) -> tuple[float, float, float]:
    """Asymmetric-compression angle per module inside a bend, degrees.

    The chord of the robot body meets the arc at the half-chord angle
    asin(L / 2R); each module sees the in-plane projection of it.
    """
    half = cfg.length / (2.0 * bend.radius)
    if half >= 1.0:
        raise NoFitError(
            f"robot length {cfg.length:g} mm cannot chord a bend of radius {bend.radius:g} mm"
        )
    base = math.degrees(math.asin(half))
    return tuple(base * abs(math.cos(theta + offset)) for offset in MODULE_OFFSETS)


def compression_in_bend(
    cfg: RobotConfig, spec: PipeSpec, bend: Bend, theta: float
) -> tuple[float, float, float]:
    """Per-module compression inside a bend at roll orientation ``theta``.

    Converges to the straight-pipe value as the bend radius grows.

    Raises:
        NoFitError: any module would need more than ``max_compression``.
    """
    base = compression_in_straight(cfg, spec)
    extras = bend_extra_compression(cfg, bend, theta)
    deltas = tuple(b + e for b, e in zip(base, extras))
    worst = max(deltas)
    if worst > cfg.max_compression:
        module = deltas.index(worst)
        raise NoFitError(
            f"bend of radius {bend.radius:g} mm requires {worst:.3f} mm compression "
            f"on module {module}, limit is {cfg.max_compression:g} mm"
        )
    return deltas


def module_state(
    cfg: RobotConfig, spec: PipeSpec, segment: Segment, theta: float
) -> ModuleState:
    """Admissible spring state inside ``segment``, or NoFitError.

    Checks both the compression limit and the asymmetric-tilt limit; a
    violated limit is always surfaced as an error, never clamped.
    """
    if isinstance(segment, Straight):
        deltas = compression_in_straight(cfg, spec)
        tilts = (0.0, 0.0, 0.0)
    else:
        deltas = compression_in_bend(cfg, spec, segment, theta)
        tilts = bend_tilts(cfg, segment, theta)
        worst = max(tilts)
        if worst > cfg.max_tilt_deg:
            module = tilts.index(worst)
            raise NoFitError(
                f"bend of radius {segment.radius:g} mm demands {worst:.2f} deg "
                f"asymmetric compression on module {module}, "
                f"limit is {cfg.max_tilt_deg:g} deg"
            )
    return ModuleState(deltas, tilts)
