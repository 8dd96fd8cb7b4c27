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
from .geometry import MODULE_OFFSETS, PipeSpec, Segment, Straight


@dataclass(frozen=True)
class RobotConfig:
    """Physical parameters of the three-module tracked robot.

    ``nominal_body_radius`` is the contact radius at preload: with every
    spring compressed by exactly ``preload_compression`` the modules reach
    that far from the robot axis.  It sets the spring compressions only:
    under contact each module rides on the wall, so path radii in a bend
    use the pipe's inner radius.
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


def module_state(
    cfg: RobotConfig, spec: PipeSpec, segment: Segment, theta: float
) -> ModuleState:
    """Admissible spring state inside ``segment``, or NoFitError.

    The checks run in this order: wall contact and the compression limit
    of the straight pipe, then, inside a bend, that the body can chord it,
    the bend's compression and its tilt.  A violated limit is always
    surfaced as an error, never clamped.  Bend compressions converge to the
    straight-pipe value as the bend radius grows.
    """
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
        return ModuleState((base, base, base), (0.0, 0.0, 0.0))
    radius = segment.radius
    if cfg.length >= 2.0 * radius:
        raise NoFitError(
            f"robot length {cfg.length:g} mm cannot chord a bend of radius {radius:g} mm",
            quantity="chord", value=cfg.length, limit=2.0 * radius,
        )
    # Each module's in-plane share of the sagitta and of the chord angle.
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
    return ModuleState(deltas, tilts)
