"""Robot body and the spring-loaded wall-press model.

Three tracked modules sit 120 degrees apart around the body and are pushed
radially against the pipe wall by linear springs.  In a straight pipe all
three springs compress identically.  Inside a bend a rigid body of length L
sees a tighter effective cross-section; the chord-sagitta height

    h = L**2 / (8 * R)

is the extra squeeze, distributed over the modules by how much of their
contact direction lies in the bend plane (|cos theta_i|).  The same
projection scales the asymmetric front/rear compression, reported as a
per-module tilt angle and checked against the robot's tilt limit.  A
straight is a bend of infinite radius, with sagitta and chord angle 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoFitError
from .geometry import PipeSpec, module_cosines


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


def first_failure(failing) -> int:
    """Index of the first True in ``failing``, or its length when none is."""
    hits = np.flatnonzero(failing)
    return int(hits[0]) if hits.size else len(failing)


def module_states(cfg: RobotConfig, spec: PipeSpec, radii,
                  theta: float) -> tuple[np.ndarray, np.ndarray, NoFitError | None]:
    """(m, 3) compressions (mm) and tilts (deg) of the first m segments of
    centerline radii ``radii`` (mm, inf for a straight), and the NoFitError
    of segment m, or None when m covers them all.

    The checks, in order: wall contact and the straight pipe's compression
    limit, then the body's chord, the bend's compression and its tilt.  Each
    cuts the rows at its first failure before the earlier cuts, which gives
    the first failing segment and its first failing check.  A violated
    limit is always surfaced as an error, never clamped."""
    base = cfg.preload_compression + (cfg.nominal_body_radius - spec.inner_radius)
    radius = np.asarray(radii, dtype=float)
    m, error = len(radius), None
    if m and base < 0.0:
        m, error = 0, NoFitError(
            f"pipe radius {spec.inner_radius:g} mm is beyond module reach; "
            "no wall contact at zero compression", quantity="reach", value=base, limit=0.0)
    elif m and base > cfg.max_compression:
        m, error = 0, NoFitError(
            f"straight pipe requires {base:.3f} mm compression, "
            f"limit is {cfg.max_compression:g} mm",
            quantity="compression", value=base, limit=cfg.max_compression)
    # 2 * R past R = 9e307 mm and L**2 past L = 1.3e154 mm are inf, and a
    # straight's sagitta stays 0 where L**2 / inf would be inf / inf.
    with np.errstate(over="ignore"):
        cut = first_failure(cfg.length >= 2.0 * radius[:m])
        if cut < m:
            m, error = cut, NoFitError(
                f"robot length {cfg.length:g} mm cannot chord a bend of radius {radius[cut]:g} mm",
                quantity="chord", value=cfg.length, limit=2.0 * float(radius[cut]))
        radius = radius[:m]
        sagitta = np.divide(np.float64(cfg.length) ** 2, 8.0 * radius,
                            out=np.zeros(m), where=radius < math.inf)
    # Each module's in-plane share of the sagitta and of the chord angle.
    shares = np.abs(module_cosines(theta))
    compressions = base + sagitta[:, None] * shares
    worst = compressions.max(axis=1)
    cut = first_failure(worst > cfg.max_compression)
    if cut < m:
        module, worst = int(np.argmax(compressions[cut])), float(worst[cut])
        m, error = cut, NoFitError(
            f"bend of radius {radius[cut]:g} mm requires {worst:.3f} mm compression "
            f"on module {module}, limit is {cfg.max_compression:g} mm",
            module=module, quantity="compression", value=worst, limit=cfg.max_compression)
    # ``math.asin``, not ``np.arcsin``: the two differ in the last bit.
    half_chord_deg = [math.degrees(math.asin(cfg.length / (2.0 * r))) for r in radius[:m].tolist()]
    tilts = np.reshape(half_chord_deg, (m, 1)) * shares
    worst = tilts.max(axis=1)
    cut = first_failure(worst > cfg.max_tilt_deg)
    if cut < m:
        module, worst = int(np.argmax(tilts[cut])), float(worst[cut])
        m, error = cut, NoFitError(
            f"bend of radius {radius[cut]:g} mm demands {worst:.2f} deg "
            f"asymmetric compression on module {module}, limit is {cfg.max_tilt_deg:g} deg",
            module=module, quantity="tilt", value=worst, limit=cfg.max_tilt_deg)
    return compressions[:m], tilts[:m], error
