"""Track speeds the pipe geometry demands, and their seeded disturbance.

``demanded_speeds`` gives the speeds the geometry demands, one row per
segment: uniform in a straight, scaled by each module's path radius inside a
bend.  Because the three path radii average to the bend radius, the demanded
speeds always average to the nominal speed, which is exactly the budget the
differential distributes -- so the wall constraints are feasible and the
differential delivers the demanded speeds.  That is the no-slip mechanism,
restated at the level where it is literally true.

The path radius uses the wall radius of the pipe: under maintained contact
a module's contact point sits on the inner wall, so its distance from the
pipe axis equals the pipe's inner radius regardless of spring state.

A seeded multiplicative disturbance can be layered on the resolved speeds
to emulate contact irregularity for error-reporting purposes; the caller
draws the uniforms from its own seeded generator and passes them in, so no
random state lives in this module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Bend, Segment, module_cosines, module_path_radius

TRACK_NAMES = ("A", "B", "C")


@dataclass(frozen=True)
class TrackSpeeds:
    """Linear speeds of the three tracks at the sprockets, mm/s."""

    v_a: float
    v_b: float
    v_c: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.v_a, self.v_b, self.v_c)

    @property
    def mean(self) -> float:
        return math.fsum(self.as_tuple()) / 3.0


def demanded_speeds(radii, theta: float, v_nominal: float, contact_radius: float) -> np.ndarray:
    """(m, 3) track speeds the geometry demands in the segments of centerline
    ``radii`` (mm, inf for a straight): ``v_nominal`` in a straight, and
    ``v_nominal * rho_i / R`` in a bend, whose mean is ``v_nominal``."""
    radius = np.reshape(radii, (-1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        bent = v_nominal * (radius - contact_radius * np.array(module_cosines(theta))) / radius
    return np.where(radius < math.inf, bent, v_nominal)


def theoretical_speeds(segment: Segment, theta: float, v_nominal: float,
                       contact_radius: float) -> TrackSpeeds:
    """The row of ``demanded_speeds`` for one segment.  A bend first checks
    ``theta`` and ``contact_radius`` as ``module_path_radius`` does."""
    if isinstance(segment, Bend):
        module_path_radius(segment, theta, 0, contact_radius)
    row = demanded_speeds([segment.radius], theta, v_nominal, contact_radius)[0]
    return TrackSpeeds(*row.tolist())


def apply_disturbance(speeds, amplitude: float, draws: np.ndarray) -> np.ndarray:
    """Disturbed track speeds ``speeds * (1 + amplitude * u)``, one row per tick.

    ``draws`` is an (n, 3) block of ``u ~ U(-1, 1)`` taken from a numpy
    Generator in stream order, one row per tick; ``speeds`` is one (3,) row
    of resolved speeds or an (n, 3) block.  Returns the (n, 3) block.
    """
    return np.asarray(speeds) * (1.0 + amplitude * draws)
