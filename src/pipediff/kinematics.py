"""Track speeds the pipe geometry demands.

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
"""

import math

import numpy as np

from .geometry import module_cosines

TRACK_NAMES = ("A", "B", "C")


def demanded_speeds(radii, theta: float, v_nominal: float, contact_radius: float) -> np.ndarray:
    """(m, 3) track speeds the geometry demands in the segments of centerline
    ``radii`` (mm, inf for a straight): ``v_nominal`` in a straight, and
    ``v_nominal * rho_i / R`` in a bend, whose mean is ``v_nominal``.

    Module i rides the path radius ``rho_i = R - r_c * cos(theta_i)``, with
    ``cos(theta_i)`` from ``module_cosines(theta)``; this is the one place the
    model computes it.  It needs ``0 <= r_c < R`` in every bend, which the
    ``bend-radius`` rule of ``PipeNetwork.violations`` ensures: ``contact_radius``
    is the pipe's inner radius."""
    radius = np.reshape(radii, (-1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        bent = v_nominal * (radius - contact_radius * np.array(module_cosines(theta))) / radius
    return np.where(radius < math.inf, bent, v_nominal)

