"""Kinematics simulator for a three-track in-pipe climbing robot.

A passive three-output differential drives the tracks: the output speeds
always sum to a fixed multiple of the input speed while individual tracks
float with load.  Inside pipe bends the wall geometry demands per-track
speeds whose mean equals the nominal speed, so the train satisfies them
without slip and without any active control.
"""

from .errors import (
    InfeasibleConstraintError,
    InvalidScenarioError,
    NoFitError,
    PipeClimbError,
    ScenarioParseError,
)
from .geometry import (
    Bend,
    PipeNetwork,
    PipeSpec,
    Segment,
    Straight,
)
from .report import (
    TRACE_HEADER,
    render_report,
    render_sweep_report,
    render_trace,
)
from .robot import (
    RobotConfig,
    module_states,
)
from .scenario import (
    ReportOptions,
    Scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from .simulator import (
    RunSummary,
    SegmentColumns,
    SimParams,
    Trace,
    TrackTotals,
    run,
    run_orientation_sweep,
)
from .transmission import (
    GearTrainConfig,
    LoadState,
    free,
    imposed_speed,
    imposed_torque,
    solve_output_speeds,
)

__version__ = "0.1.0"
