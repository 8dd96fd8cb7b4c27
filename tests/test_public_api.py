import types

import pipediff

# Every name the package exports.  A new export is an edit to this list.
EXPORTS = {
    "Bend",
    "GearTrainConfig",
    "InfeasibleConstraintError",
    "InvalidScenarioError",
    "LoadState",
    "NoFitError",
    "PipeClimbError",
    "PipeNetwork",
    "PipeSpec",
    "ReportOptions",
    "RobotConfig",
    "RunSummary",
    "Scenario",
    "ScenarioParseError",
    "Segment",
    "SegmentColumns",
    "SimParams",
    "Straight",
    "TRACE_HEADER",
    "Trace",
    "TrackTotals",
    "free",
    "imposed_speed",
    "imposed_torque",
    "load_scenario",
    "module_states",
    "parse_scenario",
    "render_report",
    "render_sweep_report",
    "render_trace",
    "run",
    "run_orientation_sweep",
    "serialize_scenario",
    "solve_output_speeds",
}


def test_exported_names_are_pinned():
    exported = {
        name for name, value in vars(pipediff).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTS
    assert len(EXPORTS) == 34
