from pathlib import Path

import pytest

from pipediff import load_scenario, run

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_SCN = REPO_ROOT / "scenarios" / "reference.scn"


@pytest.fixture(scope="session")
def reference_text() -> str:
    return REFERENCE_SCN.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def reference_scenario(reference_text):
    return load_scenario(REFERENCE_SCN)


@pytest.fixture(scope="session")
def reference_network(reference_scenario):
    return reference_scenario.network


@pytest.fixture(scope="session")
def reference_run(reference_scenario, reference_network):
    sc = reference_scenario
    return run(reference_network, sc.robot, sc.gear, sc.sim)
