"""Pinned parser diagnostics and serializer output.

A corpus of scenario files, each one edit away from ``BASE`` (which sets
every file key once), is parsed.  A file that fails must give exactly the
recorded ``ScenarioParseError.issues``; a file that parses must serialize
to text with the recorded SHA-256.  The records live in
``data/scenario_pins.json``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pipediff import ScenarioParseError, parse_scenario, serialize_scenario

from conftest import REFERENCE_SCN
from test_scenario_io import MINIMAL

PINS = Path(__file__).parent / "data" / "scenario_pins.json"

# Sections in file order; the straight is section 1 and the bend section 2.
BASE = (
    ("pipe", (("inner_radius", "13.2"), ("standard_label", "pinned bore"),
              ("start_tangent", "0 0 1"), ("default_normal", "0 1 0"))),
    ("segment", (("type", "straight"), ("length", "315.0"), ("axis", "0 0 1"))),
    ("segment", (("type", "bend"), ("radius", "335.0"), ("sweep_angle", "90.0"),
                 ("normal", "0 1 0"))),
    ("segment", (("type", "straight"), ("length", "350.0"))),
    ("robot", (("sprocket_radius", "17.5"), ("length", "61.0"), ("nominal_body_radius", "13.2"),
               ("preload_compression", "5.0"), ("spring_stiffness", "2.0"),
               ("max_compression", "16.0"), ("max_tilt_deg", "10.0"))),
    ("gear", (("ratio", "1.0"),)),
    ("sim", (("omega_u", "2.0"), ("dt", "0.01"), ("theta_deg", "0.0"), ("t_max", "100.0"),
             ("disturbance_amplitude", "0.0"), ("disturbance_seed", "0"))),
    ("report", (("tracks", "A B C"), ("segments", "all"), ("ape", "on"))),
)

_NUMBERS = ("", "abc", "1 2", "nan", "inf", "-inf", "1e400", "0", "-0", "-1", "-01", "+5",
            "1e0", "1_0", "0.5", "1", "180", "181", "1e10")
_VECTORS = ("", "1 0", "0 1 0 0", "a b c", "0 0 2", "0 0 1.0000001", "nan 0 0", "inf 0 0",
            "1e200 0 0", "0 0 1", "0 0 -1", "+0 -0 1e0", "0 0 01", "1 0 0", "0 1 0", "0 -1 0")
_VALUES = {
    "text": ("", "x y", "ünïcode", "#", "="),
    "type": ("", "straight", "BEND", " Bend ", "elbow"),
    "int": ("", "abc", "1.5", "1e0", "-1", "-01", "+5", "0", "9" * 30, "1_0", "nan"),
    "bool": ("", "on", "OFF", "yes", "No", "true", "0", "1", "+1", "maybe"),
    "tracks": ("", "A", "a c", "D", "A B C D", "B A", "C", "A,B"),
    "segments": ("", "all", "ALL", "0", "0 1", "3", "-1", "x", "+1", "01", "1e0", "2 0"),
}
_KINDS = {
    "standard_label": "text", "type": "type", "disturbance_seed": "int", "ape": "bool",
    "tracks": "tracks", "segments": "segments",
    "start_tangent": "vec", "default_normal": "vec", "axis": "vec", "normal": "vec",
}


def render(sections):
    lines = []
    for name, bindings in sections:
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in bindings]
        lines.append("")
    return "\n".join(lines)


DUPLICATE = object()


def edited(index, key, value):
    """BASE with ``key`` of section ``index`` set to ``value``: None drops
    the binding, DUPLICATE repeats it, and a new key is appended."""
    sections = list(BASE)
    name, bindings = sections[index]
    if key not in dict(bindings):
        bindings += ((key, value),)
    elif value is None:
        bindings = tuple(pair for pair in bindings if pair[0] != key)
    elif value is DUPLICATE:
        bindings = tuple(p for pair in bindings for p in [pair] * (1 + (pair[0] == key)))
    else:
        bindings = tuple((k, value if k == key else v) for k, v in bindings)
    sections[index] = (name, bindings)
    return render(sections)


def corpus():
    cases = {}
    for index, (section, bindings) in enumerate(BASE):
        if index == 3:  # the second straight repeats the first one's keys
            continue
        for key, _ in bindings:
            kind = _KINDS.get(key, "number")
            values = {"number": _NUMBERS, "vec": _VECTORS}.get(kind) or _VALUES[kind]
            where = f"{section}[{index}].{key}"
            cases[f"{where} missing"] = edited(index, key, None)
            cases[f"{where} duplicate"] = edited(index, key, DUPLICATE)
            for value in values:
                cases[f"{where} = {value!r}"] = edited(index, key, value)
        cases[f"{section}[{index}] unknown key"] = edited(index, "colour", "red")
    base = render(BASE)
    for section in ("pipe", "robot", "sim", "gear", "report"):
        start = base.index(f"[{section}]")
        end = base.index("[", start + 1) if section != "report" else len(base)
        cases[f"[{section}] missing"] = base[:start] + base[end:]
        cases[f"[{section}] repeated"] = base + f"[{section}]\n"
    cases["[segment] missing"] = render(BASE[:1] + BASE[4:])
    cases["unknown section"] = base + "[motor]\nvolts = 12\n"
    cases["malformed header"] = base + "[gear\n"
    cases["binding without '='"] = base.replace("ratio = 1.0", "ratio 1.0")
    cases["empty key"] = base.replace("ratio = 1.0", "= 1.0")
    cases["key outside any section"] = "ratio = 1.0\n" + base
    cases["upper-case section and key"] = base.replace("[gear]\nratio", "[GEAR]\nRATIO")
    cases["comments and blanks"] = "# c\n\n" + base.replace("[sim]\n", "[sim]\n  # c\n\n")
    cases["empty file"] = ""
    cases["preload above max_compression"] = edited(4, "preload_compression", "17.0")
    cases["preload above a bad max_compression"] = edited(
        4, "preload_compression", "17.0").replace("max_compression = 16.0", "max_compression = x")
    cases["bad type hides unknown keys"] = edited(1, "type", "pipe").replace(
        "length = 315.0", "length = 315.0\nwidth = 3")
    cases["segment index past a bad type"] = edited(1, "type", "pipe").replace(
        "segments = all", "segments = 2")
    cases["straight with bend keys"] = edited(1, "radius", "335.0")
    cases["bend with straight keys"] = edited(2, "length", "3.0")
    cases["discontinuous axis"] = edited(3, "axis", "0 0 1")
    cases["bend radius inside the pipe"] = edited(2, "radius", "10.0")
    return cases


CORPUS = corpus()


def outcome(text):
    """The recorded form of one parse: its issues, or its serialized digest."""
    try:
        scenario = parse_scenario(text)
    except ScenarioParseError as exc:
        return {"issues": [list(issue) for issue in exc.issues]}
    digest = hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()
    return {"sha256": digest}


def test_parse_outcomes_are_pinned():
    pinned = json.loads(PINS.read_text(encoding="utf-8"))
    assert sorted(CORPUS) == sorted(pinned)
    changed = {case: outcome(text) for case, text in CORPUS.items()}
    changed = {case: got for case, got in changed.items() if got != pinned[case]}
    assert changed == {}


SERIALIZED_SHA256 = {
    "reference": "5a112beef63fe9162c272100c113736490814f072b181a4ccb5682dd7138bc59",
    "minimal": "5f801b24cf0c12e832a7edaccb962b54f816b21c4504fa59f159e83a0336513b",
}


@pytest.mark.parametrize("name, text", [
    ("reference", REFERENCE_SCN.read_text(encoding="utf-8")), ("minimal", MINIMAL),
])
def test_serialized_bytes_are_pinned(name, text):
    serialized = serialize_scenario(parse_scenario(text))
    assert hashlib.sha256(serialized.encode("utf-8")).hexdigest() == SERIALIZED_SHA256[name]
