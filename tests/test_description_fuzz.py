"""Fuzz the map-description parser through the CLI: a mutated description is
either a map (exit 0), a usage error (exit 2) or a numerical failure (exit 3),
and never an escaped exception."""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcext.cli import main

BUMP = {"kind": "identity-plus-bump",
        "bumps": [{"center": 0.0, "halfwidth": 1.0, "amplitude": 0.3},
                  {"center": 2.0, "halfwidth": 0.5, "amplitude": -0.05}]}
REAL = [
    {"kind": "affine", "slope": 2.0, "intercept": 1.0},
    BUMP,
    {"kind": "sampled-monotone", "xs": [-2.0, 0.0, 1.0, 3.0], "ys": [-2.5, 0.0, 1.2, 3.1]},
    {"kind": "composition", "maps": [{"kind": "affine", "slope": 1.5}, BUMP]},
    {"kind": "quadratic-window", "window_lo": 1.0, "window_hi": 4.0, "ramp": 0.25},
    {"kind": "cubic"},
]
CIRCLE = [
    {"kind": "circle-identity"},
    {"kind": "circle-rotation", "angle": 0.7},
    {"kind": "circle-fourier", "rotation": 0.1, "cos": [0.05, 0.01], "sin": [0.03]},
    {"kind": "circle-mobius", "angle": 0.4, "center": [0.2, 0.1]},
]
WRAPPERS = {
    "inverse": lambda d: {"kind": "inverse", "base": d},
    "tapered": lambda d: {"kind": "tapered", "base": d, "plateau": 3.0},
    "power-integral": lambda d: {"kind": "power-integral", "base": d, "exponent": 0.5},
}
# wrong types, bools, NaN, +-inf, huge and out-of-range numbers, bad containers
ODD_VALUES = ["x", "", True, False, None, math.nan, math.inf, -math.inf, 10 ** 400,
              1e300, -1e300, 2000, -2000, 0, -1.0, 1e-300, [], [1.0], [1.0, 2.0, 3.0],
              ["a"], {}, {"kind": "affine"}, {"kind": "circle-identity"}]
DISK_2X2 = ["--x-min", "-0.3", "--x-max", "0.3", "--y-min", "0.1",
            "--y-max", "0.4", "--nx", "2", "--ny", "2"]


def _spots(node):
    """Every (container, key) pair inside a description tree."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from _spots(node[key])


@st.composite
def mutated_descriptions(draw):
    desc = copy.deepcopy(draw(st.sampled_from(REAL + CIRCLE)))
    if desc["kind"] in {d["kind"] for d in REAL}:
        for name in draw(st.lists(st.sampled_from(sorted(WRAPPERS)), max_size=4)):
            desc = WRAPPERS[name](desc)
    for _ in range(draw(st.integers(1, 3))):
        spots = list(_spots(desc))
        if not spots:
            break
        node, key = draw(st.sampled_from(spots))
        op = draw(st.sampled_from(["replace", "delete", "unknown", "shorten", "lengthen"]))
        value = node[key]
        if op == "replace":
            node[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        elif op == "delete":
            del node[key]
        elif op == "unknown" and isinstance(node, dict):
            node["bogus"] = 1
        elif op == "shorten" and isinstance(value, list):
            node[key] = value[:draw(st.integers(0, max(len(value) - 1, 0)))]
        elif op == "lengthen" and isinstance(value, list):
            node[key] = value + value[-1:] * draw(st.integers(1, 3))
    return desc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(desc=mutated_descriptions())
def test_mutated_descriptions_exit_cleanly(tmp_path, capsys, desc):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(desc))
    for argv in (["info", "--map", str(path)],
                 ["extend", "--method", "de", "--map", str(path), *DISK_2X2]):
        assert main(argv) in (0, 2, 3), (argv, desc)
        err = capsys.readouterr().err
        assert "Traceback" not in err
