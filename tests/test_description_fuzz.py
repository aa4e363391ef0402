"""Fuzz the map-description parser, the numeric options and the verify
configs through the CLI: a mutated input is a result (exit 0), a failed check
(exit 1, verify only), a usage error (exit 2) or a numerical failure (exit 3),
and never an escaped exception."""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcext.analysis import MAX_GRID_POINTS
from qcext.cli import MAX_TRIALS, main
from qcext.douady_earle import MAX_NODES

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
    # de refuses a line map before it evaluates anything; ns and family
    # evaluate one, its slope and, at alpha = 0, its second derivative
    for argv in (["info", "--map", str(path)],
                 ["extend", "--method", "de", "--map", str(path), *DISK_2X2],
                 ["extend", "--method", "ns", "--map", str(path), "--nx", "2", "--ny", "2"],
                 ["extend", "--method", "family", "--alpha", "0", "--map", str(path),
                  "--nx", "2", "--ny", "2"]):
        assert main(argv) in (0, 2, 3), (argv, desc)
        err = capsys.readouterr().err
        assert "Traceback" not in err


# Text for the numeric options.  A grid, node count or trial count is either
# small or above its limit, which is refused before any work: a valid large
# one would only make the test slow.  So is an eps0 of 1e-8, which asks for
# more factorization rounds than MAX_ROUNDS for every map below.
OVER_LIMITS = max(MAX_GRID_POINTS, MAX_NODES, MAX_TRIALS) + 1
FLOAT_TEXT = ["nan", "inf", "-inf", "0", "-0.5", "-1", "1e308", "-1e308", "1e-300",
              "1e-8", "0.3", "3", "x", ""]
INT_TEXT = ["0", "-1", "1", "2", "3", "15", "16", "2.5", "1e3", "x", "",
            str(OVER_LIMITS), str(10 ** 400)]
EXTEND = (["--a", "--alpha", "--x-min", "--x-max", "--y-min", "--y-max", "--quad-tol",
           "--im-scale", "--tol"], ["--nx", "--ny", "--n-nodes"])
COMMANDS = {
    "ns": (["extend", "--method", "ns", "--map", "@map", "--nx", "2", "--ny", "2"], EXTEND),
    "family": (["extend", "--method", "family", "--map", "@map", "--nx", "2", "--ny", "2"],
               EXTEND),
    "ba": (["extend", "--method", "ba", "--map", "@map", "--nx", "2", "--ny", "2"], EXTEND),
    "de": (["extend", "--method", "de", "--map", "@circle", *DISK_2X2], EXTEND),
    "decompose": (["decompose", "--map", "@map", "--eps0", "0.3"], (["--eps0", "--tol"], [])),
    "verify": (["verify", "--config", "@config"], ([], ["--seed", "--trials"])),
}
CONFIGS = [
    ("dilatation", {"trials": 1, "seed": 3, "a": 0.5, "alpha": 1.5}),
    ("dilatation", {"trials": 1, "map": "cubic", "expect": "not-quasiconformal",
                    "a": 1.0, "alpha": 2.0, "threshold": 0.999}),
    ("dilatation", {"trials": 1, "map": BUMP, "expect": "not-quasiconformal"}),
    ("decompose", {"trials": 1, "eps0": 0.3}),
    ("pde", {"trials": 1, "seed": 0}),
]
# no valid count above 1, so a mutated config never asks for a long run;
# the larger counts are above MAX_TRIALS
CONFIG_VALUES = ["x", "", True, False, None, math.nan, math.inf, -math.inf, -10 ** 400,
                 10 ** 400, OVER_LIMITS, 1e300, -1e300, 0, 1, -1, 2.5, 1e-300, 1e-8, [],
                 [1.0], {}, {"kind": "affine"}, BUMP, "random", "cubic", "quasiconformal",
                 "not-quasiconformal"]


@st.composite
def cli_invocations(draw):
    """(argv, map, config): a command with mutated numeric options, or a
    verify run with a mutated config."""
    argv, (floats, ints) = copy.deepcopy(COMMANDS[draw(st.sampled_from(sorted(COMMANDS)))])
    suite, config = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    if argv[0] == "verify":
        argv += ["--suite", suite]
        for _ in range(draw(st.integers(0, 3))):
            op = draw(st.sampled_from(["replace", "delete", "unknown", "whole"]))
            key = draw(st.sampled_from(sorted(config) + ["map", "expect", "eps0"]))
            if op == "replace":
                config[key] = copy.deepcopy(draw(st.sampled_from(CONFIG_VALUES)))
            elif op == "delete":
                config.pop(key, None)
            elif op == "unknown":
                config["bogus"] = 1
            else:
                config = copy.deepcopy(draw(st.sampled_from(CONFIG_VALUES)))
                break
    options = [(o, FLOAT_TEXT) for o in floats] + [(o, INT_TEXT) for o in ints]
    for _ in range(draw(st.integers(0 if argv[0] == "verify" else 1, 3))):
        option, values = draw(st.sampled_from(options)) if options else (None, None)
        if option is not None:
            argv.append(f"{option}={draw(st.sampled_from(values))}")
    real = draw(st.sampled_from(REAL[:3] + [WRAPPERS["power-integral"](BUMP)]))
    return argv, real, config


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_invocations())
def test_mutated_options_and_configs_exit_cleanly(tmp_path, capsys, case):
    argv, real, config = case
    paths = {"@map": tmp_path / "map.json", "@circle": tmp_path / "circle.json",
             "@config": tmp_path / "config.json"}
    for key, payload in (("@map", real), ("@circle", CIRCLE[3]), ("@config", config)):
        paths[key].write_text(json.dumps(payload))
    argv = [str(paths[a]) if a in paths else a for a in argv]
    code = main(argv)
    assert code in (0, 1, 2, 3), argv
    out, err = capsys.readouterr()
    assert "Traceback" not in err, (argv, err)
    if argv[0] == "extend" and code == 0:
        # a value, never a warning or a non-finite cell
        assert err == "", (argv, err)
        for row in out.split("\r\n")[1:-1]:
            re, im = row.split(",")[2:4]
            assert math.isfinite(float(re)) and math.isfinite(float(im)), (argv, row)
