"""Tests for the command-line interface: outputs, exit codes, determinism."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys

import pytest

import qcext
from qcext import cli
from qcext.analysis import dilatation_values, half_plane_grid
from qcext.beurling_ahlfors import extend_ba
from qcext.cli import main
from qcext.douady_earle import circle_map_from_dict, extend_de
from qcext.extensions import ExtParams, extend_family, extend_ns
from qcext.realmap import map_from_dict


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "re", "im", "dilatation"]
    return rows[1:]


IDENTITY = {"kind": "affine", "slope": 1.0, "intercept": 0.0}
SAMPLED = {"kind": "sampled-monotone", "xs": [-2.0, 0.0, 1.0, 3.0],
           "ys": [-2.5, 0.0, 1.2, 3.1]}
AFFINE = {"kind": "affine", "slope": 2.0, "intercept": 1.0}
BUMP = {"kind": "identity-plus-bump",
        "bumps": [{"center": 0.0, "halfwidth": 1.0, "amplitude": 0.3}]}


def test_extend_identity_family_equals_grid(tmp_path):
    map_file = write_json(tmp_path / "id.json", IDENTITY)
    out = tmp_path / "out.csv"
    code = main(["extend", "--map", map_file, "--method", "family",
                 "--a", "1.0", "--alpha", "2.0", "--nx", "2", "--ny", "2",
                 "--out", str(out)])
    assert code == 0
    for x, y, re, im, dil in read_csv_rows(out):
        assert float(re) == pytest.approx(float(x), abs=1e-12)
        assert float(im) == pytest.approx(float(y), abs=1e-12)
        assert float(dil) == 0.0


def test_extend_affine_rows_are_affine_image(tmp_path):
    map_file = write_json(tmp_path / "affine.json", AFFINE)
    out = tmp_path / "out.csv"
    code = main(["extend", "--map", map_file, "--method", "family",
                 "--a", "-0.7", "--alpha", "1.3", "--nx", "3", "--ny", "3",
                 "--out", str(out)])
    assert code == 0
    for x, y, re, im, _ in read_csv_rows(out):
        z = complex(float(x), float(y))
        assert complex(float(re), float(im)) == pytest.approx(2 * z + 1, abs=1e-12)


def test_extend_ns_matches_library_bit_for_bit(tmp_path):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    out = tmp_path / "out.csv"
    code = main(["extend", "--map", map_file, "--method", "ns",
                 "--nx", "4", "--ny", "3", "--out", str(out)])
    assert code == 0
    f = map_from_dict(BUMP)
    for x, y, re, im, dil in read_csv_rows(out):
        val = extend_ns(f, complex(float(x), float(y)))
        assert float(re) == val.real  # repr round-trips exactly
        assert float(im) == val.imag
        assert dil != ""


MOBIUS = {"kind": "circle-mobius", "angle": 0.4, "center": [0.2, 0.1]}
FOURIER = {"kind": "circle-fourier", "rotation": 0.1, "cos": [0.05], "sin": [0.03]}
CIRCLES = [{"kind": "circle-identity"}, {"kind": "circle-rotation", "angle": 0.7},
           FOURIER, MOBIUS]
DISK_GRID = ["--x-min", "-0.5", "--x-max", "0.5", "--y-min", "0.05",
             "--y-max", "0.6", "--nx", "6", "--ny", "5"]


def test_extend_ba_de_match_library_array_call_bit_for_bit(tmp_path):
    zs = half_plane_grid(-0.5, 0.5, 0.05, 0.6, 6, 5)
    f = map_from_dict(BUMP)
    cases = [("ba", BUMP, extend_ba(f, zs, im_scale=1.0), None,
              ["--im-scale", "1.0"])]
    for desc in CIRCLES:
        cases.append(("de", desc, extend_de(circle_map_from_dict(desc), zs),
                      None, []))
    # the shear family: one array call, and the closed-form dilatation array
    ns = ExtParams(1.0, 2.0)
    cases.append(("ns", BUMP, extend_ns(f, zs), dilatation_values(f, ns, zs)[0],
                  []))
    for a, alpha in ((-0.7, 1.3), (0.4, 0.0)):
        p = ExtParams(a, alpha)
        cases.append(("family", BUMP, extend_family(p, f, zs),
                      dilatation_values(f, p, zs)[0],
                      ["--a", str(a), "--alpha", str(alpha)]))
    for method, desc, ref, ref_dil, extra in cases:
        map_file = write_json(tmp_path / "map.json", desc)
        out = tmp_path / "out.csv"
        assert main(["extend", "--map", map_file, "--method", method,
                     *DISK_GRID, *extra, "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert len(rows) == zs.size
        if ref_dil is None:
            ref_dil = [None] * zs.size
        for (x, y, re, im, dil), z, val, d in zip(rows, zs, ref, ref_dil):
            assert (float(x), float(y)) == (z.real, z.imag)
            assert (float(re), float(im)) == (val.real, val.imag)
            assert dil == ("" if d is None else repr(float(d)))


def test_extend_cubic_ns_leaves_only_undefined_dilatation_empty(tmp_path):
    # f'(x + y) = 0 only at the grid corner (-2, 2) of the default grid
    map_file = write_json(tmp_path / "cubic.json", {"kind": "cubic"})
    out = tmp_path / "out.csv"
    assert main(["extend", "--map", map_file, "--method", "ns",
                 "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 400
    empty = [(float(x), float(y)) for x, y, _, _, dil in rows if dil == ""]
    assert empty == [(-2.0, 2.0)]


def test_extend_alpha_zero_without_second_derivative_has_empty_column(tmp_path):
    desc = {"kind": "tapered", "base": BUMP, "plateau": 1.5}
    map_file = write_json(tmp_path / "tapered.json", desc)
    out = tmp_path / "out.csv"
    assert main(["extend", "--map", map_file, "--method", "family",
                 "--a", "0.4", "--alpha", "0", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    ref = extend_family(ExtParams(0.4, 0.0), map_from_dict(desc),
                        half_plane_grid())
    assert len(rows) == ref.size
    for (_, _, re, im, dil), val in zip(rows, ref):
        assert (float(re), float(im)) == (val.real, val.imag)
        assert dil == ""


def test_extend_alpha_zero_on_a_power_integral_writes_the_dilatation(tmp_path):
    # a power integral of a bump has a second derivative, which the alpha = 0
    # dilatation reads
    desc = {"kind": "power-integral", "base": BUMP, "exponent": 0.5}
    map_file = write_json(tmp_path / "power.json", desc)
    out = tmp_path / "out.csv"
    assert main(["extend", "--map", map_file, "--method", "family", "--a", "0.4",
                 "--alpha", "0", "--nx", "4", "--ny", "4", "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    ref, _ = dilatation_values(map_from_dict(desc), ExtParams(0.4, 0.0),
                               half_plane_grid(-2.0, 2.0, 1e-2, 2.0, 4, 4))
    assert [dil for *_, dil in rows] == [repr(d) for d in ref.tolist()]
    assert all(dil != "" for *_, dil in rows)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # qcext never imports scipy: the CLI runs, sampled-monotone maps included,
    # with the import blocked
    src = os.path.dirname(os.path.dirname(qcext.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, qcext.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
    map_file = write_json(tmp_path / "samp.json", SAMPLED)
    code = ("import sys; sys.modules['scipy'] = None; from qcext.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    for argv in (["info", "--map", map_file],
                 ["extend", "--method", "ns", "--map", map_file, "--nx", "3",
                  "--ny", "3"]):
        run = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0 and run.stderr == "", (argv, run.stderr)
        assert run.stdout


def test_extend_non_finite_grid_is_usage_error(tmp_path, capsys):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    for method in ("ns", "ba"):
        for bound in ("--x-min=-inf", "--x-max=nan", "--y-max=inf",
                      "--x-min=-1e308 --x-max=1e308"):
            assert main(["extend", "--map", map_file, "--method", method,
                         *bound.split()]) == 2
    assert "finite" in capsys.readouterr().err


def test_extend_de_unreachable_tol_exits_3(tmp_path, capsys):
    map_file = write_json(tmp_path / "circ.json", FOURIER)
    assert main(["extend", "--map", map_file, "--method", "de", *DISK_GRID,
                 "--tol", "1e-30"]) == 3
    assert "z=" in capsys.readouterr().err


def test_extend_ba_non_finite_integrand_exits_3_with_one_line(tmp_path, capsys):
    # f overflows on every window: the first quadrature pass refuses it,
    # with no numpy warning and no refinement to the panel budget
    map_file = write_json(tmp_path / "huge.json", {"kind": "affine", "slope": 1e300})
    assert main(["extend", "--map", map_file, "--method", "ba", "--nx", "2",
                 "--ny", "2", "--x-min", "1e10", "--x-max", "2e10"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: averaged extension at z=(10000000000+0.01j): "
        "integrand is not finite on [9999999999.99, 10000000000.0]\n")


def test_extend_ba_overflowing_value_exits_2_with_one_line(tmp_path, capsys):
    # every integral is finite, but im_scale times the difference of the
    # half-window means is not: refused, with no numpy warning and no rows
    map_file = write_json(tmp_path / "bump.json", BUMP)
    assert main(["extend", "--method", "ba", "--map", map_file, "--nx", "2",
                 "--ny", "2", "--x-max", "5", "--y-max", "200",
                 "--im-scale", "1e308"]) == 2
    assert capsys.readouterr() == (
        "", "error: averaged extension at z=(-2+200j) overflows in floating point\n")


@pytest.mark.parametrize("method, desc, options, first", [
    ("family", BUMP, ["--a", "1e300", "--alpha", "1"], "(-2+0.01j)"),
    ("ns", {"kind": "affine", "slope": 2}, ["--x-max", "1e308", "--nx", "2", "--ny", "2"],
     "(1e+308+0.01j)"),
])
def test_extend_shear_overflowing_value_exits_2_with_one_line(tmp_path, capsys, method,
                                                              desc, options, first):
    # a value past the float range is refused by name: no numpy warning, no rows
    map_file = write_json(tmp_path / "map.json", desc)
    assert main(["extend", "--method", method, "--map", map_file, *options]) == 2
    assert capsys.readouterr() == (
        "", f"error: extension at z={first} overflows in floating point\n")


def test_extend_json_format(tmp_path):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    out = tmp_path / "out.json"
    code = main(["extend", "--map", map_file, "--method", "ba",
                 "--nx", "2", "--ny", "2", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 4
    assert rows[0]["dilatation"] is None
    assert {"x", "y", "re", "im", "dilatation"} == set(rows[0])


def test_decompose_writes_the_bytes_of_json_dumps_with_indent_1(tmp_path):
    map_file = write_json(tmp_path / "map.json", {"kind": "composition", "maps": [
        {"kind": "affine", "slope": 1.0, "intercept": 0.25}, BUMP]})
    out = tmp_path / "factors.json"
    assert main(["decompose", "--map", map_file, "--eps0", "0.1", "--out", str(out)]) == 0
    text = out.read_text()
    assert len(json.loads(text)["factors"]) > 3
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    for v in ([], {}, [{}], {"a": []}, {"a": {}}, -0.0, 5e-324, math.nan, math.inf,
              -math.inf, 1, True, False, None, "\u00e9\n\"", (1.5, [2, {"x": [None]}])):
        assert cli._json_text(v) == json.dumps(v, indent=1)


def test_extend_de_on_disk_grid(tmp_path):
    map_file = write_json(tmp_path / "circ.json",
                          {"kind": "circle-mobius", "angle": 0.4,
                           "center": [0.2, 0.1]})
    out = tmp_path / "out.csv"
    code = main(["extend", "--map", map_file, "--method", "de",
                 "--x-min", "-0.4", "--x-max", "0.4", "--y-min", "0.1",
                 "--y-max", "0.5", "--nx", "2", "--ny", "2",
                 "--out", str(out)])
    assert code == 0
    rows = read_csv_rows(out)
    assert len(rows) == 4
    for _, _, re, im, dil in rows:
        assert abs(complex(float(re), float(im))) < 1.0
        assert dil == ""


def test_extend_de_outside_disk_is_usage_error(tmp_path):
    map_file = write_json(tmp_path / "circ.json", {"kind": "circle-identity"})
    code = main(["extend", "--map", map_file, "--method", "de",
                 "--x-max", "4.0", "--nx", "3", "--ny", "3"])
    assert code == 2


def test_extend_output_is_deterministic(tmp_path):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["extend", "--map", map_file, "--method", "family",
                     "--a", "0.3", "--alpha", "1.7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_homomorphism_passes(capsys):
    code = main(["verify", "--suite", "homomorphism", "--trials", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_group_action_passes(capsys):
    assert main(["verify", "--suite", "group-action", "--trials", "5"]) == 0


# the report of each suite whose trial loop no other test runs, at
# --trials 2 --seed 0, byte for byte
SUITE_REPORTS = {
    "dilatation": (
        "PASS dilatation trial 00 sup vs certified bound: 0.294358 (<= 0.500703)\n"
        "PASS dilatation trial 00 numeric gap: 5.33686e-07 (<= 1e-05)\n"
        "PASS dilatation trial 01 sup vs certified bound: 0.136458 (<= 0.563207)\n"
        "PASS dilatation trial 01 numeric gap: 1.80411e-09 (<= 1e-05)\n"
        "suite dilatation: 4/4 checks passed\n"),
    "ba-naturality": (
        "PASS printed normalization pins E(Id) = x + i y/2: 0 (<= 1e-10)\n"
        "PASS affine naturality trial 00 (im_scale=2): 4.74287e-16 (<= 1e-09)\n"
        "PASS affine naturality trial 01 (im_scale=2): 4.96507e-16 (<= 1e-09)\n"
        "suite ba-naturality: 3/3 checks passed\n"),
    "de-naturality": (
        "PASS mobius fixing trial 00: 6.20634e-17 (<= 1e-06)\n"
        "PASS naturality (post) trial 00: 6.20634e-17 (<= 1e-05)\n"
        "PASS naturality (pre) trial 00: 1.67829e-16 (<= 1e-05)\n"
        "PASS mobius fixing trial 01: 1.57009e-16 (<= 1e-06)\n"
        "PASS naturality (post) trial 01: 1.35178e-15 (<= 1e-05)\n"
        "PASS naturality (pre) trial 01: 1.00074e-16 (<= 1e-05)\n"
        "suite de-naturality: 6/6 checks passed\n"),
    "decompose": (
        "PASS decompose trial 00 factor certification: 0.136486 (<= 0.2)\n"
        "PASS decompose trial 00 recomposition error: 4.44089e-16 (<= 1e-06)\n"
        "PASS decompose trial 01 factor certification: 0.198375 (<= 0.2)\n"
        "PASS decompose trial 01 recomposition error: 0 (<= 1e-06)\n"
        "suite decompose: 4/4 checks passed\n"),
}


@pytest.mark.parametrize("suite", SUITE_REPORTS)
def test_verify_suite_report_at_two_trials(capsys, suite):
    assert main(["verify", "--suite", suite, "--trials", "2", "--seed", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == SUITE_REPORTS[suite]
    assert captured.err == ""


def test_verify_dilatation_cubic_expected_failure(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json",
                     {"map": "cubic", "a": 1.0, "alpha": 2.0,
                      "expect": "not-quasiconformal"})
    code = main(["verify", "--suite", "dilatation", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "not quasiconformal" in out
    # a map other than the cubic is checked at alpha = 0, which reads a
    cfg = write_json(tmp_path / "cfg.json",
                     {"map": BUMP, "a": 0.5, "threshold": 0.9,
                      "expect": "not-quasiconformal"})
    assert main(["verify", "--suite", "dilatation", "--config", cfg]) == 0
    assert "not quasiconformal" in capsys.readouterr().out


def test_verify_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--suite", "pde", "--config", str(bad)]) == 2
    unknown = write_json(tmp_path / "unknown.json", {"bogus_key": 1})
    assert main(["verify", "--suite", "pde", "--config", unknown]) == 2


def test_usage_errors_exit_2(tmp_path):
    assert main(["verify", "--suite", "no-such-suite"]) == 2
    assert main(["extend", "--map", str(tmp_path / "missing.json")]) == 2
    bad_map = write_json(tmp_path / "bad.json", {"kind": "mystery"})
    assert main(["extend", "--map", bad_map]) == 2
    neg = write_json(tmp_path / "neg.json", {"kind": "affine", "slope": -1.0})
    assert main(["extend", "--map", neg]) == 2


BAD_DESCRIPTIONS = [
    # (command, description as JSON text, words the error line names)
    ("info", '{"kind": "affine", "slope": "abc"}', ["affine", "slope"]),
    ("info", '{"kind": "affine", "slope": Infinity}', ["affine", "slope"]),
    ("info", '{"kind": "affine", "slope": true}', ["affine", "slope"]),
    ("info", '{"kind": "affine", "slope": 1.0, "intercept": NaN}',
     ["affine", "intercept"]),
    ("info", '{"kind": "affine", "slope": 1.0, "bogus": 1}', ["affine", "bogus"]),
    ("info", '{"kind": "identity-plus-bump", "bumps": [{"center": 0, "amplitude": 0.1}]}',
     ["identity-plus-bump", "halfwidth"]),
    ("info", '{"kind": "identity-plus-bump", "bumps": [{"center": 0, "halfwidth": 1, '
             '"amplitude": 0.1, "extra": 2}]}', ["identity-plus-bump", "extra"]),
    ("info", '{"kind": "identity-plus-bump", "bumps": 5}', ["identity-plus-bump", "bumps"]),
    ("info", '{"kind": "composition", "maps": 3}', ["composition", "maps"]),
    ("info", '{"kind": "power-integral", "base": {"kind": "affine", "slope": 2}, '
             '"exponent": "x"}', ["power-integral", "exponent"]),
    ("info", '{"kind": "sampled-monotone", "xs": [0, 1, "a"], "ys": [0, 1, 2]}',
     ["sampled-monotone", "xs"]),
    ("info", '{"kind": "power-integral", "base": {"kind": "affine", "slope": 2}, '
             '"exponent": 2000}', ["power-integral", "exponent"]),
    ("de", '{"kind": "circle-rotation", "angle": "x"}', ["circle-rotation", "angle"]),
    ("de", '{"kind": "circle-fourier", "cos": ["x"]}', ["circle-fourier", "cos"]),
    ("de", '{"kind": "circle-mobius", "center": [0.1, 0.2, 0.3]}',
     ["circle-mobius", "center"]),
    # parameters the constructors refuse
    ("info", '{"kind": "identity-plus-bump", "bumps": [{"center": 0, "halfwidth": 0, '
             '"amplitude": 0.1}]}', ["halfwidth must be positive, got 0.0"]),
    ("info", '{"kind": "identity-plus-bump", "bumps": []}', ["at least one bump"]),
    ("info", '{"kind": "tapered", "base": {"kind": "affine", "slope": 2}, '
             '"plateau": -1}', ["taper radius must be positive, got -1.0"]),
    ("info", '{"kind": "quadratic-window", "window_lo": 0}', ["window_lo must be positive"]),
    ("info", '{"kind": "quadratic-window", "ramp": 0}', ["ramp must be positive"]),
    ("info", '{"kind": "quadratic-window", "window_lo": 1, "window_hi": 2, "ramp": 0.5}',
     ["window too narrow"]),
]


@pytest.mark.parametrize("command, text, words", BAD_DESCRIPTIONS)
def test_bad_description_is_one_error_line(tmp_path, capsys, command, text, words):
    path = tmp_path / "map.json"
    path.write_text(text)
    argv = (["info", "--map", str(path)] if command == "info" else
            ["extend", "--method", "de", "--map", str(path), *DISK_GRID])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert all(w in lines[0] for w in words), lines[0]


def test_unreadable_paths_exit_2(tmp_path, capsys):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    circle_file = write_json(tmp_path / "circ.json", MOBIUS)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"kind": "\xff"}')
    folder = str(tmp_path)
    for argv in (["info", "--map", folder],
                 ["info", "--map", str(binary)],
                 ["extend", "--method", "de", "--map", folder],
                 ["extend", "--method", "ns", "--map", folder],
                 ["decompose", "--map", folder, "--eps0", "0.2"],
                 ["verify", "--suite", "pde", "--config", folder],
                 ["extend", "--map", map_file, "--nx", "2", "--ny", "2",
                  "--out", folder],
                 ["extend", "--method", "de", "--map", circle_file, *DISK_GRID,
                  "--format", "json", "--out", folder],
                 ["decompose", "--map", map_file, "--eps0", "0.2", "--out", folder]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)


HUGE_SLOPES = {"kind": "composition", "maps": [{"kind": "affine", "slope": 1e300},
                                              {"kind": "affine", "slope": 1e300}]}
# maps whose parameters put their arithmetic past the float range
FAR_MAPS = {
    "@huge": HUGE_SLOPES,
    "@window": {"kind": "quadratic-window", "window_lo": 1e200, "window_hi": 2e200,
                "ramp": 1.0},
    "@wide-knots": {"kind": "sampled-monotone", "xs": [-2.0, 0.0, 1.0, 1e300],
                    "ys": [-2.5, 0.0, 1.2, 3.1]},
    "@close-knots": {"kind": "sampled-monotone", "xs": [0.0, 1e-320, 2e-320],
                     "ys": [0.0, 1.0, 2.0]},
    "@wide-taper": {"kind": "tapered", "base": BUMP, "plateau": 1e308},
    # finite, but its outer pieces overflow when evaluated at f(0.0)
    "@far-window": {"kind": "quadratic-window", "window_lo": 1, "window_hi": 1e154,
                    "ramp": 1},
    # its slope bounds put the certified bracket of an inverse value past the
    # float range, though the preimage of 0 is about 6e38
    "@inverse-window": {"kind": "inverse", "base": {
        "kind": "quadratic-window", "window_lo": 3.0233959382799814e-232,
        "window_hi": 3.902506907615861e+133, "ramp": 2.3270208426538043e+39}},
}
BAD_INPUTS = [
    # (argv with @map / @circle / @cut / @config placeholders, config, words in
    # the error)
    (["verify", "--suite", "dilatation", "--config", "@config"], {"a": "x"}, ["'a'"]),
    (["verify", "--suite", "pde", "--config", "@config"], {"trials": 2.5}, ["'trials'"]),
    (["verify", "--suite", "pde", "--config", "@config"], {"trials": True}, ["'trials'"]),
    (["verify", "--suite", "pde", "--config", "@config"], {"seed": -1}, ["'seed'"]),
    (["verify", "--suite", "decompose", "--config", "@config"], {"eps0": "x"}, ["'eps0'"]),
    (["verify", "--suite", "dilatation", "--config", "@config"], {"expect": "bogus"},
     ["'expect'", "bogus"]),
    (["verify", "--suite", "dilatation", "--config", "@config"], {"map": "bump"}, ["'map'"]),
    (["verify", "--suite", "pde", "--config", "@config"], {"bogus_key": 1}, ["bogus_key"]),
    (["verify", "--suite", "pde", "--seed", "-1"], None, ["'seed'"]),
    (["verify", "--suite", "pde", "--trials", "-2"], None, ["'trials'"]),
    (["extend", "--method", "de", "--map", "@circle", "--n-nodes", "0", *DISK_GRID],
     None, ["16 quadrature nodes"]),
    (["decompose", "--map", "@map", "--eps0", "0.2", "--tol", "nan"], None, ["tol"]),
    (["extend", "--method", "ba", "--map", "@map", "--im-scale", "inf", "--nx", "2",
      "--ny", "2"], None, ["im_scale"]),
    (["extend", "--method", "ba", "--map", "@map", "--quad-tol", "inf", "--nx", "2",
      "--ny", "2"], None, ["quad_tol"]),
    (["info", "--map", "@huge"], None, ["upper bound", "inf"]),
    (["extend", "--map", "@huge", "--nx", "2", "--ny", "2"], None, ["upper bound"]),
    # inputs that ask for too much work, refused with the limit they pass
    (["extend", "--map", "@map", "--nx", "1001", "--ny", "1000"], None,
     ["1001000", "MAX_GRID_POINTS = 1000000"]),
    (["extend", "--method", "ns", "--map", "@map", "--nx", str(10 ** 12), "--ny",
      str(10 ** 12)], None, ["MAX_GRID_POINTS"]),
    (["extend", "--method", "de", "--map", "@circle", "--n-nodes", "100000000",
      *DISK_GRID], None, ["100000000", "MAX_NODES = 65536"]),
    (["decompose", "--map", "@map", "--eps0", "1e-8"], None, ["rounds", "MAX_ROUNDS = 500"]),
    (["verify", "--suite", "decompose", "--config", "@config"], {"eps0": 1e-8},
     ["MAX_ROUNDS"]),
    (["verify", "--suite", "pde", "--trials", "1001"], None, ["'trials'", "MAX_TRIALS = 1000"]),
    (["verify", "--suite", "pde", "--config", "@config"], {"trials": 10 ** 400},
     ["'trials'", "MAX_TRIALS"]),
    # a field that the run would not read
    (["verify", "--suite", "pde", "--config", "@config"], {"eps0": 0.2}, ["'eps0'", "'pde'"]),
    (["verify", "--suite", "dilatation", "--config", "@config"], {"eps0": 0.2}, ["'eps0'"]),
    (["verify", "--suite", "pde", "--config", "@config"], {"map": "cubic"}, ["'map'"]),
    (["verify", "--suite", "boundary", "--config", "@config"], {"a": 1.0}, ["'a'"]),
    (["verify", "--suite", "homomorphism", "--config", "@config"], {"alpha": 2.0},
     ["'alpha'"]),
    (["verify", "--suite", "decompose", "--config", "@config"], {"threshold": 0.5},
     ["'threshold'"]),
    (["verify", "--suite", "group-action", "--config", "@config"],
     {"expect": "quasiconformal"}, ["'expect'"]),
    (["verify", "--suite", "dilatation", "--config", "@config"],
     {"map": "cubic", "trials": 2}, ["'map'", "quasiconformal"]),
    (["verify", "--suite", "dilatation", "--config", "@config"],
     {"map": {"kind": "affine", "slope": 2.0}, "trials": 2}, ["'map'"]),
    (["verify", "--suite", "dilatation", "--config", "@config"],
     {"a": 0.5, "alpha": 1.5}, ["'a'"]),
    (["verify", "--suite", "dilatation", "--config", "@config"],
     {"expect": "quasiconformal", "threshold": 0.5}, ["'threshold'"]),
    (["verify", "--suite", "dilatation", "--config", "@config"],
     {"expect": "not-quasiconformal", "alpha": 1.0}, ["'alpha'", "alpha = 0"]),
    (["verify", "--suite", "dilatation", "--config", "@config"],
     {"map": {"kind": "affine", "slope": 2.0}, "expect": "not-quasiconformal",
      "alpha": 2.0}, ["'alpha'", "cubic"]),
    # a circle-map file cut short, read like any other map file
    (["extend", "--method", "de", "--map", "@cut", *DISK_GRID], None,
     ["invalid JSON map description"]),
    # a tolerance that is not finite, named
    (["extend", "--method", "de", "--map", "@circle", "--tol", "inf", *DISK_GRID],
     None, ["tol must be positive and finite, got inf"]),
    (["decompose", "--map", "@map", "--eps0", "0.2", "--tol", "inf"], None,
     ["tol must be positive and finite, got inf"]),
    # an averaging window whose tolerance underflows, or that overflows, is
    # named by its point, not by the tolerance derived from it
    (["extend", "--method", "ba", "--map", "@map", "--x-min=-1e-300", "--x-max", "0",
      "--y-min", "1e-316", "--y-max", "2e-316", "--nx", "2", "--ny", "2"], None,
     ["averaging window of z=(-1e-300+1e-316j) vanishes"]),
    (["extend", "--method", "ba", "--map", "@map", "--x-min", "1e308", "--x-max",
      "1.5e308", "--y-min", "1e308", "--y-max", "1.2e308", "--nx", "2", "--ny", "2"],
     None, ["averaging window of z=(1e+308+1e+308j) overflows"]),
    # parameters whose arithmetic leaves the float range, refused by name and
    # with no numpy warning
    (["info", "--map", "@window"], None, ["window_hi 2e+200", "overflows"]),
    (["extend", "--method", "ns", "--map", "@window", "--nx", "2", "--ny", "2"], None,
     ["window_hi 2e+200", "overflows"]),
    (["decompose", "--map", "@window", "--eps0", "0.2"], None,
     ["window_hi 2e+200", "overflows"]),
    (["info", "--map", "@wide-knots"], None, ["lower bound must be positive, got 0.0"]),
    (["info", "--map", "@close-knots"], None, ["cell from x=0.0 overflow"]),
    (["info", "--map", "@wide-taper"], None, ["plateau 1e+308", "overflows"]),
    # each window piece is evaluated on its own interval only
    (["decompose", "--map", "@far-window", "--eps0", "0.2"], None,
     ["bi-Lipschitz constant 2e+154", "MAX_ROUNDS = 500"]),
    # an inverse whose slope bracket overflows starts from a narrowed bracket
    (["decompose", "--map", "@inverse-window", "--eps0", "0.3"], None,
     ["bi-Lipschitz constant 1.65377e+231", "MAX_ROUNDS = 500"]),
    # a y below the image of the float range under the base has no preimage
    (["extend", "--method", "ns", "--map", "@inverse-window", "--x-min=-1e79",
      "--x-max", "0", "--nx", "2", "--ny", "2"], None,
     ["y=-1e+79", "overflows in floating point"]),
]


# a composition folds one call per map when it is evaluated, and a nested
# description costs a few calls per level when it is parsed
DEEP_TEXTS = {
    "@maps": json.dumps({"kind": "composition",
                         "maps": [{"kind": "affine", "slope": 1.0}] * 1000}),
    "@tapered": ('{"kind": "tapered", "plateau": 2.0, "base": ' * 500
                 + '{"kind": "affine", "slope": 1.0}' + "}" * 500),
    "@arrays": "[" * 100000 + "]" * 100000,
}


@pytest.mark.parametrize("argv", [["info", "--map", "@maps"],
                                  ["extend", "--map", "@maps", "--nx", "2", "--ny", "2"],
                                  ["info", "--map", "@tapered"],
                                  ["info", "--map", "@arrays"]])
def test_over_deep_input_is_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_TEXTS[argv[2]])
    assert main([str(path) if a in DEEP_TEXTS else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: map description nested too deeply"]
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("argv, config, words", BAD_INPUTS)
def test_bad_input_is_one_error_line(tmp_path, capsys, argv, config, words):
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(MOBIUS)[:-7])
    paths = {"@cut": str(cut),
             "@map": write_json(tmp_path / "bump.json", BUMP),
             "@circle": write_json(tmp_path / "circ.json", MOBIUS),
             "@config": write_json(tmp_path / "cfg.json", config),
             **{key: write_json(tmp_path / f"{key[1:]}.json", desc)
                for key, desc in FAR_MAPS.items() if key in argv}}
    assert main([paths.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert all(w in lines[0] for w in words), lines[0]


def test_decompose_far_outside_a_tiny_taper_plateau_is_silent(tmp_path, capsys):
    # the cutoff and its slope overflow far off their ramp, where both are 0
    bump = {"center": 4.8590646202801585e+255, "halfwidth": 9.572650914989033e+98,
            "amplitude": 3.571094524625349e+98}
    desc = {"kind": "inverse", "base": {
        "kind": "tapered", "plateau": 1.4252801448677338e-158,
        "base": {"kind": "identity-plus-bump", "bumps": [bump]}}}
    map_file = write_json(tmp_path / "far.json", desc)
    assert main(["decompose", "--map", map_file, "--eps0", "0.3",
                 "--out", str(tmp_path / "fac.json")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("factors: ") and captured.err.count("\n") == 1


def test_decompose_where_a_table_panel_underflows_is_silent(tmp_path, capsys):
    # an increment of the power-integral table underflows to 0 in a panel, so
    # an inversion starts at that panel's left edge
    desc = {"kind": "sampled-monotone",
            "xs": [2.925085594438359e-258, 0.004208778023764949, 1.7534790907238686],
            "ys": [5.078635928715845e-237, 0.0006469480903628057, 0.0007567714896740483]}
    map_file = write_json(tmp_path / "knots.json", desc)
    assert main(["decompose", "--map", map_file, "--eps0", "0.3",
                 "--out", str(tmp_path / "fac.json")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("factors: ") and captured.err.count("\n") == 1


# bumps whose halfwidth squared leaves the float range, though amplitude /
# halfwidth ** 2, their second derivative's scale, does not
FAR_BUMPS = [{"center": 0.0, "halfwidth": 1e-200, "amplitude": 1e-201},
             {"center": 0.0, "halfwidth": 1e200, "amplitude": 1e199}]


@pytest.mark.parametrize("bump", FAR_BUMPS, ids=["narrow", "wide"])
def test_bump_with_overflowing_square_halfwidth_has_finite_cells(tmp_path, capsys, bump):
    desc = {"kind": "identity-plus-bump", "bumps": [bump]}
    assert math.isfinite(map_from_dict(desc).second_deriv(bump["center"]))
    out = tmp_path / "out.csv"
    assert main(["extend", "--method", "family", "--alpha", "0", "--nx", "2", "--ny", "2",
                 "--map", write_json(tmp_path / "bump.json", desc), "--out", str(out)]) == 0
    assert all(math.isfinite(float(cell)) for row in read_csv_rows(out) for cell in row)
    config = write_json(tmp_path / "cfg.json", {"trials": 1, "map": desc,
                                                "expect": "not-quasiconformal"})
    assert main(["verify", "--suite", "dilatation", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert math.isfinite(float(captured.out.split(": ")[1].split()[0]))


def test_decompose_subcommand_writes_factors(tmp_path):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    out = tmp_path / "fac.json"
    code = main(["decompose", "--map", map_file, "--eps0", "0.2",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["eps0"] == 0.2
    assert payload["recomposition_error"] <= 1e-6
    factors = [map_from_dict(d) for d in payload["factors"]]
    assert all(max(m.deriv_hi - 1, 1 - m.deriv_lo) < 0.2 for m in factors)


def test_decompose_rejects_bad_eps0(tmp_path):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    assert main(["decompose", "--map", map_file, "--eps0", "1.5"]) == 2


def test_numerical_failure_exits_3(tmp_path):
    # an unreachable recomposition tolerance is a numerical failure, not usage
    map_file = write_json(tmp_path / "bump.json", BUMP)
    assert main(["decompose", "--map", map_file, "--eps0", "0.2",
                 "--tol", "1e-20"]) == 3
    # a table failure inside the averaged extension is reported as it is
    table_file = write_json(tmp_path / "pi.json", {"kind": "power-integral",
                                                   "base": BUMP, "exponent": 0.5})
    assert main(["extend", "--method", "ba", "--map", table_file, "--nx", "2",
                 "--ny", "2", "--y-max=1e308"]) == 3


def test_info_subcommand(tmp_path, capsys):
    map_file = write_json(tmp_path / "bump.json", BUMP)
    assert main(["info", "--map", map_file]) == 0
    out = capsys.readouterr().out
    assert "identity-plus-bump" in out
    assert "C^2: True" in out


def test_verify_seed_changes_draws_but_not_determinism(capsys):
    assert main(["verify", "--suite", "boundary", "--trials", "3",
                 "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--suite", "boundary", "--trials", "3",
                 "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


# -- parsing: one parser, built at import -------------------------------------

COMMANDS = ["extend", "verify", "decompose", "info"]
# "MAP" stands for a bump map file
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["-x", "info"], ["--", "extend"],
    *([command, "-h"] for command in COMMANDS),
    ["decompose", "--map", "MAP"],                            # missing --eps0
    ["extend", "--map", "MAP", "--nx", "x"],                  # bad type
    ["extend", "--map", "MAP", "--method", "zz"],             # bad choice
    ["verify", "--suite", "nope"],
    ["extend", "--map", "MAP", "--bogus"],                    # unrecognized
    ["info", "--map", "MAP", "extra"],
    ["info", "--ma", "MAP"],                                  # abbreviated
    ["extend", "--map", "MAP", "--nx", "3", "--ny", "2", "--format", "json"],
    ["verify", "--suite", "homomorphism", "--trials", "2", "--seed", "3"],
    ["decompose", "--map", "MAP", "--eps0", "0.3"],
    ["info", "--map", "MAP"],
]


@pytest.mark.parametrize("argv", PARSE_CORPUS,
                         ids=[" ".join(argv) or "no-args" for argv in PARSE_CORPUS])
def test_parsing_matches_the_full_parser(tmp_path, monkeypatch, capsys, argv):
    # exit code, stdout and stderr of the shared parser, which has parsed
    # every earlier call of the session, as of a freshly built one
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    map_file = write_json(tmp_path / "bump.json", BUMP)
    argv = [map_file if arg == "MAP" else arg for arg in argv]
    got = (main(argv), *capsys.readouterr())
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
    assert (main(argv), *capsys.readouterr()) == got


def test_console_path_reads_sys_argv(tmp_path, capsys):
    src = os.path.dirname(os.path.dirname(qcext.__file__))
    env = dict(os.environ, PYTHONPATH=src, COLUMNS="80")
    map_file = write_json(tmp_path / "bump.json", BUMP)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qcext.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    info = run("info", "--map", map_file)
    assert main(["info", "--map", map_file]) == 0
    assert (info.returncode, info.stdout, info.stderr) == (0, capsys.readouterr().out, "")
    assert info.stdout.startswith("identity-plus-bump: deriv in [")
    helped = run("--help")
    assert helped.returncode == 0
    assert all(command in helped.stdout for command in COMMANDS)
    bare = run()
    assert (bare.returncode, bare.stdout) == (2, "")
    assert bare.stderr.startswith("usage: qcext [-h] {extend,verify,decompose,info}")


def test_main_builds_no_parser(tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    map_file = write_json(tmp_path / "bump.json", BUMP)
    for argv, code in ((["extend", "--map", map_file, "--nx", "2", "--ny", "2"], 0),
                       (["info", "--map", map_file], 0),
                       (["info", "--map", map_file, "extra"], 2)):
        assert main(argv) == code, argv
    assert built == []
    cli.build_parser()
    assert len(built) == 1 + len(COMMANDS)  # the full tree, as counted here


def test_full_parser_holds_each_command_parser():
    full = cli.build_parser()
    sub, = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == COMMANDS
    for name, parser in sub.choices.items():
        assert parser.prog == f"qcext {name}"


def test_the_shared_parser_keeps_no_state_between_calls():
    grid = ["--map", "m.json", "--nx", "2", "--ny", "2"]
    calls = [["extend", "--method", "family", "--a", "0.5", "--alpha", "1.5", *grid],
             ["extend", "--method", "ns", *grid],
             ["extend", "--method", "family", *grid]]
    parsed = [cli._PARSER.parse_args(argv) for argv in calls]
    assert parsed == [cli.build_parser().parse_args(argv) for argv in calls]
    assert [(args.method, args.a) for args in parsed] == [
        ("family", 0.5), ("ns", 1.0), ("family", 1.0)]


@pytest.mark.parametrize("option", [["--quad-tol", "0"], ["--im-scale", "nan"]],
                         ids=["quad-tol", "im-scale"])
@pytest.mark.parametrize("method", ["ns", "family", "de"])
def test_extend_ignores_the_options_of_other_methods(tmp_path, capsys, method, option):
    # --quad-tol and --im-scale are read, and refused when bad, by ba alone
    map_file = write_json(tmp_path / "map.json", MOBIUS if method == "de" else BUMP)
    argv = ["extend", "--map", map_file, "--method", method, *DISK_GRID]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main(argv + option) == 0
    assert capsys.readouterr() == plain and plain.err == ""
