"""The bytes of ``qcext extend`` rows against the stdlib renderers they
replace: ``csv.writer`` over ``repr`` cells, and ``json.dumps(rows, indent=1)``
with one trailing newline.  Both renderers are kept here as the oracle."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import qcext
from qcext import cli

HEADER = ("x", "y", "re", "im", "dilatation")


def oracle(fmt, zs, vals, dil):
    """The bytes the stdlib renderers write for the columns of _write_rows."""
    rows = [(z.real, z.imag, v.real, v.imag, None if math.isnan(d) else d)
            for z, v, d in zip(zs.tolist(), vals.tolist(), dil.tolist())]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(HEADER)
        writer.writerows([["" if c is None else repr(c) for c in r] for r in rows])
        return buf.getvalue()
    return json.dumps([dict(zip(HEADER, r)) for r in rows], indent=1) + "\n"


def writes_the_oracle_bytes(tmp_path, capsys, zs, vals, dil):
    """Check _write_rows against the oracle to stdout and to a file, in both
    formats; the JSON text."""
    for fmt in ("csv", "json"):
        expected = oracle(fmt, zs, vals, dil)
        cli._write_rows(zs, vals, dil, None, fmt)
        assert capsys.readouterr().out == expected
        out = tmp_path / f"rows.{fmt}"
        cli._write_rows(zs, vals, dil, str(out), fmt)
        assert out.read_bytes() == expected.encode("utf-8")
    return expected


BUMP = {"kind": "identity-plus-bump",
        "bumps": [{"center": 0.0, "halfwidth": 1.0, "amplitude": 0.3}]}
SAMPLED = {"kind": "sampled-monotone", "xs": [-2.0, 0.0, 1.0, 3.0],
           "ys": [-2.5, 0.0, 1.2, 3.1]}
TAPERED = {"kind": "tapered", "base": BUMP, "plateau": 3.0}
MOBIUS = {"kind": "circle-mobius", "angle": 0.4, "center": [0.2, 0.1]}
SMALL = ["--nx", "4", "--ny", "3"]
# (map, options, what the dilatation column holds: "all", "some" or "none" empty)
CASES = {
    "ns": (BUMP, ["--method", "ns", *SMALL], "none"),
    "family": (BUMP, ["--method", "family", "--a=-0.7", "--alpha=1.3", *SMALL], "none"),
    "ba": (BUMP, ["--method", "ba", "--nx", "3", "--ny", "2"], "all"),
    "de": (MOBIUS, ["--method", "de", "--x-min=-0.4", "--x-max=0.4", "--y-min=0.05",
                    "--y-max=0.5", "--nx", "3", "--ny", "2"], "all"),
    "negative-zero": (BUMP, ["--method", "ns", "--x-min=-0.0", "--x-max=1", *SMALL], "none"),
    "huge-tapered": (TAPERED, ["--method", "ns", "--x-min=-1e300", "--x-max=1e300",
                               *SMALL], "none"),
    # a value that overflows is refused by name, with no rows written
    "overflow-tapered": (TAPERED, ["--method", "ns", "--x-min=-8e307", "--x-max=8e307",
                                   "--y-max=1e308", "--nx", "3", "--ny", "2"], "refused"),
    "alpha-zero-c1": (SAMPLED, ["--method", "family", "--alpha=0", *SMALL], "all"),
    # f' = 3x^2 vanishes at x + y = 0: (-1, 1) is on the grid
    "cubic-ns": ({"kind": "cubic"}, ["--method", "ns", "--x-min=-1", "--x-max=1",
                                     "--y-min=1", "--y-max=2", "--nx", "3", "--ny", "2"],
                 "some"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_extend_rows_match_the_stdlib_renderers(tmp_path, capsys, monkeypatch,
                                                case, fmt):
    desc, options, empty = CASES[case]
    columns = []
    write = cli._write_rows

    def spy(zs, vals, dil, out_path, fmt):
        columns.append((zs, vals, dil))
        return write(zs, vals, dil, out_path, fmt)

    monkeypatch.setattr(cli, "_write_rows", spy)
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(desc))
    argv = ["extend", "--map", str(map_file), *options, "--format", fmt]
    if empty == "refused":
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and columns == []
        assert captured.err.startswith("error: extension at z=")
        assert captured.err.endswith(" overflows in floating point\n")
        assert captured.err.count("\n") == 1
        return
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / f"rows.{fmt}"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""

    zs, vals, dil = columns[0]
    expected = oracle(fmt, zs, vals, dil)
    assert stdout == expected
    assert out.read_bytes() == expected.encode("utf-8")
    n_empty = int(np.isnan(dil).sum())
    assert {"none": n_empty == 0, "some": 0 < n_empty < dil.size,
            "all": n_empty == dil.size}[empty]
    assert np.isfinite(vals).all()


def test_writer_keeps_signed_zeros_and_spells_non_finite_cells(tmp_path, capsys):
    # the only non-finite cell a row can hold is an undefined (NaN) dilatation
    zs = np.array([complex(-0.0, 1.0), complex(0.0, 1.0), complex(-0.0, 2.0),
                   complex(5e-324, 2.0)])
    vals = np.array([complex(-0.0, 0.0), complex(1e300, -1e-300),
                     complex(-0.0, 1e300), complex(1.0 / 3.0, -2.0)])
    dil = np.array([math.nan, 0.5, -0.0, 0.25])
    expected = writes_the_oracle_bytes(tmp_path, capsys, zs, vals, dil)
    assert expected.startswith('[\n {\n  "x": -0.0,\n  "y": 1.0,\n  "re": -0.0,\n'
                               '  "im": 0.0,\n  "dilatation": null\n }')
    assert '"re": -0.0,\n  "im": 1e+300,\n  "dilatation": -0.0' in expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_out_file_carry_the_same_bytes(tmp_path, fmt):
    """The same bytes through a real process's stdout as in the --out file."""
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({"kind": "cubic"}))
    out = tmp_path / f"rows.{fmt}"
    argv = [sys.executable, "-m", "qcext.cli", "extend", "--map", str(map_file),
            *CASES["cubic-ns"][1][2:], "--format", fmt]
    src = os.path.dirname(os.path.dirname(qcext.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    piped = subprocess.run(argv, capture_output=True, env=env, check=True)
    subprocess.run([*argv, "--out", str(out)], capture_output=True, env=env, check=True)
    assert piped.stdout == out.read_bytes()
    assert piped.stdout.endswith(b"\r\n" if fmt == "csv" else b"\n]\n")


def repeating_columns():
    """Columns as a locally affine map writes them: each repeats values, and
    they hold -0.0 next to 0.0, and a NaN with its sign bit set."""
    def columns(re, im):  # re + 1j * im would turn a -0.0 into 0.0
        z = np.empty(re.shape, dtype=complex)
        z.real, z.imag = re, im
        return z

    zs = columns(np.tile([-0.0, 0.0, 0.5, -0.0], 3), np.repeat([1.0, 2.0, 1.0], 4))
    vals = columns(np.tile([-0.0, 0.0, 1.0 / 3.0, -0.0], 3),
                   np.repeat([0.0, -0.0, 2.5], 4))
    dil = np.array([np.copysign(math.nan, -1.0), math.nan, 0.0, -0.0] * 3)
    return zs, vals, dil


def test_writer_spells_repeated_cells_signed_zeros_and_negative_nans(tmp_path, capsys):
    zs, vals, dil = repeating_columns()
    assert np.signbit(dil[0]) and not np.signbit(dil[1])
    expected = writes_the_oracle_bytes(tmp_path, capsys, zs, vals, dil)
    assert expected.startswith('[\n {\n  "x": -0.0,\n  "y": 1.0,\n  "re": -0.0,\n'
                               '  "im": 0.0,\n  "dilatation": null\n }')
    assert expected.count('"dilatation": null') == 6
    assert expected.count('"im": -0.0') == 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_spells_each_distinct_bit_pattern_of_a_column_once(capsys, monkeypatch,
                                                                  fmt):
    zs, vals, dil = repeating_columns()
    spelled = []

    def counting_repr(v):
        spelled.append(v)
        return repr(v)

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    cli._write_rows(zs, vals, dil, None, fmt)
    assert capsys.readouterr().out == oracle(fmt, zs, vals, dil)
    columns = (zs.real, zs.imag, vals.real, vals.imag, dil)
    distinct = [len(set(np.ascontiguousarray(c).view(np.int64).tolist()))
                for c in columns]
    assert distinct == [3, 2, 3, 3, 4]
    # the columns share their cells' spellings: one per bit pattern of the grid
    grid = set(np.concatenate(columns).view(np.int64).tolist())
    assert len(spelled) == len(grid) == 9
