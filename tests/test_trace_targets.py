"""The benchmark's span recorder finds every entry point it wraps.

``bench/spans.py`` wraps named functions of the package from outside it and
reports a metric as missing when its function is gone.  This checks, with the
rest of the test suite, that the package keeps every wrapped name.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from qcext import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = ("qcext.cli", "qcext.analysis", "qcext.decompose",
           "qcext.beurling_ahlfors", "qcext.quadrature", "qcext.realmap",
           "qcext.douady_earle")


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_finds_every_target(spans, tmp_path):
    bump = tmp_path / "bump.json"
    bump.write_text(json.dumps({"kind": "identity-plus-bump", "bumps": [
        {"center": 0.0, "halfwidth": 1.0, "amplitude": 0.3}]}))
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({"kind": "circle-fourier", "cos": [0.05]}))
    grid = ["--nx", "2", "--ny", "2", "--x-min", "-0.3", "--x-max", "0.3",
            "--y-min", "0.1", "--y-max", "0.5", "--out", str(tmp_path / "out.csv")]
    main = cli.main
    rec = spans.Recorder()
    rec.install({name: importlib.import_module(name) for name in MODULES})
    try:
        assert rec.missing == []
        assert cli.main(["extend", "--method", "ba", "--map", str(bump), *grid]) == 0
        assert cli.main(["extend", "--method", "de", "--map", str(circle), *grid]) == 0
    finally:
        rec.uninstall()
    assert cli.main is main
    names = {span[0] for span in rec.take()}
    assert {"cli.map_from_file", "cli.circle_map_from_dict", "cli.extend_ba",
            "cli.extend_de", "beurling_ahlfors.adaptive_integral",
            "quadrature.panel_integrals"} <= names
