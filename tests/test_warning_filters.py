"""The suite's warning filters (``pyproject.toml``) make numpy and library
warnings errors, yet leave a failing test able to report how it failed."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_a_failing_property_test_prints_its_falsifying_example(tmp_path):
    # reporting the failure imports libcst, whose import warns about
    # mypy_extensions; as an error, that warning ends the session instead
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
    assert run.returncode == 1
