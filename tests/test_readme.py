"""The README's Python examples run as written, in order, in one namespace,
and ``from qcext import *`` binds the public names alone."""

import re
import types
from pathlib import Path

import qcext

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_star_import_binds_no_submodule():
    assert [name for name in qcext.__all__
            if isinstance(getattr(qcext, name), types.ModuleType)] == []
    namespace = {}
    exec("from qcext import *", namespace)
    assert "extend_ns" in namespace and "realmap" not in namespace
