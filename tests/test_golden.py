"""Every golden record keeps its hash: qcext's outputs stay bit for bit.

``tests/golden/make.py`` builds the records (benchmark ops, ``verify``
suites, argument parsing, map evaluations and checks) and writes their
hashes to ``tests/golden/hashes.json``; its docstring says what each record
holds and when the file is regenerated.
"""

import importlib.util
import json
from pathlib import Path

MAKE = Path(__file__).resolve().parent / "golden" / "make.py"


def test_every_golden_record_keeps_its_hash():
    spec = importlib.util.spec_from_file_location("golden_make", MAKE)
    make = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make)
    saved = json.loads(make.HASHES.read_text(encoding="utf-8"))
    want, got = saved["records"], make.records()
    moved = [f"{name} ({'new' if name not in want else 'gone' if name not in got else 'changed'})"
             for name in sorted(want.keys() | got.keys()) if want.get(name) != got.get(name)]
    now = make.versions()
    level = ""
    if saved.get("numpy_x86_level") != now["numpy_x86_level"]:
        level = (f"; numpy's x86 dispatch level was {saved.get('numpy_x86_level')!r}, "
                 f"this run {now['numpy_x86_level']!r}")
    assert not moved, (
        f"{len(moved)} golden records differ (hashes written under Python "
        f"{saved['python']}, numpy {saved['numpy']}; this run Python {now['python']}, "
        f"numpy {now['numpy']}{level}):\n" + "\n".join(moved))
