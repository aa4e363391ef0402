"""Golden records of qcext's outputs, one SHA-256 per record.

    PYTHONPATH=src python tests/golden/make.py

writes ``tests/golden/hashes.json`` (with the Python and numpy versions and
numpy's x86 dispatch level it ran under); ``tests/test_golden.py`` recomputes
every record and names each one whose hash differs.  The records:

- ``op/...``: the first cycle and the defect probes of seeds 1-3 of each
  workload in ``bench/workloads.py``, run through ``cli.main`` as
  ``bench/run.py`` issues them: exit code, stdout, stderr and the output
  file; for ``factorize`` also the reloaded recomposition's values at the
  op's follow points and its ``cert_gap``, as ``bench/client.py`` computes
  them, and ``info`` on the factor file;
- ``verify/...``: every ``verify`` suite at its defaults;
- ``parse/...``: argument lists that exercise help, usage errors and
  parsing, at ``COLUMNS=80``;
- ``map/...``: values, slopes and second derivatives, 0-d and array, of
  every map kind alone and under one or two of ``tapered``,
  ``power-integral``, ``inverse`` and ``composition`` (the ``DomainError``
  line where a map cannot be built or has no second derivative);
- ``check/...``: the full bits of the dilatation, PDE and boundary checks
  on C^2 maps of that corpus, which ``verify`` prints to six digits only;
  and ``check/de-damping/...``: ``extend_de`` on circle maps and points
  where a Newton step leaves the disk and is halved back into it.

The temporary directory the records run in is replaced by ``<tmp>`` before
hashing.  A change that moves an output on purpose regenerates the file and
names the records that moved, and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from qcext import analysis, cli
from qcext.douady_earle import circle_map_from_dict, extend_de
from qcext.errors import QCExtError
from qcext.extensions import ExtParams
from qcext.realmap import map_from_dict

HERE = Path(__file__).resolve().parent
BENCH = HERE.parents[1] / "bench"
HASHES = HERE / "hashes.json"
SEEDS = (1, 2, 3)

# "MAP" stands for a bump map file
PARSE_CORPUS = [
    [], ["-h"], ["--help"], ["bogus"], ["-x", "info"], ["--", "extend"],
    *([command, "-h"] for command in ("extend", "verify", "decompose", "info")),
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
BUMP = {"kind": "identity-plus-bump",
        "bumps": [{"center": 0.3, "halfwidth": 1.2, "amplitude": 0.25},
                  {"center": -1.0, "halfwidth": 0.8, "amplitude": -0.1}]}
LEAVES = {
    "affine": {"kind": "affine", "slope": 1.7, "intercept": -0.3},
    "identity-plus-bump": BUMP,
    "sampled-monotone": {"kind": "sampled-monotone", "xs": [-2.0, -0.5, 0.0, 1.0, 2.5],
                         "ys": [-2.4, -0.6, 0.1, 1.3, 2.9]},
    "cubic": {"kind": "cubic"},
    "quadratic-window": {"kind": "quadratic-window"},
}
WRAPPERS = {
    "tapered": lambda d: {"kind": "tapered", "base": d, "plateau": 1.5},
    "power-integral": lambda d: {"kind": "power-integral", "base": d, "exponent": 0.6},
    "inverse": lambda d: {"kind": "inverse", "base": d},
    "composition": lambda d: {"kind": "composition", "maps": [
        d, {"kind": "affine", "slope": 0.8, "intercept": 0.1}]},
    "composition-bump": lambda d: {"kind": "composition", "maps": [BUMP, d]},
}
POINTS = (-1.25, 0.0, 0.7)
ARRAY = np.linspace(-3.0, 4.5, 32).reshape(4, 8)
CHECK_MAPS = ("affine", "identity-plus-bump", "quadratic-window",
              "power-integral(identity-plus-bump)")
CHECK_PARAMS = ((1.0, 2.0), (0.5, 1.5), (-0.3, 0.7))
CHECK_Z = np.array([-0.8, 0.1, 1.3]) + 1j * np.array([[0.3], [1.1]])
# circle map, point: a full Newton step from the iterate leaves the disk
DAMPING = [
    ({"kind": "circle-fourier", "cos": [-0.07], "sin": [-0.041]},
     0.9592821261969487 - 0.26155361278151246j),
    ({"kind": "circle-mobius", "angle": 2.064308121820581,
      "center": [-0.04673247670782434, -0.25384840190003743]},
     -0.5148399107985199 - 0.8503967757752684j),
    ({"kind": "circle-fourier", "cos": [0.024, -0.022], "sin": [-0.007, -0.018]},
     -0.6649703736979079 - 0.7394894536800811j),
    ({"kind": "circle-fourier", "cos": [-0.018], "sin": [0.089]},
     -0.7962065996074982 - 0.5945542370057294j),
]


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _digest(parts, tmp: str | None = None) -> str:
    """SHA-256 of the parts (str or bytes), each length-prefixed, with the
    temporary directory tmp replaced by a placeholder."""
    h = hashlib.sha256()
    for part in parts:
        data = part.encode() if isinstance(part, str) else part
        if tmp is not None:
            data = data.replace(tmp.encode(), b"<tmp>")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def _run(argv) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return [str(rc), out.getvalue(), err.getvalue()]


def op_records(tmp: Path) -> dict:
    workloads, client = _load("workloads"), _load("client")
    records = {}
    for (name, workload), seed in itertools.product(workloads.WORKLOADS.items(), SEEDS):
        ops = [(f"op{i:02d}", op) for i, op in
               enumerate(workload.cycle(np.random.default_rng(seed), tmp, 0))]
        ops += [(f"probe{i}", op) for i, op in
                enumerate(workload.probes(np.random.default_rng([seed, 1]), tmp))]
        for label, op in ops:
            Path(op.spec["map_path"]).write_text(op.input_text, encoding="utf-8")
            out = Path(op.out)
            out.unlink(missing_ok=True)
            parts = _run(op.argv)
            parts.append(out.read_bytes() if out.exists() else b"<none>")
            if parts[0] == "0" and op.follow:
                factors, values = client._reload_factors(op.follow)
                gaps = [max(hi - 1.0, 1.0 - lo) for lo, hi in
                        (map_from_dict(d).deriv_bounds() for d in factors)]
                parts += [values.tobytes(), repr(max(gaps))]
                records[f"op/{name}/seed{seed}/{label}-info"] = _digest(
                    _run(["info", "--map", out]), str(tmp))
            records[f"op/{name}/seed{seed}/{label}-{op.kind}"] = _digest(parts, str(tmp))
    return records


def verify_records(tmp: Path) -> dict:
    return {f"verify/{suite}": _digest(_run(["verify", "--suite", suite]), str(tmp))
            for suite in cli._SUITES}


def parse_records(tmp: Path) -> dict:
    map_file = tmp / "parse-map.json"
    map_file.write_text(json.dumps(BUMP), encoding="utf-8")
    return {"parse/" + (" ".join(argv) or "no-args"):
            _digest(_run([map_file if a == "MAP" else a for a in argv]), str(tmp))
            for argv in PARSE_CORPUS}


def _corpus() -> dict:
    """label -> description: each leaf kind alone, under one wrapper and
    under two."""
    out = {}
    for leaf, desc in LEAVES.items():
        out[leaf] = desc
        for outer, wrap in WRAPPERS.items():
            out[f"{outer}({leaf})"] = wrap(desc)
            for outer2, wrap2 in WRAPPERS.items():
                out[f"{outer2}({outer}({leaf}))"] = wrap2(wrap(desc))
    return out


def _bits(v) -> str | bytes:
    """v as its type and repr when 0-d, else as its dtype, shape and bytes."""
    if np.ndim(v) == 0:
        return f"{type(v).__name__} {v!r}"
    return f"{v.dtype} {v.shape}".encode() + v.tobytes()


def _outcome(fn, *args) -> str | bytes:
    """The bits of fn(*args), or the error's type and message when it raises
    a QCExtError."""
    try:
        return _bits(fn(*args))
    except QCExtError as exc:
        return f"{type(exc).__name__}: {exc}"


def map_records() -> dict:
    """f, f' and f'' at each of POINTS (0-d) and at ARRAY, for each map of
    the corpus; a map that cannot be built is recorded by its error."""
    records = {}
    for label, desc in _corpus().items():
        try:
            f = map_from_dict(desc)
        except QCExtError as exc:
            parts = [f"{type(exc).__name__}: {exc}"]
        else:
            parts = [_outcome(op, x) for op in (f, f.deriv, f.second_deriv)
                     for x in (*POINTS, ARRAY)]
        records[f"map/{label}"] = _digest(parts)
    return records


def check_records() -> dict:
    """The full bits of the checks that ``verify`` prints to six digits:
    closed-form and centered-difference dilatation, the PDE residual and the
    boundary residual, on C^2 maps of the corpus; and of the damped disk
    solves of DAMPING."""
    corpus, records = _corpus(), {}
    for label, (a, alpha) in itertools.product(CHECK_MAPS, CHECK_PARAMS):
        f, p = map_from_dict(corpus[label]), ExtParams(a, alpha)
        report = analysis.compare_dilatation(f, p, CHECK_Z, 1e-4)
        point = analysis.compare_dilatation(f, p, complex(CHECK_Z[0, 0]), 1e-4)
        parts = [_bits(getattr(r, k)) for r in (report, point) for k in sorted(vars(r))]
        parts += [_bits(analysis.pde_residual(f, p, CHECK_Z)),
                  _bits(analysis.boundary_residual(p, f, (-1.0, 1.0), (0.1, 0.01)))]
        records[f"check/{label}/a={a!r} alpha={alpha!r}"] = _digest(parts)
    for desc, z in DAMPING:
        f = circle_map_from_dict(desc)
        records[f"check/de-damping/{json.dumps(desc)} z={z!r}"] = _digest(
            [_outcome(extend_de, f, z)])
    return records


def records() -> dict:
    """Every record name -> its SHA-256, computed in a fresh temporary
    directory at COLUMNS=80, with numpy warnings raised as errors."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"   # argparse wraps help to the terminal
    try:
        with tempfile.TemporaryDirectory() as name, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tmp = Path(name)
            return {**op_records(tmp), **verify_records(tmp), **parse_records(tmp),
                    **map_records(), **check_records()}
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def versions() -> dict:
    """The Python and numpy versions, and numpy's x86 dispatch level: the
    highest ``X86_V*`` CPU feature that is on ("" where there is none), since
    ``exp``, ``log`` and ``power`` round by that level."""
    levels = [k for k, on in __cpu_features__.items() if k.startswith("X86_V") and on]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "numpy_x86_level": max(levels, key=lambda k: int(k[5:]), default="")}


def main() -> int:
    payload = {**versions(), "records": records()}
    HASHES.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"{len(payload['records'])} records written to {HASHES}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
