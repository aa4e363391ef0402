"""Command-line front end.

Subcommands::

    qcext extend    evaluate an extension operator on a half-plane grid
    qcext verify    run a verification suite and report PASS/FAIL per check
    qcext decompose factor a bi-Lipschitz map into near-identity factors
    qcext info      describe a map file (kind tree, certified bounds)

Every call parses with one ``qcext`` parser, built once at import.
``extend`` reads and checks only the options of its ``--method``.

Exit codes: 0 success / all checks pass; 1 verification failure; 2 usage or
parse error; 3 numerical failure.  Output is a pure function of the inputs
and flags; randomized suites draw from a seeded generator (--seed, default 0).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import analysis, decompose as dc
from .beurling_ahlfors import (IM_SCALE, QUAD_TOL, ba_affine_naturality_residual,
                               extend_ba)
from .douady_earle import (N_NODES, TOL, CircleMap, MobiusAutomorphism,
                           circle_map_from_dict, de_naturality_residual, extend_de)
from .errors import DomainError, QCExtError
from .extensions import ExtParams, act, extend_family, extend_ns
from .realmap import (Affine, BUMP_SLOPE_MAX, MAP, NUMBER, REQUIRED, BumpProfile,
                      Composition, Field, IdentityPlusBump, RealMap, _checked,
                      description_from_file, map_from_file)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


# -- deterministic random inputs for the verification suites ------------------

def random_bump_map(rng: np.random.Generator, with_affine: bool = True) -> RealMap:
    """Random certified bi-Lipschitz map: identity plus one to three bumps
    whose slope sups total below 0.5, optionally post-scaled by an affine."""
    k = int(rng.integers(1, 4))
    total = float(rng.uniform(0.15, 0.5))
    weights = rng.dirichlet(np.ones(k)) * total
    bumps = []
    for w in weights:
        width = float(rng.uniform(0.5, 2.0))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        bumps.append(BumpProfile(float(rng.uniform(-3.0, 3.0)), width,
                                 sign * w * width / BUMP_SLOPE_MAX))
    f: RealMap = IdentityPlusBump(bumps)
    if with_affine and rng.uniform() < 0.7:
        f = Composition(Affine(float(rng.uniform(0.7, 1.5)),
                               float(rng.uniform(-2.0, 2.0))), f)
    return f


def random_group_params(rng: np.random.Generator,
                        a_range=(-2.0, 2.0), alpha_range=(0.3, 4.0)) -> ExtParams:
    return ExtParams(float(rng.uniform(*a_range)), float(rng.uniform(*alpha_range)))


# -- extend ------------------------------------------------------------------

# How a row format spells an undefined (NaN) dilatation cell.  Every other
# cell is finite: the extensions refuse a value that overflows.
_NAN = {"csv": "", "json": "null"}


def _cell_texts(v: np.ndarray, nan: str | None = None) -> list:
    """The repr of each float of v, with ``nan``, when given, for a NaN: one
    repr per distinct bit pattern (so -0.0 keeps its sign), since a column
    of a locally affine map repeats many values."""
    bits, where = np.unique(np.ascontiguousarray(v).view(np.int64),
                            return_inverse=True)
    texts = list(map(repr, bits.view(np.float64).tolist()))
    if nan is not None:
        texts = [nan if t == "nan" else t for t in texts]
    return np.array(texts, dtype=object)[where].tolist()


def _write_rows(zs: np.ndarray, vals: np.ndarray, dil: np.ndarray, out_path,
                fmt: str):
    """Write the columns (x + iy, re + i im, dilatation) of the rows to
    out_path, or to stdout if it is None, as the bytes csv.writer over repr
    cells (fmt "csv") or json.dumps(rows, indent=1) and a newline (fmt
    "json") would write, one f-string per row."""
    rows = zip(_cell_texts(zs.real), _cell_texts(zs.imag),
               _cell_texts(vals.real), _cell_texts(vals.imag),
               _cell_texts(dil, _NAN[fmt]))
    if fmt == "csv":
        text = "x,y,re,im,dilatation\r\n" + "".join(
            [f"{x},{y},{re},{im},{d}\r\n" for x, y, re, im, d in rows])
    else:
        text = "[\n" + ",\n".join(
            [f' {{\n  "x": {x},\n  "y": {y},\n  "re": {re},\n  "im": {im},\n'
             f'  "dilatation": {d}\n }}' for x, y, re, im, d in rows]) + "\n]\n"
    _write_text(text, out_path)


def _write_text(text: str, out_path):
    """text to the file out_path as it is (no newline translation), or to
    stdout if out_path is None."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(v, pad: str = "\n") -> str:
    """``json.dumps(v, indent=1)``, spelled by one recursive join: the json
    module indents in pure Python, several times slower.  ``pad`` is the
    newline and indent of ``v``'s line.  Strings, finite floats, and
    non-empty dicts (string keys), lists and tuples are spelled here; other
    values by ``json.dumps``, whose spelling of them does not indent."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, float) and math.isfinite(v):
        return float.__repr__(v)
    inner = pad + " "
    if isinstance(v, dict) and v:
        return "{" + ",".join([inner + encode_basestring_ascii(k) + ": " + _json_text(x, inner)
                               for k, x in v.items()]) + pad + "}"
    if isinstance(v, (list, tuple)) and v:
        return "[" + ",".join([inner + _json_text(x, inner) for x in v]) + pad + "]"
    return json.dumps(v)


def cmd_extend(args) -> int:
    """Write the rows (x, y, re, im, dilatation) of the grid in grid order.
    Each method reads and checks only its own options, after the grid and
    the map file and before the points, and evaluates the whole grid in one
    array call.  The dilatation column is the closed form of ``family`` and
    ``ns`` (one array call too), NaN where that form is undefined, which
    ``_write_rows`` writes as an empty cell; it is all NaN for ``ba``, ``de``
    and for alpha = 0 on a map without a second derivative."""
    zs = analysis.half_plane_grid(args.x_min, args.x_max, args.y_min,
                                  args.y_max, args.nx, args.ny)
    dil = np.full(zs.shape, math.nan)
    if args.method == "de":
        vals = extend_de(circle_map_from_dict(description_from_file(args.map)), zs,
                         tol=args.tol, n_nodes=args.n_nodes)
    elif args.method == "ba":
        vals = extend_ba(map_from_file(args.map), zs, args.quad_tol, args.im_scale)
    else:
        f = map_from_file(args.map)
        if args.method == "ns":
            p, vals = ExtParams(1.0, 2.0), extend_ns(f, zs)
        else:
            p = ExtParams(args.a, args.alpha)
            vals = extend_family(p, f, zs)
        if p.alpha > 0 or f.has_second_deriv:
            dil, _ = analysis.dilatation_values(f, p, zs)
    _write_rows(zs, vals, dil, args.out, args.format)
    return EXIT_OK


# -- verify ------------------------------------------------------------------

def _check(label: str, value: float, threshold: float, invert: bool = False):
    ok = value >= threshold if invert else value <= threshold
    rel = ">=" if invert else "<="
    return (label, value, f"{rel} {threshold:g}", bool(ok))


def _suite_homomorphism(cfg, rng):
    grid = analysis.half_plane_grid()
    bound = 1e-10 * (1.0 + float(np.max(np.abs(grid))))
    for i in range(cfg["trials"]):
        f = random_bump_map(rng)
        g = random_bump_map(rng)
        p = random_group_params(rng)
        r = analysis.homomorphism_residual(p, f, g, grid)
        yield _check(f"homomorphism trial {i:02d}", r, bound)


def _suite_boundary(cfg, rng):
    ys = (1e-1, 1e-2, 1e-3)
    for i in range(cfg["trials"]):
        f = random_bump_map(rng)
        p = random_group_params(rng, a_range=(-1.0, 1.0), alpha_range=(0.5, 5.0))
        c = analysis.boundary_constant(p, f.deriv_hi)
        rs = analysis.boundary_residual(p, f, (-1.0, 1.0), ys)
        for y, r in zip(ys, rs.tolist()):
            yield _check(f"boundary trial {i:02d} y={y:g}", r / y, c)


def _suite_dilatation(cfg, rng):
    if cfg["expect"] == "not-quasiconformal":
        map_kind = cfg["map"]
        # any map but the cubic is checked at alpha = 0
        p = ExtParams(cfg["a"], cfg["alpha"] if map_kind == "cubic" else 0.0)
        if map_kind == "cubic":
            ys = np.geomspace(0.05, 1.0, 12)
            offs = np.linspace(-0.02, 0.02, 9)
            grid = (ys[:, None] * (1.0 + offs[None, :])
                    + 1j * ys[:, None]).ravel()
            sup = analysis.sup_dilatation(analysis.CubicMap(), p, grid)
        else:
            f = map_kind if isinstance(map_kind, RealMap) \
                else random_bump_map(rng, with_affine=False)
            grid = analysis.half_plane_grid(-0.9, 0.9, 1.0, 200.0, 15, 40)
            sup = analysis.sup_dilatation(f, p, grid)
        row = _check(f"supremum (expected not quasiconformal, alpha={p.alpha:g})",
                     sup, cfg["threshold"], invert=True)
        if row[3]:
            print("flag: not quasiconformal (supremum approaches 1)")
        yield row
        return
    for i in range(cfg["trials"]):
        f = random_bump_map(rng)
        pp = random_group_params(rng)
        sup = analysis.sup_dilatation(f, pp, analysis.half_plane_grid())
        bound = analysis.dilatation_bound(pp, *f.deriv_bounds())
        yield _check(f"dilatation trial {i:02d} sup vs certified bound",
                     sup, bound + 1e-9)
        z = complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.5))
        rep = analysis.compare_dilatation(f, pp, z, 1e-4)
        yield _check(f"dilatation trial {i:02d} numeric gap", rep.gap, 1e-5)


def _suite_pde(cfg, rng):
    quad = analysis.QuadraticWindowMap()
    r = analysis.pde_residual(quad, ExtParams(1.0, 2.0), 2.5 + 0.5j, h=5e-3)
    yield _check("wave equation on the quadratic window", r, 1e-8)
    for i in range(cfg["trials"]):
        f = random_bump_map(rng, with_affine=False)
        p = random_group_params(rng, a_range=(-1.0, 1.0), alpha_range=(0.5, 3.0))
        z = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.15))
        r1, r2 = analysis.pde_residual(f, p, z, h=(1e-3, 5e-4)).tolist()
        if r1 < 1e-6:
            # truncation below the h/2 roundoff floor: the ratio is not
            # measurable, but the residual itself is already tiny
            yield _check(f"pde trial {i:02d} residual (flat point)", r1, 1e-6)
        else:
            yield (f"pde trial {i:02d} ratio under h/2", r1 / r2,
                   "in [3.5, 4.5]", bool(3.5 <= r1 / r2 <= 4.5))


def _suite_group_action(cfg, rng):
    grid = analysis.half_plane_grid()
    e01 = functools.partial(extend_family, ExtParams(0.0, 1.0))
    for i in range(cfg["trials"]):
        f = random_bump_map(rng)
        p = random_group_params(rng, a_range=(-2.0, 2.0), alpha_range=(0.2, 5.0))
        lhs = act(p, e01, f, grid)
        rhs = extend_family(p, f, grid)
        r = float(np.max(np.abs(lhs - rhs)))
        yield _check(f"orbit identity trial {i:02d}", r, 1e-12)


def _suite_ba_naturality(cfg, rng):
    z0 = 0.4 + 0.8j
    r = abs(extend_ba(Affine(1.0, 0.0), z0, im_scale=1.0)
            - (z0.real + 0.5j * z0.imag))
    yield _check("printed normalization pins E(Id) = x + i y/2", r, QUAD_TOL)
    for i in range(cfg["trials"]):
        f = random_bump_map(rng, with_affine=False)
        g = Affine(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2.0, 2.0)))
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
        r = ba_affine_naturality_residual(f, g, z)
        yield _check(f"affine naturality trial {i:02d} (im_scale=2)",
                     r, 10.0 * QUAD_TOL)


def _suite_de_naturality(cfg, rng):
    zs = [0.0, 0.5, -0.5, 0.5j, -0.3 + 0.4j]
    for i in range(cfg["trials"]):
        m = MobiusAutomorphism(float(rng.uniform(0, 2 * math.pi)),
                               complex(*(rng.uniform(-0.42, 0.42, 2))))
        z = zs[i % len(zs)]
        r = abs(extend_de(m.boundary(), z) - m(z))
        yield _check(f"mobius fixing trial {i:02d}", r, 1e-6)
        f = CircleMap.from_fourier(float(rng.uniform(-0.3, 0.3)),
                                   cos_amps=rng.uniform(-0.05, 0.05, 2),
                                   sin_amps=rng.uniform(-0.05, 0.05, 2))
        for mode in ("post", "pre"):
            r = de_naturality_residual(f, m, z, mode=mode)
            yield _check(f"naturality ({mode}) trial {i:02d}", r, 1e-5)


def _suite_decompose(cfg, rng):
    eps0 = cfg["eps0"]
    for i in range(cfg["trials"]):
        f = random_bump_map(rng)
        fac = dc.decompose_bilip(f, eps0)
        worst = max(max(m.deriv_hi - 1.0, 1.0 - m.deriv_lo) for m in fac.factors)
        yield _check(f"decompose trial {i:02d} factor certification", worst, eps0)
        yield _check(f"decompose trial {i:02d} recomposition error",
                     fac.recomposition_error, dc.TOL)


_SUITES = {
    "homomorphism": (_suite_homomorphism, 25),
    "boundary": (_suite_boundary, 10),
    "dilatation": (_suite_dilatation, 10),
    "pde": (_suite_pde, 10),
    "group-action": (_suite_group_action, 20),
    "ba-naturality": (_suite_ba_naturality, 20),
    "de-naturality": (_suite_de_naturality, 8),
    "decompose": (_suite_decompose, 5),
}

# The most trials a verify run may ask for.
MAX_TRIALS = 1000


def _count(v, most=math.inf):
    if isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= most:
        return v


_COUNT = Field("a non-negative integer", _count, None)
_TRIALS = Field(f"a non-negative integer at most MAX_TRIALS = {MAX_TRIALS}",
                lambda v: _count(v, MAX_TRIALS), None)
_EXPECT = ("quasiconformal", "not-quasiconformal")
# the settings of a verify run: the --config object, then --trials and --seed
_CONFIG = {
    "trials": (_TRIALS, REQUIRED),  # the suite's default is filled in first
    "seed": (_COUNT, 0),
    "map": (Field('"random", "cubic" or a map description',
                  lambda v: v if v in ("random", "cubic") else MAP.check(v), None),
             "random"),
    "expect": (Field(" or ".join(map(repr, _EXPECT)),
                     lambda v: v if v in _EXPECT else None, None), "quasiconformal"),
    "a": (NUMBER, 1.0),
    "alpha": (NUMBER, 2.0),
    "threshold": (NUMBER, 0.999),
    "eps0": (NUMBER, 0.2),
}


def _fields_read(suite: str, cfg: dict) -> tuple[tuple, str]:
    """The config fields that a run of ``suite`` with the checked settings
    cfg reads, and the settings that narrow them down (for the error)."""
    if suite != "dilatation":
        return ("trials", "seed") + (("eps0",) if suite == "decompose" else ()), ""
    if cfg["expect"] == "quasiconformal":
        return ("trials", "seed", "expect"), " under expect 'quasiconformal'"
    if cfg["map"] == "cubic":
        return ("trials", "seed", "expect", "map", "a", "alpha", "threshold"), ""
    return (("trials", "seed", "expect", "map", "a", "threshold"),
            " for a map other than 'cubic', which is checked at alpha = 0")


def _load_config(args, default_trials: int) -> dict:
    cfg = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"malformed config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise DomainError("config must be a JSON object")
    for name in ("trials", "seed"):
        if getattr(args, name) is not None:
            cfg[name] = getattr(args, name)
    cfg.setdefault("trials", default_trials)
    checked = _checked(cfg, _CONFIG, "verify settings", other=())
    read, narrowed = _fields_read(args.suite, checked)
    unread = [name for name in cfg if name not in read]
    if unread:
        raise DomainError(f"verify settings: suite {args.suite!r} does not read "
                          f"field {unread[0]!r}{narrowed}")
    return checked


def cmd_verify(args) -> int:
    suite_fn, default_trials = _SUITES[args.suite]
    cfg = _load_config(args, default_trials)
    rng = np.random.default_rng(cfg["seed"])
    rows = list(suite_fn(cfg, rng))
    for label, value, bound, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'} {label}: {value:.6g} ({bound})")
    n_ok = sum(ok for *_, ok in rows)
    print(f"suite {args.suite}: {n_ok}/{len(rows)} checks passed")
    return EXIT_OK if n_ok == len(rows) else EXIT_CHECK_FAILED


# -- decompose / info ----------------------------------------------------------

def cmd_decompose(args) -> int:
    f = map_from_file(args.map)
    fac = dc.decompose_bilip(f, args.eps0, tol=args.tol)
    _write_text(_json_text(fac.to_dict()) + "\n", args.out)
    print(f"factors: {len(fac)}  recomposition error: "
          f"{fac.recomposition_error:.3g}  eps: {fac.eps:.6g}", file=sys.stderr)
    return EXIT_OK


def _describe(f: RealMap, indent: int = 0) -> list[str]:
    lo, hi = f.deriv_bounds()
    lines = [f"{'  ' * indent}{f.kind}: deriv in [{lo:.6g}, {hi:.6g}]"
             + ("" if f.bilipschitz else "  (not bi-Lipschitz)")]
    for child in f.children():
        lines += _describe(child, indent + 1)
    return lines


def cmd_info(args) -> int:
    f = map_from_file(args.map)
    lines = _describe(f)  # all or nothing: a failure prints no partial tree
    print("\n".join(lines))
    print(f"C^2: {f.has_second_deriv}")
    return EXIT_OK


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The ``qcext`` parser, with one subparser (prog ``qcext <command>``) each."""
    parser = argparse.ArgumentParser(
        prog="qcext",
        description="Quasiconformal boundary extensions: evaluate, verify, factor.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ext = sub.add_parser("extend", help="evaluate an extension on a grid")
    p_ext.add_argument("--map", required=True,
                       help="map description file (circle map for method de)")
    p_ext.add_argument("--method", choices=("family", "ns", "ba", "de"),
                       default="ns")
    p_ext.add_argument("--a", type=float, default=1.0)
    p_ext.add_argument("--alpha", type=float, default=2.0)
    p_ext.add_argument("--x-min", type=float, default=-2.0)
    p_ext.add_argument("--x-max", type=float, default=2.0)
    p_ext.add_argument("--y-min", type=float, default=1e-2)
    p_ext.add_argument("--y-max", type=float, default=2.0)
    p_ext.add_argument("--nx", type=int, default=20)
    p_ext.add_argument("--ny", type=int, default=20)
    p_ext.add_argument("--quad-tol", type=float, default=QUAD_TOL)
    p_ext.add_argument("--im-scale", type=float, default=IM_SCALE)
    p_ext.add_argument("--n-nodes", type=int, default=N_NODES)
    p_ext.add_argument("--tol", type=float, default=TOL)
    p_ext.add_argument("--out", default=None)
    p_ext.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ext.set_defaults(func=cmd_extend)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--trials", type=int, default=None)
    p_ver.add_argument("--config", default=None, help="JSON config file")
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decompose", help="factor a bi-Lipschitz map")
    p_dec.add_argument("--map", required=True)
    p_dec.add_argument("--eps0", type=float, required=True)
    p_dec.add_argument("--tol", type=float, default=dc.TOL)
    p_dec.add_argument("--out", default=None)
    p_dec.set_defaults(func=cmd_decompose)

    p_inf = sub.add_parser("info", help="describe a map file")
    p_inf.add_argument("--map", required=True)
    p_inf.set_defaults(func=cmd_info)
    return parser


# built once, at import: a call parses with it and builds no parser
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (DomainError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:  # deep nesting, or a long composition (a call per map)
        print("error: map description nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except QCExtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry():  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry()
