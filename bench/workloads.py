"""Seeded inputs and output oracles for the three benchmark workloads.

Every op is a ``qcext`` CLI command (plus, for ``factorize``, a reload and
evaluation of its output).  The inputs come from ``numpy`` generators seeded
by the run's ``--seed``; the oracles evaluate the expected outputs here, with
numpy and scipy, independently of ``qcext``.

Each workload draws its ops in cycles with a fixed mix: the op kinds, grid
sides, ``eps0`` values, bumps per map and affine or not are the same in every
cycle, and the seed picks the maps, the other parameters and the order.  The
work of a run, and so its latency quantiles, then hardly depend on the seed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

BUMP_SLOPE_MAX = 96.0 * math.sqrt(5.0) / 125.0   # sup |p'| of p(t) = (1-t^2)^3
TWO_PI = 2.0 * math.pi

GRID_RTOL = 1e-12        # grid-extend: rows against the closed forms
BA_QUAD_TOL = 1e-10      # passed as --quad-tol; the oracle allows 10x
BA_SAMPLES = 4           # BA rows per op checked with scipy.integrate.quad
DE_TOL = 1e-6            # Mobius image error / defect at ORACLE_DE_NODES
ORACLE_DE_NODES = 8192
CLI_DE_NODES = 512       # the CLI's default --n-nodes
# The two known defects.  Inputs that trigger them are kept out of the
# measured ops, on which no op may fail, and go to the defect probes of
# ``SolverExtend.probes`` instead, which report them on every solver-extend run.
# A DE miss where the trapezoid aliasing estimate 2 pi N |z|^N of the CLI's
# N-node rule reaches KNOWN_DE_ALIASING is the near-circle defect (the solve
# meets its tolerance for the discretization only).  Measured DE grids stay
# within DE_RADIUS, where that estimate is below 1e-11.
KNOWN_DE_ALIASING = 1e-8
DE_RADIUS = (0.6, 0.93)
NEAR_CIRCLE_RADIUS = (0.97, 0.99)
# A BA miss at a point whose averaging window [x - y, x + y] holds a bump
# support edge, where the integrand is only C^2, and below KNOWN_BA_ERROR, is
# the kink defect: the embedded 16/8-point error estimate of adaptive_integral
# can undershoot there (about 1 row in 1000-4000 misses 10x quad_tol at the
# parent commit).  Measured BA maps have bumps whose supports hold every
# averaging window of the grid, so no window meets an edge.
KNOWN_BA_ERROR = 1e3 * BA_QUAD_TOL
# with centers in [-1, 1] the supports hold [-5.5, 5.5]; BA grids have |x| + y <= 5
BA_HALFWIDTHS = (6.5, 9.0)
RECOMPOSE_TOL = 1e-6
FOLLOW_POINTS = 1000     # factorize: points the reloaded recomposition is evaluated at
FOLLOW_RANGE = 8.0       # ... evenly spaced on [-FOLLOW_RANGE, FOLLOW_RANGE]
BUMP_MIX = (1, 2, 3, 2)  # bumps per map of the j-th op of a kind: BUMP_MIX[j % 4]
# Every cycle holds 15 equally frequent op classes, so that the median and
# the 90th percentile (class 7.5 and 13.5 of 15) fall inside a class rather
# than between two, where they would jump from run to run.
GRID_SIDES = (10, 14, 18, 22, 26)             # grid-extend, per method
BA_SIDES = (8, 9, 10, 12, 13, 14, 16)        # solver-extend
MOBIUS_SIDES = (10, 12, 14, 16)
FOURIER_SIDES = (4, 5, 6, 8)                  # the Fourier solve is the slowest


# -- maps --------------------------------------------------------------------

class LineMap:
    """Identity plus bumps A (1 - t^2)^3, t = (x - c)/h, optionally followed by
    an affine map; value and derivatives in closed form."""

    def __init__(self, bumps, slope=None, intercept=0.0):
        self.bumps = [tuple(map(float, b)) for b in bumps]   # (c, h, A)
        self.slope = slope
        self.intercept = intercept

    def describe(self) -> dict:
        core = {"kind": "identity-plus-bump",
                "bumps": [{"center": c, "halfwidth": h, "amplitude": a}
                          for c, h, a in self.bumps]}
        if self.slope is None:
            return core
        return {"kind": "composition", "maps": [
            {"kind": "affine", "slope": self.slope, "intercept": self.intercept},
            core]}

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        v, d1, d2 = x.copy(), np.ones_like(x), np.zeros_like(x)
        for c, h, a in self.bumps:
            t = (x - c) / h
            inside = np.abs(t) < 1.0
            u = np.where(inside, 1.0 - t * t, 0.0)
            v = v + a * u ** 3
            d1 = d1 - 6.0 * a / h * t * u ** 2
            d2 = d2 + 6.0 * a / h ** 2 * u * (5.0 * t * t - 1.0)
        if self.slope is not None:
            v, d1, d2 = self.slope * v + self.intercept, self.slope * d1, self.slope * d2
        return v, d1, d2

    def value(self, x):
        return self._parts(x)[0]

    def d1(self, x):
        return self._parts(x)[1]

    def d2(self, x):
        return self._parts(x)[2]

    def edges(self):
        return [e for c, h, _ in self.bumps for e in (c - h, c + h)]


def random_line_map(rng, n_bumps: int, affine: bool, total=None,
                    slopes=(0.8, 1.25), centers=(-3.0, 3.0),
                    halfwidths=(0.5, 2.0)) -> LineMap:
    """Bumps whose slope sups sum to ``total`` (default: drawn from 0.15-0.5),
    so the map is bi-Lipschitz; an affine map with slope in ``slopes`` after."""
    total = rng.uniform(0.15, 0.5) if total is None else total
    weights = rng.dirichlet(np.ones(n_bumps)) * total
    bumps = []
    for w in weights:
        h = rng.uniform(*halfwidths)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        bumps.append((rng.uniform(*centers), h, sign * w * h / BUMP_SLOPE_MAX))
    if not affine:
        return LineMap(bumps)
    return LineMap(bumps, float(rng.uniform(*slopes)), float(rng.uniform(-1.0, 1.0)))


def sigma_factor(a, alpha):
    return ((-1j + a) * (1j + a - alpha)) / ((1j + a) * (-1j + a - alpha))


# -- ops -----------------------------------------------------------------------

@dataclass
class Op:
    """One CLI command with what its oracle needs."""

    kind: str
    argv: list
    out: str
    spec: dict = field(default_factory=dict)
    input_text: str = ""
    follow: dict | None = None
    passed_digest: tuple | None = None   # output of a run that passed its oracle

    def message(self, trace: bool) -> dict:
        return {"argv": self.argv, "out": self.out, "follow": self.follow,
                "trace": trace}


@dataclass
class Verdict:
    """An op's check; ``known`` names the known defect a miss falls under."""

    ok: bool
    known: str = ""
    detail: str = ""


def _grid_args(g):
    return [f"--x-min={g['x_min']!r}", f"--x-max={g['x_max']!r}",
            f"--y-min={g['y_min']!r}", f"--y-max={g['y_max']!r}",
            f"--nx={g['n']}", f"--ny={g['n']}"]


def _grid_points(g):
    xs = np.linspace(g["x_min"], g["x_max"], g["n"])
    ys = np.geomspace(g["y_min"], g["y_max"], g["n"])
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _read_rows(path, fmt):
    """CLI rows as float arrays x, y, re, im, dilatation (nan where empty)."""
    def num(v):
        return math.nan if v in ("", None) else float(v)
    with open(path, encoding="utf-8") as fh:
        if fmt == "csv":
            rows = list(csv.reader(fh))
            if not rows or rows[0] != ["x", "y", "re", "im", "dilatation"]:
                raise ValueError("bad CSV header")
            data = [[num(c) for c in r] for r in rows[1:]]
        else:
            data = [[num(r[k]) for k in ("x", "y", "re", "im", "dilatation")]
                    for r in json.load(fh)]
    arr = np.array(data, dtype=float).reshape(-1, 5)
    return arr.T


def _close(got, ref, rtol):
    return np.abs(got - ref) <= rtol * np.maximum(1.0, np.abs(ref))


class Workload:
    name = ""
    cycle_len = 0

    def ops(self, rng, workdir):
        """Endless op stream, drawn one fixed-mix cycle at a time."""
        i = 0
        while True:
            for op in self.cycle(rng, workdir, i):
                yield op
                i += 1

    def cycle(self, rng, workdir, start):  # pragma: no cover
        raise NotImplementedError

    def probes(self, rng, workdir):
        """Ops that show known defects; run after the measured ops."""
        return []

    def check(self, op: Op, reply: dict) -> Verdict:
        if reply.get("rc") != 0:
            return Verdict(False, detail=f"exit {reply.get('rc')}: "
                                         f"{reply.get('err', '')[:200]}")
        try:
            return self.check_output(op, reply)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Verdict(False, detail=f"unreadable output: {exc}")

    def check_output(self, op: Op, reply: dict) -> Verdict:  # pragma: no cover
        raise NotImplementedError


def _check_grid(g, x, y):
    pts = _grid_points(g)
    if x.size != pts.size:
        return f"{x.size} rows, expected {pts.size}"
    if not (_close(x, pts.real, GRID_RTOL).all() and _close(y, pts.imag, GRID_RTOL).all()):
        return "grid coordinates differ"
    return ""


class GridExtend(Workload):
    """extend --method ns|family on bump/affine maps, GRID_SIDES points a side."""

    name = "grid-extend"
    cycle_len = 3 * len(GRID_SIDES)

    def cycle(self, rng, workdir, start):
        kinds = [(kind, side, BUMP_MIX[j % 4], j % 2 == 0)
                 for kind in ("ns", "family", "family0")
                 for j, side in enumerate(GRID_SIDES)]
        ops = []
        for j in rng.permutation(len(kinds)):
            kind, side, n_bumps, affine = kinds[j]
            f = random_line_map(rng, n_bumps, affine)
            g = {"x_min": float(rng.uniform(-4.0, -1.0)), "x_max": float(rng.uniform(1.0, 4.0)),
                 "y_min": float(rng.uniform(0.005, 0.05)), "y_max": float(rng.uniform(1.0, 3.0)),
                 "n": side}
            if kind == "ns":
                a, alpha, method = 1.0, 2.0, ["--method", "ns"]
            else:
                a = float(rng.uniform(-2.0, 2.0))
                alpha = 0.0 if kind == "family0" else float(rng.uniform(0.3, 4.0))
                method = ["--method", "family", f"--a={a!r}", f"--alpha={alpha!r}"]
            fmt = "csv" if (start + len(ops)) % 2 == 0 else "json"
            out = str(workdir / f"rows.{fmt}")
            mp = str(workdir / "map.json")
            ops.append(Op(kind, ["extend", "--map", mp, *method, *_grid_args(g),
                                 "--out", out, "--format", fmt], out,
                          {"map": f, "grid": g, "a": a, "alpha": alpha, "fmt": fmt,
                           "map_path": mp},
                          json.dumps(f.describe())))
        return ops

    def check_output(self, op, reply):
        s = op.spec
        x, y, re, im, dil = _read_rows(op.out, s["fmt"])
        bad = _check_grid(s["grid"], x, y)
        if bad:
            return Verdict(False, detail=bad)
        f, a, alpha = s["map"], s["a"], s["alpha"]
        if alpha > 0:
            u1, u2 = x + a * y, x - (alpha - a) * y
            f1, f2 = f.value(u1), f.value(u2)
            val = (1.0 - a / alpha) * f1 + (a / alpha) * f2 + 1j * (f1 - f2) / alpha
            theta = f.d1(u2) / f.d1(u1)
            ref_dil = np.abs(1.0 - theta) / np.abs(1.0 - sigma_factor(a, alpha) * theta)
        else:
            u = x + a * y
            d1, d2 = f.d1(u), f.d2(u)
            val = f.value(u) - a * y * d1 + 1j * y * d1
            scale = 1.0 + a * a
            ref_dil = scale * np.abs(y * d2) / np.abs(2.0 * d1 + 1j * scale * y * d2)
        ok = (_close(re, val.real, GRID_RTOL) & _close(im, val.imag, GRID_RTOL)
              & _close(dil, ref_dil, GRID_RTOL))
        if not ok.all():
            i = int(np.argmin(ok))
            return Verdict(False, detail=f"row {i} differs from the closed form")
        return Verdict(True)


class SolverExtend(Workload):
    """extend --method ba on bump maps and --method de on circle-fourier and
    circle-mobius maps, small grids.  ``probes`` holds the ops that show the
    two known defects; they are reported, not measured."""

    name = "solver-extend"
    cycle_len = len(BA_SIDES) + len(MOBIUS_SIDES) + len(FOURIER_SIDES)
    # A point where extend --method ba misses 10x quad_tol at the parent
    # commit: the window [x - y, x + y] holds the bump's support edge c + h.
    KINK_BUMP = (2.4504469541161686, 0.8210704678658265, 0.15429938754588912)
    KINK_POINT = (1.8735328585045128, 1.4064635803300563)

    def cycle(self, rng, workdir, start):
        slots = [("ba", s, (BUMP_MIX[j % 4], j % 2 == 0), 1.0 + (j // 4) % 2)
                 for j, s in enumerate(BA_SIDES)]
        for kind, sides in (("mobius", MOBIUS_SIDES), ("fourier", FOURIER_SIDES)):
            slots += [(kind, s, None, None) for s in sides]
        ops = []
        for j in rng.permutation(len(slots)):
            kind, side, flag, im_scale = slots[j]
            if kind == "ba":
                f = random_line_map(rng, *flag, centers=(-1.0, 1.0),
                                    halfwidths=BA_HALFWIDTHS)
                g = {"x_min": float(rng.uniform(-3.0, -1.0)), "x_max": float(rng.uniform(1.0, 3.0)),
                     "y_min": float(rng.uniform(0.01, 0.05)), "y_max": float(rng.uniform(0.5, 2.0)),
                     "n": side}
                sample = rng.choice(side * side, BA_SAMPLES, replace=False).tolist()
                ops.append(self._ba_op(workdir, f, g, sample, im_scale))
            else:
                ops.append(self._de_op(rng, workdir, kind, side, DE_RADIUS))
        return ops

    def probes(self, rng, workdir):
        """One op per known defect and circle map kind, checked like the
        measured ops: near-circle DE grids and the BA kink point."""
        x, y = self.KINK_POINT
        g = {"x_min": x, "x_max": x + 0.5, "y_min": y, "y_max": 1.5 * y, "n": 2}
        return [self._de_op(rng, workdir, "mobius", 8, NEAR_CIRCLE_RADIUS),
                self._de_op(rng, workdir, "fourier", 6, NEAR_CIRCLE_RADIUS),
                self._ba_op(workdir, LineMap([self.KINK_BUMP]), g, [0], 2.0)]

    @staticmethod
    def _ba_op(workdir, f, g, sample, im_scale):
        mp, out = str(workdir / "map.json"), str(workdir / "rows.csv")
        argv = ["extend", "--map", mp, "--method", "ba", *_grid_args(g),
                f"--quad-tol={BA_QUAD_TOL!r}", f"--im-scale={im_scale!r}", "--out", out]
        spec = {"map": f, "grid": g, "sample": sample, "im_scale": im_scale,
                "map_path": mp}
        return Op("ba", argv, out, spec, json.dumps(f.describe()))

    @staticmethod
    def _de_op(rng, workdir, kind, side, radius):
        mp, out = str(workdir / "map.json"), str(workdir / "rows.csv")
        r = float(rng.uniform(*radius))
        phi = float(rng.uniform(0.5, 1.1))
        xm = r * math.cos(phi)
        g = {"x_min": -xm, "x_max": xm, "y_min": float(rng.uniform(0.02, 0.08)),
             "y_max": r * math.sin(phi), "n": side}
        if kind == "mobius":
            desc = {"kind": "circle-mobius", "angle": float(rng.uniform(0.0, TWO_PI)),
                    "center": rng.uniform(-0.42, 0.42, 2).tolist()}
        else:
            desc = {"kind": "circle-fourier", "rotation": float(rng.uniform(-0.3, 0.3)),
                    "cos": rng.uniform(-0.05, 0.05, 2).tolist(),
                    "sin": rng.uniform(-0.05, 0.05, 2).tolist()}
        argv = ["extend", "--map", mp, "--method", "de", *_grid_args(g), "--out", out]
        return Op(kind, argv, out, {"circle": desc, "grid": g, "map_path": mp},
                  json.dumps(desc))

    def check_output(self, op, reply):
        s = op.spec
        x, y, re, im, _ = _read_rows(op.out, "csv")
        bad = _check_grid(s["grid"], x, y)
        if bad:
            return Verdict(False, detail=bad)
        if op.kind == "ba":
            return self._check_ba(s, x, y, re, im)
        z, w = x + 1j * y, re + 1j * im
        if op.kind == "mobius":
            d = s["circle"]
            c = complex(*d["center"])
            err = np.abs(w - np.exp(1j * d["angle"]) * (z - c) / (1.0 - np.conj(c) * z))
        else:
            err = fourier_defect(s["circle"], w, z)
        miss = ~(err <= DE_TOL)
        if not miss.any():
            return Verdict(True)
        r = np.abs(z[miss])
        near = (TWO_PI * CLI_DE_NODES * r ** CLI_DE_NODES >= KNOWN_DE_ALIASING).all()
        return Verdict(False, "de-near-circle" if near else "", f"{int(miss.sum())} points off by up to "
                                     f"{float(err[miss].max()):.3g} (|z| >= {float(r.min()):.4f})")

    @staticmethod
    def _check_ba(s, x, y, re, im):
        from scipy.integrate import quad

        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            return Verdict(False, detail="non-finite BA value")
        f = s["map"]
        edges = f.edges()
        misses = []
        for i in s["sample"]:
            xi, yi = float(x[i]), float(y[i])

            def integrand(t):
                return float(f.value(xi + t * yi))

            kinks = [(e - xi) / yi for e in edges if abs(e - xi) < yi]
            parts = []
            for lo, hi in ((0.0, 1.0), (-1.0, 0.0)):
                pts = [t for t in kinks if lo < t < hi]
                val, _ = quad(integrand, lo, hi, points=pts or None,
                              epsabs=1e-13, epsrel=1e-13, limit=200)
                parts.append(val)
            ref = 0.5 * (parts[0] + parts[1]) + 0.5j * s["im_scale"] * (parts[0] - parts[1])
            err = max(abs(re[i] - ref.real), abs(im[i] - ref.imag))
            if not err <= 10 * BA_QUAD_TOL:
                misses.append((i, err, bool(kinks)))
        if not misses:
            return Verdict(True)
        known = all(kink and err <= KNOWN_BA_ERROR for _, err, kink in misses)
        i, err, _ = max(misses, key=lambda m: m[1])
        return Verdict(False, "ba-kink" if known else "", f"BA row {i} differs from quad by {err:.3g}")


def fourier_lift(desc, theta):
    out = theta + desc.get("rotation", 0.0)
    for k, amp in enumerate(desc.get("cos", ()), start=1):
        out = out + amp * np.cos(k * theta)
    for k, amp in enumerate(desc.get("sin", ()), start=1):
        out = out + amp * np.sin(k * theta)
    return out


def fourier_defect(desc, w, z, n=ORACLE_DE_NODES, chunk=32):
    """|barycenter defect| of each w at its z, by the n-node trapezoid rule."""
    theta = np.arange(n) * (TWO_PI / n)
    zeta = np.exp(1j * theta)
    fv = np.exp(1j * fourier_lift(desc, theta))
    out = np.empty(w.size)
    for s in range(0, w.size, chunk):
        ww = w[s:s + chunk, None]
        kern = 1.0 / np.abs(zeta[None, :] - z[s:s + chunk, None]) ** 2
        vals = (ww - fv[None, :]) / (1.0 - np.conj(ww) * fv[None, :]) * kern
        out[s:s + chunk] = np.abs(vals.sum(axis=1) * (TWO_PI / n))
    return out


class Factorize(Workload):
    """decompose --eps0 in [0.05, 0.25] on bump maps, then reload the factors
    as one composition and evaluate it on FOLLOW_POINTS points.

    The factor count grows with log L / eps0, L the map's certified
    bi-Lipschitz constant, so each cycle pairs 15 eps0 values with fixed
    totals of the bumps' slopes.  The certificate sums the slopes of
    overlapping bumps and takes the largest of disjoint ones; the bumps of a
    map always overlap (centers within 2 of each other, halfwidths 2) and an
    affine factor is a translation, so L, and with it the factor count of an
    op, is fixed by its class and not by the seed.  The reloaded factors
    build their tables over the fixed evaluation range."""

    name = "factorize"
    cycle_len = 15
    EPS0 = tuple(0.05 + 0.2 * (j + 0.5) / 15 for j in range(15))
    SLOPE_TOTAL = tuple(0.15 + 0.35 * (j + 0.5) / 15
                        for j in (7, 14, 3, 10, 0, 12, 5, 9, 1, 13, 6, 11, 2, 8, 4))

    def cycle(self, rng, workdir, start):
        mp = str(workdir / "map.json")
        out = str(workdir / "factors.json")
        ops = []
        for j in rng.permutation(self.cycle_len).tolist():
            e = self.EPS0[j]
            f = random_line_map(rng, BUMP_MIX[j % 4], affine=j % 2 == 0,
                                total=self.SLOPE_TOTAL[j], slopes=(1.0, 1.0),
                                centers=(-1.0, 1.0), halfwidths=(2.0, 2.0))
            follow = {"factors": out, "lo": -FOLLOW_RANGE, "hi": FOLLOW_RANGE,
                      "n": FOLLOW_POINTS, "values": str(workdir / "values.npy")}
            ops.append(Op("decompose", ["decompose", "--map", mp, f"--eps0={e!r}",
                                        "--out", out], out,
                          {"map": f, "eps0": e, "map_path": mp},
                          json.dumps(f.describe()), follow))
        return ops

    def check_output(self, op, reply):
        s, fol = op.spec, op.follow
        gap = reply.get("cert_gap")
        if gap is None or not gap < s["eps0"]:
            return Verdict(False, detail=f"factor certifies only {gap} (eps0 {s['eps0']:.4g})")
        got = np.load(fol["values"])
        ref = s["map"].value(np.linspace(fol["lo"], fol["hi"], fol["n"]))
        err = np.abs(got - ref)
        if got.shape != ref.shape or not (err <= RECOMPOSE_TOL).all():
            return Verdict(False, detail=f"recomposition off by {float(np.nanmax(err)):.3g}")
        return Verdict(True)


WORKLOADS = {w.name: w for w in (GridExtend(), SolverExtend(), Factorize())}
