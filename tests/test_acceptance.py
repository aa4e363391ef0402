"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
residuals and timings.  Every tolerance is pinned here; the final test checks
the whole-suite runtime budget.
"""

import math
import time

import numpy as np
import pytest

from qcext.analysis import (CubicMap, QuadraticWindowMap, boundary_constant,
                            boundary_residual, compare_dilatation,
                            half_plane_grid, pde_residual, sigma_factor,
                            sup_dilatation)
from qcext.beurling_ahlfors import (QUAD_TOL, ba_affine_naturality_residual,
                                    extend_ba)
from qcext.decompose import decompose_bilip, recompose
from qcext.douady_earle import CircleMap, MobiusAutomorphism, de_defect, extend_de
from qcext.extensions import (ExtParams, act, extend_family, family_extension)
from qcext.realmap import (Affine, BUMP_SLOPE_MAX, BumpProfile, Composition,
                           IdentityPlusBump, bump_map, identity)

_TIMES = {}


def _timed(name):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            _TIMES[name] = self.elapsed
            return False
    return _Ctx()


def _report(num, label, detail, elapsed):
    print(f"[PASS] criterion {num:2d} ({label}): {detail} [{elapsed:.2f} s]")


def _random_bump_map(rng, budget=0.5, affine_prob=0.5,
                     slope_range=(0.7, 1.5)):
    k = int(rng.integers(1, 4))
    total = float(rng.uniform(0.15, budget))
    weights = rng.dirichlet(np.ones(k)) * total
    bumps = []
    for w in weights:
        width = float(rng.uniform(0.5, 2.0))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        bumps.append(BumpProfile(float(rng.uniform(-3, 3)), width,
                                 sign * w * width / BUMP_SLOPE_MAX))
    f = IdentityPlusBump(bumps)
    if rng.uniform() < affine_prob:
        f = Composition(Affine(float(rng.uniform(*slope_range)),
                               float(rng.uniform(-2.0, 2.0))), f)
    return f


def test_criterion_01_affine_fixing():
    rng = np.random.default_rng(101)
    grid = half_plane_grid()  # 20 x 20
    worst = 0.0
    with _timed("c1") as t:
        for i in range(100):
            a = float(rng.uniform(-3.0, 3.0))
            alpha = 0.0 if i % 10 == 0 else float(rng.uniform(0.05, 10.0))
            slope = float(rng.uniform(0.1, 5.0))
            intercept = float(rng.uniform(-5.0, 5.0))
            vals = extend_family(ExtParams(a, alpha), Affine(slope, intercept), grid)
            worst = max(worst, float(np.max(np.abs(vals - (slope * grid + intercept)))))
    assert worst <= 1e-12
    assert t.elapsed < 1.0
    _report(1, "affine fixing P2", f"max residual {worst:.3g} <= 1e-12", t.elapsed)


def test_criterion_02_homomorphism():
    rng = np.random.default_rng(102)
    grid = half_plane_grid()
    bound = 1e-10 * (1.0 + np.abs(grid))
    worst_margin = 0.0
    with _timed("c2") as t:
        for _ in range(10):
            p = ExtParams(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 4.0)))
            for _ in range(10):
                f = _random_bump_map(rng)
                g = _random_bump_map(rng)
                lhs = extend_family(p, Composition(f, g), grid)
                rhs = extend_family(p, f, extend_family(p, g, grid))
                resid = np.abs(lhs - rhs)
                assert np.all(resid <= bound)
                worst_margin = max(worst_margin, float(np.max(resid / bound)))
    assert t.elapsed < 10.0
    _report(2, "homomorphism P3",
            f"100 pairs x 10 params, worst residual at {worst_margin:.3g} of bound",
            t.elapsed)


def test_criterion_03_group_action_orbit():
    rng = np.random.default_rng(103)
    grid = half_plane_grid()
    e01 = family_extension(ExtParams(0.0, 1.0))
    worst = 0.0
    with _timed("c3") as t:
        for _ in range(50):
            f = _random_bump_map(rng)
            p = ExtParams(float(rng.uniform(-2, 2)), float(rng.uniform(0.2, 5.0)))
            sup = float(np.max(np.abs(act(p, e01, f, grid)
                                      - extend_family(p, f, grid))))
            worst = max(worst, sup)
    assert worst <= 1e-12
    assert t.elapsed < 5.0
    _report(3, "group-action orbit", f"max residual {worst:.3g} <= 1e-12", t.elapsed)


def test_criterion_04_dilatation_formula():
    rng = np.random.default_rng(104)
    worst_gap = 0.0
    ratios = []
    with _timed("c4") as t:
        cases = 0
        while cases < 50:
            f = _random_bump_map(rng, affine_prob=0.3)
            p = ExtParams(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(0.4, 4.0)))
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 1.5))
            r1 = compare_dilatation(f, p, z, 1e-3)
            if r1.gap < 1e-9:  # flat spot: no truncation term to measure
                continue
            r2 = compare_dilatation(f, p, z, 5e-4)
            ratio = r1.gap / r2.gap
            ratios.append(ratio)
            assert 3.5 <= ratio <= 4.5
            gap4 = compare_dilatation(f, p, z, 1e-4).gap
            worst_gap = max(worst_gap, gap4)
            assert gap4 <= 1e-5
            cases += 1
    assert t.elapsed < 10.0
    _report(4, "dilatation formula",
            f"50 cases, ratio range [{min(ratios):.2f}, {max(ratios):.2f}], "
            f"max gap at h=1e-4: {worst_gap:.3g} <= 1e-5", t.elapsed)


def test_criterion_05_sigma_values():
    rng = np.random.default_rng(105)
    with _timed("c5") as t:
        assert abs(sigma_factor(ExtParams(1.0, 2.0)) - (-1.0)) <= 1e-14
        for a in (-3.0, 0.0, 0.7, 11.0):
            assert abs(sigma_factor(ExtParams(a, 0.0)) - 1.0) <= 1e-14
        worst = 0.0
        for _ in range(1000):
            p = ExtParams(float(rng.uniform(-20, 20)), float(rng.uniform(0, 20)))
            worst = max(worst, abs(abs(sigma_factor(p)) - 1.0))
        assert worst <= 1e-12
    _report(5, "sigma factor",
            f"pinned values exact; worst |.|-1 deviation {worst:.3g} <= 1e-12",
            t.elapsed)


def test_criterion_06_uniform_quasiconformality_bound():
    rng = np.random.default_rng(106)
    p = ExtParams(1.0, 2.0)
    grid = half_plane_grid()
    worst = 0.0
    with _timed("c6") as t:
        for _ in range(25):
            f = Composition(Affine(float(rng.uniform(0.75, 1.33)), float(rng.uniform(-1, 1))),
                            _random_bump_map(rng, budget=0.33, affine_prob=0.0))
            lo, hi = f.deriv_bounds()
            assert 0.5 <= lo and hi <= 2.0  # certified pinch
            worst = max(worst, sup_dilatation(f, p, grid))
        assert worst <= 0.6 + 1e-9
    _report(6, "uniform dilatation bound",
            f"grid supremum {worst:.6f} <= 0.6 + 1e-9 for f' in [1/2, 2]",
            t.elapsed)


def test_criterion_07_non_quasiconformality_witnesses():
    with _timed("c7") as t:
        # (i) cubic boundary map under the (1, 2) member, near z = y + iy
        ys = np.geomspace(0.05, 1.0, 12)
        offs = np.linspace(-0.02, 0.02, 9)
        grid = (ys[:, None] * (1.0 + offs[None, :]) + 1j * ys[:, None]).ravel()
        sup_cubic = sup_dilatation(CubicMap(), ExtParams(1.0, 2.0), grid)
        assert sup_cubic >= 0.999
        # (ii) alpha = 0 with a non-affine C^2 map on a refining grid
        f = bump_map(0.0, 1.0, 0.3)
        sups = [sup_dilatation(f, ExtParams(0.0, 0.0),
                               half_plane_grid(-0.9, 0.9, 0.5, y_top, 11, 31))
                for y_top in (5.0, 50.0, 500.0)]
        assert all(s2 >= s1 for s1, s2 in zip(sups, sups[1:]))
        assert all(s < 1.0 for s in sups)
        assert sups[-1] >= 0.99
    _report(7, "non-quasiconformal witnesses",
            f"cubic sup {sup_cubic:.5f} >= 0.999; alpha=0 refining sups "
            + " -> ".join(f"{s:.4f}" for s in sups) + " >= 0.99", t.elapsed)


def test_criterion_08_pde_characterization():
    rng = np.random.default_rng(108)
    with _timed("c8") as t:
        quad = QuadraticWindowMap()
        wave = pde_residual(quad, ExtParams(1.0, 2.0), 2.5 + 0.5j, h=5e-3)
        assert wave <= 1e-8
        ratios = []
        trials = 0
        while trials < 10:
            f = _random_bump_map(rng, affine_prob=0.0)
            p = ExtParams(float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 3.0)))
            z = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.05, 0.15))
            r1 = pde_residual(f, p, z, h=1e-3)
            if r1 < 1e-6:  # truncation below the h/2 roundoff floor
                continue
            r2 = pde_residual(f, p, z, h=5e-4)
            ratio = r1 / r2
            ratios.append(ratio)
            assert 3.5 <= ratio <= 4.5
            trials += 1
    _report(8, "PDE characterization",
            f"wave-equation residual {wave:.3g} <= 1e-8; decay ratios in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}]", t.elapsed)


def test_criterion_09_factorization():
    rng = np.random.default_rng(109)
    worst_roundtrip = 0.0
    with _timed("c9") as t:
        for i in range(20):
            f = Composition(Affine(float(rng.uniform(0.55, 1.9)),
                                   float(rng.uniform(-1.5, 1.5))),
                            _random_bump_map(rng, budget=0.45, affine_prob=0.0))
            b, hi = f.deriv_bounds()
            L = max(hi, 1.0 / b)
            assert L <= 4.0
            for eps0 in (0.1, 0.25):
                fac = decompose_bilip(f, eps0, tol=1e-6)
                for m in fac.factors:
                    assert max(m.deriv_hi - 1.0, 1.0 - m.deriv_lo) < eps0
                n_max = math.ceil(math.log(L) / math.log(1.0 + fac.eps)) + 2
                assert len(fac) <= n_max
                xs = rng.uniform(-10.0, 10.0, 250)
                err = float(np.max(np.abs(recompose(fac)(xs) - f(xs))))
                worst_roundtrip = max(worst_roundtrip, err)
                assert err <= 1e-6
    assert t.elapsed < 60.0
    _report(9, "factorization",
            f"20 maps x eps0 in {{0.1, 0.25}}: all factors certified, "
            f"worst round-trip {worst_roundtrip:.3g} <= 1e-6", t.elapsed)


def test_criterion_10_beurling_ahlfors():
    rng = np.random.default_rng(110)
    natural = dict(im_scale=2.0)
    printed = dict(im_scale=1.0)
    qtol = QUAD_TOL
    with _timed("c10") as t:
        worst_fix = 0.0
        for _ in range(10):
            a, b = float(rng.uniform(0.3, 3.0)), float(rng.uniform(-2, 2))
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
            worst_fix = max(worst_fix, abs(extend_ba(Affine(a, b), z, **natural)
                                           - (a * z + b)))
        assert worst_fix <= 2 * qtol
        worst_nat = 0.0
        for _ in range(50):
            f = _random_bump_map(rng, affine_prob=0.0)
            g = Affine(float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2, 2)))
            z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
            worst_nat = max(worst_nat, ba_affine_naturality_residual(f, g, z, **natural))
        assert worst_nat <= 10 * qtol
        worst_id = 0.0
        for z in (0.5 + 1.0j, -1.0 + 0.25j, 0.0 + 2.0j):
            v = extend_ba(identity(), z, **printed)
            worst_id = max(worst_id, abs(v.imag - 0.5 * z.imag))
        assert worst_id <= qtol
    _report(10, "averaged extension",
            f"affine fixing {worst_fix:.3g}; naturality {worst_nat:.3g} <= "
            f"{10 * qtol:g}; printed-scale identity pins Im = y/2 "
            f"({worst_id:.3g} <= {qtol:g})", t.elapsed)


def test_criterion_11_douady_earle():
    rng = np.random.default_rng(111)
    zs = (0.0, 0.5, -0.5, 0.5j, -0.3 + 0.4j)
    with _timed("c11") as t:
        worst_fix = 0.0
        for _ in range(20):
            r = float(rng.uniform(0.0, 0.6))
            ang = float(rng.uniform(0, 2 * math.pi))
            m = MobiusAutomorphism(float(rng.uniform(0, 2 * math.pi)),
                                   r * complex(math.cos(ang), math.sin(ang)))
            fm = m.boundary()
            for z in zs:
                worst_fix = max(worst_fix, abs(extend_de(fm, z, n_nodes=512) - m(z)))
        assert worst_fix <= 1e-6
        # Newton within budget for near-identity maps, defect re-checked
        worst_defect = 0.0
        for _ in range(10):
            f = CircleMap.from_fourier(float(rng.uniform(-0.3, 0.3)),
                                       cos_amps=rng.uniform(-0.05, 0.05, 3),
                                       sin_amps=rng.uniform(-0.05, 0.05, 3))
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            w = extend_de(f, z, tol=1e-10)
            worst_defect = max(worst_defect, abs(de_defect(f, w, z, 512)))
        assert worst_defect <= 1e-10
        worst_nat = 0.0
        from qcext.douady_earle import de_naturality_residual
        for _ in range(5):
            f = CircleMap.from_fourier(float(rng.uniform(-0.3, 0.3)),
                                       cos_amps=rng.uniform(-0.04, 0.04, 2),
                                       sin_amps=rng.uniform(-0.04, 0.04, 2))
            r = float(rng.uniform(0.0, 0.45))
            ang = float(rng.uniform(0, 2 * math.pi))
            m = MobiusAutomorphism(float(rng.uniform(0, 2 * math.pi)),
                                   r * complex(math.cos(ang), math.sin(ang)))
            z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            for mode in ("pre", "post"):
                worst_nat = max(worst_nat,
                                de_naturality_residual(f, m, z, mode=mode))
        assert worst_nat <= 1e-5
    _report(11, "barycentric extension",
            f"Mobius fixing {worst_fix:.3g} <= 1e-6; solver defect "
            f"{worst_defect:.3g} <= 1e-10 within 50 iters; naturality "
            f"{worst_nat:.3g} <= 1e-5", t.elapsed)


def test_criterion_12_boundary_limit():
    rng = np.random.default_rng(112)
    worst_frac = 0.0
    with _timed("c12") as t:
        for _ in range(20):
            f = _random_bump_map(rng)
            p = ExtParams(float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.5, 5.0)))
            c = boundary_constant(p, f.deriv_hi)
            for y in (1e-1, 1e-2, 1e-3):
                resid = boundary_residual(p, f, (-1.0, 1.0), y)
                assert resid <= c * y
                worst_frac = max(worst_frac, resid / (c * y))
    _report(12, "boundary limit P1",
            f"residual(y)/y stays within the Lipschitz constant "
            f"(worst fraction {worst_frac:.3f})", t.elapsed)


def test_total_runtime_budget():
    total = sum(_TIMES.values())
    print(f"[PASS] total acceptance runtime {total:.1f} s < 180 s")
    assert total < 180.0
