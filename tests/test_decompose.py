"""Tests for the near-identity factorization of bi-Lipschitz maps."""

import json
import math
from functools import reduce

import numpy as np
import pytest

from qcext.analysis import CubicMap
from qcext.decompose import (MAX_ROUNDS, Factorization, chosen_eps, decompose_bilip,
                             recompose)
from qcext.errors import DomainError
from qcext.realmap import (Affine, BUMP_SLOPE_MAX, BumpProfile, Composition,
                           IdentityPlusBump, PowerIntegral, RealMap, bump_map,
                           map_from_dict)
from conftest import make_bump_map


def certified_gap(m):
    lo, hi = m.deriv_bounds()
    return max(hi - 1.0, 1.0 - lo)


def test_eps_choice_satisfies_the_constraints():
    for eps0 in (0.05, 0.1, 0.25, 0.5, 0.9):
        eps = chosen_eps(eps0)
        assert 0 < eps < eps0
        assert eps0 > eps / (1.0 - eps)


def test_near_identity_map_is_a_single_factor():
    f = bump_map(0.0, 1.0, 0.05)  # slope gap ~ 0.086 < 0.2
    fac = decompose_bilip(f, 0.2)
    assert len(fac) == 1
    assert fac.factors[0] is f
    assert fac.recomposition_error == 0.0


def test_pure_scaling_closed_form():
    # L = 2, eps0 = 0.25 -> eps = 1/6; four rounds of slope-(7/6) scalings
    # plus the terminal remainder: five factors in total, no translation
    fac = decompose_bilip(Affine(2.0, 0.0), 0.25)
    assert math.isclose(fac.eps, 1.0 / 6.0)
    assert len(fac) == 5
    scalings = fac.factors[1:]
    for m in scalings:
        lo, hi = m.deriv_bounds()
        assert lo == pytest.approx(7.0 / 6.0, rel=1e-12)
        assert hi == pytest.approx(7.0 / 6.0, rel=1e-12)
    lo, hi = fac.factors[0].deriv_bounds()
    assert lo == pytest.approx(2.0 / (7.0 / 6.0) ** 4, rel=1e-12)
    # every factor is a scaling strictly within the eps budget
    for m in fac.factors:
        assert certified_gap(m) < 0.25
        assert 1.0 / (7.0 / 6.0) - 1e-12 <= m.deriv_lo <= 7.0 / 6.0 + 1e-12
    # recomposition has slope 2 again
    r = recompose(fac)
    assert (r(1.0) - r(0.0)) == pytest.approx(2.0, abs=1e-8)
    assert fac.recomposition_error <= 1e-8


def test_translation_emitted_as_affine_factor():
    f = Composition(Affine(1.0, 3.0), Affine(2.0, 0.0))  # 2x + 3
    fac = decompose_bilip(f, 0.25)
    t = fac.factors[0]
    assert t.kind == "affine"
    assert t.slope == 1.0 and t.intercept == pytest.approx(3.0)
    assert fac.recomposition_error <= 1e-8


def test_bump_map_roundtrip_and_certification():
    f = bump_map(0.0, 1.0, 0.4)
    fac = decompose_bilip(f, 0.2, tol=1e-6)
    for m in fac.factors:
        assert certified_gap(m) < 0.2
    r = recompose(fac)
    xs = np.linspace(-10.0, 10.0, 1000)
    assert np.max(np.abs(r(xs) - f(xs))) <= 1e-6


def test_factor_count_bound(rng):
    for _ in range(5):
        f = make_bump_map(rng)
        for eps0 in (0.1, 0.25):
            fac = decompose_bilip(f, eps0)
            b, B = f.deriv_bounds()
            L = max(B, 1.0 / b)
            if max(B - 1.0, 1.0 - b) < eps0:
                assert len(fac) == 1
                continue
            n_max = math.ceil(math.log(L) / math.log(1.0 + fac.eps)) + 2
            assert len(fac) <= n_max


def test_rounds_stay_below_the_bound_that_sizes_the_loop():
    # decompose_bilip runs at most ceil(log L / log(1 + eps)) rounds; each
    # lowers log L_k by log(1 + eps) and eps0 > eps, so one fewer always ends
    for s in (0.08, 0.7, 1.6, 12.0):
        for f in (Affine(s), Composition(Affine(s, 0.4), bump_map(0.3, 1.2, 0.2))):
            b, B = f.deriv_bounds()
            L = max(B, 1.0 / b)
            for eps0 in (0.05, 0.12, 0.3, 0.6):
                if max(B - 1.0, 1.0 - b) < eps0:
                    continue  # a single factor, no rounds
                fac = decompose_bilip(f, eps0)
                needed = math.ceil(math.log(L) / math.log(1.0 + fac.eps))
                rounds = len(fac) - 1 - (f(0.0) != 0.0)
                assert 1 <= rounds < needed, (s, f.kind, eps0)


def _bench_like_maps():
    """Overlapping bumps of halfwidth 2 near the origin, some translated."""
    out = []
    for k, total in enumerate((0.2, 0.35, 0.5)):
        centers = (-0.8, 0.3, 1.0)[:k + 1]
        bumps = [BumpProfile(c, 2.0, (-1) ** j * total / (k + 1) * 2.0 / BUMP_SLOPE_MAX)
                 for j, c in enumerate(centers)]
        f = IdentityPlusBump(bumps)
        out.append(f if k % 2 else Composition(Affine(1.0, 0.7 - k), f))
    return out


def test_recomposition_error_stays_near_rounding():
    for f in _bench_like_maps():
        for eps0 in (0.05, 0.15, 0.25):
            fac = decompose_bilip(f, eps0)
            assert fac.recomposition_error <= 1e-10
            xs = np.linspace(-8.0, 8.0, 1000)
            reloaded = recompose(Factorization(
                tuple(map_from_dict(m.to_dict()) for m in fac.factors),
                eps0, fac.eps, fac.recomposition_error))
            assert np.max(np.abs(reloaded(xs) - f(xs))) <= 1e-10


def test_round_reduction_is_geometric():
    # the certified constant of the power factors drops by (1 + eps) a round:
    # the k-th inner factor always certifies within (1/(1+eps), 1+eps)
    f = bump_map(0.0, 1.5, 0.45)
    fac = decompose_bilip(f, 0.15)
    eps = fac.eps
    for m in fac.factors[1:][::-1]:  # inner factors, inside out
        lo, hi = m.deriv_bounds()
        assert hi <= 1.0 + eps + 1e-12
        assert lo >= 1.0 / (1.0 + eps) - 1e-12


def test_contracting_map():
    fac = decompose_bilip(Affine(0.3, 0.0), 0.25)
    assert len(fac) >= 3
    for m in fac.factors:
        assert certified_gap(m) < 0.25
    r = recompose(fac)
    assert (r(1.0) - r(0.0)) == pytest.approx(0.3, abs=1e-8)


def test_serialization_roundtrip():
    f = bump_map(0.3, 1.0, 0.35)
    fac = decompose_bilip(f, 0.25)
    payload = fac.to_dict()
    assert payload["eps0"] == 0.25
    rebuilt = [map_from_dict(d) for d in payload["factors"]]
    xs = np.linspace(-5.0, 5.0, 200)
    out = xs.copy()
    for m in reversed(rebuilt):  # innermost first
        out = m(out)
    assert np.max(np.abs(out - f(xs))) <= 1e-6


def test_recompose_validates():
    with pytest.raises(DomainError):
        recompose(Factorization(factors=(), eps0=0.1, eps=0.05,
                                recomposition_error=0.0))
    single = Factorization(factors=(Affine(1.1, 0.0),), eps0=0.2,
                           eps=chosen_eps(0.2), recomposition_error=0.0)
    assert recompose(single) is single.factors[0]


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        decompose_bilip(Affine(2.0, 0.0), 0.0)
    with pytest.raises(DomainError):
        decompose_bilip(Affine(2.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        decompose_bilip(CubicMap(), 0.2)
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="tol must be positive"):
            decompose_bilip(Affine(2.0, 0.0), 0.2, tol=tol)
    with pytest.raises(DomainError, match="too small"):
        decompose_bilip(Affine(2.0, 0.0), 1e-17)


def test_round_count_is_bounded_before_any_round():
    # L = 2 and log 2 / log(1 + eps) = MAX_ROUNDS + 1/2: one round too many
    eps = 2.0 ** (1.0 / (MAX_ROUNDS + 0.5)) - 1.0
    eps0 = eps / (1.0 - 2.0 * eps)
    assert chosen_eps(eps0) == pytest.approx(eps, rel=1e-12)
    with pytest.raises(DomainError, match=f"about {MAX_ROUNDS + 1} rounds"):
        decompose_bilip(Affine(2.0, 0.0), eps0)


def _power_integrals(m):
    """The distinct PowerIntegral objects of the map tree under m."""
    seen, stack = {}, [m]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children())
    return [node for node in seen.values() if isinstance(node, PowerIntegral)]


def test_reloaded_factorization_builds_one_power_integral_per_exponent():
    f = Composition(Affine(1.3, 0.4), IdentityPlusBump([
        BumpProfile(-0.5, 1.5, 0.3 * 1.5 / BUMP_SLOPE_MAX),
        BumpProfile(1.0, 2.0, -0.2 * 2.0 / BUMP_SLOPE_MAX)]))
    descs = json.loads(json.dumps(decompose_bilip(f, 0.1).to_dict()))["factors"]
    whole = map_from_dict({"kind": "composition", "maps": descs})
    folded = reduce(Composition, [map_from_dict(d) for d in descs])
    exponents = {m.exponent for m in _power_integrals(whole)}
    assert len(exponents) > 3
    assert len(_power_integrals(whole)) == len(exponents)
    assert len(_power_integrals(folded)) == 2 * len(exponents)  # P and inside 1/P
    xs = np.linspace(-10.0, 10.0, 2001)
    assert np.array_equal(whole(xs), folded(xs))
    assert np.array_equal(whole.deriv(xs), folded.deriv(xs))


def test_reload_keeps_the_certified_bounds_of_every_factor():
    # a translated map's terminal factor reloads its prefix composition as a
    # new object, so only description equality sees that the chain rule cancels
    for f in _bench_like_maps():
        for eps0 in (0.05, 0.15, 0.25):
            fac = decompose_bilip(f, eps0)
            bounds = [m.deriv_bounds() for m in fac.factors]
            descs = json.loads(json.dumps(fac.to_dict()))["factors"]
            assert [map_from_dict(d).deriv_bounds() for d in descs] == bounds
            node = map_from_dict(descs[0] if len(descs) == 1
                                 else {"kind": "composition", "maps": descs})
            reloaded = []
            for _ in descs[1:]:  # the left fold, peeled from its innermost factor
                reloaded.append(node.inner)
                node = node.outer
            assert [m.deriv_bounds() for m in [node] + reloaded[::-1]] == bounds


def test_reload_compares_shared_factors_without_descriptions(monkeypatch):
    # a reload shares the parts of equal text, so the terminal factor's
    # prefix fold holds the factor objects of the power integral's base
    calls = []
    to_dict = RealMap.to_dict
    monkeypatch.setattr(RealMap, "to_dict", lambda m: calls.append(m) or to_dict(m))
    for f in _bench_like_maps():
        fac = decompose_bilip(f, 0.15)
        bounds = [m.deriv_bounds() for m in fac.factors]
        descs = json.loads(json.dumps(fac.to_dict()))["factors"]
        calls.clear()
        whole = map_from_dict({"kind": "composition", "maps": descs})
        assert calls == []
        assert [m.deriv_bounds() for m in whole.maps] == bounds


def test_a_factorization_is_the_tree_its_factor_file_reloads_to():
    # f is right-nested: the factors must be built on the tree a reload
    # builds, or the certified recomposition is not the map the file holds
    f = Composition(bump_map(0.2, 1.0, 0.3),
                    Composition(bump_map(-0.5, 0.7, -0.2), Affine(1.3, 0.1)))
    assert f(0.0) != 0.0
    fac = decompose_bilip(f, 0.1)
    assert len(fac) == 16
    descs = json.loads(json.dumps(fac.to_dict()))["factors"]
    xs = np.linspace(-8.0, 8.0, 2001)
    for m, d in zip(fac.factors, descs):
        reloaded = map_from_dict(d)
        assert np.array_equal(m(xs), reloaded(xs))
        assert np.array_equal(m.deriv(xs), reloaded.deriv(xs))
    r = recompose(fac)
    whole = map_from_dict({"kind": "composition", "maps": descs})
    assert np.array_equal(r(xs), whole(xs))
    assert np.array_equal(r.deriv(xs), whole.deriv(xs))


def test_a_single_factor_reloads_to_its_own_tree():
    # a near-identity map is returned as given: its description, nested
    # compositions included, must reload to that map, bounds and all
    f = Composition(bump_map(0.2, 1.0, 0.03),
                    Composition(bump_map(-0.5, 0.7, -0.02), Affine(1.01, 0.1)))
    fac = decompose_bilip(f, 0.2)
    assert fac.factors == (f,) and fac.recomposition_error == 0.0
    reloaded = map_from_dict(json.loads(json.dumps(fac.to_dict()))["factors"][0])
    xs = np.linspace(-8.0, 8.0, 2001)
    assert np.array_equal(f(xs), reloaded(xs))
    assert np.array_equal(f.deriv(xs), reloaded.deriv(xs))
    assert reloaded.deriv_bounds() == f.deriv_bounds()
