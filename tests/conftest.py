"""Shared deterministic generators for the test suite."""

import numpy as np
import pytest

from qcext.extensions import ExtParams
from qcext.realmap import (Affine, BUMP_SLOPE_MAX, BumpProfile, Composition,
                           IdentityPlusBump)


def make_bump_map(rng, max_bumps=3, slope_budget=0.5, affine_prob=0.5,
                  slope_range=(0.7, 1.5)):
    """Random certified bi-Lipschitz map built from bumps (and an affine)."""
    k = int(rng.integers(1, max_bumps + 1))
    total = float(rng.uniform(0.15, slope_budget))
    weights = rng.dirichlet(np.ones(k)) * total
    bumps = []
    for w in weights:
        width = float(rng.uniform(0.5, 2.0))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        bumps.append(BumpProfile(float(rng.uniform(-3.0, 3.0)), width,
                                 sign * w * width / BUMP_SLOPE_MAX))
    f = IdentityPlusBump(bumps)
    if rng.uniform() < affine_prob:
        f = Composition(Affine(float(rng.uniform(*slope_range)),
                               float(rng.uniform(-2.0, 2.0))), f)
    return f


def make_params(rng, a_range=(-2.0, 2.0), alpha_range=(0.3, 4.0)):
    return ExtParams(float(rng.uniform(*a_range)), float(rng.uniform(*alpha_range)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
