"""Factor a bi-Lipschitz map into certified near-identity factors.

Given f with certified slope bounds (b, B), let L = max(B, 1/b) and pick
eps < eps0 with eps0 > eps/(1 - eps) (deterministically eps = eps0/(1+2 eps0)).
Round k computes alpha_k = log(1+eps)/log L_{k-1} and splits off the power
integral of the running remainder, which shrinks the certified constant to
L_k = L_{k-1}/(1+eps); the rounds stop once L_N < 1 + eps0 and the remainder
itself becomes the outermost non-trivial factor.

Because the derivative of each remainder is a pure power of the original
slope at a pulled-back point, the round-k factor collapses to

    f_k = P_{gamma_k} o P_{gamma_{k-1}}^{-1},   P_g(x) = int_0^x f'(t)^g dt,

with gamma_k = gamma_{k-1} + (1 - gamma_{k-1}) alpha_k.  This is the same
recursion evaluated in flattened form: every factor needs one quadrature
table and one lazy monotone inversion instead of a nested tower (the
inversion brackets each preimage to one panel of P_{gamma_{k-1}}'s own
table and needs about three Newton passes), and the
chain-rule cancellation gives each factor the certified bounds
[b^{gamma_k - gamma_{k-1}}, B^{gamma_k - gamma_{k-1}}], strictly inside
(1 - eps0, 1 + eps0).

The normalization f(0) = 0 is restored by an explicit affine translation
factor (emitted only when f(0) != 0), so the full decomposition reads
f = T o g_N o f_N o ... o f_1, outermost first.  The rounds factor
``core`` = T^{-1} o f, the left fold of T^{-1} and the factors f lists
(``f.maps``), which a factor's description lists again.  Every description
reloads to its tree, so each factor, and the recomposition whose error is
certified, is bit for bit the map its description reloads to.

Each P_{gamma_k} is written twice in the serialized factors: as the outer
map of f_k and inside the inverse of f_{k+1}.  Reloading the factor list as
one ``composition`` description builds each once (``map_from_dict`` shares
equal parts of one description), so the reloaded recomposition has one
table per exponent, as the factorization itself does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DomainError, ToleranceFailure, require_positive
from .realmap import Affine, Composition, InverseMap, PowerIntegral, RealMap


@dataclass
class Factorization:
    """Ordered factors (outermost first) with the certified targets they met."""

    factors: tuple
    eps0: float
    eps: float
    recomposition_error: float

    def __len__(self):
        return len(self.factors)

    def to_dict(self) -> dict:
        return {
            "eps0": self.eps0,
            "eps": self.eps,
            "recomposition_error": self.recomposition_error,
            "factors": [m.to_dict() for m in self.factors],
        }


# The most rounds, and so factors, a factorization may ask for: the round
# count is about log L / log(1 + eps), L the certified bi-Lipschitz constant.
# The recomposition takes a stack frame per factor, and about 950 factors
# reach Python's default recursion limit.
MAX_ROUNDS = 500
TOL = 1e-6  # default bound on the recomposition error


def chosen_eps(eps0: float) -> float:
    """Deterministic eps < eps0 with eps0 > eps/(1 - eps)."""
    return eps0 / (1.0 + 2.0 * eps0)


def _certify_factor(m: RealMap, eps0: float):
    lo, hi = m.deriv_bounds()
    gap = max(hi - 1.0, 1.0 - lo)
    if not gap < eps0:
        raise ToleranceFailure(
            f"factor of kind '{m.kind}' certifies only ||f'-1|| <= {gap:.6g}, "
            f"not < {eps0:g}")


def decompose_bilip(f: RealMap, eps0: float, tol: float = TOL) -> Factorization:
    """Factor f into maps with certified ||f_j' - 1||_inf < eps0.

    The recomposition is checked against f at 1000 evenly spaced points of
    [-10, 10]; a sup-error above ``tol`` raises ToleranceFailure, and a
    ``tol`` that is not positive and finite raises DomainError.
    """
    if not 0 < eps0 < 1:
        raise DomainError(f"eps0 must lie in (0, 1), got {eps0}")
    require_positive("tol", tol)
    if not f.bilipschitz:
        raise DomainError("decomposition requires certified positive slope bounds")
    b, B = f.deriv_bounds()
    eps = chosen_eps(eps0)

    if max(B - 1.0, 1.0 - b) < eps0:
        return Factorization(factors=(f,), eps0=eps0, eps=eps,
                             recomposition_error=0.0)

    f0 = f(0.0)
    core = reduce(Composition, f.maps if f0 == 0.0 else [Affine(1.0, -f0), *f.maps])

    L = max(B, 1.0 / b)
    if not math.log(1.0 + eps) > 0:
        raise DomainError(f"eps0 {eps0:g} is too small: 1 + eps rounds to 1")
    needed = math.ceil(math.log(L) / math.log(1.0 + eps))
    if needed > MAX_ROUNDS:
        raise DomainError(f"eps0 {eps0:g} needs about {needed} rounds for a map with "
                          f"bi-Lipschitz constant {L:.6g}, more than "
                          f"MAX_ROUNDS = {MAX_ROUNDS}")
    gamma = 0.0
    pi_prev = None
    inner_factors = []
    L_k = L
    # each round lowers log L_k by log(1 + eps) < log(1 + eps0), so fewer
    # than `needed` rounds end below 1 + eps0 (were one short, the terminal
    # factor would fail its certificate)
    for _ in range(needed):
        if L_k < 1.0 + eps0:
            break
        alpha_k = math.log(1.0 + eps) / math.log(L_k)
        gamma_next = gamma + (1.0 - gamma) * alpha_k
        pi_gamma = PowerIntegral(core, gamma_next)
        if pi_prev is None:
            f_k = pi_gamma
        else:
            f_k = Composition(pi_gamma, InverseMap(pi_prev))
        _certify_factor(f_k, eps0)
        inner_factors.append(f_k)
        gamma, pi_prev = gamma_next, pi_gamma
        L_k = max(B ** (1.0 - gamma), (1.0 / b) ** (1.0 - gamma))

    g_terminal = Composition(core, InverseMap(pi_prev))
    _certify_factor(g_terminal, eps0)

    factors = []
    if f0 != 0.0:
        factors.append(Affine(1.0, f0))
    factors.append(g_terminal)
    factors.extend(reversed(inner_factors))

    recomposed = reduce(Composition, factors)
    xs = np.linspace(-10.0, 10.0, 1000)
    err = float(np.max(np.abs(recomposed(xs) - f(xs))))
    if err > tol:
        raise ToleranceFailure(
            f"recomposition error {err:.3g} exceeds tol {tol:g}")
    return Factorization(factors=tuple(factors), eps0=eps0, eps=eps,
                         recomposition_error=err)


def recompose(fac: Factorization) -> RealMap:
    """Left-to-right composition of the stored factors (outermost first)."""
    if not fac.factors:
        raise DomainError("factorization has no factors")
    return reduce(Composition, fac.factors)
