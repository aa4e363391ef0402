"""Quasiconformal boundary extensions on the half-plane and disk.

A numerical library (and CLI) for the two-parameter shear-extension family
of boundary maps, the classical Beurling-Ahlfors and Douady-Earle extension
operators, closed-form and finite-difference dilatation analysis, and the
factorization of bi-Lipschitz line maps into certified near-identity pieces.
"""

from .errors import (DomainError, NonConvergence, QCExtError,
                     QuadratureFailure, ToleranceFailure)
from .realmap import (Affine, BumpProfile, BUMP_SLOPE_MAX, Composition,
                      IdentityPlusBump, InverseMap, PowerIntegral, RealMap,
                      SampledMonotone, Tapered, bump_map, map_from_dict,
                      map_from_file)
from .extensions import (ExtParams, act, extend_family, extend_ns, group_inv,
                         group_mul, shear)
from .beurling_ahlfors import ba_affine_naturality_residual, extend_ba
from .douady_earle import (CircleMap, MobiusAutomorphism, circle_map_from_dict,
                           compose_circle, de_defect, de_naturality_residual,
                           extend_de)
from .analysis import (CubicMap, QuadraticWindowMap, boundary_constant,
                       boundary_residual, compare_dilatation,
                       dilatation_analytic, dilatation_bound, dilatation_numeric,
                       estimate_m, half_plane_grid, homomorphism_residual,
                       m_ratio, pde_matrix, pde_residual, sigma_factor,
                       sup_dilatation)
from .decompose import Factorization, chosen_eps, decompose_bilip, recompose

from types import ModuleType as _Module

import numpy as _np

# glibc's malloc raises its mmap threshold to the size of the largest mapped
# block freed so far, and its heap trim threshold to twice that.  At the
# 128 KiB defaults the ~100 KiB numpy temporaries of the quadrature and disk
# solves are mapped, or trimmed off the heap, and faulted in again on every
# use (decomposing a two-bump map and evaluating its factors took ~106k
# page faults, ~10 after this).  Freeing one untouched 8 MiB block here
# raises both once; other allocators just map and unmap it.
_np.empty(8 << 20, dtype=_np.uint8)

__version__ = "0.1.0"

# the public names, without the submodules the imports above bind
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _Module)]
