"""Exact Hall-algebra computations on symmetric quivers.

Shuffle-model Hall products over exact rationals, generator counting by
linear algebra and by plethystic series factorization (two independent
routes to the quantum DT invariants Omega(gamma)(q)), the leg construction
for moment-map eigenvalue data, and the positive-root nonvanishing test.
"""

from .coha import basis, shuffle_product, twisted_product
from .dtseries import build_generating_series, dt_report, plethystic_factor
from .errors import DomainError, LimitExceededError, StructuralViolationError
from .freeness import decomposable_dim, prim_dims
from .legs import EigenData, LegData, attach_legs, is_generic, lambda_from_eigenvalues, sample_generic
from .poly import ColoredPoly, exact_divide, parse_colored_poly
from .quiver import (DimVector, Quiver, double, enumerate_dim_vectors, euler_form,
                     quiver_from_spec, sign_twist)
from .roots import RootCertificate, is_positive_root
from .series import HalfSeries, MultiSeries

__all__ = [
    "ColoredPoly", "DimVector",
    "DomainError", "EigenData",
    "HalfSeries", "LegData", "LimitExceededError", "MultiSeries",
    "Quiver", "RootCertificate",
    "StructuralViolationError", "attach_legs", "basis",
    "build_generating_series", "decomposable_dim", "double", "dt_report",
    "enumerate_dim_vectors", "euler_form", "exact_divide",
    "is_generic", "is_positive_root",
    "lambda_from_eigenvalues",
    "parse_colored_poly", "plethystic_factor", "prim_dims", "quiver_from_spec",
    "sample_generic", "shuffle_product", "sign_twist",
    "twisted_product",
]
