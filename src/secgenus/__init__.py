"""Exact-arithmetic sectional genera and adjoint-bundle section counts.

The toolkit models a polarized variety of dimension at most 4 by its
numerical data (intersection form, canonical class, c_2 pairings, Hodge
numbers, nef cone, declared Kodaira dimensions), computes Euler
characteristics and sectional geometric genera exactly, and verifies the
adjoint-bundle difference formula and effective non-vanishing bounds
against independent section-count oracles.
"""

from .adjoint import (
    C2Check,
    CubicParams,
    DifferenceRequest,
    c2_lower_bound_check,
    check_multiple_bound,
    cubic_params,
    jump_rhs,
    difference_lhs,
    difference_rhs,
    nonvanishing_report,
    second_jump_expression,
    multiple_lower_bound,
)
from .binpoly import BinBasisPoly, binomial, coefficients_from_oracle
from .classify import AdjunctionLabel, classify, classify_variety, validate_invariants
from .errors import AbstainError, InputError, ModelError, OracleDegreeError, SecgenusError
from .genus import additivity_residual, chi_H_i, g1_closed, g2_adjoint_closed, g_i
from .hrr import chi_divisor, chi_multi, h0_certified
from .report import Check, VerificationReport
from .semigroup import (
    SemigroupSet,
    closure,
    coin_solve,
    empirical_min_r,
    guaranteed_threshold,
)
from .variety import (
    NEG_INF,
    DivisorClass,
    VarietyData,
    c2_pair,
    catalog_build,
    h0_exact,
    intersection_number,
    load_variety,
    save_variety,
    standard_catalog,
    validate,
    variety_from_json,
    variety_to_json,
)

__version__ = "0.1.0"
