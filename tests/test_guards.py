"""One case per input guard that no other test reaches, each with its message."""

import re

import pytest

from secgenus.adjoint import (
    c2_lower_bound_check,
    check_multiple_bound,
    cubic_params,
    second_jump_expression,
)
from secgenus.binpoly import BinBasisPoly, coefficients_from_oracle
from secgenus.errors import AbstainError, InputError
from secgenus.genus import additivity_residual, chi_H_i, g1_closed, g2_adjoint_closed
from secgenus.semigroup import closure, guaranteed_threshold
from secgenus.suites import get_catalog
from secgenus.variety import DivisorClass, c2_pair, load_variety, parse_divisor

CATALOG = get_catalog()
P1, P3, X6 = CATALOG["P1"], CATALOG["P3"], CATALOG["X6"]
H = X6.divisor("1H")
H3 = P3.divisor("1H")


CASES = [
    ("dim 5", lambda: X6.replace(dim=5), InputError, "dimension must be 1..4, got 5"),
    (
        "negative hodge",
        lambda: X6.replace(hodge=(1, 0, -1, 0, 1)),
        InputError,
        "Hodge numbers must be non-negative",
    ),
    ("generator", lambda: X6.generator("Z"), InputError, "unknown generator 'Z' on X6"),
    (
        "parse_divisor",
        lambda: parse_divisor("2H*", ("H",)),
        InputError,
        "cannot parse divisor expression '2H*' at '*'",
    ),
    ("c2_pair on P1", lambda: c2_pair(P1, []), InputError, "c_2 pairings require dimension >= 2"),
    ("c2_pair count", lambda: c2_pair(X6, [H]), InputError, "need exactly 2 classes, got 1"),
    (
        "load_variety",
        lambda: load_variety("no/such/model.json"),
        InputError,
        "cannot read variety file no/such/model.json",
    ),
    ("g1_closed", lambda: g1_closed(P3, H3, H3, H3), InputError, "g1_closed is a 4-fold formula"),
    (
        "g2_adjoint_closed",
        lambda: g2_adjoint_closed(P3, H3),
        InputError,
        "g2_adjoint_closed is a 4-fold formula",
    ),
    (
        "second_jump_expression",
        lambda: second_jump_expression(P3, H3),
        InputError,
        "expression is 4-fold only",
    ),
    ("chi_H_i index", lambda: chi_H_i(X6, 5, []), InputError, "index i must be in 0..4, got 5"),
    (
        "chi_H_i bundles",
        lambda: chi_H_i(X6, 2, [H]),
        InputError,
        "need 2 bundles for i=2 on X6, got 1",
    ),
    (
        "additivity_residual index",
        lambda: additivity_residual(X6, 4, H, H, []),
        InputError,
        "index i must be in 1..3, got 4",
    ),
    (
        "additivity_residual rest",
        lambda: additivity_residual(X6, 1, H, H, []),
        InputError,
        "need 2 extra bundles, got 0",
    ),
    (
        "check_multiple_bound K+L",
        lambda: check_multiple_bound(X6.replace(canonical=DivisorClass((-2,)), kappa_x=0), H, 4),
        InputError,
        "K + L is not nef on X6 for L = 1H",
    ),
    (
        "c2_lower_bound_check A1",
        lambda: c2_lower_bound_check(X6, H, -H, H),
        AbstainError,
        "A1, A2 must be certified nef",
    ),
    (
        "cubic_params",
        lambda: cubic_params((1, 2, 3), 0),
        InputError,
        "need exactly the four coefficients (chi_0, ..., chi_3)",
    ),
    ("closure bound", lambda: closure([4, 5], 0), InputError, "bound must be at least 1"),
    (
        "guaranteed_threshold empty",
        lambda: guaranteed_threshold([]),
        InputError,
        "generator set must be nonempty",
    ),
    (
        "guaranteed_threshold zero",
        lambda: guaranteed_threshold([0, 3]),
        InputError,
        "generators must be positive",
    ),
    ("BinBasisPoly arity", lambda: BinBasisPoly(0, 1), InputError, "arity must be positive, got 0"),
    (
        "BinBasisPoly degree",
        lambda: BinBasisPoly(1, -1),
        InputError,
        "max_degree must be non-negative, got -1",
    ),
    (
        "backward_difference axis",
        lambda: BinBasisPoly(1, 2).backward_difference(1),
        InputError,
        "axis 1 out of range for arity 1",
    ),
    (
        "coefficients_from_oracle arity",
        lambda: coefficients_from_oracle(lambda: 0, 0, 2),
        InputError,
        "arity must be positive, got 0",
    ),
    (
        "coefficients_from_oracle degree",
        lambda: coefficients_from_oracle(lambda t: t, 1, -1),
        InputError,
        "max_degree must be non-negative, got -1",
    ),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
