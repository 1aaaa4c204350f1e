"""Effective non-vanishing bound suites.

For entries with non-negative declared Kodaira dimension the sections of
m(K+L) grow at least like (m-1)(m-2)(m^2+3m+6)/12 + 1, driven by the
recursion F(t) - F(t-1) >= (t-1)^2 on consecutive jumps.  The
second-multiple expression gives the quartic lower bound certifying
h^0(2(K+L)) > h^0(K+L) when kappa(X) >= 0.
"""

from fractions import Fraction

from secgenus import (
    c2_lower_bound_check,
    check_multiple_bound,
    nonvanishing_report,
    standard_catalog,
    second_jump_expression,
    multiple_lower_bound,
)

catalog = standard_catalog()

print("bound values:", {m: multiple_lower_bound(m) for m in range(2, 8)})
print()

x6 = catalog["X6"]
h = x6.divisor("1H")
report = check_multiple_bound(x6, h, 8)
print(report.to_table())

print("second-multiple expression (must be >= 111/192):")
for name in ("X6", "A4", "X7"):
    v = catalog[name]
    value = second_jump_expression(v, v.polarization)
    print(f"  {name}: {value}  (>= {Fraction(111, 192)}: {value >= Fraction(111, 192)})")
print()

# Case dispatch on the declared kappa(K+L).
print(nonvanishing_report(catalog["A4"], catalog["A4"].divisor("1L"), 6).to_table())

# The c_2 lower bounds against nef classes; the second inequality is an
# alternative branch and is reported without being asserted.
result = c2_lower_bound_check(x6, h, h, h)
print(f"c2 . H^2 = {result.lhs}  >= {result.rhs_main}? {result.holds_main}"
      f"   (alternative bound {result.rhs_alt}: {result.holds_alt})")
