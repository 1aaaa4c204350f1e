"""Integer-valued polynomials in the binomial basis.

Euler characteristics of twists are polynomials with integer values at
every integer point, and such polynomials have *integer* coordinates
over the basis C(t+p-1, p).  This demo builds a few expansions by hand,
takes backward differences, and extracts coefficients from a black-box
oracle.
"""

from fractions import Fraction

from secgenus import BinBasisPoly, binomial, coefficients_from_oracle

# The basis functions evaluate through the polynomial extension of the
# binomial coefficient, so negative arguments are meaningful:
print("C(-2, 4) =", binomial(-2, 4), " (polynomial extension, not 0)")
print("C( 5, 4) =", binomial(5, 4))
print()

# C(t+4, 4) written over the basis has all coefficients equal to one.
p4_twists = BinBasisPoly(1, 4, {(p,): Fraction(1) for p in range(5)})
print("all-ones expansion at t = 1..5:", [int(p4_twists.eval((t,))) for t in range(1, 6)])

# A backward difference shifts every basis index down by one (Pascal).
diff = p4_twists.backward_difference(0)
print("coefficients after one difference:", sorted(diff.coeffs))
print()

# Coefficient extraction: feed any integer-point oracle; the expansion is
# computed from iterated differences on the grid {-n, ..., 0}^k and
# verified against the declared degree.
sextic = coefficients_from_oracle(lambda t: 2 + Fraction(t**4 + 15 * t**2, 4), 1, 4)
print("sextic hypersurface chi(tH) coefficients:",
      {k[0]: int(v) for k, v in sorted(sextic.coeffs.items())})
print("chi(2H) back from the expansion:", int(sextic.eval((2,))), " (the 21 monomials)")

# Integrality is the built-in sanity check: integer-valued oracles always
# produce integer coordinates.
print("integral?", sextic.is_integral())
