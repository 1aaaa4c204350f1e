"""The adjoint-bundle difference formula, checked two ways.

The jump h^0(K + L_1 + ... + L_m + L) - h^0(K + L_1 + ... + L_m) equals
a signed sum of sectional genera over index subsets.  The left side is
computed from certified section counts (vanishing rule or family
oracle), the right side from genus extractions; they must agree exactly.
"""

from secgenus import DifferenceRequest, jump_rhs, h0_certified, difference_lhs, difference_rhs, standard_catalog

catalog = standard_catalog()

p4 = catalog["P4"]
req = DifferenceRequest.build(p4, [p4.divisor("6H")], p4.divisor("1H"))
print("P4 with one degree-six bundle and a hyperplane:")
print("  genus side        =", difference_rhs(req))
print("  section-count side=", difference_lhs(req), " (h^0(2H) - h^0(H) = 15 - 5)")
print()

x6 = catalog["X6"]
h = x6.divisor("1H")
req = DifferenceRequest.build(x6, [h, 2 * h], h)
print("X6 with bundles H, 2H and nef twist H:")
print("  genus side        =", difference_rhs(req))
print("  section-count side=", difference_lhs(req))
print()

# Specialising to consecutive multiples of K + L gives a two-genus
# expression for each jump.
print("consecutive jumps of h^0(m(K+L)) on X6 (K = 0, L = H):")
counts = {m: h0_certified(x6, m * h)[0] for m in range(1, 7)}
for m in range(2, 7):
    print(f"  m = {m}: genus side {jump_rhs(x6, h, m):4d}"
          f"   oracle {counts[m]} - {counts[m - 1]} = {counts[m] - counts[m - 1]:4d}")
