"""Adjunction-theoretic classification over declared Kodaira dimensions.

The classifier is a decision table: the declared value of
kappa(K + (n-2)L) splits polarized manifolds of dimension n >= 3 into
three groups (the low types through the second projective-bundle
reductions, the Mukai case, and the higher fibration/big-adjoint types),
and for 4-folds the declared kappa(K + L) refines the picture into the
two terminal branches (a second-reduction chain with nef value at most
one, or the explicit low-Kodaira list).  Nothing geometric is ever
computed: a model's ``variety.AdjointDeclaration`` for L and the
dimension n in, labels out, with hard consistency checks between the
declarations and any declared fine type.

Fine types use the standard numbering as opaque strings: "1" through
"7.9" for the main list, and dotted "4.x" strings for the terminal
low-Kodaira sublist, which this toolkit does not interpret further.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AbstainError, InputError
from .report import VerificationReport
from .variety import NEG_INF, AdjointDeclaration, DivisorClass, VarietyData

GROUP_LOW = ("1", "2", "3", "4", "5", "6", "7.1", "7.2", "7.3", "7.4")
GROUP_MUKAI = ("7.5",)
GROUP_HIGH = ("7.6", "7.7", "7.8", "7.9")
TH2_LOW_LIST = ("1", "2", "3", "4", "5", "6", "7.1", "7.5", "7.6", "7.7", "7.8")

GROUP_LOW_LABEL = "1-7.4"
GROUP_HIGH_LABEL = "7.6-7.9"


@dataclass(frozen=True)
class AdjunctionLabel:
    group: str
    exact: str | None
    th2: str | None
    certainty: str  # "exact" or "coarse-group"

    def to_string(self) -> str:
        if self.exact is not None:
            return self.exact
        if self.group == GROUP_LOW_LABEL:
            return GROUP_LOW_LABEL
        if self.th2 is not None:
            return self.th2
        return self.group


def _invariant_rules(decl: AdjointDeclaration, n: int) -> list[tuple]:
    """Range and monotonicity rules on the declarations, as (name, passed, expected, actual).

    Below dimension 3 only the dimension rule is listed.
    """
    if n < 3:
        return [("dimension >= 3", False, ">= 3", n)]
    rules = [("dimension >= 3", True, ">= 3", n)]
    for a, value in sorted(decl.kappa.items()):
        if value is None:
            continue
        in_range = value == NEG_INF or (isinstance(value, int) and 0 <= value <= n)
        rules.append((f"kappa(K+{a}L) in range", in_range, f"-inf or 0..{n}", value))
    declared = sorted((a, k) for a, k in decl.kappa.items() if k is not None)
    for (a1, k1), (a2, k2) in zip(declared, declared[1:]):
        rules.append((f"monotone kappa(K+{a1}L) <= kappa(K+{a2}L)", k1 <= k2, f"<= {k2}", k1))
    fine = decl.fine_type
    if fine is not None:
        known = fine in GROUP_LOW + GROUP_MUKAI + GROUP_HIGH or fine.startswith("4.")
        rules.append(("fine type known", known, "a listed type", fine))
    return rules


def validate_invariants(decl: AdjointDeclaration, n: int) -> VerificationReport:
    """Range and monotonicity checks on the declarations in dimension n, one row per rule."""
    report = VerificationReport(title="declared-invariants")
    for name, passed, expected, actual in _invariant_rules(decl, n):
        report.add(name, passed, expected=expected, actual=actual)
    return report


def _group_of(kappa_sub: "int | float") -> str:
    if kappa_sub == NEG_INF:
        return GROUP_LOW_LABEL
    if kappa_sub == 0:
        return "7.5"
    return GROUP_HIGH_LABEL


def classify(decl: AdjointDeclaration, n: int) -> AdjunctionLabel:
    """Coarsest label the declarations determine in dimension n; exact only when declared.

    Declarations that break a rule of ``validate_invariants`` raise an
    InputError naming every broken rule, read from the rules without a report.
    """
    failed = [name for name, passed, _, _ in _invariant_rules(decl, n) if not passed]
    if failed:
        raise InputError(f"invalid declared invariants: {'; '.join(failed)}")
    kappa_sub = decl.kappa.get(n - 2)
    if kappa_sub is None:
        raise AbstainError(f"kappa(K+{n - 2}L) is undeclared; the three-way split needs it")
    group = _group_of(kappa_sub)

    fine = decl.fine_type
    th2 = None
    if n == 4:
        kappa_low = decl.kappa.get(1)
        if kappa_low is not None:
            if kappa_low >= 0:
                th2 = "TH2-1"
            elif fine is not None and fine.startswith("4."):
                th2 = "TH2-2.2"
            elif fine is not None and fine in TH2_LOW_LIST:
                th2 = "TH2-2.1"
            else:
                th2 = "TH2-2"

    exact = None
    certainty = "coarse-group"
    if group == "7.5":
        exact = "7.5"
        certainty = "exact"
    if fine is not None:
        _check_fine_consistency(fine, group, decl, n)
        exact = fine
        certainty = "exact"
    return AdjunctionLabel(group=group, exact=exact, th2=th2, certainty=certainty)


def _check_fine_consistency(fine: str, group: str, decl: AdjointDeclaration, n: int) -> None:
    if fine.startswith("4."):
        if group != GROUP_HIGH_LABEL:
            raise InputError(
                f"terminal type {fine!r} needs kappa(K+{n - 2}L) >= 1, "
                f"but declarations give group {group}"
            )
        kappa_low = decl.kappa.get(1)
        if n == 4 and kappa_low is not None and kappa_low != NEG_INF:
            raise InputError(f"terminal type {fine!r} needs kappa(K+L) = -inf")
        return
    expected_group = (
        GROUP_LOW_LABEL if fine in GROUP_LOW else "7.5" if fine in GROUP_MUKAI else GROUP_HIGH_LABEL
    )
    if group != expected_group:
        raise InputError(
            f"declared fine type {fine!r} belongs to group {expected_group}, "
            f"but kappa declarations give {group}"
        )


def classify_variety(v: VarietyData, ell: DivisorClass) -> AdjunctionLabel:
    """Label from the model's declaration for L; an undeclared L classifies as declaring nothing.

    An L that is not ample is an InputError, raised before any declaration is read.
    """
    if not v.is_ample(ell):
        raise InputError(f"L = {v.divisor_string(ell)} is not ample on {v.name}")
    return classify(v.declaration_for(ell) or AdjointDeclaration({}), v.dim)
