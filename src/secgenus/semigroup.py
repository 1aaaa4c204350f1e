"""Numerical-semigroup utilities for the non-vanishing bookkeeping.

Positive multiples with sections are closed under addition (the
superadditivity h^0(D_1 + D_2) >= h^0(D_1) + h^0(D_2) - 1 for effective
divisors), so "which multiples are known to have sections" is a
numerical-semigroup question.  This module provides the additive closure
up to a cutoff, the coprime-pair coin solver with its classical
(p-1)(q-1) threshold, the guaranteed all-members-beyond threshold of a
generating set, and the empirical minimum over a list of polarized
entries, whose counts come from ``hrr.h0_certified`` alone.  A closure may
be empty (no generator within the bound); membership bisects the sorted
members.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .errors import InputError
from .hrr import h0_certified
from .variety import DivisorClass, VarietyData

CLOSURE_MAX_BOUND = 10**7  # the largest bound ``closure`` allocates flags for


@dataclass(frozen=True)
class SemigroupSet:
    """A finite, additively closed set of positive integers up to a bound."""

    members: tuple[int, ...]

    def __contains__(self, value: int) -> bool:
        i = bisect_left(self.members, value)
        return i < len(self.members) and self.members[i] == value


def coin_solve(p: int, q: int, l: int) -> tuple[int, int]:
    """Non-negative (i, j) with p*i + q*j = l, choosing minimal i.

    Requires gcd(p, q) = 1 and l >= (p-1)(q-1); below that threshold
    existence is not guaranteed and the call is rejected.
    """
    if p <= 0 or q <= 0:
        raise InputError("p and q must be positive")
    if gcd(p, q) != 1:
        raise InputError(f"p = {p} and q = {q} are not coprime")
    threshold = (p - 1) * (q - 1)
    if l < threshold:
        raise InputError(f"l = {l} is below the threshold (p-1)(q-1) = {threshold}")
    i = 0
    while p * i <= l:
        remainder = l - p * i
        if remainder % q == 0:
            return (i, remainder // q)
        i += 1
    raise AssertionError("unreachable: representation guaranteed above the threshold")


def closure(generators: Iterable[int], bound: int) -> SemigroupSet:
    """Smallest additively closed superset of the generators within [1, bound].

    A bound above ``CLOSURE_MAX_BOUND`` is an InputError, raised before the
    bound + 1 reachability flags are allocated.
    """
    gens = sorted(set(generators))
    if not gens:
        raise InputError("generator set must be nonempty")
    if gens[0] <= 0:
        raise InputError("generators must be positive")
    if bound < 1:
        raise InputError("bound must be at least 1")
    if bound > CLOSURE_MAX_BOUND:
        raise InputError(f"closure bound {bound} is above the limit {CLOSURE_MAX_BOUND}")
    reachable = [False] * (bound + 1)
    for g in gens:
        if g <= bound:
            reachable[g] = True
    for value in range(1, bound + 1):
        if not reachable[value]:
            continue
        for g in gens:
            if value + g <= bound:
                reachable[value + g] = True
    members = tuple(v for v in range(1, bound + 1) if reachable[v])
    return SemigroupSet(members)


def guaranteed_threshold(generators: Iterable[int]) -> int | None:
    """Least r such that every m >= r lies in the additive closure; None if there is none.

    There is one exactly when the gcd of the set is 1.  Then Schur's bound on the
    Frobenius number, F <= (a_1 - 1)(a_k - 1) - 1 for the least generator a_1 and the
    greatest a_k, puts every m >= (a_1 - 1)(a_k - 1) in the closure, so r is read from
    the closure below that.
    """
    gens = sorted(set(generators))
    if not gens:
        raise InputError("generator set must be nonempty")
    if gens[0] <= 0:
        raise InputError("generators must be positive")
    if gcd(*gens) > 1:
        return None
    bound = (gens[0] - 1) * (gens[-1] - 1)
    closed = closure(gens, max(bound, 1))
    return 1 + max((m for m in range(1, bound) if m not in closed), default=0)


def empirical_min_r(entries: list[tuple[VarietyData, DivisorClass]], r_max: int) -> int | None:
    """Least r <= r_max with h^0(r(K+L)) > 0 for every entry; None if absent.

    Counts come from ``h0_certified``; an entry whose count it cannot certify
    raises its AbstainError unchanged (the oracle's text names the model).
    """
    if not entries:
        raise InputError("entry list must be nonempty")
    for v, ell in entries:
        if not v.is_nef(v.canonical + ell):
            raise InputError(f"K + L not nef on {v.name} for L = {v.divisor_string(ell)}")
    for r in range(1, r_max + 1):
        if all(h0_certified(v, r * (v.canonical + ell))[0] > 0 for v, ell in entries):
            return r
    return None
