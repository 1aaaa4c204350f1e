from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secgenus import semigroup
from secgenus.errors import AbstainError, InputError
from secgenus.semigroup import (
    closure,
    coin_solve,
    empirical_min_r,
    guaranteed_threshold,
)


def test_coin_solve_examples():
    assert coin_solve(2, 3, 2) == (1, 0)
    assert coin_solve(3, 5, 8) == (1, 1)
    assert coin_solve(4, 7, 18) == (1, 2)


def test_coin_solve_contract():
    with pytest.raises(InputError):
        coin_solve(2, 4, 10)  # not coprime
    with pytest.raises(InputError):
        coin_solve(3, 5, 7)  # below (p-1)(q-1) = 8
    with pytest.raises(InputError):
        coin_solve(0, 5, 7)


def test_coin_solve_brute_force_full_range():
    # every coprime pair p, q <= 12 and every l in [(p-1)(q-1), 200]
    for p in range(1, 13):
        for q in range(1, 13):
            if gcd(p, q) != 1:
                continue
            for l in range((p - 1) * (q - 1), 201):
                i, j = coin_solve(p, q, l)
                assert i >= 0 and j >= 0 and p * i + q * j == l
                # minimal-i tie break
                for smaller in range(i):
                    assert (l - p * smaller) % q != 0


def test_closure_examples():
    assert closure({3, 4}, 12).members == (3, 4, 6, 7, 8, 9, 10, 11, 12)
    assert closure({1}, 5).members == (1, 2, 3, 4, 5)
    big = closure({4, 5}, 20)
    assert all(m in big for m in range(12, 21))
    assert 11 not in big


def test_closure_contract():
    with pytest.raises(InputError):
        closure(set(), 10)
    with pytest.raises(InputError):
        closure({0, 3}, 10)


@given(
    st.sets(st.integers(1, 15), min_size=1, max_size=4),
    st.integers(5, 60),
    st.integers(1, 15),
)
@settings(max_examples=60, deadline=None)
def test_closure_idempotent_monotone_closed(gens, bound, extra):
    once = closure(gens, bound)
    members = set(once.members)
    # additively closed within the bound
    for x in members:
        for y in members:
            if x + y <= bound:
                assert x + y in members
    # idempotent
    if members:
        assert closure(members, bound).members == once.members
    # monotone in the generating set
    bigger = closure(gens | {extra}, bound)
    assert members <= set(bigger.members)


def test_membership_agrees_with_a_plain_set():
    for gens, bound in (({4, 5}, 60), ({6, 10, 15}, 100)):
        s = closure(gens, bound)
        members = set(s.members)
        assert [v in s for v in range(-1, bound + 3)] == [
            v in members for v in range(-1, bound + 3)
        ]


def test_guaranteed_threshold_examples():
    assert guaranteed_threshold({4, 5}) == 12
    assert guaranteed_threshold({3, 4}) == 6
    assert guaranteed_threshold({2, 4}) is None  # all even
    assert guaranteed_threshold({1}) == 1
    assert guaranteed_threshold({2, 3}) == 2
    assert guaranteed_threshold({6, 10, 15}) == 30  # gcd 1, yet no two are coprime


def test_guaranteed_threshold_matches_the_closure_on_small_sets():
    # None exactly when the gcd exceeds 1; else every m >= r is a member and r - 1 is not
    for size in (1, 2, 3):
        for gens in combinations(range(1, 19), size):
            r = guaranteed_threshold(gens)
            if gcd(*gens) > 1:
                assert r is None, gens
                continue
            members = set(closure(gens, 18 * 18).members)
            assert all(m in members for m in range(r, 18 * 18 + 1)), gens
            assert r == 1 or r - 1 not in members, gens


def test_guaranteed_threshold_at_most_frobenius_bound():
    sets = [{4, 5}, {3, 7}, {5, 7, 9}, {2, 9}, {6, 7, 11}]
    for gens in sets:
        r = guaranteed_threshold(gens)
        gens_sorted = sorted(gens)
        for i, p in enumerate(gens_sorted):
            for q in gens_sorted[i:]:
                if gcd(p, q) == 1:
                    assert r is not None and r <= (p - 1) * (q - 1)


def test_guaranteed_threshold_is_genuine(catalog):
    # every m >= r is a member; r - 1 is not (for r > min generator)
    for gens in ({4, 5}, {3, 7}, {5, 6}):
        r = guaranteed_threshold(gens)
        bound = r + 30
        members = set(closure(gens, bound).members)
        assert all(m in members for m in range(r, bound + 1))
        if r > min(gens):
            assert r - 1 not in members


def test_factorial_membership_desk_analogue():
    # presence of any p <= 5 forces 120 in the closure (p divides 120)
    for p in range(1, 6):
        assert 120 in closure({p}, 120)


def test_empirical_min_r_catalog(catalog):
    entries = [
        (catalog["P4"], catalog["P4"].divisor("6H")),
        (catalog["X6"], catalog["X6"].divisor("1H")),
        (catalog["A4"], catalog["A4"].divisor("1L")),
    ]
    assert empirical_min_r(entries, 4) == 1  # h^0(K+L) = 5, 6, 1


def test_empirical_min_r_synthetic_oracle(x6, monkeypatch):
    # synthetic family where the first multiple has no sections
    def fake_h0(v, d):
        m = d.coeffs[0]
        return max(m - 1, 0), "synthetic"

    monkeypatch.setattr(semigroup, "h0_certified", fake_h0)
    assert empirical_min_r([(x6, x6.divisor("1H"))], 4) == 2
    monkeypatch.setattr(semigroup, "h0_certified", lambda v, d: (0, "synthetic"))
    assert empirical_min_r([(x6, x6.divisor("1H"))], 4) is None


def test_empirical_min_r_contract(x6, p4):
    with pytest.raises(InputError):
        empirical_min_r([], 4)
    with pytest.raises(InputError):
        empirical_min_r([(p4, p4.divisor("1H"))], 4)  # K + L not nef


def test_empirical_min_r_abstention(x6):
    # strip both certification routes: kill the oracle and make the canonical
    # class unreachable for the vanishing rule (K itself stays nef here, so
    # use a variety whose adjoint multiples cannot be certified)
    no_oracle = x6.replace(h0_oracle=None)
    # m(K+L) = mH with K = 0: D - K = mH is nef and big, so vanishing still
    # certifies; the abstention path needs the zero polarization instead
    entries = [(no_oracle, no_oracle.divisor("0H"))]
    with pytest.raises(AbstainError):
        empirical_min_r(entries, 3)


def test_empirical_min_r_abstains_with_the_oracle_text(x6):
    # h0_certified's abstention passes through unchanged; its text already names the model
    no_oracle = x6.replace(h0_oracle=None)
    with pytest.raises(AbstainError, match=r"^X6 has no exact section-count oracle$"):
        empirical_min_r([(no_oracle, no_oracle.divisor("0H"))], 3)
