"""Seeded inputs for the benchmark workloads.

Nothing here imports secgenus: the program only ever sees what these
functions generate.  The same seed always gives the same inputs (string
seeds to ``random.Random`` are hashed with SHA-512, independent of
``PYTHONHASHSEED``).
"""

from __future__ import annotations

import json
import random
from math import comb

from reference import canonical, dim, hodge, n_gens

# The built-in catalog of secgenus, by name, with its family description.
CATALOG = {
    "P1": ("pn", 1),
    "P2": ("pn", 2),
    "P3": ("pn", 3),
    "P4": ("pn", 4),
    "P1xP3": ("prod", 1, 3),
    "P2xP2": ("prod", 2, 2),
    "Q4": ("hyp", 2),
    "X3": ("hyp", 3),
    "X4": ("hyp", 4),
    "X5": ("hyp", 5),
    "X6": ("hyp", 6),
    "X7": ("hyp", 7),
    "A4": ("ab", 24),
}

# Catalog entry whose first c2 pairing the planted-fault self-test perturbs.
PLANT_ENTRY = "X6"


def twist_inputs(seed: int, count: int) -> list[tuple]:
    """Point queries: (entry name, divisor coefficients, difference request or None).

    Ray classes are drawn from [-8, 8] and product classes from [-6, 6]
    per coordinate, so both sides of the vanishing range D - K nef and
    big occur on every entry.  A quarter of the 4-fold queries also
    carry a difference request (1-3 nef-and-big bundles with
    coefficients 1..3 and a nef bundle with coefficients 0..2).
    """
    rng = random.Random(f"twists:{seed}")
    names = list(CATALOG)
    ops = []
    for _ in range(count):
        name = rng.choice(names)
        fam = CATALOG[name]
        g = n_gens(fam)
        lo, hi = (-6, 6) if g == 2 else (-8, 8)
        d = tuple(rng.randint(lo, hi) for _ in range(g))
        diff = None
        if dim(fam) == 4 and rng.random() < 0.25:
            bigs = tuple(
                tuple(rng.randint(1, 3) for _ in range(g)) for _ in range(rng.randint(1, 3))
            )
            diff = (bigs, tuple(rng.randint(0, 2) for _ in range(g)))
        ops.append((name, d, diff))
    return ops


def model_inputs(seed: int, count: int, plant: bool = False) -> list[tuple]:
    """Distinct models: (family, JSON text, twists of L to query).

    Families: hypersurfaces of degree 2..16 in P^5 (40%), abelian
    4-folds with L^4 = 24k, k in 1..60 (20%), P1xP3, P2xP2, P3 and P4
    (10% each).  With ``plant`` every model's first c2 pairing is off by
    24, a wrong model that keeps chi integral.
    """
    rng = random.Random(f"models:{seed}")
    ops = []
    for _ in range(count):
        r = rng.random()
        if r < 0.4:
            fam = ("hyp", rng.randint(2, 16))
        elif r < 0.6:
            fam = ("ab", 24 * rng.randint(1, 60))
        elif r < 0.7:
            fam = ("prod", 1, 3)
        elif r < 0.8:
            fam = ("prod", 2, 2)
        else:
            fam = ("pn", 3 if r < 0.9 else 4)
        data = model_json(fam)
        if plant:
            key = next(iter(data["c2_pairings"]))
            data["c2_pairings"][key] += 24
        twists = tuple(rng.randint(-5, 6) for _ in range(4))
        ops.append((fam, json.dumps(data), twists))
    return ops


def _kappa(c: int, n: int):
    """kappa(c A) for A ample on a Picard-rank-one model, in JSON form."""
    if c < 0:
        return "-inf"
    return n if c > 0 else 0


def _monomial(exps: tuple[int, ...], gens: tuple[str, ...]) -> str:
    parts = [name if e == 1 else f"{name}^{e}" for e, name in zip(exps, gens) if e]
    return " ".join(parts) if parts else "1"


def model_json(fam: tuple) -> dict:
    """Model file in the documented JSON schema, written from the family's geometry."""
    kind = fam[0]
    n = dim(fam)
    k = canonical(fam)
    if kind == "prod":
        a, b = fam[1], fam[2]
        gens = ("a", "b")
        # c(X) = (1+x)^(a+1) (1+y)^(b+1); x^i y^j pairs with the x^(a-i) y^(b-j) term.
        c2_terms = {(2, 0): comb(a + 1, 2), (1, 1): (a + 1) * (b + 1), (0, 2): comb(b + 1, 2)}
        kappa = {}
        for t in (1, 2, 3):
            kx, ky = t - (a + 1), t - (b + 1)
            kappa[str(t)] = "-inf" if kx < 0 or ky < 0 else (a if kx else 0) + (b if ky else 0)
        return {
            "name": f"P{a}xP{b}",
            "dim": 4,
            "generators": list(gens),
            "intersections": {
                _monomial((i, 4 - i), gens): int((i, 4 - i) == (a, b)) for i in range(5)
            },
            "canonical": list(k),
            "c2_pairings": {
                _monomial((i, 2 - i), gens): c2_terms.get((a - i, b - 2 + i), 0)
                for i in range(3)
            },
            "hodge": [1, 0, 0, 0, 0],
            "nef_cone": "orthant",
            "kappa_X": "-inf",
            "kappa_adjoint": {"1a+1b": {"kappa": kappa, "fine_type": "3" if a == 1 else "4"}},
            "oracle": f"p{a}xp{b}",
            "polarization": [1, 1],
        }
    if kind == "pn":
        name, gen, top, c2, oracle = f"P{n}", "H", 1, comb(n + 1, 2), f"p{n}"
        fine = "1"
    elif kind == "hyp":
        d = fam[1]
        name, gen, top, oracle = ("Q4" if d == 2 else f"X{d}"), "H", d, f"hypersurface:{d}"
        c2 = (d * d - 6 * d + 15) * d  # c(X) = (1+H)^6 / (1+dH)
        fine = {2: "2", 3: "4", 4: "7.5"}.get(d)
    else:
        name, gen, top, c2, oracle, fine = "A4", "L", fam[1], 0, "abelian", None
    return {
        "name": name,
        "dim": n,
        "generators": [gen],
        "intersections": {_monomial((n,), (gen,)): top},
        "canonical": list(k),
        "c2_pairings": {_monomial((n - 2,), (gen,)): c2},
        "hodge": list(hodge(fam)),
        "nef_cone": "ray",
        "kappa_X": _kappa(k[0], n),
        "kappa_adjoint": {
            f"1{gen}": {
                "kappa": {str(t): _kappa(k[0] + t, n) for t in (1, 2, 3)},
                "fine_type": fine,
            }
        },
        "oracle": oracle,
        "polarization": [1],
    }
