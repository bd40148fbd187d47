"""Deterministic generator of random reduced curves for the test suite.

Curves are products of generic lower-degree forms, optionally perturbed by
a sparse term of the full degree; draws that fail the reducedness probe
(or degenerate to concurrent lines) are discarded.  Each curve comes with
the rank profile the probe read, so callers derive every invariant from it
instead of recomputing the ranks.
"""

import random
from fractions import Fraction

from freecurve.fields import FieldPlan
from freecurve.poly import HomogPoly, monomial_basis
from freecurve.syzygy import Reducedness, rank_profile, reducedness_check


def _random_form(rng: random.Random, degree: int) -> HomogPoly:
    terms = {}
    for mono in monomial_basis(degree):
        c = rng.randint(-3, 3)
        if c:
            terms[mono] = Fraction(c)
    if not terms:
        terms[(degree, 0, 0)] = Fraction(1)
    return HomogPoly(degree, terms)


def _random_partition(rng: random.Random, total: int) -> list[int]:
    parts = []
    remaining = total
    while remaining > 0:
        e = rng.choice([1, 1, 2, 2, 3, remaining])
        e = min(e, remaining)
        parts.append(e)
        remaining -= e
    return parts


def random_reduced_curves(count: int, seed: int = 20240810, max_degree: int = 9):
    """Yield rank profiles of `count` reduced non-concurrent curves of
    degrees 4..max_degree, agreed over two primes drawn from `seed`."""
    rng = random.Random(seed)
    plan = FieldPlan.primes(seed)
    produced = 0
    while produced < count:
        d = rng.randint(4, max_degree)
        f = HomogPoly(0, {(0, 0, 0): Fraction(1)})
        for e in _random_partition(rng, d):
            f = f * _random_form(rng, e)
        if rng.random() < 0.3:
            mono = rng.choice(monomial_basis(d))
            bump = HomogPoly(d, {mono: Fraction(rng.choice([-2, -1, 1, 2]))})
            f = f + bump
        if f.is_zero():
            continue
        profile = rank_profile(f, plan)
        if reducedness_check(profile) is not Reducedness.REDUCED:
            continue
        produced += 1
        yield profile
