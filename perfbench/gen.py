"""Seeded curve generators for the benchmark.

Nothing here imports freecurve: a generator that called into the package
(as the test suite's curve generator does, through `reducedness_check`)
would warm the package's per-polynomial caches before the timed region.
Each generator returns expression strings, which is all the program
under test receives, plus the data the correctness gate needs.

Two families:

* dense curves: a product of random forms whose degrees partition d,
  coefficients in [-3, 3], sometimes perturbed by one extra monomial of
  degree d.  Draws that are not squarefree (mostly two proportional
  linear factors) are redrawn: a non-reduced curve costs 10-20 times a
  reduced one of its degree, so letting a few through would make the
  cost of a batch depend on the seed.  They come out Smooth or Neither.
* line arrangements: k of the 13 projective lines whose coefficients lie
  in {-1, 0, 1}.  They come out Free, NearlyFree or Neither.

A workload's mix of degrees is fixed; the seed draws the coefficients and
the line subsets.  Fixing the mix keeps the cost of a batch comparable
across seeds, since cost grows steeply with the degree.
"""

from __future__ import annotations

import itertools
import math
import random

import sympy

Monomial = tuple[int, int, int]

# The 13 lines a*x + b*y + c*z with a, b, c in {-1, 0, 1}, one per
# projective class: the first nonzero coefficient is +1.
LINES13 = tuple(
    t
    for t in itertools.product((1, 0, -1), repeat=3)
    if any(t) and next(v for v in t if v) == 1
)


def _monomials(m: int) -> list[Monomial]:
    return [(i, j, m - i - j) for i in range(m, -1, -1) for j in range(m - i, -1, -1)]


def _mono_str(mono: Monomial) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", mono) if e]
    return "*".join(parts) if parts else "1"


def _poly_str(terms: dict[Monomial, int]) -> str:
    out = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        sign = "-" if c < 0 else "+"
        body = _mono_str(mono)
        mag = abs(c)
        if body == "1":
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        out.append(f"{sign} {text}")
    expr = " ".join(out)
    return expr[2:] if expr.startswith("+ ") else "-" + expr[2:]


def _mul(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _random_form(rng: random.Random, degree: int) -> dict[Monomial, int]:
    terms = {m: c for m in _monomials(degree) if (c := rng.randint(-3, 3))}
    return terms or {(degree, 0, 0): 1}


def _partition(rng: random.Random, total: int) -> list[int]:
    parts = []
    while total > 0:
        e = min(rng.choice([1, 1, 2, 2, 3, total]), total)
        parts.append(e)
        total -= e
    return parts


def _squarefree(terms: dict[Monomial, int]) -> bool:
    poly = sympy.Poly.from_dict(terms, *sympy.symbols("x y z"))
    return all(mult == 1 for _, mult in poly.sqf_list()[1])


def dense_curve(rng: random.Random, d: int) -> tuple[str, tuple]:
    """(expression, canonical key) of a random product of degree d; the key
    is empty when the expanded polynomial is zero or not squarefree."""
    factors = [_random_form(rng, e) for e in _partition(rng, d)]
    expanded: dict[Monomial, int] = {(0, 0, 0): 1}
    for form in factors:
        expanded = _mul(expanded, form)
    expr = "*".join(f"({_poly_str(form)})" for form in factors)
    if rng.random() < 0.3:
        mono = rng.choice(_monomials(d))
        c = rng.choice([-2, -1, 1, 2])
        expanded[mono] = expanded.get(mono, 0) + c
        expr += f" {'-' if c < 0 else '+'} {abs(c)}*{_mono_str(mono)}"
    expanded = {m: c for m, c in expanded.items() if c}
    if not expanded or not _squarefree(expanded):
        return expr, ()
    return expr, tuple(sorted(expanded.items()))


def arrangement(rng: random.Random, k: int) -> tuple[str, tuple[int, ...]]:
    """(expression, sorted line indices into LINES13) of k random lines."""
    idx = tuple(sorted(rng.sample(range(len(LINES13)), k)))
    expr = "*".join(f"({_poly_str({(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})})" for a, b, c in (LINES13[i] for i in idx))
    return expr, idx


def batch(seed: int, dense: dict[int, int], lines: dict[int, int]) -> list[dict]:
    """Distinct curves: `dense[d]` dense curves of degree d and `lines[k]`
    arrangements of k lines, ordered by kind then size.

    Each curve is {"kind", "size", "expr"} and, for arrangements, "lines"
    (the coefficient triples).  Draws whose expanded polynomial (or line
    subset) was already drawn are skipped, so no curve repeats.
    """
    rng = random.Random(seed)
    seen: set = set()
    out: list[dict] = []
    for d in sorted(dense):
        got = 0
        while got < dense[d]:
            expr, key = dense_curve(rng, d)
            if not key or key in seen:
                continue
            seen.add(key)
            out.append({"kind": "dense", "size": d, "expr": expr})
            got += 1
    for k in sorted(lines):
        if lines[k] > math.comb(len(LINES13), k):
            raise ValueError(f"only {math.comb(len(LINES13), k)} arrangements of {k} lines exist")
        got = 0
        while got < lines[k]:
            expr, idx = arrangement(rng, k)
            if idx in seen:
                continue
            seen.add(idx)
            out.append({"kind": "lines", "size": k, "expr": expr, "lines": [LINES13[i] for i in idx]})
            got += 1
    return out
