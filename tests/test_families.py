"""Generated families whose verdicts the paper or the literature fix.

* One-dimensional symmetry: y^a*z^b - x^(a+b) with gcd(a, b) = 1 is an
  irreducible curve with a one-dimensional symmetry group, which the
  paper's theorem makes nearly free with exponents (1, d-1).
* Monomial arrangements A^k_3(m) = (x^m-y^m)(y^m-z^m)(x^m-z^m) times k of
  x, y, z (Orlik and Terao, Arrangements of Hyperplanes, 1992): free with
  exponents m+1 and 2m-2+k.  Their lines are not rational for m >= 3, so
  `terao --lines` cannot reach them; `analyze` can.

Every member runs in `auto`; the small members run in `qq` too, where
the certificate proves every rank over Q.
"""

from math import gcd

import pytest

from freecurve.fields import FieldPlan
from freecurve.parser import parse_poly
from freecurve.report import analyze

# (expression, verdict, exponents)
SYMMETRIC = [
    (f"y^{a}*z^{d - a} - x^{d}", "NearlyFree", [1, d - 1])
    for d in range(3, 13)
    for a in range(1, d)
    if gcd(a, d - a) == 1
]
MONOMIAL_ARRANGEMENTS = [
    ("*".join([f"(x^{m}-y^{m})*(y^{m}-z^{m})*(x^{m}-z^{m})", *"xyz"[:k]]), "Free", sorted([m + 1, 2 * m - 2 + k]))
    for m in range(2, 8)
    for k in range(4)
]
# qq costs about 0.04 s at degree 8 and 0.2 s at degree 12 on these
# families, and grows to 5 s at degree 24
QQ_MAX_DEGREE = {"symmetric": 8, "arrangement": 12}


def _cases():
    for family, members in (("symmetric", SYMMETRIC), ("arrangement", MONOMIAL_ARRANGEMENTS)):
        for expr, verdict, exponents in members:
            degree = parse_poly(expr).degree
            modes = ("auto", "qq") if degree <= QQ_MAX_DEGREE[family] else ("auto",)
            for mode in modes:
                yield pytest.param(expr, verdict, exponents, mode, id=f"{mode}-{expr}")


def test_families_have_every_member():
    assert len(SYMMETRIC) == 44 and len(MONOMIAL_ARRANGEMENTS) == 24


@pytest.mark.parametrize("expr,verdict,exponents,mode", list(_cases()))
def test_family_member_reads_its_verdict(expr, verdict, exponents, mode):
    report = analyze(parse_poly(expr), FieldPlan.from_mode(mode, 0))
    cls = report["classification"]
    assert report["reducedness"] == "Reduced"
    assert (cls["verdict"], cls["exponents"], cls["verified"]) == (verdict, exponents, True)
    assert all(cls["criteria"].values())
