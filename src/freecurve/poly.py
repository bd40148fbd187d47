"""Homogeneous polynomials in three variables over Q.

A polynomial is stored sparsely as a map from exponent triples (i, j, k)
to nonzero coefficients.  Monomials of a fixed degree are totally ordered
by descending lexicographic comparison of (i, j, k); this single order
fixes every matrix row/column layout downstream, so it must never change.
`monomial_basis` lists it; `monomial_position` is a monomial's place in it.

Two "n choose 2" helpers live here and must not be confused:
`choose2(n)` evaluates the polynomial n(n-1)/2 at any integer (it is the
Euler-characteristic building block and may be fed negative arguments),
while `dim_choose2(n)` clamps to 0 below n = 2 and counts monomials.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

Monomial = tuple[int, int, int]

_VARS = ("x", "y", "z")


def choose2(n: int) -> int:
    """n(n-1)/2 as a polynomial in n, defined for every integer."""
    return n * (n - 1) // 2


def dim_choose2(n: int) -> int:
    """n(n-1)/2 clamped to 0 for n < 2; a dimension count, never negative."""
    return n * (n - 1) // 2 if n >= 2 else 0


def dim_S(m: int) -> int:
    """Dimension of the space of degree-m monomials in x, y, z."""
    return dim_choose2(m + 2)


@lru_cache(maxsize=None)
def monomial_basis(m: int) -> tuple[Monomial, ...]:
    """All degree-m monomials in canonical (descending lex) order.

    Empty for m < 0; length (m+1)(m+2)/2 otherwise.
    """
    if m < 0:
        return ()
    out = []
    for i in range(m, -1, -1):
        for j in range(m - i, -1, -1):
            out.append((i, j, m - i - j))
    return tuple(out)


def monomial_position(j, l):
    """The position of x^i y^j z^l in `monomial_basis` of its degree, also
    on numpy arrays: s(s+1)/2 + l with s = j+l, as the monomials with
    y- and z-exponents summing to s come in one run, which starts there."""
    s = j + l
    return s * (s + 1) // 2 + l


class HomogPoly:
    """A homogeneous polynomial over Q of a declared degree.

    The zero polynomial is representable at any degree (empty term map).
    A coefficient is a `Fraction` or, in an integral polynomial such as the
    primitive integer form of a curve, its gradient and its integer
    relations, a Python int; sums, differences, products and partials of
    ints stay ints.  Over a prime the package reduces integer coefficients
    inside the arrays built from them, never in a polynomial.
    Instances are immutable and compare by value (they are not hashable);
    all operations return new polynomials.
    """

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms: dict):
        for mono in terms:
            if sum(mono) != degree:
                raise ValueError(f"monomial {mono} does not have degree {degree}")
        self.degree = degree
        self.terms = {mono: c for mono, c in terms.items() if c != 0}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, degree: int) -> "HomogPoly":
        return cls(degree, {})

    @classmethod
    def from_vector(cls, degree: int, vec) -> "HomogPoly":
        basis = monomial_basis(degree)
        if len(vec) != len(basis):
            raise ValueError("coefficient vector length mismatch")
        return cls(degree, dict(zip(basis, vec)))

    # -- queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff_vector(self) -> list:
        return [self.terms.get(m, 0) for m in monomial_basis(self.degree)]

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "HomogPoly") -> "HomogPoly":
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return HomogPoly(self.degree, out)

    def __sub__(self, other: "HomogPoly") -> "HomogPoly":
        return self + (-other)

    def __neg__(self) -> "HomogPoly":
        return HomogPoly(self.degree, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "HomogPoly") -> "HomogPoly":
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                out[mono] = out.get(mono, 0) + c1 * c2
        return HomogPoly(self.degree + other.degree, out)

    def mul_monomial(self, mono: Monomial) -> "HomogPoly":
        out = {(m[0] + mono[0], m[1] + mono[1], m[2] + mono[2]): c for m, c in self.terms.items()}
        return HomogPoly(self.degree + sum(mono), out)

    def partial(self, axis: int) -> "HomogPoly":
        """Formal partial derivative along x, y or z (axis 0, 1, 2); an
        integer coefficient stays a Python int."""
        if self.degree < 1:
            raise ValueError("derivative of a degree-0 polynomial")
        out: dict[Monomial, object] = {}
        for m, c in self.terms.items():
            e = m[axis]
            if e:
                out[m[:axis] + (e - 1,) + m[axis + 1 :]] = c * e
        return HomogPoly(self.degree - 1, out)

    # -- identity ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, HomogPoly) and self.degree == other.degree and self.terms == other.terms

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"HomogPoly(deg {self.degree}, {poly_str(self)})"


class Gradient(NamedTuple):
    fx: HomogPoly
    fy: HomogPoly
    fz: HomogPoly


def partials(f: HomogPoly) -> Gradient:
    """The exact formal gradient (f_x, f_y, f_z), each of degree d-1."""
    return Gradient(f.partial(0), f.partial(1), f.partial(2))


def _monomial_str(mono: Monomial) -> str:
    parts = []
    for name, e in zip(_VARS, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def poly_str(f: HomogPoly) -> str:
    """Canonical, re-parseable text form (terms in basis order)."""
    if f.is_zero():
        return "0"
    pieces = []
    for mono in monomial_basis(f.degree):
        c = f.terms.get(mono)
        if c is None:
            continue
        negative = c < 0
        mag = -c if negative else c
        ms = _monomial_str(mono)
        if ms and mag == 1:
            body = ms
        elif ms:
            body = f"{mag}*{ms}"
        else:
            body = f"{mag}"
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)
