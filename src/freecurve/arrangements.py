"""Line arrangements: defining polynomials, intersection lattices, and the
combinatorial rigidity test.

An arrangement is a set of d >= 3 distinct rational lines in the
projective plane.  Its intersection lattice (the multiset of intersection
points with multiplicities) determines the global Tjurina number
combinatorially, and for small minimal relation degree the Tjurina number
alone pins that degree, making freeness a lattice invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import InputError
from .invariants import dpw_bounds
from .parser import MAX_LITERAL_DIGITS
from .poly import HomogPoly

LineCoeffs = tuple[Fraction, Fraction, Fraction]

# The largest degree `interval_table` accepts: its d/2 rows stay printable.
MAX_INTERVAL_DEGREE = 10**4


@dataclass(frozen=True)
class LineSet:
    """d >= 3 distinct projective lines a*x + b*y + c*z = 0 over Q."""

    lines: tuple[LineCoeffs, ...]

    def __post_init__(self):
        if len(self.lines) < 3:
            raise InputError("an arrangement needs at least 3 lines")
        for coeffs in self.lines:
            if all(v == 0 for v in coeffs):
                raise InputError("zero coefficient triple is not a line")
        for i in range(len(self.lines)):
            for j in range(i + 1, len(self.lines)):
                if _cross(self.lines[i], self.lines[j]) == (0, 0, 0):
                    raise InputError(
                        f"lines {i} and {j} are proportional (duplicate line)"
                    )

    @property
    def degree(self) -> int:
        return len(self.lines)

    @classmethod
    def from_text(cls, text: str) -> "LineSet":
        """One line per row: three whitespace-separated rationals; '#' comments."""
        rows = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise InputError(f"row {lineno}: expected 3 rationals, got {len(parts)}")
            try:
                rows.append(tuple(Fraction(p) for p in parts))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"row {lineno}: {exc}") from exc
        return cls(tuple(rows))


def _cross(u, v) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _canonical_point(p) -> tuple[Fraction, Fraction, Fraction]:
    for v in p:
        if v != 0:
            return tuple(Fraction(c) / v for c in p)
    raise ValueError("zero vector is not a projective point")


@dataclass(frozen=True)
class LatticeSummary:
    """Multiset of intersection multiplicities: `counts` maps each
    multiplicity to its number of points."""

    degree: int
    counts: dict[int, int]

    def __post_init__(self):
        d = self.degree
        pair_budget = d * (d - 1) // 2
        used = 0
        for mult, count in self.counts.items():
            if mult < 2:
                raise InputError(f"intersection multiplicity {mult} < 2")
            if mult > d:
                raise InputError(f"intersection multiplicity {mult} above the {d} lines")
            used += count * (mult * (mult - 1) // 2)
            if used > pair_budget:  # `used` may be too long to print
                raise InputError(f"multiplicities account for more than the {pair_budget} pairs of {d} lines")
        if used != pair_budget:
            raise InputError(
                f"multiplicities account for {used} line pairs but "
                f"{self.degree} lines meet in {pair_budget}"
            )

    def multiplicity_counts(self) -> dict[int, int]:
        return dict(sorted(self.counts.items()))

    @classmethod
    def from_text(cls, text: str) -> "LatticeSummary":
        """'degree d' header, then rows 'multiplicity count'; '#' comments.
        Integers longer than MAX_LITERAL_DIGITS digits are refused, and a
        degree longer than half that, so that binom(d, 2) and every tau
        <= d(d-1) stay printable."""
        degree = None
        counts: dict[int, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if parts[0].lower() == "degree":
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise InputError(f"row {lineno}: malformed degree header")
                degree = _bounded_int(parts[1], lineno, MAX_LITERAL_DIGITS // 2)
                continue
            if len(parts) != 2 or not all(p.removeprefix("-").isdecimal() for p in parts):
                raise InputError(f"row {lineno}: expected 'multiplicity count'")
            mult, count = (_bounded_int(p, lineno) for p in parts)
            if count < 1:
                raise InputError(f"row {lineno}: count must be positive")
            counts[mult] = counts.get(mult, 0) + count
        if degree is None:
            raise InputError("lattice file is missing the 'degree d' header")
        return cls(degree, counts)


def _bounded_int(word: str, lineno: int, digits: int = MAX_LITERAL_DIGITS) -> int:
    if len(word.removeprefix("-")) > digits:
        raise InputError(f"row {lineno}: integer longer than {digits} digits")
    return int(word)


def arrangement_poly(lines: LineSet) -> HomogPoly:
    """Product of the defining linear forms, a degree-d polynomial over Q."""
    product = HomogPoly(0, {(0, 0, 0): Fraction(1)})
    for a, b, c in lines.lines:
        form = HomogPoly(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})
        product = product * form
    return product


def intersection_lattice(lines: LineSet) -> LatticeSummary:
    """The multiplicities of the pairwise intersection points."""
    ls = lines.lines
    points = {_canonical_point(_cross(u, v)) for i, u in enumerate(ls) for v in ls[i + 1 :]}
    counts: dict[int, int] = {}
    for point in points:
        mult = sum(1 for a, b, c in ls if a * point[0] + b * point[1] + c * point[2] == 0)
        counts[mult] = counts.get(mult, 0) + 1
    return LatticeSummary(lines.degree, counts)


def lattice_tjurina(lattice: LatticeSummary) -> int:
    """Sum of (multiplicity - 1)^2 over the intersection points."""
    return sum(count * (mult - 1) ** 2 for mult, count in lattice.counts.items())


@dataclass(frozen=True)
class TeraoResult:
    """Outcome of the combinatorial rigidity test."""

    status: str  # "Rigid" | "NotCovered" | "NoSolution"
    r: int | None

    def __str__(self):
        return self.status if self.r is None else f"{self.status}({self.r})"


def terao_rigidity(d: int, tau: int) -> TeraoResult:
    """Decide whether tau pins the minimal relation degree of a free
    arrangement uniquely.

    Solves tau = (d-1)(d-r-1) + r^2 for the unique r with 0 <= r < d/2:
    the roots are ((d-1) -+ s)/2 with s^2 = 4 tau - 3(d-1)^2, and only the
    smaller one can lie below d/2.  When such an r exists and
    r <= sqrt(d-3), consecutive intervals are disjoint, so any arrangement
    with the same lattice is forced to share r and hence freeness:
    Rigid(r).  A solution beyond the bound is NotCovered(r); no solution
    is NoSolution.
    """
    if d < 3:
        raise InputError("need degree >= 3")
    if tau < 0:
        raise InputError("Tjurina number cannot be negative")
    disc = 4 * tau - 3 * (d - 1) ** 2
    s = isqrt(disc) if disc >= 0 else -1
    if s * s != disc or s > d - 1 or (d - 1 - s) % 2:
        return TeraoResult("NoSolution", None)
    found = (d - 1 - s) // 2
    if found * found <= d - 3:
        return TeraoResult("Rigid", found)
    return TeraoResult("NotCovered", found)


def interval_table(d: int) -> list[tuple[int, int, int]]:
    """(r, tau_min, tau_max) rows for r = 1 .. floor(d/2), 3 <= d <= MAX_INTERVAL_DEGREE."""
    if d < 3:
        raise InputError("need degree >= 3")
    if d > MAX_INTERVAL_DEGREE:
        raise InputError(f"degree {d} is above {MAX_INTERVAL_DEGREE}, the largest interval table printed")
    return [(r, *dpw_bounds(d, r)) for r in range(1, d // 2 + 1)]
