"""Line arrangements: lattices, rigidity, and the lattice/algebra bridge."""

import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from freecurve.arrangements import (
    LatticeSummary,
    LineSet,
    arrangement_poly,
    intersection_lattice,
    interval_table,
    lattice_tjurina,
    terao_rigidity,
)
from freecurve.errors import InputError
from freecurve.fields import FieldPlan
from freecurve.invariants import tau_max, tjurina
from freecurve.syzygy import rank_profile
from freecurve.poly import poly_str


def lines(*triples):
    return LineSet(tuple(tuple(Fraction(v) for v in t) for t in triples))


TRIANGLE_LINES = lines((1, 0, 0), (0, 1, 0), (0, 0, 1))
BRAID_LINES = lines((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))


def test_lineset_rejects_bad_input():
    with pytest.raises(InputError):
        lines((1, 0, 0), (0, 1, 0))  # fewer than 3
    with pytest.raises(InputError):
        lines((1, 0, 0), (0, 0, 0), (0, 1, 0))  # zero triple
    with pytest.raises(InputError):
        lines((1, 0, 0), (2, 0, 0), (0, 1, 0))  # proportional pair


def test_arrangement_poly_triangle():
    assert poly_str(arrangement_poly(TRIANGLE_LINES)) == "x*y*z"


def test_arrangement_poly_with_repeated_line_is_rejected():
    with pytest.raises(InputError):
        lines((1, 0, 0), (-3, 0, 0), (0, 1, 0), (0, 0, 1))


def test_triangle_lattice():
    lattice = intersection_lattice(TRIANGLE_LINES)
    assert lattice.multiplicity_counts() == {2: 3}
    assert lattice_tjurina(lattice) == 3


def test_concurrent_lattice():
    lattice = intersection_lattice(lines((1, 0, 0), (0, 1, 0), (1, -1, 0), (1, 1, 0)))
    assert lattice.multiplicity_counts() == {4: 1}
    assert lattice_tjurina(lattice) == 9


def test_generic_quadrilateral_lattice():
    lattice = intersection_lattice(lines((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))
    assert lattice.multiplicity_counts() == {2: 6}
    assert lattice_tjurina(lattice) == 6


def test_braid_lattice():
    lattice = intersection_lattice(BRAID_LINES)
    assert lattice.multiplicity_counts() == {2: 3, 3: 4}
    assert lattice_tjurina(lattice) == 19


def _normalized_direction(triple):
    from fractions import Fraction

    lead = next(v for v in triple if v != 0)
    return tuple(Fraction(v, lead) for v in triple)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_pair_count_invariant_on_random_arrangements(seed):
    rng = random.Random(seed)
    d = rng.randint(3, 7)
    chosen = {}
    while len(chosen) < d:
        cand = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
        if cand == (0, 0, 0):
            continue
        chosen.setdefault(_normalized_direction(cand), cand)
    arrangement = lines(*sorted(chosen.values()))
    lattice = intersection_lattice(arrangement)
    counts = lattice.multiplicity_counts()
    assert sum(c * (m * (m - 1) // 2) for m, c in counts.items()) == d * (d - 1) // 2
    assert all(m >= 2 for m in counts)


def test_lattice_tjurina_matches_algebraic_tjurina():
    arrangements = [
        TRIANGLE_LINES,
        BRAID_LINES,
        lines((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
        lines((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 1, 1)),
    ]
    for arrangement in arrangements:
        combinatorial = lattice_tjurina(intersection_lattice(arrangement))
        algebraic = tjurina(rank_profile(arrangement_poly(arrangement), FieldPlan.primes(1)))
        assert combinatorial == algebraic


def test_terao_rigidity_paper_values():
    assert str(terao_rigidity(12, 111)) == "Rigid(1)"
    assert str(terao_rigidity(12, 103)) == "Rigid(2)"
    assert str(terao_rigidity(12, 97)) == "Rigid(3)"
    assert str(terao_rigidity(12, 93)) == "NotCovered(4)"
    assert str(terao_rigidity(12, 100)) == "NoSolution"


def _scan_for_r(d, tau):
    """The linear search the closed form replaced: the r with 2r < d."""
    for r in range((d + 1) // 2):
        if tau == (d - 1) * (d - r - 1) + r * r:
            return r
    return None


def test_terao_closed_form_matches_the_linear_scan():
    for d in range(3, 61):
        for tau in range((d - 1) ** 2 + 2):
            assert terao_rigidity(d, tau).r == _scan_for_r(d, tau), (d, tau)


def test_terao_rigidity_pins_r_at_maximal_tau():
    for d in range(3, 31):
        limit = 0
        while (limit + 1) * (limit + 1) <= d - 3:
            limit += 1
        for r in range(1, limit + 1):
            tau_max = (d - 1) * (d - r - 1) + r * r
            result = terao_rigidity(d, tau_max)
            assert result.status == "Rigid" and result.r == r


def rigidity_intervals_disjoint(d: int) -> bool:
    """Check tau(s)_max < tau(s-1)_min for every s <= sqrt(d-3)."""
    limit = isqrt(d - 3) if d >= 3 else 0
    return all(tau_max(d, s) < (d - 1) * (d - s) for s in range(1, limit + 1))


def test_interval_disjointness_scan():
    for d in range(3, 31):
        assert rigidity_intervals_disjoint(d)


def test_interval_table_degree_12_and_edge_cases():
    table = interval_table(12)
    assert table[:4] == [(1, 110, 111), (2, 99, 103), (3, 88, 97), (4, 77, 93)]
    assert table[4:] == [(5, 66, 91), (6, 55, 90)]
    assert interval_table(3) == [(1, 2, 3)]
    assert interval_table(4) == [(1, 6, 7), (2, 3, 6)]


def test_interval_table_is_the_uncapped_formula_below_d_over_2():
    # r <= d/2: the cap choose2(2r+2-d) is 0 for 2r < d and 1 at d = 2r
    for d in range(3, 61):
        expected = [
            (r, (d - 1) * (d - r - 1), (d - 1) * (d - r - 1) + r * r - (2 * r == d))
            for r in range(1, d // 2 + 1)
        ]
        assert interval_table(d) == expected, d


def test_lineset_file_round_trip():
    text = "# triangle\n1 0 0\n0 1 0\n0 0 1\n"
    ls = LineSet.from_text(text)
    assert ls.degree == 3
    with pytest.raises(InputError):
        LineSet.from_text("1 0\n0 1 0\n0 0 1\n")
    with pytest.raises(InputError):
        LineSet.from_text("1 0 bogus\n0 1 0\n0 0 1\n")


def test_lattice_file_round_trip():
    lattice = LatticeSummary.from_text("degree 12\n11 1\n2 11\n")
    assert lattice.degree == 12
    assert lattice.multiplicity_counts() == {2: 11, 11: 1}
    assert lattice_tjurina(lattice) == 111
    with pytest.raises(InputError):
        LatticeSummary.from_text("11 1\n")  # missing degree header
    with pytest.raises(InputError):
        LatticeSummary.from_text("degree 12\n11 1\n2 10\n")  # pair count off


def test_fractional_line_coefficients():
    ls = LineSet.from_text("1/2 0 0\n0 2/3 0\n0 0 1\n")
    assert poly_str(arrangement_poly(ls)) == "1/3*x*y*z"
    lattice = intersection_lattice(ls)
    assert lattice.multiplicity_counts() == {2: 3}
