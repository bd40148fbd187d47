"""Graded Jacobian relation computations."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from freecurve import syzygy
from freecurve.corpus import load_case
from freecurve.data import shipped_corpus_dir
from freecurve.errors import InputError, InternalInconsistencyError
from freecurve.fields import GF, QQ, FieldPlan
from freecurve.invariants import n_dim_saturation_oracle
from freecurve.linalg import ExactMatrix, _dtype, _rref, integer_kernel_basis, kernel_basis, rank
from freecurve.parser import parse_poly
from freecurve.poly import HomogPoly, dim_S, dim_choose2, monomial_basis, monomial_position, partials
from freecurve.syzygy import (
    Reducedness,
    Syzygy,
    jacobian_matrix,
    jacobian_ranks,
    mdr,
    multiples,
    outside_span,
    rank_jacobian,
    rank_profile,
    reducedness_check,
    syzygy_basis,
)

from curvegen import random_reduced_curves
from oracles import (
    ar_dim_oracle,
    dense_certificate_kernel_degrees,
    dense_mod_p_echelon,
    fills_on_line,
    jacobian_matrix_oracle,
    lex_segment_bound,
    milnor_dim_oracle,
    persistence_stop,
    residue,
    scaled,
)

TRIANGLE = parse_poly("x*y*z")
CUSP = parse_poly("x^3-y^2*z")
FERMAT3 = parse_poly("x^3+y^3+z^3")


def _gradient(f):
    """The integer gradient that the rank profile of f keeps and hands to
    the sweeps and the lifts (`RankProfile.grad`)."""
    return partials(syzygy.primitive_form(f))


def test_jacobian_matrix_shape_and_rank_degree_zero():
    M = jacobian_matrix(TRIANGLE, 0)
    assert (M.rows, M.cols) == (6, 3)
    assert rank(M) == 3


def test_jacobian_matrix_degree_one_kernel():
    M = jacobian_matrix(TRIANGLE, 1)
    assert (M.rows, M.cols) == (10, 9)
    assert M.cols - rank(M) == 2


@pytest.mark.parametrize(
    "f,k,expected",
    [
        (TRIANGLE, 1, 2),
        (CUSP, 1, 1),
        (FERMAT3, 1, 0),
        (FERMAT3, 2, 3),
    ],
)
def test_ar_dim_examples(f, k, expected):
    assert rank_profile(f).ar(k) == expected


def test_jacobian_matrix_matches_independent_layout():
    # the pinned layout, entry by entry, against a sympy construction
    P = GF(2147483659)
    for path in sorted(shipped_corpus_dir().glob("*.curve")):
        f = parse_poly(load_case(path).expression)
        if f.degree > 4:
            continue
        for k in range(2 * f.degree + 1):
            oracle = jacobian_matrix_oracle(f, k).tolist()
            over_q = [[Fraction(int(v.p), int(v.q)) for v in row] for row in oracle]
            assert jacobian_matrix(f, k, QQ).row_lists() == over_q, (path.name, k)
            assert jacobian_matrix(f, k, P).row_lists() == [[residue(v, P.p) for v in row] for row in over_q]


# a rational quartic; its denominators avoid the builder test's primes
RATIONAL_QUARTIC = "(1/2*x^3+1/7*y^3-z^3)*(x-2*y+z)"
BIG_COEFFICIENT_CUBIC = f"x^3+y^3+z^3+{2**70 + 1}*x*y*z"


@pytest.fixture(scope="module")
def jacobian_references():
    """(name, f, k, J_k of f over Q from sympy as Fractions) for a cubic
    whose gradient 3(x^2, y^2, z^2) vanishes mod 3, a quartic of the
    corpus, free12_c at a few degrees, a curve with rational coefficients
    and a cubic with a coefficient of 71 bits."""
    corpus = {path.name: parse_poly(load_case(path).expression) for path in shipped_corpus_dir().glob("*.curve")}
    cases = [
        ("fermat3.curve", corpus["fermat3.curve"], range(5)),
        ("quartic_e6.curve", corpus["quartic_e6.curve"], (0, 1, 4, 8)),
        ("free12_c.curve", corpus["free12_c.curve"], (0, 1, 4)),
        (RATIONAL_QUARTIC, parse_poly(RATIONAL_QUARTIC), (0, 1, 4, 8)),
        # a coefficient past int64: the builder's object array
        (BIG_COEFFICIENT_CUBIC, parse_poly(BIG_COEFFICIENT_CUBIC), (0, 1, 2)),
    ]
    return [
        (name, f, k, [[Fraction(int(v.p), int(v.q)) for v in row] for row in jacobian_matrix_oracle(f, k).tolist()])
        for name, f, degrees in cases
        for k in degrees
    ]


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5), GF(syzygy.CERT_PRIME), GF(2**61 - 1)], ids=str)
def test_jacobian_builder_matches_multiples_and_the_sympy_layout(jacobian_references, field):
    # GF(2^61 - 1) holds its entries in an object array
    for name, f, k, over_q in jacobian_references:
        expected = over_q if field is QQ else [[residue(v, field.p) for v in row] for row in over_q]
        # the public matrix is J of f itself, whether f is integral or not
        J = jacobian_matrix(f, k, field)
        assert J.field is field and J.row_lists() == expected, (name, k)
        # the builder's integer array of the primitive form F = c*f, which
        # the lifts reduce mod each prime: Python ints over Q
        F = syzygy.primitive_form(f)
        c = next(F.terms[m] / v for m, v in f.terms.items())
        ints = syzygy._multiples_array([(g,) for g in partials(F)], k + f.degree - 1).T
        over_F = [[c * v if field is QQ else residue(c * v, field.p) for v in row] for row in over_q]
        assert syzygy._field_entries(ints, field).tolist() == over_F, (name, k)
        if field is QQ:
            assert all(type(v) is int for row in jacobian_matrix(F, k, QQ).row_lists() for v in row)


def test_jacobian_matrix_refuses_a_prime_that_divides_a_denominator():
    f = parse_poly("1/3*x^3+y^3+z^3")
    assert jacobian_matrix(f, 1, GF(5)).rows == dim_S(3)
    with pytest.raises(ValueError):
        jacobian_matrix(f, 1, GF(3))


def test_multiples_lay_out_each_monomial_multiple_as_one_row():
    rho1 = syzygy_basis(rank_profile(CUSP), 1)[0]
    halves = tuple(scaled(part, Fraction(1, 2)) for part in rho1)
    # a coefficient past int64: the builder's object array
    big = tuple(scaled(part, 2**70 + 1) for part in rho1)
    for field in (QQ, GF(7)):
        for rho in (rho1, halves, big):
            M = multiples([rho, rho], 3, field)
            expected = [
                [v if field is QQ else residue(v, field.p) for part in rho for v in part.mul_monomial(nu).coeff_vector()]
                for nu in syzygy.monomial_basis(2)
            ]
            # over a prime the rows of the rational triple too are reduced
            assert M.row_lists() == expected + expected
            if field is QQ:
                # all Python ints when every coefficient is integral, all
                # Fractions otherwise
                integral = all(c.denominator == 1 for part in rho for c in part.terms.values())
                assert {type(v) for row in M.row_lists() for v in row} == {int if integral else Fraction}
        # a tuple above the degree contributes no row
        assert (multiples([rho], 0, field).rows, multiples([rho], 0, field).cols) == (0, 3)
    # the three storage paths of the builder
    assert [syzygy._multiples_array([g], 2).dtype for g in (rho1, halves, big)] == [np.int64, object, object]
    assert type(syzygy._multiples_array([halves], 2)[0, 0]) is Fraction


def test_monomial_position_is_the_basis_order_at_every_profile_degree():
    # the largest monomial degree some admitted profile reaches: J_top has
    # rows of degree top+d-1
    largest = 0
    for d in range(1, syzygy.MAX_CURVE_DEGREE + 1):
        K = 2 * d - 1
        syzygy.profile_degrees(d, K)
        while True:
            try:
                syzygy.profile_degrees(d, K + 1)
            except InputError:
                break
            K += 1
        largest = max(largest, K + d - 1)
    # the bound that `_shift_maps` and `_column_cells` cache under
    assert largest < 100
    for m in range(largest + 1):
        exps = np.array(monomial_basis(m)).reshape(-1, 3)
        assert (monomial_position(exps[:, 1], exps[:, 2]) == np.arange(dim_S(m))).all(), m
    # the sweep's shifts: y and z raise the y- or z-exponent of a column's
    # monomial, and the block stays
    for D in range(largest):
        exps = np.array(monomial_basis(D)).reshape(-1, 3)
        for t in (1, 3):
            j, l = np.repeat(exps[:, 1], t), np.repeat(exps[:, 2], t)
            block = np.arange(t * dim_S(D)) % t
            y, z = syzygy._shift_maps(D, t)
            assert (y == t * monomial_position(j + 1, l) + block).all(), (D, t)
            assert (z == t * monomial_position(j, l + 1) + block).all(), (D, t)


def test_outside_span_picks_candidates_in_order():
    e = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for field in (QQ, GF(7)):
        span = ExactMatrix.from_rows(field, [e[0]])
        candidates = ExactMatrix.from_rows(field, [[1, 1, 0], [2, 0, 0], [1, 2, 0], e[2]])
        assert outside_span(span, candidates) == [0, 3]
        assert outside_span(span, ExactMatrix.from_rows(field, [])) == []


def test_ar_dim_matches_independent_oracle():
    for f in (TRIANGLE, CUSP, FERMAT3):
        profile = rank_profile(f)
        for k in range(0, 5):
            assert profile.ar(k) == ar_dim_oracle(f, k)


def test_syzygy_basis_verifies_and_is_canonical():
    for field in (QQ, GF(7)):
        basis = syzygy_basis(rank_profile(TRIANGLE, field), 1, field)
        assert len(basis) == 2
        for syz in basis:
            assert syz.holds_for(partials(TRIANGLE), field)
        again = syzygy_basis(rank_profile(TRIANGLE, field), 1, field)
        assert again == basis


def test_holds_for_checks_rational_syzygies_with_denominators():
    f = parse_poly("1/2*x^3 + 2/3*x*y*z + 1/5*y^3 - 3/7*z^3")
    fx, fy, fz = grad = partials(f)
    # the profile's integer gradient is a nonzero multiple of f's
    profile = rank_profile(f)
    eleventh = Fraction(1, 11)
    koszul = Syzygy(scaled(fy, eleventh), scaled(-fx, eleventh), HomogPoly.zero(2))
    assert koszul.holds_for(grad)
    assert koszul.holds_for(profile.grad)
    bump = HomogPoly(2, {(0, 1, 1): Fraction(1, 13)})
    assert not Syzygy(koszul.a + bump, koszul.b, koszul.c).holds_for(grad)
    # the zero triple holds over Q, as it does over a prime
    assert Syzygy(*[HomogPoly.zero(2)] * 3).holds_for(grad)
    for syz in syzygy_basis(profile, 2):
        # the primitive integer triple, scaled to a leading 1
        lead = next(c for part in syz for c in part.coeff_vector() if c)
        syz = Syzygy(*(scaled(part, Fraction(1, lead)) for part in syz))
        assert any(c.denominator > 1 for part in syz for c in part.terms.values())
        assert syz.holds_for(grad) and syz.holds_for(profile.grad)
        assert not Syzygy(syz.a, syz.b, syz.c + bump).holds_for(grad)


def test_holds_for_reduces_the_integer_sums_mod_p():
    # f_x = 2x and f_y = 2y: the triple (a*y, b*x, 0) sums to 2(a+b)xy,
    # which vanishes over GF(7) exactly when 7 divides a+b: 3y*2x + 4x*2y
    # = 14xy holds, 3y*2x + 5x*2y = 16xy does not
    field = GF(7)
    f = parse_poly("x^2+y^2")
    zero = HomogPoly.zero(1)

    def triple(a, b):
        return Syzygy(HomogPoly(1, {(0, 1, 0): a}), HomogPoly(1, {(1, 0, 0): b}), zero)

    good, bad = triple(3, 4), triple(3, 5)
    grad = partials(f)
    assert good.holds_for(grad, field)
    assert not bad.holds_for(grad, field)
    assert Syzygy(zero, zero, zero).holds_for(grad, field)
    # negative coefficients and ones >= p are summed as integers and
    # reduced once; over Q only a+b = 0 is a relation
    for a, b in ((-4, 11), (10, -3), (3, 7 * 10**30 + 4), (-5, 5), (-4, 12), (10, -2), (7, 7 * 10**30 + 1)):
        assert triple(a, b).holds_for(grad, field) is ((a + b) % 7 == 0), (a, b)
        assert triple(a, b).holds_for(grad) is (a + b == 0), (a, b)
    # blocks a, b, c on the monomials x, y, z, integers as given
    assert Syzygy.from_vector(1, [0, 3, 0, 4, 0, 0, 0, 0, 0]) == good
    # the profile's integer gradient is f's, and the profile verifies
    # what it lays out over a prime
    profile = rank_profile(f, field)
    assert good.holds_for(profile.grad, field) and not bad.holds_for(profile.grad, field)
    assert profile.syzygy(1, [0, 3, 0, 4, 0, 0, 0, 0, 0], field) == good
    with pytest.raises(InternalInconsistencyError, match="fails the defining relation"):
        profile.syzygy(1, [0, 3, 0, 5, 0, 0, 0, 0, 0], field)
    # over Q the integer sum 14xy is no relation
    over_q = Syzygy.from_vector(1, [Fraction(v) for v in (0, 3, 0, 4, 0, 0, 0, 0, 0)])
    assert not over_q.holds_for(partials(f))


def test_rational_syzygy_basis_is_the_bareiss_kernel_entry_by_entry():
    # Over Q `syzygy_basis` reads the certificate's lift, or lifts where it
    # kept none.  It must be the canonical basis that Bareiss eliminates,
    # each vector scaled to coprime integers with a positive leading entry
    # (`integer_kernel_basis`), at every degree k <= d.
    for path in sorted(shipped_corpus_dir().glob("*.curve")):
        f = parse_poly(load_case(path).expression)
        if f.degree > 6:
            continue
        profile = rank_profile(f, QQ)
        for k in range(f.degree + 1):
            syzygies = syzygy_basis(profile, k, QQ)
            assert all(type(c) is int for syz in syzygies for part in syz for c in part.terms.values()), (path.name, k)
            basis = [[c for part in syz for c in part.coeff_vector()] for syz in syzygies]
            assert basis == integer_kernel_basis(jacobian_matrix(profile.f, k, QQ)).row_lists(), (path.name, k)


def test_from_vector_refuses_a_vector_of_the_wrong_length():
    # a degree-1 triple has 3 * dim S_1 = 9 coefficients: a longer vector
    # must not lose its extra entries silently, nor a shorter one be padded
    assert Syzygy.from_vector(1, [0, 3, 0, 4, 0, 0, 0, 0, 0]).degree == 1
    for vec in ([0, 3, 0, 4, 0, 0, 0, 0, 0, 99, 5], [0, 3, 0, 4, 0, 0, 0, 0]):
        with pytest.raises(ValueError, match="9 coefficients"):
            Syzygy.from_vector(1, vec)
    profile = rank_profile(CUSP, GF(7))
    with pytest.raises(ValueError, match="9 coefficients"):
        profile.syzygy(1, [0, 1, 0, 0, 0, 5, 0, 0, 0, 0], GF(7))


def test_rational_syzygy_basis_lifts_only_where_the_certificate_kept_none(monkeypatch):
    # Over Q `RankProfile.kernel` reads the certificate's lift at a degree
    # it holds, and lifts once elsewhere, without storing it: `lifts` keeps
    # meaning what the certificate lifted.  y*z^3-1/7*x^4 (r = 1) has its
    # bounds met at degree 3, where the Koszul relations and the multiples
    # of rho1 span AR(f)_3.
    def counted(grad, k, P):
        lifted.append(k)
        return lift(grad, k, P)

    lift, lifted = syzygy._lifted_kernel, []
    monkeypatch.setattr(syzygy, "_lifted_kernel", counted)
    profile = rank_profile(parse_poly("y*z^3-1/7*x^4"), QQ)
    certificate = sorted(profile.lifts)
    assert 1 in certificate and 3 not in certificate
    for k in certificate:
        lifted.clear()
        assert profile.kernel(k, QQ) is profile.lifts[k]
        basis = syzygy_basis(profile, k, QQ)
        assert len(basis) == len(profile.lifts[k]) and lifted == [], k
    lifted.clear()
    basis = syzygy_basis(profile, 3, QQ)
    assert lifted == [3] and sorted(profile.lifts) == certificate
    assert len(basis) == profile.ar(3)


def test_cusp_minimal_syzygy_is_normalized():
    (syz,) = syzygy_basis(rank_profile(CUSP), 1)
    # canonical representative of (0, y, -2z) with leading coefficient 1
    assert syz.a.is_zero()
    assert syz.b.terms == {(0, 1, 0): 1}
    assert syz.c.terms == {(0, 0, 1): -2}


@pytest.mark.parametrize(
    "f,table",
    [
        (TRIANGLE, [1, 3, 3, 3, 3]),
        (CUSP, [1, 3, 3, 2, 2]),
        (FERMAT3, [1, 3, 3, 1, 0, 0]),
    ],
)
def test_milnor_tables(f, table):
    assert [rank_profile(f).m(k) for k in range(len(table))] == table


def test_milnor_matches_independent_oracle():
    for f in (TRIANGLE, CUSP, FERMAT3):
        profile = rank_profile(f)
        for k in range(0, 7):
            assert profile.m(k) == milnor_dim_oracle(f, k)


def test_milnor_below_first_jacobian_degree_is_full():
    profile = rank_profile(parse_poly("x^5+y^5+z^5"))
    for k in range(0, 4):
        assert profile.m(k) == dim_S(k)


@pytest.mark.parametrize(
    "expr,expected",
    [("x*y*z", 1), ("x*y*z*(x^9-y^9)", 1), ("x^3+y^3+z^3", 2)],
)
def test_mdr_examples(expr, expected):
    f = parse_poly(expr)
    field = FieldPlan.primes(0) if f.degree > 6 else QQ
    assert mdr(rank_profile(f, field)) == expected


def test_mdr_bounded_by_koszul_degree():
    for expr in ("x*y*z", "x^3-y^2*z", "x^4+y^4+z^4", "x^3+x^2*z-y^2*z"):
        f = parse_poly(expr)
        assert mdr(rank_profile(f)) <= f.degree - 1


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("x^2*y", Reducedness.NON_REDUCED),
        ("x^2+y^2", Reducedness.PENCIL_OF_LINES),
        ("x*y*z", Reducedness.REDUCED),
        ("x", Reducedness.PENCIL_OF_LINES),
        ("x*y*(x+y)", Reducedness.PENCIL_OF_LINES),
        ("x^2*y^2*z", Reducedness.NON_REDUCED),
        ("x^2+y*z", Reducedness.REDUCED),
    ],
)
def test_reducedness(expr, expected):
    assert reducedness_check(rank_profile(parse_poly(expr))) is expected


def _record_swept_degrees(monkeypatch) -> list[int]:
    """The source degrees k whose rank the J_f sweeps read, in order."""
    degrees = []
    inner = syzygy._swept_ranks

    def recording(grad, field):
        for k, r in enumerate(inner(grad, field)):
            degrees.append(k)
            yield r

    monkeypatch.setattr(syzygy, "_swept_ranks", recording)
    return degrees


def test_reducedness_reads_one_window(monkeypatch):
    # a non-constant Milnor window is final, and here H(D) = m(f)_D grows
    # at Macaulay's bound from D = 5 on: the sweep stops at the first
    # source degree where Gotzmann persistence holds, far below 2d-1, the
    # last one the window [3d-5, 3d-2] reads
    swept = _record_swept_degrees(monkeypatch)
    kernel_degrees = _record_kernel_reads(monkeypatch)
    f = parse_poly("x^2*y^2*z")
    profile = rank_profile(f, table_max=0)
    assert reducedness_check(profile) is Reducedness.NON_REDUCED
    assert persistence_stop(f, profile.ranks) == 2
    assert swept == [0, 1, 2]
    assert max(swept + kernel_degrees) == 2


def _dense_curve(rng, d):
    return HomogPoly(d, {mono: Fraction(rng.randint(-9, 9) or 1) for mono in monomial_basis(d)})


def _assert_sweep_matches_per_degree(f, top, field):
    expected = jacobian_ranks(f, top, field)
    grad = _gradient(f)
    assert syzygy._persistent(grad, field, top, syzygy._swept_ranks(grad, field)) == expected, (str(f), field.name)


def _layout_ranks(f, top, field):
    """rank J_0, ..., rank J_top, each J_k eliminated on its own in the
    layout order: over Q by sympy (`ar_dim_oracle`) up to source degree 4,
    where it stays fast, and by Bareiss above it; over a prime by
    `oracles.dense_mod_p_echelon`."""
    if not field.char:
        return tuple(3 * dim_S(k) - ar_dim_oracle(f, k) if k <= 4 else rank(jacobian_matrix(f, k, QQ)) for k in range(top + 1))
    return tuple(len(dense_mod_p_echelon(jacobian_matrix(f, k, field)._data, field.char)[1]) for k in range(top + 1))


# Every field the sweeps and the certificate rank over: Q, the
# certificate's prime, a prime past int64 (object arrays) and three small
# primes at which the curves below lose rank.
@pytest.mark.parametrize("field", [QQ, GF(syzygy.CERT_PRIME), GF(2**61 - 1), GF(3), GF(5), GF(7)], ids=repr)
def test_jacobian_ranks_match_per_degree_eliminations(field):
    # one x-graded elimination of J_top ranks every J_k below it: each
    # prefix of its ranks, top = 0 included, is the tuple of the layout
    # order's ranks, and `rank_jacobian` reads its last entry
    curves = [parse_poly(expr) for expr in ("x", "x*y", "x^2*y", "x^5", DEGENERATE_MOD_3_5_7)]
    for path in sorted(shipped_corpus_dir().glob("*.curve")):
        f = parse_poly(load_case(path).expression)
        if f.degree <= 6:
            curves.append(f)
    for f in curves:
        top = 2 * f.degree
        expected = _layout_ranks(f, top, field)
        for k in range(top + 1):
            assert jacobian_ranks(f, k, field) == expected[: k + 1], (str(f), k)
            assert rank_jacobian(f, k, field) == expected[k], (str(f), k)


# 3, 5 and 7 lose rank on many curves; 2147483659 and 2999999929 are the
# first and the last prime of the range the field plans draw from; 2^61-1
# is stored in object arrays.
@pytest.mark.parametrize("p", [3, 5, 7, 2_147_483_659, 2_999_999_929, 2**61 - 1])
def test_rank_sweep_matches_per_degree_ranks(p):
    field = GF(p)
    rng = random.Random(p)
    # the object-array reference is slow, so it stops at degree 5
    for d in range(1, 9 if field.fits_int64() else 6):
        _assert_sweep_matches_per_degree(_dense_curve(rng, d), 3 * d, field)
    # the gradient of the last three collapses mod 3, 5 and 7 (f_x = 0 mod 5
    # for x^5+y^4*z), so the sweep starts from a short or empty basis
    for expr in ("x^5", "x^2*y^2*z", "x^5*y", DEGENERATE_MOD_3_5_7, "x^3+y^3+z^3", "x^5+y^4*z", "x^7+y^7+z^7"):
        f = parse_poly(expr)
        _assert_sweep_matches_per_degree(f, 3 * f.degree, field)
    # the plateau stop fills the ranks above it, to the profile's top 2d:
    # seven lines (source degree 5 at the large primes), free12_a (degree
    # 10 there), and the arrangement with h = 0 as a component, where it
    # must not fire
    for f in (parse_poly(SEVEN_LINES), parse_poly(SEVEN_LINES_AND_H), _load_curve("free12_a")):
        _assert_sweep_matches_per_degree(f, 2 * f.degree, field)


@pytest.mark.parametrize("p", [7, syzygy.CERT_PRIME])
def test_rank_sweep_shifts_only_the_rows_the_last_step_appended(p, monkeypatch):
    # (J_f)_(D+1) = x(J_f)_D + y W_D + z W_D: the residual of the step from
    # source degree k to k+1 holds the joining rows y and z times the
    # ranks[k] - ranks[k-1] rows that step k appended, reduced in one pass,
    # not times all of (J_f)_(k+d-1)
    shapes = []
    inner = syzygy._mod_p_echelon

    def recording(a, prime):
        shapes.append(a.shape)
        return inner(a, prime)

    monkeypatch.setattr(syzygy, "_mod_p_echelon", recording)
    f = _dense_curve(random.Random(p), 6)
    grad = _gradient(f)
    ranks = syzygy._persistent(grad, GF(p), 2 * f.degree, syzygy._swept_ranks(grad, GF(p)))
    # the sweep stops at source degree 2d-4 in both fields: mod CERT_PRIME
    # the sextic is smooth, and H(3d-5) = 0, which rank J_(2d-4) fixes,
    # leaves nothing to read; mod 7 Gotzmann persistence holds there, as H
    # settles at 1; one step per source degree, the first from the
    # gradient alone
    stop = persistence_stop(f, ranks, p)
    assert stop == 2 * f.degree - 4
    assert len(shapes) == stop + 1
    residual_rows = [rows for rows, _ in shapes[1:]]
    assert residual_rows == [2 * (ranks[k] - (ranks[k - 1] if k else 0)) for k in range(len(shapes) - 1)]


def test_macaulay_bound_is_the_lex_segment_count():
    # lex segments attain Macaulay's bound, so the count of monomials one
    # degree up outside the ideal a lex segment generates is h^<D>
    for D in range(1, 11):
        for h in range(dim_S(D) + 1):
            assert syzygy._macaulay_bound(h, D) == lex_segment_bound(h, D), (h, D)


def _record_sweep_steps(monkeypatch) -> list[tuple[int, int]]:
    """(t, degree) of every `_ModuleSweep.step`, the degree the step moves to."""
    steps = []
    inner = syzygy._ModuleSweep.step

    def recording(self, gens):
        steps.append((self.t, self.D + 1))
        return inner(self, gens)

    monkeypatch.setattr(syzygy._ModuleSweep, "step", recording)
    return steps


# a generic arrangement of 7 lines: 21 nodes, so tau = 21
SEVEN_LINES = "x*y*z*(x+y+z)*(x+2*y+3*z)*(x-3*y+5*z)*(2*x+7*y-z)"
# the same lines and the line h = 0 of the plateau stop: f = h*g, so on
# h = 0 the partials are g times (1, a, b), share g's 7 roots there and
# never fill any degree; 28 nodes, so tau = 28
SEVEN_LINES_AND_H = SEVEN_LINES + "*(x+{}*y+{}*z)".format(*syzygy.PLATEAU_LINE)


@pytest.mark.parametrize("field", [QQ, GF(syzygy.CERT_PRIME)], ids=repr)
def test_rank_sweep_stops_where_persistence_holds(field, monkeypatch):
    # each sweep steps once per source degree to the stop: the J_f sweep
    # (t = 1) from source degree 0 (degree d-1 of J_f), and over Q the
    # certificate's V (t = 3) from the degree its first generators join
    # at: the Koszul relations at d-1, or a lifted kernel of degree k at
    # k+1
    steps = _record_sweep_steps(monkeypatch)

    def last_swept(f):
        steps.clear()
        profile = rank_profile(f, field)
        swept = [D - f.degree + 1 for t, D in steps if t == 1]
        assert swept == list(range(len(swept))), str(f)
        if field is QQ:
            first = min([f.degree - 1] + [k + 1 for k in profile.lifts])
            assert [D for t, D in steps if t == 3] == swept[first:], str(f)
        return swept[-1]

    # a smooth curve's Milnor algebra is 0 from degree 3d-5 on, which
    # rank J_(2d-4) fixes, and no rank past it is read
    for d in range(3, 7):
        assert last_swept(_dense_curve(random.Random(d), d)) == 2 * d - 4, d
    f = parse_poly("x^2*y^2*z")
    assert last_swept(f) == 2 < 2 * f.degree - 1
    # a reduced curve meets Gotzmann's condition only at D >= tau; here
    # tau = 21 > 3d-2.  The plateau stops it first, at source degree 5:
    # H(10) = H(11) = 21, and on h = 0 the partials (degree 6) fill degree
    # 10 through their 3*5 multiples.  The oracle stops there too.
    f = parse_poly(SEVEN_LINES)
    profile = rank_profile(f, field)
    assert profile.m(3 * f.degree - 1) == 21
    assert last_swept(f) == persistence_stop(f, profile.ranks) == 5
    D = 5 + f.degree - 2
    assert profile.m(D) == profile.m(D + 1) == 21 > D
    assert fills_on_line(f, D, syzygy.CERT_PRIME)
    # with h = 0 a component the plateau never fires, and Gotzmann's
    # condition waits for D >= tau = 28 > 3d-2: swept to top = 2d
    f = parse_poly(SEVEN_LINES_AND_H)
    assert rank_profile(f, field).m(3 * f.degree - 1) == 28
    assert last_swept(f) == 2 * f.degree
    assert not fills_on_line(f, 3 * f.degree, syzygy.CERT_PRIME)


def test_persistence_refuses_a_rank_above_macaulays_bound():
    # for a cubic, rank J_k fixes H(k+2): H(3) = 2 cannot follow H(2) = 1,
    # as 1^<2> = 1, so a source that reports it is broken
    ranks = iter([dim_S(2) - 1, dim_S(3) - 2])
    with pytest.raises(InternalInconsistencyError, match="Macaulay"):
        syzygy._persistent(partials(FERMAT3), QQ, 6, ranks)


def _sparse_form(rng, p, e):
    """A form of degree e with 1 to 4 terms, coefficients in [1, p)."""
    basis = monomial_basis(e)
    terms = rng.sample(basis, rng.randint(1, min(4, len(basis))))
    return HomogPoly(e, {mono: rng.randrange(1, p) for mono in terms})


@pytest.mark.parametrize("p", [2, 3, 7])
def test_plateau_lemma_holds_on_random_ideals(p):
    # the lemma of `syzygy._persistent`, over GF(p): for I generated in
    # degrees <= m and a linear form h != 0, (I + hS)_m = S_m and H(m+1) =
    # H(m) give H(E) = H(m) for every E >= m, checked to m+4.  Ranks are
    # the `_multiples_array` layout reduced mod p and ranked densely, as
    # `GF` takes odd primes only.
    rng = random.Random(p)

    def rank_mod_p(gens, E):
        return len(dense_mod_p_echelon(syzygy._multiples_array(gens, E) % p, p)[1])

    settled = flat_and_moving = 0
    for _ in range(600):
        m = rng.randint(1, 4)
        gens = [(_sparse_form(rng, p, rng.randint(1, m)),) for _ in range(rng.randint(2, 4))]
        H = [dim_S(E) - rank_mod_p(gens, E) for E in range(m + 5)]
        if H[m + 1] != H[m] or not H[m]:
            continue
        if rank_mod_p(gens + [(_sparse_form(rng, p, 1),)], m) == dim_S(m):
            settled += 1
            assert H[m:] == [H[m]] * 5, (m, gens)
        else:
            flat_and_moving += H[m:] != [H[m]] * 5
    # about 150 nontrivial cases each; and without the fill, a flat step
    # does not settle H
    assert settled >= 100
    assert flat_and_moving >= 1


def _module_generators(p):
    """Integer generators of a submodule of S^3 over GF(p): the Koszul
    relations of a dense quartic (degree 3), a tuple of degree 1 below
    them, one of degree 5 above them, and one of degree 2 that vanishes
    mod p, so it joins nothing."""
    rng = random.Random(p)
    f = _dense_curve(rng, 4)
    fx, fy, fz = partials(f)
    zero = HomogPoly.zero(3)

    def triple(e, scale=1):
        return tuple(HomogPoly(e, {mono: scale * rng.randint(1, 9) for mono in monomial_basis(e)}) for _ in range(3))

    vanishing = triple(2, p)
    assert all(c % p == 0 for part in vanishing for c in part.terms.values())
    return [(fy, -fx, zero), (fz, zero, -fx), (zero, fz, -fy), triple(1), triple(5), vanishing]


@pytest.mark.parametrize("p", [3, 5, 7, syzygy.CERT_PRIME, 2**61 - 1])
def test_module_sweep_matches_dense_ranks_of_the_multiples(p):
    field = GF(p)
    gens = _module_generators(p)
    sweep = syzygy._ModuleSweep(field, 3, -1)
    for k in range(9):
        dense = rank(multiples([g for g in gens if g[0].degree <= k], k, field))
        assert sweep.step([g for g in gens if g[0].degree == k]) == dense, k


def _assert_sweep_state_is_the_rref(sweep, gens, previous_piv):
    # B_D from the state (identity on `piv`, N on `non`) against the RREF
    # of the dense multiples at degree D, columns in monomial-major order.
    # The live and the retired pivots together are the RREF's pivots, and
    # the state holds the RREF's rows at the live ones.
    t, D, field = sweep.t, sweep.D, sweep.field
    n = dim_S(D)
    B = np.zeros((len(sweep.piv), t * n), dtype=sweep.N.dtype)
    B[np.arange(len(sweep.piv)), sweep.piv] = 1
    B[:, sweep.non] = sweep.N
    order = np.argsort(sweep.piv, kind="stable")
    dense = multiples([g for g in gens if g[0].degree <= D], D, field)
    rows, pivots = ([], []) if dense.rows == 0 else _rref(dense.columns((np.arange(n)[:, None] + n * np.arange(t)).ravel()))
    live, gone = set(sweep.piv.tolist()), set(sweep.gone.tolist())
    assert sorted(live | gone) == pivots and not live & gone, D
    assert B[order].tolist() == [row.tolist() for row, q in zip(rows, pivots) if q in live], D
    # the last w rows are the ones with the pivots this step added, after
    # the earlier rows that stay live, in their order
    kept = [q for q in previous_piv.tolist() if q not in gone]
    assert sweep.piv[: len(kept)].tolist() == kept, D
    assert len(sweep.piv) - len(kept) == sweep.w, D


@pytest.mark.parametrize("p", [7, syzygy.CERT_PRIME, 2**61 - 1])
def test_module_sweep_state_is_the_reduced_echelon_basis(p):
    field = GF(p)
    # t = 1: the Jacobian ideal of a dense sextic and of a cubic whose
    # gradient collapses mod 7, keeping every row and retiring the ones no
    # later step reads; t = 3: the submodule of S^3 above
    cases = [
        (1, f.degree - 2, [(part,) for part in partials(f)], retire)
        for f in (_dense_curve(random.Random(p), 6), parse_poly(DEGENERATE_MOD_3_5_7))
        for retire in (False, True)
    ]
    cases.append((3, -1, _module_generators(p), False))
    retired = []
    for t, D, gens, retire in cases:
        sweep = syzygy._ModuleSweep(field, t, D, retire=retire)
        for _ in range(9):
            previous_piv = sweep.piv
            sweep.step([g for g in gens if g[0].degree == sweep.D + 1])
            _assert_sweep_state_is_the_rref(sweep, gens, previous_piv)
        retired.append(len(sweep.gone) > 0)
    # of the retiring sweeps, only the sextic's reaches RETIRE_MIN_ROWS rows
    assert retired == [False, True, False, False, False]


@pytest.mark.parametrize("p", [7, syzygy.CERT_PRIME, 2**61 - 1])
def test_module_sweep_reduces_integer_tuples_once(p):
    # The sweeps take integer tuples and reduce their joining rows mod p in
    # one array.  Negative coefficients, and ones above 2^63 that no int64
    # holds, leave the state that their reductions mod p leave, in the
    # sweep's dtype: the gradient of a dense sextic plus 2^64 x^6, swept
    # with retiring, and integer triples of degrees 1, 2 and 4 in S^3.
    field = GF(p)
    rng = random.Random(p)
    f = _dense_curve(rng, 6) + HomogPoly(6, {(6, 0, 0): 2**64})
    big = HomogPoly(2, {(0, 2, 0): -(2**63) - 5, (1, 1, 0): 2**63 + 1})

    def triple(e):
        return tuple(HomogPoly(e, {mono: rng.randint(-9, 9) for mono in monomial_basis(e)}) for _ in range(3))

    triples = [triple(1), triple(2), triple(4)]
    triples[1] = (triples[1][0] + big, triples[1][1], big)
    retired = []
    for t, D, ints, retire in ((1, 4, [(part,) for part in _gradient(f)], True), (3, -1, triples, False)):
        assert any(c < 0 for g in ints for part in g for c in part.terms.values())
        assert any(abs(c) >= 2**63 for g in ints for part in g for c in part.terms.values())
        residues = [tuple(HomogPoly(part.degree, {m: c % p for m, c in part.terms.items()}) for part in g) for g in ints]
        sweeps = [syzygy._ModuleSweep(field, t, D, retire=retire) for _ in range(2)]
        for _ in range(9):
            dims = [sweep.step([g for g in gens if g[0].degree == sweep.D + 1]) for sweep, gens in zip(sweeps, (ints, residues))]
            assert dims[0] == dims[1], (t, sweeps[0].D)
            for name in ("piv", "non", "N", "gone"):
                got, want = (getattr(sweep, name) for sweep in sweeps)
                assert got.dtype == want.dtype and got.tolist() == want.tolist(), (t, sweeps[0].D, name)
        assert sweeps[0].N.dtype == _dtype(field)
        retired.append(len(sweeps[0].gone) > 0)
    assert retired == [True, False]


def _load_curve(name):
    return parse_poly(load_case(shipped_corpus_dir() / f"{name}.curve").expression)


def test_rank_sweep_matches_per_degree_ranks_at_degree_12():
    # braid6 and free12_c have singular points at coordinate points, so
    # columns such as x^D stay outside J_f and off the frontier
    field = GF(2_147_483_659)
    for f in (_load_curve("free12_a"), _load_curve("free12_c"), _load_curve("braid6"), _dense_curve(random.Random(12), 12)):
        _assert_sweep_matches_per_degree(f, 2 * f.degree, field)


def _jacobian_sweep(f, field, top):
    """The sweep of J_f that `_swept_ranks` runs, after its top step."""
    sweep = syzygy._ModuleSweep(field, 1, f.degree - 2, retire=True)
    sweep.step([(part,) for part in partials(f)])
    for _ in range(top):
        sweep.step([])
    return sweep


def test_rank_sweep_keeps_few_rows_live():
    # a later step reads an x row only where a shift of a row it appends
    # meets that row's pivot; at the top step the live rows were 20% of
    # the rank on free12_a and 5.4% on the dense curve
    field = GF(syzygy.CERT_PRIME)
    for f in (_load_curve("free12_a"), _dense_curve(random.Random(12), 12)):
        sweep = _jacobian_sweep(f, field, 2 * f.degree)
        grad = _gradient(f)
        assert len(sweep.piv) + len(sweep.gone) == syzygy._persistent(grad, field, 2 * f.degree, syzygy._swept_ranks(grad, field))[-1]
        assert len(sweep.piv) <= (len(sweep.piv) + len(sweep.gone)) / 4, str(f)


def test_rank_sweep_refuses_a_joining_row_at_a_retired_pivot():
    # x^D lies below every other cell, so once it is an old pivot it is
    # retired; a generator joining after the first step breaks the promise
    # `retire` makes, and its row x^(D+1) meets that pivot
    field = GF(syzygy.CERT_PRIME)
    sweep = _jacobian_sweep(_dense_curve(random.Random(6), 6), field, 12)
    assert 0 in sweep.gone.tolist()
    D = sweep.D
    with pytest.raises(InternalInconsistencyError, match="retired pivot"):
        sweep.step([(HomogPoly(D + 1, {(D + 1, 0, 0): 1}),)])


def test_retiring_sweep_matches_a_keeping_sweep_on_random_ideals(monkeypatch):
    # The retirement argument holds for any ideal whose generators all join
    # at the first step, not only a gradient.  With the threshold at 0 the
    # sweep scans at every step; small primes and sparse generators make
    # pivots and frontier cells move.  A keeping sweep, pinned to the dense
    # RREF elsewhere, is the reference.
    monkeypatch.setattr(syzygy, "RETIRE_MIN_ROWS", 0)
    rng = random.Random(2024)
    retired = 0
    for _ in range(500):
        field = GF(rng.choice([3, 5, 7, 11]))
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
        gens = [
            (HomogPoly(e, {mono: rng.randrange(field.char) for mono in monomial_basis(e) if rng.random() < 0.5}),)
            for e in degrees
        ]
        e = max(degrees)
        keeping = syzygy._ModuleSweep(field, 1, e - 1)
        retiring = syzygy._ModuleSweep(field, 1, e - 1, retire=True)
        for step in range(rng.randint(3, 8)):
            joining = gens if step == 0 else []
            assert retiring.step(joining) == keeping.step(joining), ([str(g) for (g,) in gens], field.name, step)
        retired += len(retiring.gone) > 0
    # most sets retire some row, so the comparison is not vacuous
    assert retired > 400, retired


def test_retiring_sweep_keeps_every_retired_pivot_off_the_kept_rows(monkeypatch):
    # The retirement argument: a joining row is a combination of shifts of
    # kept rows, so it can meet a retired pivot only if that pivot's cell
    # lies on or above a cell where a kept row is nonzero.  The frontier
    # holds the cells of the new rows and those of the x rows before they
    # are cleared, and after every step no retired pivot may lie on or
    # above a cell of a kept row, live pivots included.  In this submodule
    # of S^3 over GF(3), whose blocks share their cells, the step to degree
    # 4 would retire a row whose pivot lies above cells where x rows are
    # nonzero, and above none where the new rows are.
    monkeypatch.setattr(syzygy, "RETIRE_MIN_ROWS", 0)
    field = GF(3)

    def form(expr, e):
        return parse_poly(expr) if expr else HomogPoly.zero(e)

    gens = [(form("2*x^2", 2), form("", 2), form("x*y", 2)), (form("z", 1), form("2*y", 1), form("2*z", 1)), (form("", 1), form("y+2*z", 1), form("z", 1))]
    retiring = syzygy._ModuleSweep(field, 3, 1, retire=True)
    keeping = syzygy._ModuleSweep(field, 3, 1)
    for step in range(6):
        joining = gens if step == 0 else []
        assert retiring.step(joining) == keeping.step(joining), step
        cells = syzygy._column_cells(retiring.D, 3)
        kb, kc = cells[:, np.concatenate([retiring.piv, retiring.non[retiring.N.any(axis=0)]])]
        gb, gc = cells[:, retiring.gone]
        assert not ((kb[:, None] <= gb) & (kc[:, None] <= gc)).any(), retiring.D
    assert len(retiring.gone) > 0


def test_profile_holds_the_per_degree_ranks():
    for f, field in ((CUSP, QQ), (TRIANGLE, GF(2_147_483_659))):
        profile = rank_profile(f, field)
        d = f.degree
        assert profile.ranks == tuple(rank_jacobian(f, k, field) for k in range(2 * d + 1))
        for k in range(-1, 2 * d + 1):
            assert profile.ar(k) == 3 * dim_S(k) - rank_jacobian(f, k, field)
            assert profile.m(k) == dim_S(k) - rank_jacobian(f, k - d + 1, field)
    # the window degree 2d-1 is always covered, a larger table degree extends it
    assert len(rank_profile(CUSP, table_max=0).ranks) == 2 * CUSP.degree
    assert len(rank_profile(CUSP, table_max=9).ranks) == 10
    with pytest.raises(ValueError):
        rank_profile(CUSP).ar(2 * CUSP.degree + 1)


@pytest.mark.parametrize("field", [QQ, GF(syzygy.CERT_PRIME), FieldPlan.from_mode("auto", 0)], ids=repr)
def test_profile_keeps_the_primitive_integer_form(field):
    f = parse_poly("1/2*x^3+3/4*y^2*z-6*x*y*z")
    profile = rank_profile(f, field)
    assert profile.f == scaled(f, 4)
    coeffs = profile.f.terms.values()
    assert all(c.denominator == 1 for c in coeffs) and gcd(*(c.numerator for c in coeffs)) == 1
    for c in (Fraction(7, 3), Fraction(-2)):
        assert rank_profile(scaled(f, c), field).ranks == profile.ranks, c


@pytest.mark.parametrize("mode", ["auto", "pp"])
def test_a_smooth_profile_is_swept_over_one_prime(mode, monkeypatch):
    # H reaches 0 on a smooth curve, which proves the first prime's ranks;
    # a singular curve's H never does, and the second prime cross-checks it
    # (each sweep reads rank J_0 first)
    swept = _record_swept_degrees(monkeypatch)
    for expr, sweeps in (("x^3+y^3+z^3", 1), ("x^5+y^5+z^5+x^2*y^3", 1), ("x*y*z", 2), ("x^3-y^2*z", 2)):
        swept.clear()
        plan = FieldPlan.from_mode(mode, 0)
        rank_profile(parse_poly(expr), plan)
        assert swept.count(0) == sweeps, expr
        assert plan.fallbacks == 0, expr


def _smooth_curve(rng, d):
    """A smooth curve of degree d over Q, with its Bareiss ranks at source
    degrees 0..2d: the Fermat curve plus about a third of the other
    monomials, with small random coefficients, drawn until H(3d-5) = 0."""
    while True:
        terms = {mono: Fraction(rng.randint(-3, 3) or 1) for mono in monomial_basis(d) if rng.random() < 0.3}
        for mono in ((d, 0, 0), (0, d, 0), (0, 0, d)):
            terms[mono] = Fraction(1)
        f = HomogPoly(d, terms)
        ranks = jacobian_ranks(f, 2 * d, QQ)
        if ranks[2 * d - 4] == dim_S(3 * d - 5):
            return f, ranks


def test_one_prime_profile_of_a_smooth_curve_is_the_rational_one(monkeypatch):
    # the profile that one prime proves equals Bareiss over Q at every
    # degree to the top, for plans of 20 seeds (20 pairs of primes)
    swept = _record_swept_degrees(monkeypatch)
    rng = random.Random(25)
    for seed in range(20):
        f, expected = _smooth_curve(rng, 4 + seed % 3)
        swept.clear()
        assert rank_profile(f, FieldPlan.primes(seed)).ranks == expected, str(f)
        assert swept.count(0) == 1, str(f)


def test_profile_refuses_what_defines_no_curve():
    for f in (HomogPoly.zero(3), parse_poly("2")):
        for field in (QQ, FieldPlan.from_mode("auto", 0)):
            with pytest.raises(InputError, match="no curve"):
                rank_profile(f, field)
    # the saturation oracle refuses the zero form the same way
    with pytest.raises(InputError, match="no curve"):
        n_dim_saturation_oracle(HomogPoly.zero(3))


def test_profile_guard_admits_degree_32():
    d = 32
    top = 2 * d
    assert dim_S(top + d - 1) * 3 * dim_S(top) <= syzygy.MAX_PROFILE_CELLS
    top = 2 * (d + 1)
    assert dim_S(top + d) * 3 * dim_S(top) > syzygy.MAX_PROFILE_CELLS


def test_largest_curve_degree_follows_from_the_cell_bound():
    # the smallest profile of a degree-d curve reaches source degree 2d-1
    d = syzygy.MAX_CURVE_DEGREE
    assert d == 33
    assert dim_S(3 * d - 2) * 3 * dim_S(2 * d - 1) <= syzygy.MAX_PROFILE_CELLS
    assert dim_S(3 * d + 1) * 3 * dim_S(2 * d + 1) > syzygy.MAX_PROFILE_CELLS


def test_exact_sequence_cross_check():
    # m(f)_k = dim S_k - 3 dim S_(k-d+1) + ar(f)_(k-d+1) for all k in [0, 3d]
    for f in (TRIANGLE, CUSP, parse_poly("x*y*z*(x+y+z)")):
        d = f.degree
        profile = rank_profile(f, table_max=2 * d + 1)
        for k in range(0, 3 * d + 1):
            expected = dim_choose2(k + 2) - 3 * dim_choose2(k - d + 3) + profile.ar(k - d + 1)
            assert profile.m(k) == expected


def test_prime_field_dimensions_match_rational():
    # the Q side is eliminated exactly, independently of any prime (the
    # rational profile reads its ranks mod this very prime)
    field = GF(2_147_483_659)
    for f in (TRIANGLE, CUSP, FERMAT3):
        d = f.degree
        over_p = rank_profile(f, field)
        for k in range(0, 6):
            assert over_p.ar(k) == 3 * dim_S(k) - rank_jacobian(f, k, QQ)
            assert over_p.m(k) == dim_S(k) - rank_jacobian(f, k - d + 1, QQ)


# Smooth over Q, but its Jacobian ranks drop mod 3 (the cubes have zero
# derivative) and mod 5 and 7, where it is singular: x^3+y^3+z^3+t*xyz is
# singular exactly when t^3 = -27, and 2^3 + 27 = 5 * 7.
DEGENERATE_MOD_3_5_7 = "x^3+y^3+z^3+2*x*y*z"


@pytest.fixture(scope="module")
def bareiss_profiles():
    """(name, f, Bareiss ranks at 0..2d) for every shipped corpus curve of
    degree <= 6, 20 random reduced curves of degree 4..5 and one cubic.
    (The ranks of 20 random sextics would add about 6 s, one
    `jacobian_ranks` pass each.)"""
    curves = []
    for path in sorted(shipped_corpus_dir().glob("*.curve")):
        f = parse_poly(load_case(path).expression)
        if f.degree <= 6:
            curves.append((path.name, f))
    for i, profile in enumerate(random_reduced_curves(20, seed=7, max_degree=5)):
        curves.append((f"random {i}", profile.f))
    curves.append((DEGENERATE_MOD_3_5_7, parse_poly(DEGENERATE_MOD_3_5_7)))
    return [(name, f, jacobian_ranks(f, 2 * f.degree, QQ)) for name, f in curves]


def _record_kernel_reads(monkeypatch) -> list[int]:
    """The source degrees at which `_proved_ranks` asks for kernel vectors
    over Q, in order: the calls of the lift."""
    degrees = []
    inner = syzygy._lifted_kernel

    def recording(grad, k, P):
        degrees.append(k)
        return inner(grad, k, P)

    monkeypatch.setattr(syzygy, "_lifted_kernel", recording)
    return degrees


def _record_moduli(monkeypatch) -> list[int]:
    """The moduli of the lift's reconstructions, in order."""
    moduli = []
    inner = syzygy._reconstructed

    def recording(R, m):
        moduli.append(m)
        return inner(R, m)

    monkeypatch.setattr(syzygy, "_reconstructed", recording)
    return moduli


def _small_prime_cases(bareiss_profiles):
    # shipped curves of degree <= 4 and the cubic: with dense random
    # coefficients, an exact kernel at nearly every degree costs 6 s for a
    # quartic and more than 12 s for a quintic
    return [case for case in bareiss_profiles if not case[0].startswith("random") and case[1].degree <= 4]


def test_certified_profile_equals_bareiss(bareiss_profiles):
    for name, f, bareiss in bareiss_profiles:
        assert rank_profile(f, QQ).ranks == bareiss, name


def test_certificate_at_small_primes_falls_back_and_stays_exact(bareiss_profiles, monkeypatch):
    # A small prime often loses rank, so the bounds meet less often and the
    # kernel over Q steps in; the ranks must not change.
    cases = _small_prime_cases(bareiss_profiles)
    reads = _record_kernel_reads(monkeypatch)
    for name, f, bareiss in cases:
        grad = _gradient(f)
        assert syzygy._persistent(grad, QQ, len(bareiss) - 1, syzygy._proved_ranks(grad)) == bareiss, name
    at_cert_prime = len(reads)
    for prime in (3, 5, 7):
        reads.clear()
        for name, f, bareiss in cases:
            grad = _gradient(f)
            assert syzygy._persistent(grad, QQ, len(bareiss) - 1, syzygy._proved_ranks(grad, GF(prime))) == bareiss, (name, prime)
        assert len(reads) > at_cert_prime, prime


def test_certificate_reads_kernels_where_the_dense_reference_does(bareiss_profiles, monkeypatch):
    # A kernel vector that never joins V costs only time, which no rank can
    # show: the sweep of V must fall back at the same degrees as ranking
    # the multiples of every generator afresh at each degree.
    cases = _small_prime_cases(bareiss_profiles)
    primes = (syzygy.CERT_PRIME, 3, 5, 7)
    expected = {prime: [dense_certificate_kernel_degrees(f, bareiss, prime) for _, f, bareiss in cases] for prime in primes}
    reads = _record_kernel_reads(monkeypatch)
    for prime in primes:
        for (name, f, bareiss), degrees in zip(cases, expected[prime]):
            reads.clear()
            grad = _gradient(f)
            syzygy._persistent(grad, QQ, len(bareiss) - 1, syzygy._proved_ranks(grad, GF(prime)))
            assert reads == degrees, (name, prime)


@pytest.fixture(scope="module")
def certificate_kernel_reads():
    """(name, f, k) for every degree k at which the certified profile over
    Q reads a kernel, on the shipped corpus and on 12 seeded random reduced
    curves of degree 4..7, and the moduli of every reconstruction of those
    lifts.  The curves are products of dense random forms: the dense
    curves of `_dense_curve` are smooth, and the certificate reads no
    kernel on them."""
    curves = [(path.name, parse_poly(load_case(path).expression)) for path in sorted(shipped_corpus_dir().glob("*.curve"))]
    curves += [(f"random {i}", profile.f) for i, profile in enumerate(random_reduced_curves(12, seed=11, max_degree=7))]
    reads = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        degrees = _record_kernel_reads(monkeypatch)
        moduli = _record_moduli(monkeypatch)
        for name, f in curves:
            degrees.clear()
            profile = rank_profile(f, QQ)
            reads += [(name, profile.f, k) for k in degrees]
    return reads, moduli


def _leading_one(vectors):
    return [tuple(Fraction(c, next(x for x in v if x)) for c in v) for v in vectors]


def test_lifted_kernel_is_the_bareiss_kernel(certificate_kernel_reads):
    # The lift returns primitive integer vectors that, scaled to a leading
    # 1, are the reduced echelon basis over Q, from the certificate's prime
    # and from 3, 5 and 7, where many images are unlucky and dropped.
    reads, _ = certificate_kernel_reads
    assert {name for name, _, _ in reads} >= {"free12_a.curve", "braid6.curve", "random 11"}
    for name, f, k in reads:
        expected = kernel_basis(jacobian_matrix(f, k, QQ))
        for prime in (syzygy.CERT_PRIME, 3, 5, 7):
            lifted = syzygy._lifted_kernel(_gradient(f), k, GF(prime))
            assert all(gcd(*v) == 1 for v in lifted), (name, k, prime)
            assert _leading_one(lifted) == expected, (name, k, prime)


def test_lift_drops_an_unlucky_prime_and_keeps_combining(monkeypatch):
    # x^3+y^3+z^3+10xyz is singular mod 13 (10^3 + 27 = 13 * 79), where
    # ker J_2 has 6 vectors instead of 3.  Lifted from 11, the image mod 13
    # is dropped, and the combination goes on over 11, 17, 19 without
    # starting again.
    moduli = _record_moduli(monkeypatch)
    f = parse_poly("x^3+y^3+z^3+10*x*y*z")
    lifted = syzygy._lifted_kernel(_gradient(f), 2, GF(11))
    assert _leading_one(lifted) == kernel_basis(jacobian_matrix(f, 2, QQ))
    assert moduli == [11, 11 * 17, 11 * 17 * 19]


def test_certificate_prime_and_the_primes_above_it_are_lucky_on_every_kernel_read(certificate_kernel_reads):
    # On the shipped and the random curves no lift from CERT_PRIME drops a
    # prime or starts again: every modulus is the product of CERT_PRIME and
    # the primes right above it, and some lift combines several.
    reads, moduli = certificate_kernel_reads
    assert any(name.endswith(".curve") for name, _, _ in reads)
    products, m = set(), 1
    for P in syzygy._fields_from(syzygy.CERT_FIELD):
        m *= P.char
        products.add(m)
        if m >= max(moduli):
            break
    assert set(moduli) <= products
    assert max(moduli) > syzygy.CERT_PRIME


def test_certificate_clears_a_denominator_divisible_by_the_prime():
    # the certificate works on an integer multiple of f, which reduces mod p
    f = parse_poly(f"x^3+y^3+z^3+1/{syzygy.CERT_PRIME}*x*y*z")
    bareiss = jacobian_ranks(f, 2 * f.degree, QQ)
    assert rank_profile(f, QQ).ranks == bareiss
