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
from freecurve.linalg import ExactMatrix, _rref, rank
from freecurve.parser import parse_poly
from freecurve.poly import HomogPoly, dim_S, dim_choose2, monomial_basis, partials
from freecurve.syzygy import (
    Reducedness,
    Syzygy,
    jacobian_matrix,
    mdr,
    multiples,
    outside_span,
    rank_jacobian,
    rank_profile,
    reducedness_check,
    syzygy_basis,
)

from curvegen import random_reduced_curves
from oracles import ar_dim_oracle, dense_certificate_kernel_degrees, jacobian_matrix_oracle, milnor_dim_oracle

TRIANGLE = parse_poly("x*y*z")
CUSP = parse_poly("x^3-y^2*z")
FERMAT3 = parse_poly("x^3+y^3+z^3")


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
            assert jacobian_matrix(f, k, P).row_lists() == [[P.from_fraction(v) for v in row] for row in over_q]


def test_multiples_lay_out_each_monomial_multiple_as_one_row():
    rho1 = syzygy_basis(CUSP, 1)[0]
    for field in (QQ, GF(7)):
        rho = [part.map_field(field) for part in rho1]
        M = multiples([rho, rho], 3, field)
        expected = [
            [v for part in rho for v in part.mul_monomial(nu).coeff_vector()]
            for nu in syzygy.monomial_basis(2)
        ]
        assert M.row_lists() == expected + expected
        # a tuple above the degree contributes no row
        assert (multiples([rho], 0, field).rows, multiples([rho], 0, field).cols) == (0, 3)


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
    basis = syzygy_basis(TRIANGLE, 1)
    assert len(basis) == 2
    for syz in basis:
        assert syz.holds_for(TRIANGLE)
    again = syzygy_basis(TRIANGLE, 1)
    assert again == basis


def test_holds_for_checks_rational_syzygies_with_denominators():
    f = parse_poly("1/2*x^3 + 2/3*x*y*z + 1/5*y^3 - 3/7*z^3")
    fx, fy, fz = partials(f)
    eleventh = Fraction(1, 11)
    koszul = Syzygy(fy.scale(eleventh), (-fx).scale(eleventh), HomogPoly.zero(QQ, 2))
    assert koszul.holds_for(f)
    assert koszul.holds_for(f, partials(f))
    bump = HomogPoly(QQ, 2, {(0, 1, 1): Fraction(1, 13)})
    assert not Syzygy(koszul.a + bump, koszul.b, koszul.c).holds_for(f)
    for syz in syzygy_basis(f, 2):
        assert any(c.denominator > 1 for part in syz for c in part.terms.values())
        assert syz.holds_for(f)
        assert not Syzygy(syz.a, syz.b, syz.c + bump).holds_for(f)


def test_holds_for_reduces_the_integer_sums_mod_p():
    # f_x = 2x and f_y = 2y over GF(7): 3y*2x + 4x*2y = 14xy, a nonzero
    # integer multiple of 7, while 3y*2x + 5x*2y = 16xy is not
    field = GF(7)
    f = parse_poly("x^2+y^2")
    zero = HomogPoly.zero(field, 1)
    good = Syzygy(HomogPoly(field, 1, {(0, 1, 0): 3}), HomogPoly(field, 1, {(1, 0, 0): 4}), zero)
    bad = Syzygy(good.a, HomogPoly(field, 1, {(1, 0, 0): 5}), zero)
    grad = partials(f.map_field(field))
    assert good.holds_for(f) and good.holds_for(f, grad)
    assert not bad.holds_for(f) and not bad.holds_for(f, grad)
    # blocks a, b, c on the monomials x, y, z
    assert Syzygy.from_vector(f, 1, [0, 3, 0, 4, 0, 0, 0, 0, 0], field) == good
    with pytest.raises(InternalInconsistencyError, match="fails the defining relation"):
        Syzygy.from_vector(f, 1, [0, 3, 0, 5, 0, 0, 0, 0, 0], field)
    with pytest.raises(InternalInconsistencyError, match="fails the defining relation"):
        Syzygy.from_vector(f, 1, [Fraction(v) for v in (0, 3, 0, 4, 0, 0, 0, 0, 0)], QQ)


def test_cusp_minimal_syzygy_is_normalized():
    (syz,) = syzygy_basis(CUSP, 1)
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


def test_reducedness_reads_one_window(monkeypatch):
    # a non-constant Milnor window is final: no rank above source degree
    # 2d-1, the last one the window [3d-5, 3d-2] reads, is computed
    tops = []
    inner = syzygy._prime_ranks

    def recording(f, top, field):
        tops.append(top)
        return inner(f, top, field)

    monkeypatch.setattr(syzygy, "_prime_ranks", recording)
    kernel_degrees = _record_kernel_fallbacks(monkeypatch)
    f = parse_poly("x^2*y^2*z")
    profile = rank_profile(f, table_max=0)
    assert reducedness_check(profile) is Reducedness.NON_REDUCED
    assert max(tops + kernel_degrees) == 2 * f.degree - 1


def _dense_curve(rng, d):
    return HomogPoly(QQ, d, {mono: Fraction(rng.randint(-9, 9) or 1) for mono in monomial_basis(d)})


def _assert_sweep_matches_per_degree(f, top, field):
    expected = tuple(rank_jacobian(f, k, field) for k in range(top + 1))
    assert syzygy._prime_ranks(f, top, field) == expected, (str(f), field.name)


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


@pytest.mark.parametrize("p", [7, syzygy.CERT_PRIME])
def test_rank_sweep_shifts_only_the_rows_the_last_step_appended(p, monkeypatch):
    # (J_f)_(D+1) = x(J_f)_D + y W_D + z W_D: the residual of the step from
    # source degree k to k+1 holds the joining rows y and z times the
    # ranks[k] - ranks[k-1] rows that step k appended, reduced in one pass,
    # not times all of (J_f)_(k+d-1)
    shapes = []
    inner = syzygy._mod_p_echelon

    def recording(a, prime, reduced=False):
        shapes.append(a.shape)
        return inner(a, prime, reduced)

    monkeypatch.setattr(syzygy, "_mod_p_echelon", recording)
    f = _dense_curve(random.Random(p), 6)
    ranks = syzygy._prime_ranks(f, 2 * f.degree, GF(p))
    residual_rows = [rows for rows, _ in shapes[1:]]
    assert residual_rows == [2 * (ranks[k] - (ranks[k - 1] if k else 0)) for k in range(len(ranks) - 1)]


def _module_generators(p):
    """A submodule of S^3 over GF(p): the Koszul relations of a dense
    quartic (degree 3), a tuple of degree 1 below them, one of degree 5
    above them, and one of degree 2 that vanishes mod p, so it joins
    nothing."""
    field = GF(p)
    rng = random.Random(p)
    f = _dense_curve(rng, 4)
    fx, fy, fz = partials(f.map_field(field))
    zero = HomogPoly.zero(field, 3)

    def triple(e, scale=1):
        parts = (HomogPoly(QQ, e, {mono: Fraction(scale * rng.randint(1, 9)) for mono in monomial_basis(e)}) for _ in range(3))
        return tuple(part.map_field(field) for part in parts)

    vanishing = triple(2, p)
    assert all(part.is_zero() for part in vanishing)
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
    # of the dense multiples at degree D, columns in monomial-major order
    t, D, field = sweep.t, sweep.D, sweep.field
    n = dim_S(D)
    B = np.zeros((len(sweep.piv), t * n), dtype=sweep.N.dtype)
    B[np.arange(len(sweep.piv)), sweep.piv] = 1
    B[:, sweep.non] = sweep.N
    order = np.argsort(sweep.piv, kind="stable")
    dense = multiples([g for g in gens if g[0].degree <= D], D, field)
    expected = ([], []) if dense.rows == 0 else _rref(dense.columns((np.arange(n)[:, None] + n * np.arange(t)).ravel()))
    assert (B[order].tolist(), sorted(sweep.piv.tolist())) == expected, D
    # the last w rows are the ones with the pivots this step added
    assert sweep.piv[: len(previous_piv)].tolist() == previous_piv.tolist(), D
    assert len(sweep.piv) - len(previous_piv) == sweep.w, D


@pytest.mark.parametrize("p", [7, syzygy.CERT_PRIME, 2**61 - 1])
def test_module_sweep_state_is_the_reduced_echelon_basis(p):
    field = GF(p)
    # t = 1: the Jacobian ideal of a dense sextic and of a cubic whose
    # gradient collapses mod 7; t = 3: the submodule of S^3 above
    cases = [
        (1, f.degree - 2, [(part,) for part in partials(f.map_field(field))])
        for f in (_dense_curve(random.Random(p), 6), parse_poly(DEGENERATE_MOD_3_5_7))
    ]
    cases.append((3, -1, _module_generators(p)))
    for t, D, gens in cases:
        sweep = syzygy._ModuleSweep(field, t, D)
        for _ in range(9):
            previous_piv = sweep.piv
            sweep.step([g for g in gens if g[0].degree == sweep.D + 1])
            _assert_sweep_state_is_the_rref(sweep, gens, previous_piv)


def test_rank_sweep_matches_per_degree_ranks_at_degree_12():
    field = GF(2_147_483_659)
    free12_a = parse_poly(load_case(shipped_corpus_dir() / "free12_a.curve").expression)
    for f in (free12_a, _dense_curve(random.Random(12), 12)):
        _assert_sweep_matches_per_degree(f, 2 * f.degree, field)


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
    assert profile.f == f.scale(Fraction(4))
    coeffs = profile.f.terms.values()
    assert all(c.denominator == 1 for c in coeffs) and gcd(*(c.numerator for c in coeffs)) == 1
    for c in (Fraction(7, 3), Fraction(-2)):
        assert rank_profile(f.scale(c), field).ranks == profile.ranks, c


def test_profile_refuses_what_defines_no_curve():
    for f in (HomogPoly.zero(QQ, 3), parse_poly("2")):
        for field in (QQ, FieldPlan.from_mode("auto", 0)):
            with pytest.raises(InputError, match="no curve"):
                rank_profile(f, field)


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
    (Bareiss ranks of 20 random sextics would take about a minute.)"""
    curves = []
    for path in sorted(shipped_corpus_dir().glob("*.curve")):
        f = parse_poly(load_case(path).expression)
        if f.degree <= 6:
            curves.append((path.name, f))
    for i, profile in enumerate(random_reduced_curves(20, seed=7, max_degree=5)):
        curves.append((f"random {i}", profile.f))
    curves.append((DEGENERATE_MOD_3_5_7, parse_poly(DEGENERATE_MOD_3_5_7)))
    return [(name, f, tuple(rank_jacobian(f, k, QQ) for k in range(2 * f.degree + 1))) for name, f in curves]


def _record_kernel_fallbacks(monkeypatch) -> list[int]:
    degrees = []
    inner = syzygy.syzygy_basis

    def recording(f, k, field=QQ, **kwargs):
        degrees.append(k)
        return inner(f, k, field, **kwargs)

    monkeypatch.setattr(syzygy, "syzygy_basis", recording)
    return degrees


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
    # exact kernel steps in; the ranks must not change.
    cases = _small_prime_cases(bareiss_profiles)
    fallbacks = _record_kernel_fallbacks(monkeypatch)
    for name, f, bareiss in cases:
        assert syzygy._certified_ranks(f, len(bareiss) - 1) == bareiss, name
    at_cert_prime = len(fallbacks)
    for prime in (3, 5, 7):
        fallbacks.clear()
        for name, f, bareiss in cases:
            assert syzygy._certified_ranks(f, len(bareiss) - 1, prime) == bareiss, (name, prime)
        assert len(fallbacks) > at_cert_prime, prime


def test_certificate_reads_kernels_where_the_dense_reference_does(bareiss_profiles, monkeypatch):
    # A kernel vector that never joins V costs only time, which no rank can
    # show: the sweep of V must fall back at the same degrees as ranking
    # the multiples of every generator afresh at each degree.
    cases = _small_prime_cases(bareiss_profiles)
    primes = (syzygy.CERT_PRIME, 3, 5, 7)
    expected = {
        prime: [dense_certificate_kernel_degrees(f, len(bareiss) - 1, prime) for _, f, bareiss in cases] for prime in primes
    }
    fallbacks = _record_kernel_fallbacks(monkeypatch)
    for prime in primes:
        for (name, f, bareiss), degrees in zip(cases, expected[prime]):
            fallbacks.clear()
            syzygy._certified_ranks(f, len(bareiss) - 1, prime)
            assert fallbacks == degrees, (name, prime)


def test_certificate_clears_a_denominator_divisible_by_the_prime():
    # the certificate works on an integer multiple of f, which reduces mod p
    f = parse_poly(f"x^3+y^3+z^3+1/{syzygy.CERT_PRIME}*x*y*z")
    bareiss = tuple(rank_jacobian(f, k, QQ) for k in range(2 * f.degree + 1))
    assert rank_profile(f, QQ).ranks == bareiss
