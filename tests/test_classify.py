"""Classification criteria, the exterior pairing, and structural checks."""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest

from freecurve import syzygy
from freecurve.classify import (
    FREE,
    NEARLY_FREE,
    NEITHER,
    PENCIL_OF_LINES,
    SMOOTH,
    classify,
    cross_product,
    ctst_test,
    delta_test,
    free_pair,
    nearly_free_generators,
    nearly_free_resolution_dim,
    pairing,
    resolution_matches,
    saito_verify,
    tau_test,
)
from freecurve.corpus import load_case
from freecurve.data import shipped_corpus_dir
from freecurve.errors import InternalInconsistencyError, NotReducedError
from freecurve.fields import GF, QQ, FieldPlan
from freecurve.invariants import compute_bundle, n_dim, tau_max, tjurina
from freecurve.linalg import ExactMatrix, kernel_basis
from freecurve.parser import parse_poly
from freecurve.poly import HomogPoly, choose2, dim_S, partials, poly_str
from freecurve.report import analyze
from freecurve.syzygy import (
    CERT_FIELD,
    Reducedness,
    Syzygy,
    jacobian_matrix,
    multiples,
    outside_span,
    rank_profile,
    reducedness_check,
    syzygy_basis,
)
from oracles import residue, scaled

TRIANGLE = parse_poly("x*y*z")
CUSP = parse_poly("x^3-y^2*z")


def classify_curve(f, field=QQ):
    return classify(compute_bundle(rank_profile(f, field)))


def syz(a, b, c):
    def to_poly(text_or_zero, degree):
        if text_or_zero == "0":
            return HomogPoly.zero(degree)
        return parse_poly(text_or_zero)

    parts = [p for p in (a, b, c) if p != "0"]
    degree = parse_poly(parts[0]).degree
    return Syzygy(to_poly(a, degree), to_poly(b, degree), to_poly(c, degree))


@pytest.mark.parametrize(
    "d,r,tau,expected",
    [
        (12, 1, 111, FREE),
        (3, 1, 2, NEARLY_FREE),
        (12, 4, 80, NEITHER),
        (12, 4, 93, FREE),
        (12, 4, 92, NEARLY_FREE),
        (4, 2, 6, NEARLY_FREE),  # r = d/2 admits nearly free, never free
        (4, 2, 7, NEITHER),
        (3, 2, 1, NEITHER),
    ],
)
def test_tau_test(d, r, tau, expected):
    assert tau_test(d, r, tau) == expected


def test_ctst_test_trichotomy():
    assert ctst_test(2, 1, 3) == FREE
    assert ctst_test(2, 3, 3) == NEARLY_FREE
    assert ctst_test(3, 3, 3) == NEITHER
    with pytest.raises(InternalInconsistencyError):
        ctst_test(2, 2, 3)  # T + 1 cannot occur
    with pytest.raises(InternalInconsistencyError):
        ctst_test(1, 1, 3)  # below T cannot occur
    with pytest.raises(ValueError):
        ctst_test(None, 4, 3)


def test_delta_test_examples():
    assert delta_test(rank_profile(TRIANGLE), 1) == FREE
    assert delta_test(rank_profile(CUSP), 1) == NEARLY_FREE
    assert delta_test(rank_profile(parse_poly("x^3+x^2*z-y^2*z")), 2) == NEITHER


def test_cross_product_unit_vectors():
    one = HomogPoly(0, {(0, 0, 0): __import__("fractions").Fraction(1)})
    zero = HomogPoly.zero(0)
    e1, e2 = (one, zero, zero), (zero, one, zero)
    cx = cross_product(e1, e2)
    assert cx[0].is_zero() and cx[1].is_zero() and poly_str(cx[2]) == "1"


def test_cross_product_antisymmetry():
    rho = syz("x", "-y", "0")
    cx = cross_product(rho, rho)
    assert all(c.is_zero() for c in cx)


def test_cross_product_of_triangle_syzygies_is_gradient():
    rho1 = syz("x", "-y", "0")
    rho2 = syz("x", "0", "-z")
    cx = cross_product(rho1, rho2)
    grad = partials(TRIANGLE)
    assert cx[0] == grad.fx and cx[1] == grad.fy and cx[2] == grad.fz


def test_pairing_triangle_is_one():
    rho1 = syz("x", "-y", "0")
    rho2 = syz("x", "0", "-z")
    h = pairing(rho1, rho2, partials(TRIANGLE))
    assert h.degree == 0 and poly_str(h) == "1"


def test_pairing_antisymmetry_and_multiples():
    rho1 = syz("x", "-y", "0")
    assert pairing(rho1, rho1, partials(TRIANGLE)).is_zero()
    scaled = Syzygy(*(p.mul_monomial((0, 0, 1)) for p in rho1))
    assert pairing(rho1, scaled, partials(TRIANGLE)).is_zero()


def test_pairing_bilinear_on_random_syzygy_combinations():
    rng = random.Random(5)
    basis = syzygy_basis(rank_profile(TRIANGLE), 1)
    r1, r2 = basis
    for _ in range(5):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = Syzygy(*(scaled(p, a) + scaled(q, b) for p, q in zip(r1, r2)))
        lhs = pairing(combo, r2, partials(TRIANGLE))
        rhs = scaled(pairing(r1, r2, partials(TRIANGLE)), a)
        assert lhs == rhs  # the r2-component drops out by antisymmetry


def test_saito_verify_triangle():
    rho1 = syz("x", "-y", "0")
    rho2 = syz("x", "0", "-z")
    assert saito_verify(partials(TRIANGLE), rho1, rho2)


def test_saito_verify_rejects_dependent_pair():
    # degrees still sum to d-1, but the pair is dependent, so h = 0
    rho1 = syz("x", "-y", "0")
    assert not saito_verify(partials(TRIANGLE), rho1, rho1)
    rho2 = syz("x", "0", "-z")
    combo = Syzygy(*(p + scaled(q, 2) for p, q in zip(rho2, rho1)))
    assert saito_verify(partials(TRIANGLE), rho1, combo)  # combos off the line still work


def test_saito_verify_degree_precondition():
    rho1 = syz("x", "-y", "0")
    too_big = Syzygy(*(p.mul_monomial((1, 0, 0)) for p in rho1))
    with pytest.raises(ValueError):
        saito_verify(partials(TRIANGLE), rho1, too_big)


def test_v_map_kills_the_minimal_syzygy_and_its_multiples():
    basis = syzygy_basis(rank_profile(TRIANGLE), 1)
    rho1 = basis[0]
    assert pairing(rho1, rho1, partials(TRIANGLE)).is_zero()
    assert pairing(basis[1], rho1, partials(TRIANGLE)).degree == 0
    assert not pairing(basis[1], rho1, partials(TRIANGLE)).is_zero()


def test_v_map_cusp_gives_independent_linear_forms():
    profile = rank_profile(CUSP)
    (rho1,) = syzygy_basis(profile, 1)
    _, rho2, rho3 = nearly_free_generators(profile, 1)
    l2 = pairing(rho2, rho1, partials(CUSP))
    l3 = pairing(rho3, rho1, partials(CUSP))
    assert l2.degree == 1 and l3.degree == 1
    vecs = [l2.coeff_vector(), l3.coeff_vector()]
    # independence: the 2x3 coefficient matrix has a nonzero 2-minor
    minors = [
        vecs[0][i] * vecs[1][j] - vecs[0][j] * vecs[1][i]
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    assert any(m != 0 for m in minors)


def test_nearly_free_generators_cusp():
    profile = rank_profile(CUSP)
    rho1, rho2, rho3 = nearly_free_generators(profile, 1)
    assert rho1.degree == 1 and rho2.degree == 2 and rho3.degree == 2
    for s in (rho1, rho2, rho3):
        assert s.holds_for(partials(CUSP))
    # ar(f)_k matches the three-generator resolution count through d+2
    for k in range(0, CUSP.degree + 3):
        assert profile.ar(k) == nearly_free_resolution_dim(CUSP.degree, 1, k)
    assert resolution_matches(profile, 1)


def test_resolution_matches_reads_every_profile_degree():
    profile = rank_profile(CUSP)
    top = len(profile.ranks) - 1
    assert top > CUSP.degree + 2
    # one more syzygy at the top degree only, above d+2
    bumped = dataclasses.replace(profile, ranks=profile.ranks[:top] + (profile.ranks[top] - 1,))
    assert not resolution_matches(bumped, 1)


def test_resolution_formula_implies_the_nearly_free_consequences():
    # what a verified nearly free curve needs no separate check for
    for d in range(3, 41):
        for r in range(1, d // 2 + 1):
            tau = tau_max(d, r) - 1
            T = 3 * (d - 2)

            def ar(k):
                return nearly_free_resolution_dim(d, r, k)

            assert ar(d - r - 1) == dim_S(d - 2 * r - 1), (d, r)
            assert ar(d - r) - dim_S(d - 2 * r) == 2, (d, r)  # delta_(d-r)
            for s in range(2 * d - r - 2, T + 1):
                assert n_dim(d, s, tau, ar) == 0, (d, r, s)
            # the closed form ar_k = 3 choose2(k+2) - choose2(d+k+1) + tau
            for k in range(d - r - 1, 3 * d):
                assert ar(k) == 3 * choose2(k + 2) - choose2(d + k + 1) + tau, (d, r, k)


def test_nearly_free_generators_rejects_free_curve():
    with pytest.raises(InternalInconsistencyError):
        nearly_free_generators(rank_profile(TRIANGLE), 1)
    assert not resolution_matches(rank_profile(TRIANGLE), 1)


def test_free_pair_triangle():
    rho1, rho2 = free_pair(rank_profile(TRIANGLE), 1)
    assert saito_verify(partials(TRIANGLE), rho1, rho2)


@pytest.mark.parametrize(
    "expr,verdict,exponents,symmetry",
    [
        ("x*y*z", FREE, (1, 1), True),
        ("x^3-y^2*z", NEARLY_FREE, (1, 2), True),
        ("x^4-y^3*z", NEARLY_FREE, (1, 3), True),
        ("x*y*z*(x+y+z)", NEARLY_FREE, (2, 2), False),
        ("x*y*z*(x-y)*(x-z)*(y-z)", FREE, (2, 3), False),
        ("x^3+x^2*z-y^2*z", NEITHER, None, False),
        ("x^3+y^3+z^3", SMOOTH, None, False),
        ("x*y*(x+y)", PENCIL_OF_LINES, None, False),
    ],
)
def test_classify_verdicts(expr, verdict, exponents, symmetry):
    c = classify_curve(parse_poly(expr))
    assert c.verdict == verdict
    assert c.exponents == exponents
    assert c.symmetry_flag == symmetry
    if verdict in (FREE, NEARLY_FREE):
        assert c.verified is True
        assert c.criteria == {"tau_test": True, "ctst_test": True, "delta_test": True}


def test_classify_rejects_nonreduced():
    with pytest.raises(NotReducedError):
        classify_curve(parse_poly("x^2*y"))


def test_classify_exponent_identities():
    braid = parse_poly("x*y*z*(x-y)*(x-z)*(y-z)")
    profile = rank_profile(braid)
    c = classify(compute_bundle(profile))
    d1, d2 = c.exponents
    d = braid.degree
    assert d1 + d2 == d - 1
    assert tjurina(profile) == (d - 1) ** 2 - d1 * d2

    quad = parse_poly("x*y*z*(x+y+z)")
    profile = rank_profile(quad)
    c = classify(compute_bundle(profile))
    d1, d2 = c.exponents
    assert d1 + d2 == quad.degree
    assert tjurina(profile) == (quad.degree - 1) ** 2 - d1 * (d2 - 1) - 1


def test_classify_with_prime_plan_matches_rational():
    for expr in ("x*y*z", "x^3-y^2*z", "x*y*z*(x+y+z)", "x^3+x^2*z-y^2*z"):
        f = parse_poly(expr)
        c_qq = classify_curve(f, QQ)
        c_pp = classify_curve(f, FieldPlan.primes(3))
        assert c_qq.verdict == c_pp.verdict
        assert c_qq.exponents == c_pp.exponents
        assert c_qq.verified == c_pp.verified


def test_qq_analysis_reads_the_certificate_lifts_and_builds_no_bareiss_kernel(monkeypatch):
    # Over Q the structural checks read the kernels the certificate lifted
    # (`RankProfile.lifts`) and lift on demand where its bounds met: no
    # kernel is eliminated over Q.  braid6 (Free) and the four general
    # lines (NearlyFree, r = d/2) need only the certificate's lifts; the
    # quartic y*z^3-x^4 (NearlyFree, r = 1) has AR(f)_3 spanned by the
    # Koszul relations and the multiples of rho1, so the check lifts there.
    def rational_refused(inner):
        def wrapper(M):
            assert M.field.char, f"a kernel of a {M.rows}x{M.cols} matrix eliminated over Q"
            return inner(M)

        return wrapper

    def counted(grad, k, P):
        lifted.append(k)
        return lift(grad, k, P)

    modules = [m for name, m in sys.modules.items() if name.startswith("freecurve.")]
    for module in modules:
        for name in ("kernel_basis", "integer_kernel_basis"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, rational_refused(getattr(module, name)))
    lift, lifted = syzygy._lifted_kernel, []
    for module in modules:
        if getattr(module, "_lifted_kernel", None) is lift:
            monkeypatch.setattr(module, "_lifted_kernel", counted)
    braid6 = load_case(shipped_corpus_dir() / "braid6.curve").expression
    for expr, verdict, added in ((braid6, FREE, []), ("x*y*z*(x+y+z)", NEARLY_FREE, []), ("y*z^3-x^4", NEARLY_FREE, [3])):
        f = parse_poly(expr)
        lifted.clear()
        certificate = sorted(rank_profile(f, QQ).lifts)
        assert lifted == certificate, expr
        lifted.clear()
        report = analyze(f, QQ)
        assert report["classification"]["verdict"] == verdict, expr
        assert report["classification"]["verified"] is True, expr
        assert lifted == certificate + added, expr


def test_one_gradient_per_analysis(monkeypatch):
    # The rank profile differentiates the primitive form once and keeps the
    # gradient (`RankProfile.grad`): the sweeps, the Koszul relations, every
    # lift, the plateau's restriction and the structural checks read it.
    # In qq y*z^3-1/7*x^4 (NearlyFree (1, 3)) lifts on demand at degree 3,
    # and (1/2*x^3-1/3*y^2*z)*z (Free) pairs its generators (Saito); in
    # auto no prime differentiates f again.
    differentiated, partial = [], HomogPoly.partial

    def counted(self, axis):
        differentiated.append((str(self), axis))
        return partial(self, axis)

    def recorded(grad, k, P):
        lifted.append(k)
        return lift(grad, k, P)

    monkeypatch.setattr(HomogPoly, "partial", counted)
    lift, lifted = syzygy._lifted_kernel, []
    for module in [m for name, m in sys.modules.items() if name.startswith("freecurve.")]:
        if getattr(module, "_lifted_kernel", None) is lift:
            monkeypatch.setattr(module, "_lifted_kernel", recorded)
    for expr, verdict, on_demand in (("y*z^3-1/7*x^4", NEARLY_FREE, [3]), ("(1/2*x^3-1/3*y^2*z)*z", FREE, [])):
        f = parse_poly(expr)
        form = str(syzygy.primitive_form(f))
        certificate = sorted(rank_profile(f, QQ).lifts)
        for mode in ("qq", "auto"):
            differentiated.clear()
            lifted.clear()
            report = analyze(f, FieldPlan.from_mode(mode, 0))
            assert report["classification"]["verdict"] == verdict, (expr, mode)
            assert report["classification"]["verified"] is True, (expr, mode)
            assert differentiated == [(form, 0), (form, 1), (form, 2)], (expr, mode)
            assert lifted == (certificate + on_demand if mode == "qq" else []), (expr, mode)


def _curves_over_q_with_generators():
    # the Free and NearlyFree curves of the corpus and of the families, the
    # families up to the degree their qq cases run at
    from test_families import MONOMIAL_ARRANGEMENTS, QQ_MAX_DEGREE, SYMMETRIC

    exprs = [load_case(path).expression for path in sorted(shipped_corpus_dir().glob("*.curve"))]
    for family, members in (("symmetric", SYMMETRIC), ("arrangement", MONOMIAL_ARRANGEMENTS)):
        exprs += [expr for expr, _, _ in members if parse_poly(expr).degree <= QQ_MAX_DEGREE[family]]
    for expr in exprs:
        profile = rank_profile(parse_poly(expr), QQ)
        if reducedness_check(profile) is Reducedness.REDUCED:
            bundle = compute_bundle(profile)
            verdict = classify(bundle).verdict
            if verdict in (FREE, NEARLY_FREE):
                yield expr, profile, bundle.r, verdict


def _leading_one(triple):
    vec = [c for part in triple for c in part.coeff_vector()]
    lead = next(c for c in vec if c)
    return tuple(Fraction(c) / lead for c in vec)


def test_generators_over_q_span_the_lines_of_the_canonical_kernel_vectors():
    # Over Q free_pair and nearly_free_generators return the certificate's
    # primitive integer triples.  Each spans the line of the canonical
    # (leading-1) kernel vector that Bareiss gives: rho1 first at degree r,
    # then the vectors at d-1-r or d-r outside S * rho1.  On the canonical
    # pair, with f's own gradient, the Saito check reads the same truth
    # value as on the integer pair with the profile's gradient, and the
    # pairing of the integer pair over a prime is its pairing over Q
    # reduced mod p: over CERT_FIELD in int64 arrays, over 2^61 - 1 in
    # object ones.
    seen = set()
    for expr, profile, r, verdict in _curves_over_q_with_generators():
        degree = profile.d - r - (verdict == FREE)
        got = free_pair(profile, r) if verdict == FREE else nearly_free_generators(profile, r)
        assert all(type(c) is int for triple in got for part in triple for c in part.terms.values()), expr
        rho1 = kernel_basis(jacobian_matrix(profile.f, r, QQ))[0]
        kernel = kernel_basis(jacobian_matrix(profile.f, degree, QQ))
        picked = outside_span(multiples([Syzygy.from_vector(r, rho1)], degree, QQ), ExactMatrix.from_rows(QQ, kernel))
        canonical = [rho1, *(kernel[i] for i in picked)]
        assert [_leading_one(triple) for triple in got] == canonical, expr
        if verdict == FREE:
            f = parse_poly(expr)
            pair = [Syzygy.from_vector(k, v) for k, v in zip((r, degree), canonical)]
            assert saito_verify(profile.grad, *got) is saito_verify(partials(f), *pair) is True, expr
            h = pairing(*got, profile.grad)
            for F in (CERT_FIELD, GF(2**61 - 1)):
                reduced = HomogPoly(h.degree, {m: residue(c, F.p) for m, c in h.terms.items()})
                assert pairing(*got, profile.grad, F) == reduced, (expr, F)
        seen.add(verdict)
    assert seen == {FREE, NEARLY_FREE}
