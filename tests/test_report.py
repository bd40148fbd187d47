"""Per-curve reports: the field block, fallbacks, agreement counts and tables."""

import gc
import json

import pytest

from freecurve import invariants, syzygy
from freecurve.cli import main
from freecurve.errors import InternalInconsistencyError
from freecurve.fields import GF, QQ, FieldPlan, PrimeField, _prime_pair
from freecurve.invariants import delta_dim, n_dim
from freecurve.parser import parse_poly
from freecurve.poly import monomial_basis
from freecurve.report import analyze, render_json
from freecurve.syzygy import rank_profile

# The first prime drawn from seed 0 divides a denominator of this cubic.
UNLUCKY_AT_SEED_0 = "x^3+y^3+z^3+1/2190953423*x*y*z"
# The second prime drawn from seed 0 divides a denominator of this cubic.
SECOND_UNLUCKY_AT_SEED_0 = "x^3+y^3+z^3+1/2582278367*x*y*z"
# ... and of this triangle, whose primitive form reduces mod it to x^2*y.
SINGULAR_SECOND_UNLUCKY_AT_SEED_0 = "x*y*z+1/2582278367*x^2*y"


def _without_field(report):
    return {k: v for k, v in report.items() if k != "field"}


def test_unlucky_prime_falls_back_once():
    f = parse_poly(UNLUCKY_AT_SEED_0)
    plan = FieldPlan.from_mode("auto", 0)
    assert plan.fields[0].p == 2190953423
    auto = analyze(f, plan)
    assert _without_field(auto) == _without_field(analyze(f, FieldPlan.from_mode("qq")))
    # one agreement fell back: the rank profile (a smooth cubic has no
    # structural check)
    assert auto["field"]["fallbacks"] == plan.fallbacks == 1


def test_plans_of_one_seed_share_primes_but_not_fallbacks():
    # a seed's primes are drawn once; each plan is its own object and
    # counts its own fallbacks
    first, second = (FieldPlan.from_mode(mode, 0) for mode in ("auto", "auto"))
    assert first is not second
    assert first.describe()["primes"] == second.describe()["primes"] == [2190953423, 2582278367]
    assert FieldPlan.from_mode("pp", 0).describe()["primes"] == first.describe()["primes"]
    analyze(parse_poly(UNLUCKY_AT_SEED_0), first)
    assert first.fallbacks == 1
    assert second.fallbacks == 0 and second.describe()["fallbacks"] == 0


def test_module_state_is_bounded_over_a_long_batch():
    # A batch makes one plan per curve from its seed.  Over seeds 0-299 in
    # one process the module-level caches hold what the curves' degrees
    # put there at the first seeds, and the seed-keyed prime pairs, the
    # only prime fields kept past their plans, stay within their lru bound.
    curves = [parse_poly(expr) for expr in ("x*y*z", "x^3-y^2*z", "x*y*z*(x+y+z)")]
    by_degree = (monomial_basis, syzygy._shift_maps, syzygy._column_cells)

    def live_fields():
        gc.collect()
        return sum(isinstance(obj, PrimeField) for obj in gc.get_objects())

    before = live_fields()
    for seed in range(300):
        if seed == 10:
            warm = [cache.cache_info().currsize for cache in by_degree]
        for f in curves:
            analyze(f, FieldPlan.from_mode("auto", seed))
    assert [cache.cache_info().currsize for cache in by_degree] == warm
    kept = _prime_pair.cache_info().maxsize
    assert _prime_pair.cache_info().currsize <= kept < 300
    assert live_fields() - before <= 2 * kept


def test_unlucky_prime_without_fallback_aborts(capsys):
    assert main(["analyze", "--poly", UNLUCKY_AT_SEED_0, "--json", "--field", "pp"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_one_prime_proves_a_smooth_curve_whose_second_prime_is_unlucky(capsys):
    # the primitive form reduces mod the second prime to x*y*z, whose ranks
    # differ from the smooth cubic's; the first prime's profile reaches
    # H = 0, which proves it, so the second prime is never swept
    f = parse_poly(SECOND_UNLUCKY_AT_SEED_0)
    plan = FieldPlan.from_mode("auto", 0)
    assert plan.fields[1].p == 2582278367
    auto = analyze(f, plan)
    assert _without_field(auto) == _without_field(analyze(f, FieldPlan.from_mode("qq")))
    assert auto["field"]["fallbacks"] == plan.fallbacks == 0
    assert main(["analyze", "--poly", SECOND_UNLUCKY_AT_SEED_0, "--json", "--field", "pp"]) == 0
    assert json.loads(capsys.readouterr().out)["field"]["fallbacks"] == 0


def test_unlucky_second_prime_falls_back_on_a_singular_curve(capsys):
    # a triangle over Q, x^2*y mod the second prime: its profile proves
    # nothing over the first prime, so both agreements, the profile and
    # the Free verdict's structural check, fall back once each
    f = parse_poly(SINGULAR_SECOND_UNLUCKY_AT_SEED_0)
    plan = FieldPlan.from_mode("auto", 0)
    auto = analyze(f, plan)
    assert _without_field(auto) == _without_field(analyze(f, FieldPlan.from_mode("qq")))
    assert auto["classification"]["verdict"] == "Free"
    assert auto["field"]["fallbacks"] == plan.fallbacks == 2
    assert main(["analyze", "--poly", SINGULAR_SECOND_UNLUCKY_AT_SEED_0, "--json", "--field", "pp"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_a_denominator_that_scaling_clears_needs_no_fallback():
    # the primitive form is x*y*z, so the prime that divides the denominator
    # is not unlucky
    f = parse_poly("1/2190953423*x*y*z")
    plan = FieldPlan.from_mode("auto", 0)
    auto = analyze(f, plan)
    assert _without_field(auto) == _without_field(analyze(f, FieldPlan.from_mode("qq")))
    assert auto["classification"]["verdict"] == "Free"
    assert auto["field"]["fallbacks"] == plan.fallbacks == 0


def test_a_bare_prime_analyzes_the_reduction_mod_p():
    p = 2190953423
    over_p = analyze(parse_poly(UNLUCKY_AT_SEED_0), GF(p))
    reduction = analyze(parse_poly("x*y*z"), GF(p))
    assert {k: v for k, v in over_p.items() if k != "input"} == {k: v for k, v in reduction.items() if k != "input"}


def test_one_agreement_per_profile_and_verdict(monkeypatch):
    calls = []
    inner = FieldPlan.agree

    def counting(self, compute, proved=None):
        calls.append(self)
        return inner(self, compute, proved)

    monkeypatch.setattr(FieldPlan, "agree", counting)
    for expr, agreements in (("x*y*z", 2), ("x^3-y^2*z", 2), ("x^3+x^2*z-y^2*z", 1), ("x^2*y", 1)):
        calls.clear()
        analyze(parse_poly(expr), FieldPlan.primes(0))
        assert len(calls) == agreements, expr


def test_bare_fields_describe_themselves():
    f = parse_poly("x*y*z")
    p = 2_147_483_659
    over_p = analyze(f, GF(p))
    assert over_p["field"] == {"mode": "prime", "primes": [p], "fallbacks": 0}
    over_q = analyze(f, QQ)
    assert over_q["field"] == {"mode": "qq", "primes": None, "fallbacks": 0}
    assert _without_field(over_p) == _without_field(over_q)


# Curves whose report must read the same in qq as in the prime modes, but
# for `field`: (expression, verdict, verified, the prime modes).
#  * rational coefficients: the profile and the oracle scale a curve to its
#    primitive integer form.  The Free curve's structural check over Q reads
#    the certificate's lifts; the NearlyFree one, with a coefficient past
#    int64, lifts through the builder's object-dtype path;
#  * structural checks over Q: they read the kernels the certificate lifted
#    and lift on demand where its bounds met (y*z^3-x^4, r = 1, at degree
#    3); over the primes of auto they eliminate mod p.  The last two carry
#    denominators, so they reach the on-demand lift and the span test
#    through the primitive form's integer gradient;
#  * the plateau stop (`syzygy._persistent`): the free ten lines stop at
#    source degree 5, where the certificate still lifts; the eight lines with
#    h = x + 1009y + 2027z as a component never fill and are swept to the
#    top;
#  * smooth curves: a two-prime plan takes the profile from its first prime,
#    as H reaching 0 mod p proves every rank over Q, so auto and pp read
#    qq's report with no fallback.
QQ_AGAINST_PRIMES = [
    pytest.param("(1/2*x^3+1/3*y^3-z^3)*(x+y+z)", "Neither", None, ("auto",), id="rational-neither"),
    pytest.param("(1/2*x^3-1/3*y^2*z)*z", "Free", True, ("auto",), id="rational-free"),
    pytest.param("(2^70+1)*x^3-y^2*z", "NearlyFree", True, ("auto",), id="rational-past-int64"),
    pytest.param("y*z^3-x^4", "NearlyFree", True, ("auto",), id="lifts-on-demand"),
    pytest.param("y^2*z^5-x^7", "NearlyFree", True, ("auto",), id="lifts-cusp7"),
    pytest.param("x*y*z*(x+y+z)", "NearlyFree", True, ("auto",), id="lifts-four-lines"),
    pytest.param("x*y*z*(x-y)*(x-z)*(y-z)", "Free", True, ("auto",), id="lifts-braid6"),
    pytest.param("y*z^3-1/7*x^4", "NearlyFree", True, ("auto",), id="lifts-on-demand-rational"),
    pytest.param("3/5*y^2*z^5-x^7", "NearlyFree", True, ("auto",), id="lifts-cusp7-rational"),
    pytest.param("x*y*z*(x+y)*(x-y)*(x+z)*(x-z)*(y+z)*(y-z)*(x+y+z)", "Free", True, ("auto",), id="plateau-ten-lines"),
    pytest.param(
        "x*y*z*(x+y+z)*(x+2*y+3*z)*(x-3*y+5*z)*(2*x+7*y-z)*(x+1009*y+2027*z)", "Neither", None, ("auto",), id="plateau-never-fills"
    ),
    pytest.param("x^6+y^6+z^6", "Smooth", None, ("auto", "pp"), id="smooth-fermat6"),
    pytest.param(
        "x^6+y^6+z^6+x^5*y-3*x^3*y^2*z+2*y^4*z^2-x*z^5+5*x^2*y^2*z^2", "Smooth", None, ("auto", "pp"), id="smooth-dense6"
    ),
]


@pytest.mark.parametrize("expr,verdict,verified,modes", QQ_AGAINST_PRIMES)
def test_qq_reads_as_the_prime_modes_but_for_field(expr, verdict, verified, modes):
    # the JSON report of `freecurve analyze --poly expr --json` at seed 0
    f = parse_poly(expr)
    reports = {mode: json.loads(render_json(analyze(f, FieldPlan.from_mode(mode, 0), source=expr))) for mode in ("qq", *modes)}
    fields = {mode: report.pop("field") for mode, report in reports.items()}
    classification = reports["qq"]["classification"]
    assert (classification["verdict"], classification["verified"]) == (verdict, verified)
    for mode in modes:
        assert reports[mode] == reports["qq"], mode
    if verdict == "Smooth":
        assert [fields[mode]["fallbacks"] for mode in modes] == [0, 0]


# reduced curves of degree 3 to 7
TABLE_CURVES = [
    "x^3-y^2*z",
    "x*y*z*(x+y+z)",
    "x^5+y^5+z^5+x^2*y^3",
    "x*y*z*(x^3-y^3)",
    "x*y*z*(x-y)*(y-z)*(x-z)*(x+y+z)",
]


@pytest.mark.parametrize("expr", TABLE_CURVES)
def test_report_tables_read_the_profile_from_0_to_K(expr):
    f = parse_poly(expr)
    d = f.degree
    T = 3 * (d - 2)
    for K in (0, 2, T, 2 * d):
        report = analyze(f, GF(2_147_483_659), table_max=K)
        p = rank_profile(f, GF(2_147_483_659), table_max=K)
        tau, r = report["tau"], report["mdr"]
        expected = {
            "ar": [p.ar(k) for k in range(K + 1)],
            "m": [p.m(k) for k in range(K + 1)],
            "n": [n_dim(d, k, tau, p.ar) for k in range(K + 1)],
            "delta": [delta_dim(p, k, r) for k in range(K + 1)],
        }
        assert report["tables"] == {tag: {"start": 0, "values": values} for tag, values in expected.items()}
        assert all(v == 0 for v in report["tables"]["n"]["values"][T + 1 :])


def test_n_shape_is_asserted_over_0_to_T_below_the_table_degree(monkeypatch):
    honest = invariants.n_dim

    def bumped_at_T(d, j, tau, ar):
        return honest(d, j, tau, ar) + 1000 * (j == 3 * (d - 2))

    monkeypatch.setattr(invariants, "n_dim", bumped_at_T)
    with pytest.raises(InternalInconsistencyError, match="not descending"):
        analyze(parse_poly("x*y*z*(x^3-y^3)"), table_max=2)
