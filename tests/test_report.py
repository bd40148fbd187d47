"""Per-curve reports: the field block, fallbacks, agreement counts and tables."""

import pytest

from freecurve import invariants
from freecurve.cli import main
from freecurve.errors import InternalInconsistencyError
from freecurve.fields import GF, QQ, FieldPlan
from freecurve.invariants import delta_dim, n_dim
from freecurve.parser import parse_poly
from freecurve.report import analyze
from freecurve.syzygy import rank_profile

# The first prime drawn from seed 0 divides a denominator of this cubic.
UNLUCKY_AT_SEED_0 = "x^3+y^3+z^3+1/2190953423*x*y*z"
# The second prime drawn from seed 0 divides a denominator of this cubic.
SECOND_UNLUCKY_AT_SEED_0 = "x^3+y^3+z^3+1/2582278367*x*y*z"


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


def test_unlucky_prime_without_fallback_aborts(capsys):
    assert main(["analyze", "--poly", UNLUCKY_AT_SEED_0, "--json", "--field", "pp"]) == 3
    assert "internal inconsistency" in capsys.readouterr().err


def test_unlucky_second_prime_falls_back_once(capsys):
    # the primitive form reduces mod the second prime to x*y*z, whose ranks
    # differ from the smooth cubic's
    f = parse_poly(SECOND_UNLUCKY_AT_SEED_0)
    plan = FieldPlan.from_mode("auto", 0)
    assert plan.fields[1].p == 2582278367
    auto = analyze(f, plan)
    assert _without_field(auto) == _without_field(analyze(f, FieldPlan.from_mode("qq")))
    assert auto["field"]["fallbacks"] == plan.fallbacks == 1
    assert main(["analyze", "--poly", SECOND_UNLUCKY_AT_SEED_0, "--json", "--field", "pp"]) == 3
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

    def counting(self, compute):
        calls.append(self)
        return inner(self, compute)

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
