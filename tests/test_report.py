"""Per-curve reports: the field block, fallbacks and agreement counts."""

from freecurve.cli import main
from freecurve.fields import GF, QQ, FieldPlan
from freecurve.parser import parse_poly
from freecurve.report import analyze

# The first prime drawn from seed 0 divides a denominator of this cubic.
UNLUCKY_AT_SEED_0 = "x^3+y^3+z^3+1/2190953423*x*y*z"


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
