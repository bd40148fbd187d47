"""Acceptance criteria, one test per criterion.

Each test prints a single `ACCEPTANCE <n>: PASS ...` line on success (run
pytest with -s or look at captured output).  All tolerances are zero: the
arithmetic is exact.
"""

import json
import subprocess
import sys
import time

from freecurve.arrangements import interval_table, terao_rigidity
from freecurve.classify import FREE, NEARLY_FREE, classify, cross_product, free_pair, pairing
from freecurve.classify import nearly_free_generators, nearly_free_resolution_dim
from freecurve.corpus import ORACLE_MAX_DEGREE
from freecurve.fields import QQ
from freecurve.invariants import compute_bundle, dpw_bounds, n_dim, n_dim_saturation_oracle, tjurina
from freecurve.parser import parse_poly
from freecurve.poly import dim_S, partials
from freecurve.syzygy import Syzygy, jacobian_ranks, mdr, rank_jacobian, rank_profile


def _report(n, message):
    print(f"ACCEPTANCE {n}: PASS  {message}")


def _cli_json(args):
    proc = subprocess.run(
        [sys.executable, "-m", "freecurve", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_criterion_01_paper_arrangements_reproduce():
    expected = {
        "x*y*z*(x^9-y^9)": (111, 1, "Free", [1, 10]),
        "x*y*z*(x+y+z)*(x^8-y^8)": (103, 2, "Free", [2, 9]),
        "x*y*z*(x^3-y^3)*(y^3-z^3)*(x^3-z^3)": (93, 4, "Free", [4, 7]),
    }
    start = time.perf_counter()
    for expr, (tau, r, verdict, exponents) in expected.items():
        report = _cli_json(["analyze", "--poly", expr, "--json", "--field", "pp"])
        assert report["tau"] == tau, expr
        assert report["mdr"] == r, expr
        assert report["classification"]["verdict"] == verdict, expr
        assert report["classification"]["exponents"] == exponents, expr
        assert report["classification"]["verified"] is True, expr
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0, f"took {elapsed:.1f}s, budget is 30s"
    _report(1, f"three degree-12 arrangements exact in {elapsed:.1f}s over prime fields")


def test_criterion_02_interval_table_and_rigidity():
    table = interval_table(12)
    assert table[:4] == [(1, 110, 111), (2, 99, 103), (3, 88, 97), (4, 77, 93)]
    assert str(terao_rigidity(12, 111)) == "Rigid(1)"
    assert str(terao_rigidity(12, 103)) == "Rigid(2)"
    assert str(terao_rigidity(12, 97)) == "Rigid(3)"
    assert str(terao_rigidity(12, 93)) == "NotCovered(4)"
    _report(2, "degree-12 intervals and rigidity verdicts match")


def test_criterion_03_nearly_free_characterization():
    cusp = parse_poly("x^3-y^2*z")
    profile = rank_profile(cusp)
    tau = tjurina(profile)
    assert tau == 2
    lo, hi = dpw_bounds(3, 1)
    assert tau == hi - 1
    c = classify(compute_bundle(profile))
    assert c.verdict == NEARLY_FREE and c.exponents == (1, 2)
    assert c.criteria == {"tau_test": True, "ctst_test": True, "delta_test": True}
    rho1, rho2, rho3 = nearly_free_generators(profile, 1)
    for k in range(0, 6):  # k <= 5 = d + 2
        assert profile.ar(k) == nearly_free_resolution_dim(3, 1, k)
    _report(3, "cusp: tau = tau_max - 1, NearlyFree(1,2), generator check through k=5")


def test_criterion_04_threshold_trichotomy_on_corpus(corpus_results):
    checked = 0
    for result in corpus_results:
        report = result.report
        cls = report.get("classification") if report else None
        if not cls or cls["verdict"] not in ("Free", "NearlyFree", "Neither"):
            continue
        total = report["ct"] + report["st"]
        T = report["T"]
        assert total not in (T + 1,) and total >= T, result.name
        if cls["verdict"] == "Free":
            assert total == T, result.name
        elif cls["verdict"] == "NearlyFree":
            assert total == T + 2, result.name
        else:
            assert total >= T + 3, result.name
        checked += 1
    assert checked >= 10
    _report(4, f"ct+st trichotomy exact on {checked} classified corpus curves")


def test_criterion_05_dpw_bounds_on_random_curves(random_curve_survey):
    assert len(random_curve_survey) >= 50
    violations = []
    constrained = 0
    for f, r, tau, _ in random_curve_survey:
        d = f.degree
        if 2 * r < d:
            lo, hi = dpw_bounds(d, r)
            constrained += 1
            if not lo <= tau <= hi:
                violations.append((str(f), d, r, tau))
        elif d % 2 == 0 and r == d // 2:
            lo, hi = dpw_bounds(d, r)
            constrained += 1
            if tau > hi:
                violations.append((str(f), d, r, tau))
    assert not violations, violations
    _report(
        5,
        f"tau bounds hold on {len(random_curve_survey)} random curves "
        f"({constrained} with binding constraints), zero violations",
    )


def test_criterion_06_saturation_oracle_equivalence(corpus_results):
    compared = 0
    for result in corpus_results:
        report = result.report
        if not report or not report.get("classification"):
            continue
        if report["classification"]["verdict"] == "PencilOfLines":
            continue
        d = report["degree"]
        if d > ORACLE_MAX_DEGREE:
            continue
        f = parse_poly(report["input"])
        tau = report["tau"]
        T = report["T"]
        ar = report["tables"]["ar"]["values"]
        oracle = n_dim_saturation_oracle(f)
        assert len(oracle) == T + 1, result.name
        for j in range(0, T + 1):
            assert n_dim(d, j, tau, ar.__getitem__) == oracle[j], (result.name, j)
            compared += 1
    assert compared > 0
    _report(6, f"formula n_j equals the saturation oracle on {compared} graded pieces")


def test_saturation_oracle_on_a_degree_12_arrangement(corpus_results):
    # free12_c lies above ORACLE_MAX_DEGREE, so `corpus` does not
    # oracle-check it; its n formula is checked here, at every j in [0, T]
    (result,) = [r for r in corpus_results if r.name == "free12_c.curve"]
    report = result.report
    d, tau, T = report["degree"], report["tau"], report["T"]
    assert d == 12 > ORACLE_MAX_DEGREE
    ar = report["tables"]["ar"]["values"]
    oracle = n_dim_saturation_oracle(parse_poly(report["input"]))
    assert oracle == tuple(n_dim(d, j, tau, ar.__getitem__) for j in range(T + 1))


def test_criterion_07_delta_characterization(corpus_results, random_curve_survey):
    observed_nearly_free_delta = set()
    checked = 0
    for result in corpus_results:
        report = result.report
        cls = report.get("classification") if report else None
        if not cls or cls["verdict"] not in ("Free", "NearlyFree", "Neither"):
            continue
        # agreement was asserted inside classify(); criteria are recorded True
        assert cls["criteria"]["delta_test"] and cls["criteria"]["tau_test"], result.name
        d, r = report["degree"], report["mdr"]
        delta = report["tables"]["delta"]["values"]
        if cls["verdict"] == "Free":
            assert delta[d - r - 1] == 1, result.name
        if cls["verdict"] == "NearlyFree":
            assert delta[d - r - 1] == 0, result.name
            assert delta[d - r] == 2, result.name
            observed_nearly_free_delta.add(delta[d - r])
        checked += 1
    def delta_over_q(f, k, r):
        # independent of the survey's prime-field profile
        return 3 * dim_S(k) - rank_jacobian(f, k) - dim_S(k - r)

    for f, r, tau, classification in random_curve_survey:
        if classification.verdict == FREE:
            assert delta_over_q(f, f.degree - r - 1, r) == 1
        if classification.verdict == NEARLY_FREE:
            assert delta_over_q(f, f.degree - r - 1, r) == 0
            assert delta_over_q(f, f.degree - r, r) == 2
        checked += 1
    _report(
        7,
        f"delta criterion agrees everywhere ({checked} curves); nearly free "
        f"curves show delta_(d-r) = {sorted(observed_nearly_free_delta)} exactly",
    )


def test_criterion_08_saito_verification(corpus_results):
    # every Free verdict carries a passing structural verification
    free_names = []
    for result in corpus_results:
        cls = result.report.get("classification") if result.report else None
        if cls and cls["verdict"] == "Free":
            assert cls["verified"] is True, result.name
            free_names.append(result.name)
    assert free_names
    # the degree-sum precondition makes the pairing constant; check it
    # explicitly over Q on the small free corpus curves
    for expr in ("x*y*z", "x*y*z*(x-y)*(x-z)*(y-z)"):
        f = parse_poly(expr)
        profile = rank_profile(f)
        r = mdr(profile)
        rho1, rho2 = free_pair(profile, r)
        assert rho1.degree + rho2.degree == f.degree - 1
        h = pairing(rho1, rho2, profile.grad)
        assert h.degree == 0 and not h.is_zero()
    # the pinned triangle identity: (x,-y,0) x (x,0,-z) = (yz, xz, xy) = grad
    from freecurve.poly import HomogPoly

    triangle = parse_poly("x*y*z")
    rho1 = Syzygy(parse_poly("x"), parse_poly("-y"), HomogPoly.zero(1))
    rho2 = Syzygy(parse_poly("x"), HomogPoly.zero(1), parse_poly("-z"))
    cx = cross_product(rho1, rho2)
    grad = partials(triangle)
    assert (cx[0], cx[1], cx[2]) == (grad.fx, grad.fy, grad.fz)
    assert str(pairing(rho1, rho2, grad)) == "1"
    _report(8, f"Saito check passes for {free_names}; triangle pairing constant is 1")


def test_criterion_09_unimodality_and_vanishing(corpus_results):
    curves = 0
    for result in corpus_results:
        report = result.report
        cls = report.get("classification") if report else None
        if not cls or cls["verdict"] not in ("Free", "NearlyFree", "Neither"):
            continue
        d, r, tau, T = report["degree"], report["mdr"], report["tau"], report["T"]
        ar = report["tables"]["ar"]["values"]
        n_vals = [n_dim(d, j, tau, ar.__getitem__) for j in range(T + 1)]
        mid = T // 2
        for i in range(len(n_vals) - 1):
            if i < mid:
                assert n_vals[i] <= n_vals[i + 1], (result.name, i)
            else:
                assert n_vals[i] >= n_vals[i + 1], (result.name, i)
        tau_max_formula = (d - 1) * (d - r - 1) + r * r
        if tau == tau_max_formula - 1:
            for s in range(2 * d - r - 2, T + 1):
                assert n_vals[s] == 0, (result.name, s)
            assert ar[d - r - 1] == dim_S(d - 2 * r - 1), result.name
        curves += 1
    assert curves >= 10
    _report(9, f"unimodality chain and second-maximal vanishing hold on {curves} curves")


def test_criterion_10_determinism_and_field_agreement(corpus_results):
    args = ["analyze", "--poly", "x*y*z*(x+y+z)", "--json", "--seed", "11"]
    first = subprocess.run([sys.executable, "-m", "freecurve", *args], capture_output=True)
    second = subprocess.run([sys.executable, "-m", "freecurve", *args], capture_output=True)
    assert first.returncode == 0 and first.stdout == second.stdout

    # Every rank a decision read is in the curve's rank profile; compare
    # the profile over each plan prime with Bareiss ranks over Q, degree by
    # degree (the profile over Q is itself proved from a prime).
    matrices = 0
    for result in corpus_results:
        if result.report is None or result.plan is None:
            continue
        if result.report["degree"] > 6:
            continue
        f = parse_poly(result.report["input"])
        bareiss = None
        for prime in result.plan.fields:
            over_p = rank_profile(f, prime)
            if bareiss is None:
                bareiss = list(jacobian_ranks(f, len(over_p.ranks) - 1, QQ))
            assert list(over_p.ranks) == bareiss, (result.name, prime)
            matrices += len(bareiss)
        if "tables" in result.report:
            ar = result.report["tables"]["ar"]["values"]
            assert [3 * dim_S(k) - bareiss[k] for k in range(len(ar))] == ar, result.name
    assert matrices > 0
    _report(
        10,
        f"bit-identical JSON reruns; prime ranks match rational ranks on "
        f"{matrices} classifier matrices",
    )
