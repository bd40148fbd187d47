"""Shipped corpus: every curve passes every expectation and cross-check."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from freecurve.corpus import load_case, run_case, run_corpus
from freecurve.data import shipped_corpus_dir
from freecurve.fields import QQ, FieldPlan


def test_shipped_corpus_all_pass(corpus_results):
    failures = {r.name: r.failures for r in corpus_results if not r.passed}
    assert not failures, failures


@pytest.mark.parametrize("mode", ["qq", "pp"])
def test_shipped_corpus_passes_and_matches_auto(corpus_results, mode):
    # qq: every rank proved over Q, every structural check over Q; pp: the
    # two primes without the rational fallback, so every Free and
    # NearlyFree verdict is verified by the structural checks over the
    # primes alone.  The reports may differ from the auto ones only in how
    # the field was chosen.
    results = run_corpus(shipped_corpus_dir(), mode=mode)
    assert [r.name for r in results] == [r.name for r in corpus_results]
    failures = {r.name: r.failures for r in results if not r.passed}
    assert not failures, failures
    for m, a in zip(results, corpus_results):
        assert m.report["field"]["mode"] == mode
        assert {**m.report, "field": None} == {**a.report, "field": None}, m.name


def test_corpus_covers_all_verdicts(corpus_results):
    verdicts = set()
    for result in corpus_results:
        cls = result.report.get("classification") if result.report else None
        if cls:
            verdicts.add(cls["verdict"])
        elif result.report:
            verdicts.add(result.report["reducedness"])
    assert {"Free", "NearlyFree", "Neither", "Smooth", "PencilOfLines", "NonReduced"} <= verdicts


def test_corpus_zero_fallbacks(corpus_results):
    # unlucky primes should never fire on the shipped corpus with seed 0
    for result in corpus_results:
        if result.plan is not None:
            assert result.plan.fallbacks == 0, result.name


def test_corpus_file_metadata_parses():
    for path in sorted(shipped_corpus_dir().glob("*.curve")):
        case = load_case(path)
        assert case.expression
        assert "expect_reducedness" in case.metadata or "expect_verdict" in case.metadata


def test_deliberately_wrong_tau_fails(tmp_path):
    (tmp_path / "wrong.curve").write_text("# expect_tau: 5\nx*y*z\n")
    results = run_corpus(tmp_path, seed=0, mode="qq")
    assert len(results) == 1
    assert not results[0].passed
    assert any("tau" in msg for msg in results[0].failures)


def test_unparsable_curve_reports_failure(tmp_path):
    (tmp_path / "bad.curve").write_text("x^2 +\n")
    results = run_corpus(tmp_path, seed=0, mode="qq")
    assert not results[0].passed


def test_case_runner_accepts_rational_plan():
    case = load_case(shipped_corpus_dir() / "cusp_cubic.curve")
    result = run_case(case, FieldPlan.over(QQ))
    assert result.passed, result.failures
    assert result.report["field"]["mode"] == "qq"


def test_case_runner_refuses_a_table_below_the_cross_checks():
    # the cusp is nearly free with d = 3, r = 1: its sharp delta values
    # read the tables up to degree d - r = 2
    case = load_case(shipped_corpus_dir() / "cusp_cubic.curve")
    result = run_case(case, FieldPlan.primes(0), 0)
    assert result.failures == [
        "InputError: table degree 0 is below 1, the smallest the cross-checks of this curve read"
    ]
    result = run_case(case, FieldPlan.primes(0), table_max=2)
    assert result.passed, result.failures


def test_benchmark_tracer_finds_every_name_and_runs_a_case():
    # perfbench/spans.py rebinds these names and calls run_case(case, plan,
    # table_max) positionally.  In a child interpreter, because installing
    # the tracer rebinds the package process-wide; -B writes no bytecode
    # into perfbench/.
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    code = f"""
import json, sys
sys.path.insert(0, {str(perfbench)!r})
import spans
from freecurve import corpus
from freecurve.data import shipped_corpus_dir
from freecurve.fields import FieldPlan
tracer = spans.Tracer()
missing = spans.install(tracer)
case = corpus.load_case(shipped_corpus_dir() / "cusp_cubic.curve")
result = corpus.run_case(case, FieldPlan.from_mode("auto", 0), None)
names = sorted(spans.summarize(tracer.spans))
print(json.dumps({{"missing": missing, "failures": result.failures, "names": names}}))
"""
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["missing"] == []
    assert result["failures"] == []
    assert {"corpus.checks", "report.analyze", "invariants.oracle"} <= set(result["names"])
