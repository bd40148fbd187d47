"""Batch verification over a directory of curve files.

A curve file holds one polynomial expression (possibly wrapped over
several lines) preceded by `# key: value` metadata comments.  Recognised
keys: name, expect_verdict, expect_reducedness, expect_tau, expect_mdr,
expect_exponents (as "d1,d2"), irreducible (true/false).

Every identity the analysis proves is asserted by `analyze` itself, on
every run, and aborts with exit 3: the agreement of the three criteria,
the du Plessis-Wall interval, the ct bounds and the shape of the n
table.  The corpus adds only what needs a corpus file or an independent
computation: the stated expectations, the saturation-defect formula at
every j in [0, T] against the table of the brute-force oracle over Q,
one oracle call per curve (degree <= ORACLE_MAX_DEGREE), the theorem
that an irreducible curve with a degree-1 relation is nearly free (it
reads the `irreducible` metadata), and that the structural verification
of a Free or NearlyFree verdict succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .classify import FREE, NEARLY_FREE, NEITHER
from .errors import FreecurveError, InputError, read_input
from .fields import FieldPlan
from .invariants import n_dim, n_dim_saturation_oracle
from .parser import parse_poly
from .poly import HomogPoly
from .report import analyze

ORACLE_MAX_DEGREE = 6

# The metadata keys that hold integers, with how many each holds.
INTEGER_KEYS = {"expect_tau": 1, "expect_mdr": 1, "expect_exponents": 2}


@dataclass
class CurveCase:
    """One corpus file: its source and metadata."""

    path: Path
    expression: str
    metadata: dict[str, str]
    # the INTEGER_KEYS present: an int, or a list for expect_exponents
    expected: dict[str, int | list[int]] = dc_field(default_factory=dict)


@dataclass
class CaseResult:
    name: str
    failures: list[str] = dc_field(default_factory=list)
    report: dict | None = None
    plan: FieldPlan | None = None
    poly: HomogPoly | None = None

    @property
    def passed(self) -> bool:
        return not self.failures


def load_case(path: Path) -> CurveCase:
    metadata: dict[str, str] = {}
    expression_parts: list[str] = []
    for raw in read_input(path).splitlines():
        stripped = raw.strip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if ":" in body:
                key, value = body.split(":", 1)
                metadata[key.strip().lower()] = value.strip()
            continue
        if stripped:
            expression_parts.append(stripped)
    if not expression_parts:
        raise InputError(f"{path}: no polynomial expression found")
    expected: dict[str, int | list[int]] = {}
    for key, count in INTEGER_KEYS.items():
        if key not in metadata:
            continue
        try:
            values = [int(v) for v in metadata[key].split(",")]
        except ValueError:
            values = []
        if len(values) != count:
            wanted = "an integer" if count == 1 else f"{count} comma-separated integers"
            raise InputError(f"{path}: {key} must be {wanted}")
        expected[key] = values[0] if count == 1 else values
    return CurveCase(path, " ".join(expression_parts), metadata, expected)


def _check_expectations(case: CurveCase, report: dict, failures: list[str]) -> None:
    meta = case.metadata
    expected_red = meta.get("expect_reducedness")
    if expected_red and report["reducedness"] != expected_red:
        failures.append(
            f"reducedness {report['reducedness']} != expected {expected_red}"
        )
    cls = report.get("classification")
    if "expect_verdict" in meta:
        got = cls["verdict"] if cls else None
        if got != meta["expect_verdict"]:
            failures.append(f"verdict {got} != expected {meta['expect_verdict']}")
    expected = case.expected
    for key, name in (("expect_tau", "tau"), ("expect_mdr", "mdr")):
        if key in expected and report.get(name) != expected[key]:
            failures.append(f"{name} {report.get(name)} != expected {expected[key]}")
    if "expect_exponents" in expected and cls and cls["exponents"] != expected["expect_exponents"]:
        failures.append(f"exponents {cls['exponents']} != expected {expected['expect_exponents']}")


def _check_cross_invariants(case: CurveCase, f: HomogPoly, report: dict, failures: list[str]) -> None:
    """The checks on the curve f of `case` that need more than the
    analysis: every identity the analysis proves is already asserted on
    each `analyze` (exit 3)."""
    cls = report.get("classification")
    if not cls or cls["verdict"] not in (FREE, NEARLY_FREE, NEITHER):
        return
    d = report["degree"]
    r = report["mdr"]
    verdict = cls["verdict"]

    # saturation-defect formula against the brute-force oracle over Q
    if d <= ORACLE_MAX_DEGREE:
        ar_table = report["tables"]["ar"]["values"]
        # the n formula reads ar up to 2d-5; the report's n table is
        # clipped to the table degree, so the formula is re-read from ar
        needed = 2 * d - 5
        if len(ar_table) <= needed:
            raise InputError(
                f"table degree {len(ar_table) - 1} is below {needed}, the smallest the cross-checks of this curve read"
            )
        for j, oracle in enumerate(n_dim_saturation_oracle(f)):
            formula = n_dim(d, j, report["tau"], ar_table.__getitem__)
            if formula != oracle:
                failures.append(f"n_{j} = {formula} but saturation oracle gives {oracle}")

    # an irreducible curve with a degree-1 relation is nearly free
    if case.metadata.get("irreducible", "").lower() == "true" and r == 1:
        if verdict != NEARLY_FREE:
            failures.append("irreducible curve with mdr = 1 must be nearly free")

    # structural verification must have succeeded
    if verdict in (FREE, NEARLY_FREE) and cls["verified"] is not True:
        failures.append(f"structural verification failed for {verdict}")


def run_case(case: CurveCase, plan: FieldPlan, table_max: int | None = None) -> CaseResult:
    result = CaseResult(name=case.path.name, plan=plan)
    try:
        f = result.poly = parse_poly(case.expression)
        report = result.report = analyze(f, plan, table_max=table_max, source=case.expression)
        _check_expectations(case, report, result.failures)
        if report.get("classification"):
            _check_cross_invariants(case, f, report, result.failures)
    except FreecurveError as exc:
        result.failures.append(f"{type(exc).__name__}: {exc}")
    return result


def run_corpus(directory: Path, seed: int = 0, mode: str = "auto") -> list[CaseResult]:
    """Analyze and verify every *.curve file under `directory`, sorted by name."""
    paths = sorted(Path(directory).glob("*.curve"))
    results = []
    for path in paths:
        plan = FieldPlan.from_mode(mode, seed)
        try:
            case = load_case(path)
        except InputError as exc:
            result = CaseResult(name=path.name)
            result.failures.append(str(exc))
            results.append(result)
            continue
        results.append(run_case(case, plan))
    return results
