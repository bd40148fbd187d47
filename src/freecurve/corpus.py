"""Batch verification over a directory of curve files.

A curve file holds one polynomial expression (possibly wrapped over
several lines) preceded by `# key: value` metadata comments.  Recognised
keys: name, expect_verdict, expect_reducedness, expect_tau, expect_mdr,
expect_exponents (as "d1,d2"), irreducible (true/false).

Besides the stated expectations, every classified curve is pushed through
the full battery of cross-checks: the saturation-defect formula against
the brute-force oracle (small degrees), symmetry and unimodality of the
n table, the Tjurina bounds, the threshold trichotomy, the sharp delta
values, the second-maximal consequences (relation count and vanishing),
the resolution dimension formula on nearly free curves, and the
symmetry-flag consequences of a degree-1 relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .classify import FREE, NEARLY_FREE, NEITHER
from .errors import FreecurveError, InputError, read_input
from .fields import FieldPlan
from .invariants import n_dim, n_dim_saturation_oracle
from .parser import parse_poly
from .poly import HomogPoly, choose2, dim_S
from .report import analyze

ORACLE_MAX_DEGREE = 6


@dataclass
class CurveCase:
    """One corpus file: source, metadata, and the parsed polynomial."""

    path: Path
    expression: str
    metadata: dict[str, str]
    poly: HomogPoly | None = None


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
    return CurveCase(path, " ".join(expression_parts), metadata)


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
    if "expect_tau" in meta and report.get("tau") != int(meta["expect_tau"]):
        failures.append(f"tau {report.get('tau')} != expected {meta['expect_tau']}")
    if "expect_mdr" in meta and report.get("mdr") != int(meta["expect_mdr"]):
        failures.append(f"mdr {report.get('mdr')} != expected {meta['expect_mdr']}")
    if "expect_exponents" in meta and cls:
        expected = [int(v) for v in meta["expect_exponents"].split(",")]
        if cls["exponents"] != expected:
            failures.append(f"exponents {cls['exponents']} != expected {expected}")


def _check_cross_invariants(case: CurveCase, report: dict, failures: list[str]) -> None:
    cls = report.get("classification")
    if not cls or cls["verdict"] not in (FREE, NEARLY_FREE, NEITHER):
        return
    f = case.poly
    d = report["degree"]
    r = report["mdr"]
    tau = report["tau"]
    T = report["T"]
    verdict = cls["verdict"]
    ar_table = report["tables"]["ar"]["values"]
    delta_table = report["tables"]["delta"]["values"]
    # the n formula reads ar up to 2d-5; the sharp delta values read d-r-1,
    # and d-r on a nearly free curve
    needed = max(2 * d - 5, d - r if verdict == NEARLY_FREE else d - r - 1)
    if len(ar_table) <= needed:
        raise InputError(
            f"table degree {len(ar_table) - 1} is below {needed}, the smallest the cross-checks of this curve read"
        )
    def n_at(j: int) -> int:
        # the report's n table is clipped to 2d; the formula reads the ar
        # table, which covers every degree it needs (up to 2d-5)
        return n_dim(d, j, tau, ar_table.__getitem__)

    # threshold trichotomy
    total = report["ct"] + report["st"]
    wanted = {FREE: T, NEARLY_FREE: T + 2}
    if verdict in wanted and total != wanted[verdict]:
        failures.append(f"ct+st = {total}, expected {wanted[verdict]} for {verdict}")
    if verdict == NEITHER and total < T + 3:
        failures.append(f"ct+st = {total} < T+3 for a Neither curve")

    # saturation-defect formula against the brute-force oracle
    if d <= ORACLE_MAX_DEGREE:
        functionals: dict = {}  # shared by every j of this curve
        for j in range(0, T + 1):
            oracle = n_dim_saturation_oracle(f, j, functionals=functionals)
            if n_at(j) != oracle:
                failures.append(f"n_{j} = {n_at(j)} but saturation oracle gives {oracle}")

    # empirical symmetry of the saturation defects
    for j in range(0, T + 1):
        if n_at(j) != n_at(T - j):
            failures.append(f"n table asymmetric: n_{j} != n_{T - j}")
            break

    # second-maximal Tjurina consequences
    tau_max = (d - 1) * (d - r - 1) + r * r
    if tau == tau_max - 1:
        expected_ar = dim_S(d - 2 * r - 1)
        if ar_table[d - r - 1] != expected_ar:
            failures.append(
                f"ar_{d - r - 1} = {ar_table[d - r - 1]}, expected {expected_ar}"
            )
        for s in range(2 * d - r - 2, T + 1):
            if n_at(s) != 0:
                failures.append(f"n_{s} = {n_at(s)} should vanish from 2d-r-2 on")
                break

    # resolution dimension formula on nearly free curves
    if verdict == NEARLY_FREE:
        for k in range(d - r - 1, len(ar_table)):
            expected = 3 * choose2(k + 2) - choose2(d + k + 1) + tau
            if ar_table[k] != expected:
                failures.append(f"ar_{k} = {ar_table[k]}, formula gives {expected}")
                break

    # sharp delta values
    if verdict == FREE and delta_table[d - r - 1] != 1:
        failures.append(f"delta_{d - r - 1} = {delta_table[d - r - 1]}, expected 1")
    if verdict == NEARLY_FREE:
        if delta_table[d - r - 1] != 0:
            failures.append(f"delta_{d - r - 1} = {delta_table[d - r - 1]}, expected 0")
        if delta_table[d - r] != 2:
            failures.append(f"delta_{d - r} = {delta_table[d - r]}, expected 2")

    # a degree-1 relation forces free or nearly free; irreducible then nearly
    if r == 1 and verdict not in (FREE, NEARLY_FREE):
        failures.append("mdr = 1 curve classified Neither")
    if case.metadata.get("irreducible", "").lower() == "true" and r == 1:
        if verdict != NEARLY_FREE:
            failures.append("irreducible curve with mdr = 1 must be nearly free")

    # structural verification must have succeeded
    if verdict in (FREE, NEARLY_FREE) and cls["verified"] is not True:
        failures.append(f"structural verification failed for {verdict}")


def run_case(case: CurveCase, plan: FieldPlan, table_max: int | None = None) -> CaseResult:
    result = CaseResult(name=case.path.name, plan=plan)
    try:
        case.poly = parse_poly(case.expression)
        result.poly = case.poly
        report = analyze(case.poly, plan, table_max=table_max, source=case.expression)
        result.report = report
        _check_expectations(case, report, result.failures)
        if report.get("classification"):
            _check_cross_invariants(case, report, result.failures)
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
