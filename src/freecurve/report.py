"""Assemble, validate and render the per-curve analysis report."""

from __future__ import annotations

import json

from .classify import Classification, classify
from .fields import Field, FieldPlan, QQ
from .invariants import InvariantBundle, compute_bundle, defect, delta_dim, dpw_bounds, n_dim, validate_bundle
from .poly import HomogPoly, poly_str
from .syzygy import Reducedness, rank_profile, reducedness_check

SCHEMA_VERSION = 1


def analyze(
    f: HomogPoly,
    field: Field | FieldPlan = QQ,
    table_max: int | None = None,
    source: str | None = None,
) -> dict:
    """Full analysis of one curve, returned as a JSON-ready dict.

    Every invariant is read from one rank profile with tables up to
    `table_max` (default 2d).  Non-reduced input yields a minimal report
    with the classification and invariants omitted; everything else gets
    the complete bundle, the classification with its criteria, and the
    graded tables.  `field` describes the plan used and its fallbacks.
    """
    profile = rank_profile(f, field, table_max)
    red = reducedness_check(profile)
    report: dict = {
        "schema": SCHEMA_VERSION,
        "input": source if source is not None else poly_str(f),
        "degree": f.degree,
        "reducedness": red.value,
    }
    if red is Reducedness.NON_REDUCED:
        report["classification"] = None
    else:
        bundle = compute_bundle(profile)
        classification = classify(bundle)
        validate_bundle(bundle)
        report.update(_bundle_dict(bundle))
        report["classification"] = _classification_dict(classification)
    report["field"] = profile.plan.describe()
    return report


def _bundle_dict(b: InvariantBundle) -> dict:
    p, d, r, tau = b.profile, b.d, b.r, b.tau
    bounds = list(dpw_bounds(d, r)) if 3 <= d and 1 <= r <= d // 2 else None

    def table(dim) -> dict:
        return {"start": 0, "values": [dim(k) for k in range(p.table_max + 1)]}

    return {
        "mdr": r,
        "tau": tau,
        "tau_bounds": bounds,
        "defect": defect(d, r, tau) if r >= 1 else 0,
        "ct": "infinity" if b.ct is None else b.ct,
        "st": b.st,
        "T": b.T,
        "tables": {
            "ar": table(p.ar),
            "m": table(p.m),
            "n": table(lambda j: n_dim(d, j, tau, p.ar)),
            "delta": table(lambda k: delta_dim(p, k, r)),
        },
    }


def _classification_dict(c: Classification) -> dict:
    return {
        "verdict": c.verdict,
        "exponents": list(c.exponents) if c.exponents else None,
        "criteria": c.criteria,
        "symmetry_flag": c.symmetry_flag,
        "verified": c.verified,
    }


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    lines = [f"curve : {report['input']}"]
    lines.append(f"degree d      : {report['degree']}")
    lines.append(f"reducedness   : {report['reducedness']}")
    if report.get("classification") is None:
        lines.append("classification: omitted (curve is not reduced)")
        return "\n".join(lines) + "\n"
    lines.append(f"mdr r         : {report['mdr']}")
    tau_line = f"tjurina tau   : {report['tau']}"
    if report["tau_bounds"]:
        lo, hi = report["tau_bounds"]
        tau_line += f"   (bounds for r={report['mdr']}: [{lo}, {hi}], defect {report['defect']})"
    lines.append(tau_line)
    ct, st, T = report["ct"], report["st"], report["T"]
    summary = "" if ct == "infinity" else f"   (ct+st = {ct + st}, T = {T})"
    lines.append(f"ct / st       : {ct} / {st}{summary}")
    cls = report["classification"]
    verdict = cls["verdict"]
    if cls["exponents"]:
        verdict += "({}, {})".format(*cls["exponents"])
    lines.append(f"verdict       : {verdict}")
    if cls["criteria"] is not None:
        marks = "  ".join(
            f"{name}={'ok' if passed else 'FAIL'}" for name, passed in sorted(cls["criteria"].items())
        )
        lines.append(f"criteria      : {marks}")
    lines.append(f"symmetry flag : {'yes' if cls['symmetry_flag'] else 'no'} (mdr = 1)")
    if cls["verified"] is not None:
        lines.append(f"verified      : {'yes' if cls['verified'] else 'NO'}")
    for tag in ("ar", "m", "n", "delta"):
        table = report["tables"][tag]
        values = " ".join(str(v) for v in table["values"])
        lines.append(f"{tag:<5} k={table['start']}.. : {values}")
    field = report["field"]
    if field["primes"]:
        lines.append(
            f"field         : primes {field['primes']} (fallbacks to Q: {field['fallbacks']})"
        )
    else:
        lines.append("field         : rationals")
    return "\n".join(lines) + "\n"
