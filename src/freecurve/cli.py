"""Command-line interface.

Exit codes: 0 success (including non-reduced verdicts), 2 input error,
3 internal-inconsistency abort (a proved identity failed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arrangements import (
    LatticeSummary,
    LineSet,
    arrangement_poly,
    intersection_lattice,
    interval_table,
    lattice_tjurina,
    terao_rigidity,
)
from .corpus import run_corpus
from .data import shipped_corpus_dir
from .errors import InputError, InternalInconsistencyError, read_input
from .fields import FieldPlan
from .invariants import tjurina
from .parser import parse_poly
from .report import SCHEMA_VERSION, analyze, render_json, render_text
from .syzygy import profile_degrees, rank_profile

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3


def _add_field_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--field",
        choices=("auto", "qq", "pp"),
        default="auto",
        help="auto: two random primes with rational fallback (default); "
        "qq: rationals only; pp: primes without fallback",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for prime selection")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freecurve",
        description="Jacobian-syzygy invariants and freeness classification "
        "of reduced plane curves (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one curve")
    src = p_an.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", help="polynomial expression in x, y, z")
    src.add_argument("--file", help="file containing the expression")
    p_an.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_an.add_argument(
        "--max-degree-table",
        type=int,
        default=None,
        metavar="K",
        help="top degree of the reported tables (default 2d); out of range exits 2",
    )
    _add_field_args(p_an)

    p_iv = sub.add_parser("intervals", help="Tjurina intervals per relation degree")
    p_iv.add_argument("--degree", type=int, required=True)
    p_iv.add_argument("--json", action="store_true")

    p_tr = sub.add_parser("terao", help="combinatorial rigidity test")
    spec = p_tr.add_mutually_exclusive_group(required=True)
    spec.add_argument("--tau", type=int, help="Tjurina number (with --degree)")
    spec.add_argument("--lattice", help="lattice summary file")
    spec.add_argument("--lines", help="line coefficient file")
    p_tr.add_argument("--degree", type=int, help="number of lines (with --tau)")
    p_tr.add_argument("--json", action="store_true")
    _add_field_args(p_tr)

    p_cp = sub.add_parser("corpus", help="batch-verify a directory of curves")
    p_cp.add_argument(
        "path",
        nargs="?",
        default=None,
        help="directory of *.curve files (default: shipped corpus)",
    )
    p_cp.add_argument("--json", action="store_true")
    _add_field_args(p_cp)

    return parser


def _cmd_analyze(args) -> int:
    if args.poly is not None:
        text = args.poly
    else:
        text = read_input(args.file)
    expression = " ".join(
        line.strip() for line in text.splitlines() if line.strip() and not line.strip().startswith("#")
    )
    f = parse_poly(expression)
    plan = FieldPlan.from_mode(args.field, args.seed)
    report = analyze(f, plan, table_max=args.max_degree_table, source=expression)
    sys.stdout.write(render_json(report) if args.json else render_text(report))
    return EXIT_OK


def _cmd_intervals(args) -> int:
    rows = interval_table(args.degree)
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "degree": args.degree,
            "rows": [{"r": r, "tau_min": lo, "tau_max": hi} for r, lo, hi in rows],
        }
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write(f"Tjurina intervals for degree {args.degree}\n")
        for r, lo, hi in rows:
            sys.stdout.write(f"  r = {r:<2}  [{lo}, {hi}]\n")
    return EXIT_OK


def _cmd_terao(args) -> int:
    payload: dict = {"schema": SCHEMA_VERSION}
    if args.tau is not None:
        if args.degree is None:
            raise InputError("--tau requires --degree")
        d, tau = args.degree, args.tau
        payload["source"] = "direct"
    elif args.lattice is not None:
        lattice = LatticeSummary.from_text(read_input(args.lattice))
        d, tau = lattice.degree, lattice_tjurina(lattice)
        payload["source"] = "lattice"
        payload["multiplicities"] = lattice.multiplicity_counts()
    else:
        lines = LineSet.from_text(read_input(args.lines))
        profile_degrees(lines.degree)  # refuse before the lattice and the product are built
        lattice = intersection_lattice(lines)
        d, tau = lines.degree, lattice_tjurina(lattice)
        payload["source"] = "lines"
        payload["multiplicities"] = lattice.multiplicity_counts()
        # rational lines admit the algebraic pipeline; cross-run it
        plan = FieldPlan.from_mode(args.field, args.seed)
        algebraic_tau = tjurina(rank_profile(arrangement_poly(lines), plan))
        payload["algebraic_tau"] = algebraic_tau
        payload["agreement"] = algebraic_tau == tau
    result = terao_rigidity(d, tau)
    payload.update({"degree": d, "tau": tau, "status": result.status, "r": result.r})
    if args.json:
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write(f"degree {d}, tau {tau}: {result}\n")
        if "agreement" in payload:
            sys.stdout.write(
                f"lattice tau {tau} vs algebraic tau {payload['algebraic_tau']}: "
                f"{'agree' if payload['agreement'] else 'DISAGREE'}\n"
            )
    return EXIT_OK


def _cmd_corpus(args) -> int:
    directory = Path(args.path) if args.path else shipped_corpus_dir()
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    results = run_corpus(directory, seed=args.seed, mode=args.field)
    failed = [r for r in results if not r.passed]
    if args.json:
        payload = {
            "schema": SCHEMA_VERSION,
            "cases": [
                {"name": r.name, "passed": r.passed, "failures": r.failures}
                for r in results
            ],
            "total": len(results),
            "failed": len(failed),
        }
        sys.stdout.write(render_json(payload))
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{mark}  {r.name}\n")
            for msg in r.failures:
                sys.stdout.write(f"      {msg}\n")
        sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} curves passed\n")
        if not results:
            sys.stdout.write("warning: no *.curve files found\n")
    return EXIT_OK if not failed else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "intervals": _cmd_intervals,
        "terao": _cmd_terao,
        "corpus": _cmd_corpus,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except InternalInconsistencyError as exc:
        sys.stderr.write(f"internal inconsistency: {exc}\n")
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
