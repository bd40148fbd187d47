"""One batch of a workload in a fresh interpreter.

freecurve keeps process-wide caches keyed by polynomial, so a second pass
over the same curves in one process would time cache hits.  `run.py`
therefore starts this script once per batch (and once per set-up probe)
and reads one JSON object from its standard output.

The job arrives as JSON on standard input:
  {"kind": "setup" | "batch", "workload", "mode", "seed", "src",
   "curves": [...] | null, "trace": bool, "spans_path": str | null}

Times are returned twice: as measured ("raw_*") and in reference seconds
(see hostspeed.py), which is what the benchmark reports.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import spans as tracing
from hostspeed import HostSpeed


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mb() -> float:
    # VmHWM, not ru_maxrss: after fork and exec, ru_maxrss starts from the
    # parent's resident size, so it would report run.py, not this batch.
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _setup(job: dict) -> dict:
    """Set-up as every CLI call pays it: the import and the first plan."""
    speed = HostSpeed()
    speed.before(8)
    t0 = time.perf_counter()
    import freecurve

    freecurve.FieldPlan.from_mode(job["mode"], job["seed"])
    t1 = time.perf_counter()
    speed.before(8)
    if Path(job["src"]).resolve() not in Path(freecurve.__file__).resolve().parents:
        raise SystemExit(f"freecurve imported from {freecurve.__file__}, not from {job['src']}")
    return {"setup_s": speed.adjust(t0, t1), "raw_setup_s": t1 - t0}


def _run_corpus(fc, seed: int, tracer, speed: HostSpeed):
    """`freecurve corpus`: run_corpus on the shipped curves, auto mode.

    Each case is timed by rebinding corpus.run_case, which run_corpus
    calls once per curve file.
    """
    from freecurve import corpus
    from freecurve.data import shipped_corpus_dir

    intervals: list[tuple[float, float]] = []
    inner = corpus.run_case

    def timed_run_case(case, plan, table_max=None):
        if tracer is not None:
            tracer.request = len(intervals)
        speed.before()
        t0 = time.perf_counter()
        try:
            return inner(case, plan, table_max)
        finally:
            intervals.append((t0, time.perf_counter()))

    corpus.run_case = timed_run_case
    t0 = time.perf_counter()
    results = corpus.run_corpus(shipped_corpus_dir(), seed=seed, mode="auto")
    t1 = time.perf_counter()
    corpus.run_case = inner
    rendered, failures, fallbacks = [], [], 0
    for i, res in enumerate(results):
        rendered.append(res.name + "\n" + (fc.render_json(res.report) if res.report is not None else ""))
        if not res.passed:
            failures.append([i, f"{res.name}: " + "; ".join(res.failures)])
        fallbacks += res.plan.fallbacks if res.plan is not None else 0
    return (t0, t1), intervals, rendered, failures, fallbacks, None


def _run_curves(fc, curves: list[dict], mode: str, seed: int, tracer, speed: HostSpeed):
    """Closed loop, one client: parse, analyze and render one curve at a
    time with its own FieldPlan, exactly as `freecurve analyze --json`."""
    intervals: list[tuple[float, float]] = []
    rendered: list[str] = []
    reports: list[dict | None] = []
    failures: list[list] = []
    fallbacks = 0
    t_start = time.perf_counter()
    for i, curve in enumerate(curves):
        if tracer is not None:
            tracer.request = i
        expr = curve["expr"]
        speed.before()
        t0 = time.perf_counter()
        try:
            plan = fc.FieldPlan.from_mode(mode, seed)
            report = fc.analyze(fc.parse_poly(expr), plan, source=expr)
            text = fc.render_json(report)
        except fc.FreecurveError as exc:
            report, text = None, ""
            failures.append([i, f"{type(exc).__name__}: {exc}"])
        intervals.append((t0, time.perf_counter()))
        if report is not None:
            fallbacks += plan.fallbacks
        rendered.append(text)
        reports.append(report)
    return (t_start, time.perf_counter()), intervals, rendered, failures, fallbacks, reports


def _check_reports(fc, curves: list[dict], reports: list, mode: str, seed: int, failures: list) -> None:
    """Correctness gate that needs the package; runs after the timed loop."""
    from fractions import Fraction

    for i, (curve, report) in enumerate(zip(curves, reports)):
        if report is None:
            continue
        cls = report.get("classification")
        if cls and cls["verdict"] in ("Free", "NearlyFree") and cls["verified"] is not True:
            failures.append([i, f"{cls['verdict']} verdict with verified = {cls['verified']}"])
        if curve["kind"] == "lines":
            lines = fc.LineSet(tuple(tuple(Fraction(v) for v in t) for t in curve["lines"]))
            lattice_tau = fc.lattice_tjurina(fc.intersection_lattice(lines))
            if report.get("tau") != lattice_tau:
                failures.append([i, f"tau {report.get('tau')} != lattice tau {lattice_tau}"])
        if mode == "qq":
            # Cross-mode check: the prime-field pipeline must give the
            # same report as exact rational arithmetic.
            expr = curve["expr"]
            auto = fc.analyze(fc.parse_poly(expr), fc.FieldPlan.from_mode("auto", seed), source=expr)
            if {k: v for k, v in auto.items() if k != "field"} != {k: v for k, v in report.items() if k != "field"}:
                failures.append([i, "qq report differs from the auto report"])


def main() -> None:
    job = json.loads(sys.stdin.read())
    setup = _setup(job)
    if job["kind"] == "setup":
        print(json.dumps(setup))
        return
    import freecurve as fc

    tracer = missing = None
    if job["trace"]:
        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
    with HostSpeed() as speed:
        if job["workload"] == "corpus":
            batch, intervals, rendered, failures, fallbacks, reports = _run_corpus(fc, job["seed"], tracer, speed)
        else:
            batch, intervals, rendered, failures, fallbacks, reports = _run_curves(
                fc, job["curves"], job["mode"], job["seed"], tracer, speed
            )
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.active = False
    if reports is not None:
        _check_reports(fc, job["curves"], reports, job["mode"], job["seed"], failures)
    wall = speed.adjust(*batch)
    raw_wall = batch[1] - batch[0]
    out = {
        **setup,
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "latencies": [speed.adjust(t0, t1) for t0, t1 in intervals],
        "raw_latencies": [t1 - t0 for t0, t1 in intervals],
        "peak_rss_mb": peak_rss_mb,
        "hashes": [_sha(text) for text in rendered],
        "failures": failures,
        "fallbacks": fallbacks,
    }
    if tracer is not None:
        tracer.write(job["spans_path"])
        # Layer times in reference seconds, scaled by the batch's factor.
        scale = wall / raw_wall
        layers = tracing.summarize(tracer.spans)
        for row in layers.values():
            row["self_s"] *= scale
            row["total_s"] *= scale
        out["layers"] = layers
        out["spans"] = len(tracer.spans)
        out["span_cost_s"] = tracing.overhead_per_span() * scale
        out["missing"] = missing
    print(json.dumps(out))


if __name__ == "__main__":
    main()
