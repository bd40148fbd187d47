"""freecurve benchmark: end-to-end and per-layer metrics for one workload.

Run from the root of a source checkout (the directory holding src/):

    python3 perfbench/run.py --workload survey --seed 3 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):
  corpus    `freecurve corpus`: the 16 shipped curves, auto mode, with the
            full cross-check battery; the only one that runs the oracle.
  survey    79 seeded curves, auto mode: dense curves of degree 4-9 and
            arrangements of 7-11 lines.
  rational  75 seeded curves, qq mode: dense degree 4-5, 5-6 lines.

Each batch runs in a fresh interpreter (worker.py).  Batches repeat, each
in a new interpreter, while another one still fits in --seconds; there
is always at least one.  --trace 1 runs one batch with spans around each
layer and prints the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 9
TIME_LIMIT_S = 170

# Size mixes (curve degree or line count -> number of curves).  Sorted by
# latency the curves fall into groups of similar cost; the counts put the
# median and the 80th percentile near the middle of a group, not at a
# boundary between two groups where the percentile jumps with the seed.
WORKLOADS = {
    "corpus": {"mode": "auto"},
    "survey": {
        "mode": "auto",
        "dense": {4: 10, 5: 10, 6: 18, 7: 6, 8: 3, 9: 2},
        "lines": {7: 18, 8: 6, 9: 3, 10: 2, 11: 1},
    },
    "rational": {
        "mode": "qq",
        "dense": {4: 48, 5: 4},
        "lines": {5: 21, 6: 2},
    },
}

LAYER_METRICS = [
    # (metric, span name, field of the span summary, unit)
    ("invariants.oracle.calls", "invariants.oracle", "calls", "count"),
    ("invariants.oracle.self_s", "invariants.oracle", "self_s", "s"),
    ("invariants.oracle.total_s", "invariants.oracle", "total_s", "s"),
    ("linalg.kernel_basis.qq.calls", "linalg.kernel_basis.qq", "calls", "count"),
    ("linalg.kernel_basis.qq.self_s", "linalg.kernel_basis.qq", "self_s", "s"),
    ("linalg.kernel_basis.qq.cells", "linalg.kernel_basis.qq", "cells", "count"),
    ("linalg.kernel_basis.pp.calls", "linalg.kernel_basis.pp", "calls", "count"),
    ("linalg.kernel_basis.pp.self_s", "linalg.kernel_basis.pp", "self_s", "s"),
    ("linalg.rank.pp.calls", "linalg.rank.pp", "calls", "count"),
    ("linalg.rank.pp.self_s", "linalg.rank.pp", "self_s", "s"),
    ("linalg.rank.pp.cells", "linalg.rank.pp", "cells", "count"),
    ("linalg.rank.qq.calls", "linalg.rank.qq", "calls", "count"),
    ("linalg.rank.qq.self_s", "linalg.rank.qq", "self_s", "s"),
    ("linalg.rank.qq.cells", "linalg.rank.qq", "cells", "count"),
    ("syzygy.jacobian_matrix.calls", "syzygy.jacobian_matrix", "calls", "count"),
    ("syzygy.jacobian_matrix.self_s", "syzygy.jacobian_matrix", "self_s", "s"),
    ("syzygy.jacobian_matrix.cells", "syzygy.jacobian_matrix", "cells", "count"),
    ("syzygy.rank_jacobian.calls", "syzygy.rank_jacobian", "calls", "count"),
    ("fields.agree.calls", "fields.agree", "calls", "count"),
    ("syzygy.reducedness_check.self_s", "syzygy.reducedness_check", "self_s", "s"),
    ("invariants.compute_bundle.self_s", "invariants.compute_bundle", "self_s", "s"),
    ("classify.classify.self_s", "classify.classify", "self_s", "s"),
    ("classify.structural.self_s", "classify.structural", "self_s", "s"),
    ("classify.structural.total_s", "classify.structural", "total_s", "s"),
    ("report.analyze.self_s", "report.analyze", "self_s", "s"),
    ("parser.parse_poly.self_s", "parser.parse_poly", "self_s", "s"),
    ("report.render_json.self_s", "report.render_json", "self_s", "s"),
    ("corpus.checks.self_s", "corpus.checks", "self_s", "s"),
]


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _worker(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = job["src"] + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        _fail(f"{job['kind']} worker exceeded the {TIME_LIMIT_S} s limit")
    if proc.returncode != 0:
        _fail(f"{job['kind']} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(batch: dict) -> dict:
    layers = batch["layers"]
    out = {}
    for metric, span, field, unit in LAYER_METRICS:
        out[metric] = _metric(layers.get(span, {}).get(field, 0), unit)
    out["linalg.rank.pp.bytes_computed"] = _metric(8 * out["linalg.rank.pp.cells"]["value"], "B")
    out["fields.fallbacks"] = _metric(batch["fallbacks"], "count")
    ranks = out["linalg.rank.pp.calls"]["value"] + out["linalg.rank.qq.calls"]["value"]
    out["syzygy.rank_reuse"] = _metric(out["syzygy.rank_jacobian.calls"]["value"] / max(ranks, 1), "ratio")
    out["trace.spans"] = _metric(batch["spans"], "count")
    out["trace.overhead_s"] = _metric(batch["spans"] * batch["span_cost_s"], "s")
    out["trace.wall_s"] = _metric(batch["wall_s"], "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference",
        action="store_true",
        help=f"store this run's output hashes as the reference for seed {DEFAULT_SEED}",
    )
    args = ap.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    src = Path.cwd() / "src"
    if not (src / "freecurve" / "__init__.py").is_file():
        _fail(f"no freecurve sources under {src}; run from the root of a checkout")
    spec = WORKLOADS[args.workload]
    curves = gen.batch(args.seed, spec["dense"], spec["lines"]) if "dense" in spec else None
    job = {
        "workload": args.workload,
        "mode": spec["mode"],
        "seed": args.seed,
        "src": str(src),
        "curves": curves,
        "trace": bool(args.trace),
        "spans_path": None,
    }

    probes = [] if args.trace else [_worker({**job, "kind": "setup"}, deadline) for _ in range(SETUP_PROBES)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        job["spans_path"] = str(out_dir / f"{args.workload}-seed{args.seed}.spans.jsonl")
    batches = []
    t0 = time.monotonic()
    while True:
        batches.append(_worker({**job, "kind": "batch"}, deadline))
        elapsed = time.monotonic() - t0
        if args.trace or elapsed + elapsed / len(batches) > args.seconds:
            break

    # (batch, curve index, message); a curve with several failures is one
    # failed operation.
    failures = [(n, i, msg) for n, b in enumerate(batches) for i, msg in b["failures"]]
    hashes = batches[0]["hashes"]
    attempted = sum(len(b["hashes"]) for b in batches)
    if args.write_reference:
        if args.seed != DEFAULT_SEED or failures:
            _fail(f"a reference needs --seed {DEFAULT_SEED} and a run without failures")
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[args.workload] = hashes
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    if args.seed == DEFAULT_SEED:
        expected = json.loads(REFERENCE.read_text()).get(args.workload) if REFERENCE.exists() else None
        if expected is None:
            _fail(f"no reference hashes for {args.workload} in {REFERENCE}")
        for n, b in enumerate(batches):
            if len(b["hashes"]) != len(expected):
                failures.append((n, -1, f"{len(b['hashes'])} outputs, the reference has {len(expected)}"))
            for i, (got, want) in enumerate(zip(b["hashes"], expected)):
                if got != want:
                    failures.append((n, i, "rendered JSON differs from the reference"))
    failed = min(attempted, len({(n, i) for n, i, _ in failures}))

    def times(prefix: str) -> dict:
        latencies = [x for b in batches for x in b[prefix + "latencies"]]
        return {
            "setup_s": statistics.median(r[prefix + "setup_s"] for r in probes + batches),
            "wall_s": statistics.median(b[prefix + "wall_s"] for b in batches),
            "curve_p50_s": statistics.median(latencies),
            "curve_p80_s": statistics.quantiles(latencies, n=5)[3],
        }

    if args.trace:
        metrics = _layer_metrics(batches[0])
    else:
        metrics = {name: _metric(value, "s") for name, value in times("").items()}
        metrics["peak_rss_mb"] = _metric(statistics.median(b["peak_rss_mb"] for b in batches), "MB")

    print(f"workload {args.workload}  seed {args.seed}  mode {spec['mode']}  batches {len(batches)}  "
          f"curves per batch {len(hashes)}  latency samples {len(hashes) * len(batches)}")
    print("as measured, before the host-speed adjustment: "
          + "  ".join(f"{name} {value:.6g}" for name, value in times("raw_").items()))
    for n, i, msg in failures:
        print(f"FAILED batch {n} curve {i}: {msg}")
    if args.trace and batches[0]["missing"]:
        print("not traced (absent from the package): " + ", ".join(batches[0]["missing"]))
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
