"""Tests of the benchmark's own code: input generation and tracing.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sympy

import gen
import hostspeed
import run
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
X, Y, Z = sympy.symbols("x y z")


def _batch(workload: str, seed: int) -> list[dict]:
    spec = run.WORKLOADS[workload]
    return gen.batch(seed, spec["dense"], spec["lines"])


def _expand(expr: str) -> sympy.Poly:
    return sympy.Poly(sympy.sympify(expr.replace("^", "**")), X, Y, Z)


def test_generation_is_deterministic_per_seed():
    for workload in ("survey", "rational"):
        assert _batch(workload, 7) == _batch(workload, 7)
        assert _batch(workload, 7) != _batch(workload, 8)


def test_curves_are_distinct_squarefree_and_sized():
    for workload in ("survey", "rational"):
        spec = run.WORKLOADS[workload]
        curves = _batch(workload, 3)
        assert len(curves) == sum(spec["dense"].values()) + sum(spec["lines"].values())
        polys = [_expand(c["expr"]) for c in curves]
        # distinct up to a scalar factor: compare monic forms
        assert len({p.monic().as_expr() for p in polys}) == len(polys)
        for curve, poly in zip(curves, polys):
            assert poly.is_homogeneous and poly.total_degree() == curve["size"]
            assert all(mult == 1 for _, mult in poly.sqf_list()[1]), curve["expr"]


def test_arrangement_lines_match_expression():
    for curve in _batch("survey", 5):
        if curve["kind"] != "lines":
            continue
        product = sympy.Integer(1)
        for a, b, c in curve["lines"]:
            product *= a * X + b * Y + c * Z
        assert sympy.expand(product - _expand(curve["expr"]).as_expr()) == 0
        assert len(set(curve["lines"])) == curve["size"]


def test_generator_does_not_import_freecurve():
    code = "import sys, gen, run; gen.batch(1, {5: 2}, {6: 2}); print(any(m.startswith('freecurve') for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_self_time_subtracts_direct_children():
    # outer [0, 100] holds child [10, 40], which holds grandchild [20, 30]
    recorded = [
        (0, -1, 0, "outer", 0, 100, 0),
        (1, 0, 0, "child", 10, 40, 5),
        (2, 1, 0, "leaf", 20, 30, 0),
    ]
    summary = spans.summarize(recorded)
    assert summary["outer"]["self_s"] * 1e9 == 70
    assert summary["child"]["self_s"] * 1e9 == 20
    assert summary["leaf"]["self_s"] * 1e9 == 10
    assert summary["child"]["cells"] == 5


def test_trace_rebinds_every_module_and_splits_fields():
    # In a child interpreter: installing wrappers changes freecurve
    # process-wide, which must not leak into other tests.
    code = """
import json, sys, importlib
import spans
import freecurve as fc
tracer = spans.Tracer()
missing = spans.install(tracer)
modules = [m for n, m in sys.modules.items() if n.startswith("freecurve")]
stale = [m.__name__ for m in modules for name in ("rank", "kernel_basis", "jacobian_matrix")
         if hasattr(m, name) and not hasattr(getattr(m, name), "__wrapped__")]
for mode in ("auto", "qq"):
    for expr in ("x*y*z", "x*y*z*(x+y+z)"):
        fc.analyze(fc.parse_poly(expr), fc.FieldPlan.from_mode(mode, 1))
summary = spans.summarize(tracer.spans)
print(json.dumps({"missing": missing, "stale": stale, "names": sorted(summary)}))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["missing"] == [] and result["stale"] == []
    for name in ("linalg.rank.pp", "linalg.rank.qq", "syzygy.rank_jacobian", "fields.agree",
                 "classify.structural", "report.analyze", "syzygy.jacobian_matrix"):
        assert name in result["names"], name


def test_host_speed_adjustment_scales_by_nearby_samples():
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REF_LOOP_S
    # the loop ran at half speed around [1, 2]; a far sample is ignored
    speed.samples = [(0.97, 2 * ref), (1.5, 2 * ref), (9.0, ref)]
    # 1 s measured, minus the 2*ref sample taken inside it, at half speed
    assert abs(speed.adjust(1.0, 2.0) - (1.0 - 2 * ref) / 2) < 1e-12
    # no sample near the interval: the nearest one sets the speed
    assert abs(speed.adjust(6.0, 6.5) - 0.5) < 1e-12
