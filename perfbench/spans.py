"""Spans around freecurve's public functions, installed from outside.

The package imports names directly (`from .linalg import rank`), so a
wrapper only takes effect when it replaces the name in every freecurve
module that bound it; `install` does that.  Spans stay in memory as
tuples and are written out once, after the timed region.

A span is (id, parent id, request, name, start ns, end ns, cells):
`parent` is the span that was open when this one started (its cause),
`request` the index of the curve being processed, `cells` the size of
the matrix the call worked on (0 where no matrix is involved).  A
layer's self time is its spans' durations minus their direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

Span = tuple[int, int, int, str, int, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = -1
        self.active = True

    def wrap(self, name, fn, cells=None):
        """Wrap `fn` in a span.  `name` is a string or a function of the
        call's arguments; `cells(args, result)` sizes the matrix."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            label = name if isinstance(name, str) else name(args)
            spans.append(None)
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                n = cells(args, result) if cells is not None and result is not None else 0
                spans[sid] = (sid, parent, self.request, label, t0, t1, n)

        return wrapper

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _field_tag(matrix) -> str:
    return "qq" if matrix.field.char == 0 else "pp"


def _arg_cells(args, _result) -> int:
    return args[0].rows * args[0].cols


def _result_cells(_args, result) -> int:
    return result.rows * result.cols


def _rebind(original, wrapper, modules) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced layer of the imported freecurve package.

    Returns the names that no longer exist in the package; their metrics
    read 0.
    """
    # By module path: the package attribute `freecurve.classify` is the
    # function, which shadows the submodule of the same name.
    classify, corpus, fields, invariants, linalg, parser, report, syzygy = (
        importlib.import_module(f"freecurve.{name}")
        for name in ("classify", "corpus", "fields", "invariants", "linalg", "parser", "report", "syzygy")
    )
    modules = [m for name, m in sys.modules.items() if name == "freecurve" or name.startswith("freecurve.")]
    public = [
        ("parser.parse_poly", parser, "parse_poly", None),
        ("report.analyze", report, "analyze", None),
        ("report.render_json", report, "render_json", None),
        ("syzygy.reducedness_check", syzygy, "reducedness_check", None),
        ("invariants.compute_bundle", invariants, "compute_bundle", None),
        ("classify.classify", classify, "classify", None),
        ("syzygy.rank_jacobian", syzygy, "rank_jacobian", None),
        ("syzygy.jacobian_matrix", syzygy, "jacobian_matrix", _result_cells),
        ("invariants.oracle", invariants, "n_dim_saturation_oracle", None),
        (lambda a: "linalg.rank." + _field_tag(a[0]), linalg, "rank", _arg_cells),
        (lambda a: "linalg.kernel_basis." + _field_tag(a[0]), linalg, "kernel_basis", _arg_cells),
        # run_case minus its traced children: the corpus cross-checks
        ("corpus.checks", corpus, "run_case", None),
    ]
    missing = []
    for name, module, attr, cells in public:
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module.__name__}.{attr}")
            continue
        _rebind(original, tracer.wrap(name, original, cells), modules)
    # Structural verification: the syzygy work classify does after the
    # three criteria agree.  Rebound in classify only, so the same
    # functions called from elsewhere are not counted here.
    for attr in ("syzygy_basis", "saito_verify", "nearly_free_generators", "solve_exact"):
        if hasattr(classify, attr):
            setattr(classify, attr, tracer.wrap("classify.structural", getattr(classify, attr)))
        else:
            missing.append(f"classify.{attr}")
    fields.FieldPlan.agree = tracer.wrap("fields.agree", fields.FieldPlan.agree)
    return missing


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds and cells."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, parent, _req, _name, t0, t1, _cells in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cells": 0})
    for sid, _parent, _req, name, t0, t1, cells in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += (t1 - t0) / 1e9
        row["self_s"] += (t1 - t0 - child_ns[sid]) / 1e9
        row["cells"] += cells
    return dict(out)


def overhead_per_span(samples: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    tracer = Tracer()

    def noop(x):
        return x

    wrapped = tracer.wrap("noop", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for i in range(samples):
            noop(i)
        bare = time.perf_counter() - t0
        tracer.spans.clear()
        t0 = time.perf_counter()
        for i in range(samples):
            wrapped(i)
        best = min(best, (time.perf_counter() - t0 - bare) / samples)
    return max(best, 0.0)
