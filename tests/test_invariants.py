"""Derived invariants: thresholds, saturation defects, bounds."""

import dataclasses
import random
from math import gcd

import numpy as np
import pytest

from freecurve import invariants
from freecurve.errors import InternalInconsistencyError, NotReducedError
from freecurve.fields import QQ, FieldPlan
from freecurve.invariants import (
    compute_bundle,
    defect,
    delta_dim,
    dpw_bounds,
    n_dim,
    n_dim_saturation_oracle,
    smooth_reference,
    tau_max,
    thresholds,
    tjurina,
    validate_bundle,
)
from freecurve.linalg import ExactMatrix, rank
from freecurve.parser import parse_poly
from freecurve.poly import dim_S
from freecurve.report import analyze
from freecurve.syzygy import jacobian_matrix, mdr, primitive_form, rank_jacobian, rank_profile

from oracles import smooth_series_oracle

TRIANGLE = parse_poly("x*y*z")
CUSP = parse_poly("x^3-y^2*z")
FERMAT3 = parse_poly("x^3+y^3+z^3")


def test_smooth_reference_tables():
    assert [smooth_reference(3, k) for k in range(4)] == [1, 3, 3, 1]
    assert [smooth_reference(4, k) for k in range(7)] == [1, 3, 6, 7, 6, 3, 1]
    assert smooth_reference(12, 0) == 1


def test_smooth_reference_against_series_expansion():
    for d in range(2, 9):
        T = 3 * (d - 2)
        assert [smooth_reference(d, k) for k in range(T + 1)] == smooth_series_oracle(d, T)


def test_smooth_reference_support_and_symmetry():
    for d in (3, 5, 8, 12):
        T = 3 * (d - 2)
        assert smooth_reference(d, -1) == 0
        assert smooth_reference(d, T + 1) == 0
        for k in range(T + 1):
            assert smooth_reference(d, k) == smooth_reference(d, T - k)


@pytest.mark.parametrize(
    "expr,tau",
    [("x*y*z", 3), ("x^3-y^2*z", 2), ("x^3+y^3+z^3", 0), ("x*y*z*(x+y+z)", 6)],
)
def test_tjurina_small(expr, tau):
    assert tjurina(rank_profile(parse_poly(expr))) == tau


def test_tjurina_paper_arrangements():
    plan = FieldPlan.primes(0)
    assert tjurina(rank_profile(parse_poly("x*y*z*(x^9-y^9)"), plan)) == 111
    assert tjurina(rank_profile(parse_poly("x*y*z*(x+y+z)*(x^8-y^8)"), plan)) == 103


def test_tjurina_rejects_nonreduced():
    with pytest.raises(NotReducedError):
        tjurina(rank_profile(parse_poly("x^2*y")))


@pytest.mark.parametrize(
    "expr,ct,st",
    [
        ("x*y*z", 2, 1),
        ("x^3-y^2*z", 2, 3),
        ("x^3+y^3+z^3", None, 4),
        # d <= 2: the scan starts at max(3d-5, 0)
        ("x", None, 0),
        ("x*y", 0, 0),
        ("x^2+y^2+z^2", None, 1),
    ],
)
def test_thresholds_examples(expr, ct, st):
    assert thresholds(rank_profile(parse_poly(expr))) == (ct, st)


def test_threshold_sums():
    # T = 3, free: ct+st = T; nearly free: T+2
    assert 2 + 1 == 3
    ct, st = thresholds(rank_profile(CUSP))
    assert ct + st == 3 + 2


@pytest.mark.parametrize(
    "f,table",
    [
        (CUSP, [0, 1, 1, 0]),
        (TRIANGLE, [0, 0, 0, 0]),
    ],
)
def test_n_dim_tables(f, table):
    profile = rank_profile(f)
    tau = tjurina(profile)
    d = f.degree
    T = 3 * (d - 2)
    assert [n_dim(d, j, tau, profile.ar) for j in range(T + 1)] == table
    # zero outside the supported range
    assert n_dim(d, -1, tau, profile.ar) == 0
    assert n_dim(d, T + 1, tau, profile.ar) == 0


@pytest.mark.parametrize(
    "f,j,expected",
    [(CUSP, 1, 1), (CUSP, 2, 1), (TRIANGLE, 0, 0), (TRIANGLE, 2, 0), (TRIANGLE, 3, 0)],
)
def test_saturation_oracle_examples(f, j, expected):
    assert n_dim_saturation_oracle(f)[j] == expected


def _recording_builder(monkeypatch) -> list:
    # every (target, functionals) the oracle builds, in call order
    built = []
    inner = invariants._functionals

    def recording(f, t):
        left_null = inner(f, t)
        built.append((t, left_null))
        return left_null

    monkeypatch.setattr(invariants, "_functionals", recording)
    return built


def test_formula_equals_oracle_on_small_curves(monkeypatch):
    built = _recording_builder(monkeypatch)
    for expr in ("x*y*z", "x^3-y^2*z", "x^3+y^3+z^3", "x*y*z*(x+y+z)", "x^3+x^2*z-y^2*z"):
        f = parse_poly(expr)
        profile = rank_profile(f)
        tau = tjurina(profile)
        T = 3 * (f.degree - 2)
        built.clear()
        oracle = n_dim_saturation_oracle(f)
        assert oracle == tuple(n_dim(f.degree, j, tau, profile.ar) for j in range(T + 1)), expr
        # every j <= T settles after probing the targets T+1 and T+2, each
        # built once per call
        assert [t for t, _ in built] == [T + 1, T + 2], expr


def test_oracle_table_runs_from_0_to_T():
    # T+1 entries, none for a line; below degree 3 no rank is read (J_-1
    # would be refused), and the one entry is the formula's.  From degree 3
    # on, test_formula_equals_oracle_on_small_curves compares all T+1
    assert n_dim_saturation_oracle(parse_poly("x")) == ()
    for expr, table in (("x*y", (0,)), ("x^2+y^2+z^2", (1,))):
        f = parse_poly(expr)
        profile = rank_profile(f)
        assert n_dim_saturation_oracle(f) == table == (n_dim(2, 0, tjurina(profile), profile.ar),), expr


def test_oracle_functionals_are_primitive_integer_rows_of_the_left_kernel(monkeypatch):
    # for each target degree t the oracle probes: dim S_t - rank_Q J_t rows
    # of coprime Python ints, independent, each killing J_t of the
    # primitive form F exactly; a rational curve is scaled to F first
    built = _recording_builder(monkeypatch)
    for expr in ("x^3-y^2*z", "x*y*z*(x+y+z)", "(1/2*x^3+1/3*y^3-z^3)*(x+y)", "(x^2-y^2)*(y^2-z^2)*(x^2-z^2)"):
        f = parse_poly(expr)
        F = primitive_form(f)
        d = f.degree
        built.clear()
        n_dim_saturation_oracle(f)
        assert built, expr
        for t, left_null in built:
            J = jacobian_matrix(F, t - d + 1, QQ)
            rows = left_null.row_lists()
            assert left_null.field is QQ and len(rows) == dim_S(t) - rank(J), (expr, t)
            assert all(type(v) is int for row in rows for v in row) and all(gcd(*row) == 1 for row in rows), (expr, t)
            assert not (np.array(rows, dtype=object).reshape(len(rows), dim_S(t)) @ J._data).any(), (expr, t)
            assert rank(left_null) == len(rows), (expr, t)


@pytest.mark.parametrize("f", [TRIANGLE, CUSP, FERMAT3, parse_poly("x*y*z*(x+y+z)")])
def test_oracle_vanishes_above_T(f):
    # the per-j saturation, run past the table at j = T+1 and T+2
    profile = rank_profile(f)
    tau = tjurina(profile)
    F = primitive_form(f)
    d = f.degree
    T = 3 * (d - 2)
    functionals: dict = {}
    for j in (T + 1, T + 2):
        oracle = invariants._saturation_defect(F, j, rank_jacobian(F, j - d + 1), functionals)
        assert oracle == 0 == n_dim(d, j, tau, profile.ar)


def test_oracle_builds_no_prime_field_matrix(monkeypatch):
    # the oracle is an independent check over Q: every matrix it builds,
    # Jacobian or constraint, is rational
    fields = []
    inner = ExactMatrix.__init__

    def recording(self, field, rows, cols, data):
        fields.append(field)
        inner(self, field, rows, cols, data)

    monkeypatch.setattr(ExactMatrix, "__init__", recording)
    n_dim_saturation_oracle(parse_poly("x*y*z*(x+y+z)"))
    assert fields and all(field is QQ for field in fields)


def test_oracle_asserts_nesting(monkeypatch):
    # (J : m^e)_j can only grow with e; a shrinking round is a bug
    dims = iter([5, 4])
    monkeypatch.setattr(invariants, "_saturation_dim", lambda *args: next(dims))
    with pytest.raises(InternalInconsistencyError):
        n_dim_saturation_oracle(CUSP)


def test_delta_examples():
    assert delta_dim(rank_profile(TRIANGLE), 1, 1) == 1
    assert delta_dim(rank_profile(CUSP), 1, 1) == 0
    assert delta_dim(rank_profile(CUSP), 2, 1) == 2


def test_delta_vanishes_below_gap():
    for f in (TRIANGLE, CUSP, parse_poly("x*y*z*(x+y+z)")):
        profile = rank_profile(f)
        r = mdr(profile)
        d = f.degree
        for k in range(0, d - r - 1):
            assert delta_dim(profile, k, r) == 0


def test_dpw_bounds_degree_12_table():
    assert dpw_bounds(12, 1) == (110, 111)
    assert dpw_bounds(12, 2) == (99, 103)
    assert dpw_bounds(12, 3) == (88, 97)
    assert dpw_bounds(12, 4) == (77, 93)
    # r = d/2 cap
    assert dpw_bounds(12, 6) == (55, 90)
    assert dpw_bounds(4, 2) == (3, 6)
    assert dpw_bounds(3, 1) == (2, 3)


def test_n_dim_is_symmetric_for_any_ar_table():
    # j -> T-j swaps the two ar terms and leaves the bracket unchanged, so
    # the symmetry of the n table needs no check per curve
    rng = random.Random(8)
    for d in range(3, 41):
        T = 3 * (d - 2)
        for _ in range(3):
            table = [rng.randint(0, 3 * dim_S(k)) for k in range(2 * d - 4)]
            tau = rng.randint(0, (d - 1) ** 2)

            def outcome(j):
                try:
                    return n_dim(d, j, tau, table.__getitem__)
                except InternalInconsistencyError:
                    return "negative"

            for j in range(T + 1):
                assert outcome(j) == outcome(T - j), (d, tau, table, j)


def test_validate_bundle_asserts_the_cap_above_d_over_2():
    # the nodal cubic: d = 3, r = 2, so tau <= tau_max - choose2(2r+2-d) = 4 - 3
    bundle = compute_bundle(rank_profile(parse_poly("x^3+x^2*z-y^2*z")))
    assert (bundle.d, bundle.r, bundle.tau) == (3, 2, 1)
    assert tau_max(3, 2) == 4 and dpw_bounds(3, 2) == (0, 1)
    validate_bundle(bundle)
    with pytest.raises(InternalInconsistencyError, match=r"outside \[0, 1\]"):
        validate_bundle(dataclasses.replace(bundle, tau=2))


def test_defect_examples():
    assert defect(3, 1, 2) == 1  # cusp
    assert defect(3, 1, 3) == 0  # triangle
    assert defect(12, 1, 111) == 0
    # uncapped at r = d/2: a nearly free curve with d = 2r has defect 1
    assert defect(4, 2, 6) == 1


def test_bundle_validates_on_small_curves():
    for expr in ("x*y*z", "x^3-y^2*z", "x^3+y^3+z^3", "x*y*z*(x+y+z)", "x^3+x^2*z-y^2*z"):
        f = parse_poly(expr)
        bundle = compute_bundle(rank_profile(f))
        validate_bundle(bundle)
        assert bundle.T == 3 * (f.degree - 2)
        assert len(analyze(f)["tables"]["ar"]["values"]) == 2 * f.degree + 1


def test_bundle_table_max_override():
    report = analyze(TRIANGLE, table_max=4)
    assert len(report["tables"]["ar"]["values"]) == 5
    assert len(report["tables"]["m"]["values"]) == 5


def test_ct_equality_below_koszul_degree():
    # ct = r + d - 2 whenever r < d - 1
    for expr in ("x*y*z", "x^3-y^2*z", "x*y*z*(x+y+z)", "x*y*(x+y)*(x^2+y^2+z^2)"):
        f = parse_poly(expr)
        profile = rank_profile(f)
        r = mdr(profile)
        assert r < f.degree - 1
        ct, _ = thresholds(profile)
        assert ct == r + f.degree - 2
