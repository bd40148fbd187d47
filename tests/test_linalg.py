"""Exact linear algebra: examples, properties, and cross-field agreement."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freecurve.corpus import load_case
from freecurve.data import shipped_corpus_dir
from freecurve.fields import GF, QQ, random_prime
from freecurve.linalg import (
    LIMB_INNER_BOUND,
    ExactMatrix,
    _bareiss_echelon,
    _dtype,
    _mod_p_echelon,
    _mod_p_matmul,
    _rref,
    _scaled_int_rows,
    integer_kernel_basis,
    kernel_basis,
    pivot_columns,
    rank,
    solve_exact,
)
from freecurve.parser import parse_poly
from freecurve.syzygy import CERT_PRIME, jacobian_matrix

import random

from oracles import dense_bareiss_echelon, dense_mod_p_echelon, fraction_rref, jacobian_matrix_oracle, kernel_oracle

# p^2 > 2^63: these matrices are numpy object arrays of Python ints
P63 = GF(random_prime(random.Random(63), 2**62, 2**63 - 1))
THREE_FIELDS = (QQ, GF(2_147_483_659), P63)


def zeros(field, m, n):
    # over Q the zero is a Fraction, where np.zeros would put int 0
    data = np.zeros((m, n), dtype=_dtype(field))
    if data.dtype == object:
        data.fill(field.zero)
    return ExactMatrix(field, m, n, data)


def identity(field, n):
    return ExactMatrix.from_rows(field, [[int(i == j) for j in range(n)] for i in range(n)])


def qmat(rows):
    return ExactMatrix.from_rows(QQ, [[Fraction(v) for v in r] for r in rows])


def test_rank_empty_and_identity():
    assert rank(zeros(QQ, 0, 0)) == 0
    assert rank(identity(QQ, 3)) == 3


def test_rank_dependent_rows():
    assert rank(qmat([[1, 2, 3], [2, 4, 6]])) == 1


def test_pivot_columns_skip_dependent_columns():
    # column 1 is twice column 0, column 3 is column 0 plus column 2
    rows = [[1, 2, 0, 1], [0, 0, 1, 1], [3, 6, 0, 3]]
    assert pivot_columns(qmat(rows)) == [0, 2]
    assert pivot_columns(ExactMatrix.from_rows(GF(2_147_483_659), rows)) == [0, 2]
    assert pivot_columns(zeros(QQ, 0, 3)) == []


def assert_field_elements(field, values):
    """Each value is an element of field as stored: a Fraction over Q, an
    int in [0, p) over a prime."""
    for v in values:
        if field is QQ:
            assert type(v) is Fraction
        else:
            assert type(v) is int and 0 <= v < field.p


def assert_field_entries(M):
    rows = M.row_lists()
    assert len(rows) == M.rows and all(len(row) == M.cols for row in rows)
    assert_field_elements(M.field, [v for row in rows for v in row])


def test_stack_appends_rows():
    for field in THREE_FIELDS:
        top = ExactMatrix.from_rows(field, [[field.from_int(1), field.from_int(2)]])
        stacked = top.stack(ExactMatrix.from_rows(field, [[field.from_int(v) for v in r] for r in ([3, 4], [5, 6])]))
        assert (stacked.rows, stacked.cols) == (3, 2)
        assert stacked.row_lists() == [[1, 2], [3, 4], [5, 6]]
        assert zeros(field, 0, 2).stack(top).row_lists() == [[1, 2]]
        assert_field_entries(stacked)


def test_constructors_and_views_hold_field_elements():
    for field in THREE_FIELDS:
        minus_one = field.from_int(-1)
        sparse = ExactMatrix.from_rows(field, [[0, 0, field.one], [minus_one, 0, 0]])
        assert sparse.row_lists() == [[0, 0, 1], [minus_one, 0, 0]]
        zero = zeros(field, 2, 2)
        assert zero.row_lists() == [[0, 0], [0, 0]]
        transposed = sparse.transpose()
        assert (transposed.rows, transposed.cols) == (3, 2)
        assert transposed.row_lists() == [[0, minus_one], [0, 0], [1, 0]]
        picked = sparse.columns([2, 0])
        assert (picked.rows, picked.cols) == (2, 2)
        assert picked.row_lists() == [[1, 0], [0, minus_one]]
        assert sparse.columns([]).row_lists() == [[], []]
        # int input becomes field elements too: Fractions over Q
        from_ints = ExactMatrix.from_rows(field, [[1, 2], [-1, 0]])
        assert from_ints.row_lists() == [[1, 2], [minus_one, 0]]
        for M in (sparse, zero, transposed, picked, zero.stack(sparse.columns([0, 1])), identity(field, 2), from_ints):
            assert_field_entries(M)


def test_prime_field_refuses_a_denominator_it_divides():
    F = GF(7)
    assert F.from_fraction(Fraction(3, 2)) == 5
    assert F.from_fraction(Fraction(-1, 2)) == 3
    with pytest.raises(ValueError):
        F.from_fraction(Fraction(1, 7))


def test_kernel_injective_map():
    assert kernel_basis(identity(QQ, 2)) == []


def test_kernel_single_relation_is_canonical():
    # leading coefficient of the canonical basis vector is 1
    basis = kernel_basis(qmat([[1, 1]]))
    assert basis == [(Fraction(1), Fraction(-1))]


def test_kernel_zero_rows_gives_standard_basis():
    m = ExactMatrix.from_rows(QQ, [[Fraction(0)] * 3])
    basis = kernel_basis(m)
    assert len(basis) == 3
    assert basis[0] == (1, 0, 0)


def test_solve_identity():
    x = solve_exact(identity(QQ, 2), [Fraction(5), Fraction(7)])
    assert x == (5, 7)


def test_solve_inconsistent():
    assert solve_exact(qmat([[0]]), [Fraction(1)]) is None


def test_solve_underdetermined_canonical():
    # one equation, two unknowns: free coordinate pinned to zero
    x = solve_exact(qmat([[1, 1]]), [Fraction(3)])
    assert x == (3, 0)


@st.composite
def fraction_matrices(draw):
    m = draw(st.integers(0, 6))
    n = draw(st.integers(0 if m == 0 else 1, 6))
    num = st.integers(-9, 9)
    den = st.integers(1, 4)
    rows = [
        [Fraction(draw(num), draw(den)) for _ in range(n)]
        for _ in range(m)
    ]
    return rows


@settings(max_examples=60, deadline=None)
@given(fraction_matrices())
def test_rank_plus_nullity_is_cols(rows):
    M = ExactMatrix.from_rows(QQ, rows) if rows else zeros(QQ, 0, 0)
    r = rank(M)
    basis = kernel_basis(M)
    assert r + len(basis) == M.cols
    for vec in basis:
        for i in range(M.rows):
            total = sum(rows[i][j] * vec[j] for j in range(M.cols))
            assert total == 0


@st.composite
def field_matrices(draw):
    """A field of each size, and a matrix over it as plain rows."""
    field = draw(st.sampled_from(THREE_FIELDS))
    rows = draw(fraction_matrices())
    if field is not QQ:
        rows = [[field.from_fraction(v) for v in r] for r in rows]
    return field, rows


def residue(field, v):
    return v if field is QQ else v % field.p


@settings(max_examples=60, deadline=None)
@given(field_matrices(), st.integers(0, 10**6))
def test_solve_exact_or_certified_inconsistent(case, seed):
    field, rows = case
    if not rows:
        return
    M = ExactMatrix.from_rows(field, rows)
    rng = random.Random(seed)
    b = [field.from_int(rng.randint(-9, 9)) for _ in range(M.rows)]
    x = solve_exact(M, b)
    if x is None:
        aug = ExactMatrix.from_rows(field, [list(r) + [bv] for r, bv in zip(rows, b)])
        assert rank(aug) == rank(M) + 1
    else:
        assert len(x) == M.cols
        for i in range(M.rows):
            assert residue(field, sum(rows[i][j] * x[j] for j in range(M.cols))) == b[i]
        assert_field_elements(field, x)


@settings(max_examples=40, deadline=None)
@given(fraction_matrices())
def test_prime_field_rank_matches_rational(rows):
    # random integer-ish matrices: reduction mod a large prime keeps the rank
    if not rows:
        return
    M = ExactMatrix.from_rows(QQ, rows)
    field = GF(2_147_483_659)
    Mp = ExactMatrix.from_rows(field, [[field.from_fraction(v) for v in r] for r in rows])
    assert rank(Mp) == rank(M)


def assert_q_elimination_matches_fraction_rref(rows, b):
    """pivot_columns, _rref, kernel_basis and solve_exact over Q against
    plain Gauss-Jordan in Fractions (`fraction_rref`), and every row of the
    echelon form against Bareiss's elimination as published."""
    n = len(rows[0])
    M = ExactMatrix.from_rows(QQ, rows)
    ints = _scaled_int_rows(M._data.tolist())
    for row, scaled in zip(rows, ints):
        # a positive multiple of the row, in coprime integers
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is None:
            assert not any(scaled)
        else:
            c = scaled[lead] / row[lead]
            assert c > 0 and gcd(*scaled) == 1 and scaled == [c * v for v in row]
    assert _bareiss_echelon([list(r) for r in ints]) == dense_bareiss_echelon(ints)
    ref_rows, ref_pivots = fraction_rref(rows)
    assert pivot_columns(M) == ref_pivots
    assert _rref(M) == (ref_rows, ref_pivots)
    # the kernel vector of each free column, made canonical by one more RREF
    free = [f for f in range(n) if f not in ref_pivots]
    spanning = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, pc in zip(ref_rows, ref_pivots):
            v[pc] = -row[f]
        spanning.append(v)
    assert kernel_basis(M) == [tuple(v) for v in fraction_rref(spanning)[0]]
    # an integral matrix, the same rows held as Python ints, reads the same
    integral = ExactMatrix(QQ, M.rows, n, np.array(ints, dtype=object).reshape(M.rows, n))
    assert pivot_columns(integral) == ref_pivots and _rref(integral) == (ref_rows, ref_pivots)
    # the canonical kernel vectors as primitive integer rows, leading entry > 0
    primitive = integer_kernel_basis(M)
    assert primitive.field is QQ and (primitive.rows, primitive.cols) == (n - len(ref_pivots), n)
    for vec, canonical in zip(primitive.row_lists(), kernel_basis(M)):
        lead = vec[canonical.index(1)]
        assert all(type(v) is int for v in vec) and gcd(*vec) == 1 and lead > 0
        assert vec == [lead * v for v in canonical]
    aug_rows, aug_pivots = fraction_rref([list(r) + [v] for r, v in zip(rows, b)])
    if aug_pivots and aug_pivots[-1] == n:
        assert solve_exact(M, b) is None
    else:
        x = [Fraction(0)] * n
        for row, pc in zip(aug_rows, aug_pivots):
            x[pc] = row[n]
        assert solve_exact(M, b) == tuple(x)


# Each case exercises a step of the deferred-scaling elimination: a row
# left at an older level must be divided by that level when it is hit,
# keep its level through a row swap, and be brought current when it
# becomes the pivot row.
Q_ELIMINATION_CASES = {
    "rank 0": [[0, 0, 0], [0, 0, 0]],
    "zero rows and columns": [[0, 0, 0, 0], [0, 2, 0, 1], [0, 0, 0, 0], [0, 4, 0, 3]],
    "deficient rank": [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4]],
    "a row skips a pivot, then is hit": [[2, 1, 0], [1, 0, 0], [0, -1, -1]],
    "a zero leading entry forces a row swap": [[0, 0, 1], [2, 1, 0]],
    "rows at different levels are swapped": [[2, -1, -1], [2, -1, -1], [0, 0, 2]],
    "rows skip several pivots": [
        [2, 1, 0, 0, 1],
        [1, 3, 1, 0, 0],
        [0, 1, 2, 1, 0],
        [0, 0, 1, 2, 1],
        [0, 0, 0, 1, 3],
        [2, 1, 0, 1, 4],
    ],
}


@pytest.mark.parametrize("name", sorted(Q_ELIMINATION_CASES))
def test_q_elimination_matches_fraction_gauss_jordan_on_named_cases(name):
    rows = [[Fraction(v) for v in r] for r in Q_ELIMINATION_CASES[name]]
    for b in ([Fraction(i + 1) for i in range(len(rows))], [sum(r, Fraction(0)) for r in rows]):
        assert_q_elimination_matches_fraction_rref(rows, b)


def sparse_q_case(pick):
    """A sparse rational matrix and a right-hand side, with `pick(lo, hi)`
    giving each integer in [lo, hi].  It has 3 to 7 rows, the fewest with
    which a row can skip a pivot and then be hit, and is a product through
    a factor of 2 to 7 columns whose entries are zero half the time, so
    leading entries vanish and rows skip pivots.  Some rows are multiples
    of earlier ones (so that a row hit by a pivot can vanish and a row
    below it become the next pivot row), and a few rows and columns are
    zero."""
    m, n = pick(3, 7), pick(2, 7)

    def entry():
        return Fraction(pick(-9, 9), pick(1, 5)) if pick(0, 1) else Fraction(0)

    k = pick(2, min(m, n))
    left = [[entry() for _ in range(k)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(k)]
    rows = [[sum((row[t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(n)] for row in left]
    for i in range(1, m):
        if pick(0, 3) == 3:
            factor = entry()
            rows[i] = [factor * v for v in rows[pick(0, i - 1)]]
    dead_rows = {pick(0, m - 1) for _ in range(pick(0, m // 3))}
    dead_cols = {pick(0, n - 1) for _ in range(pick(0, n // 3))}
    rows = [[Fraction(0) if i in dead_rows or j in dead_cols else v for j, v in enumerate(r)] for i, r in enumerate(rows)]
    return rows, [entry() for _ in range(m)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_q_elimination_matches_fraction_gauss_jordan(data):
    assert_q_elimination_matches_fraction_rref(*sparse_q_case(lambda lo, hi: data.draw(st.integers(lo, hi))))


def test_q_elimination_matches_fraction_gauss_jordan_on_seeded_matrices():
    # hypothesis's draws cluster within a run, and some runs miss a wrong
    # divisor; 200 seeded matrices catch each such mutant every time
    rng = random.Random(0)
    for _ in range(200):
        assert_q_elimination_matches_fraction_rref(*sparse_q_case(rng.randint))


def shipped_test_matrices():
    """The fixed matrices the agreement property is asserted on."""
    from freecurve.parser import parse_poly
    from freecurve.syzygy import CERT_PRIME, jacobian_matrix

    mats = [
        [[1, 2, 3], [2, 4, 6]],
        [[1, 1], [0, 1]],
        [[2, 0, 1], [0, 3, 1], [2, 3, 2]],
        [[Fraction(1, 2), Fraction(2, 3)], [Fraction(3, 4), Fraction(4, 5)]],
    ]
    out = [[list(map(Fraction, r)) for r in m] for m in mats]
    for expr in ("x*y*z", "x^3-y^2*z", "x^3+y^3+z^3"):
        f = parse_poly(expr)
        for k in range(3):
            out.append(jacobian_matrix(f, k, QQ).row_lists())
    return out


def test_rank_agrees_over_random_63bit_prime():
    rng = random.Random(63)
    p = random_prime(rng, 2**62, 2**63 - 1)
    field = GF(p)
    assert not field.fits_int64()  # exercises the object-array path
    for rows in shipped_test_matrices():
        M = ExactMatrix.from_rows(QQ, rows)
        Mp = ExactMatrix.from_rows(field, [[field.from_fraction(v) for v in r] for r in rows])
        assert rank(Mp) == rank(M)


def test_prime_field_kernel_is_exact():
    field = GF(2_147_483_659)
    rows = [[1, 2, 3, 4], [4, 3, 2, 1], [5, 5, 5, 5]]
    M = ExactMatrix.from_rows(field, rows)
    basis = kernel_basis(M)
    assert len(basis) == 4 - rank(M)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) % field.p == 0


def test_kernel_and_solve_over_random_63bit_prime():
    # the ranks agree with Q, so the canonical kernel and the echelon
    # particular solution are the reductions of the rational ones
    field = P63
    for rows in shipped_test_matrices():
        M = ExactMatrix.from_rows(QQ, rows)
        Mp = ExactMatrix.from_rows(field, [[field.from_fraction(v) for v in r] for r in rows])
        assert Mp._data.dtype == object
        assert kernel_basis(Mp) == [tuple(field.from_fraction(v) for v in vec) for vec in kernel_basis(M)]
        x = [Fraction(j + 1) for j in range(M.cols)]
        for b in ([sum(a * v for a, v in zip(r, x)) for r in rows], [Fraction(1)] + [Fraction(0)] * (M.rows - 1)):
            over_q = solve_exact(M, b)
            over_p = solve_exact(Mp, [field.from_fraction(v) for v in b])
            assert over_p == (None if over_q is None else tuple(field.from_fraction(v) for v in over_q))
    assert solve_exact(ExactMatrix.from_rows(field, [[1, 1], [2, 2]]), [1, 3]) is None


@settings(max_examples=90, deadline=None)
@given(field_matrices())
def test_kernel_basis_is_the_reduced_echelon_kernel_in_every_field(case):
    field, rows = case
    M = ExactMatrix.from_rows(field, rows)
    basis = kernel_basis(M)
    assert len(basis) == M.cols - rank(M)
    leads = []
    for vec in basis:
        assert len(vec) == M.cols
        assert_field_elements(field, vec)
        lead = next(j for j, v in enumerate(vec) if v)
        assert vec[lead] == 1
        leads.append(lead)
        for row in rows:
            assert residue(field, sum(a * v for a, v in zip(row, vec))) == 0
    assert leads == sorted(set(leads))
    for i, lead in enumerate(leads):
        assert all(other[lead] == 0 for k, other in enumerate(basis) if k != i)


def test_kernel_basis_matches_sympy_oracle_on_corpus_jacobians():
    # the Jacobian and its transpose (the saturation oracle's functionals)
    for path in sorted(shipped_corpus_dir().glob("*.curve")):
        f = parse_poly(load_case(path).expression)
        if f.degree > 4:
            continue
        for k in range(f.degree + 1):
            J = jacobian_matrix(f, k, QQ)
            oracle = jacobian_matrix_oracle(f, k)
            assert kernel_basis(J) == kernel_oracle(oracle), (path.name, k)
            assert kernel_basis(J.transpose()) == kernel_oracle(oracle.T), (path.name, k)


def test_limb_product_is_exact_below_its_inner_bound():
    p = 2_999_999_929
    n = LIMB_INNER_BOUND - 1
    rng = np.random.default_rng(0)
    a = rng.integers(0, p, size=(3, n), dtype=np.int64)
    b = rng.integers(0, p, size=(n, 4), dtype=np.int64)
    # the largest sums: p-1 everywhere, and the largest entry whose low limb is 0xFFFF
    a[0] = p - 1
    b[:, 0] = p - 1
    b[:, 1] = (p >> 16 << 16) - 1
    expected = a.astype(object) @ b.astype(object) % p
    assert (_mod_p_matmul(a, b, p) == expected).all()
    with pytest.raises(ValueError, match="inner dimension"):
        _mod_p_matmul(np.zeros((1, n + 1), np.int64), np.zeros((n + 1, 1), np.int64), p)


@pytest.mark.parametrize("p", [CERT_PRIME, 2**61 - 1])
def test_empty_product_is_the_zero_matrix(p):
    dtype = _dtype(GF(p))
    out = _mod_p_matmul(np.zeros((3, 0), dtype), np.zeros((0, 4), dtype), p)
    assert out.shape == (3, 4)
    assert out.dtype == dtype
    assert not out.any()


def _echelon_cases(rng: random.Random, p: int) -> list[np.ndarray]:
    """Matrices mod p of rank 0, full rank and deficient rank, some with
    zero rows and columns, as the arrays `ExactMatrix` stores over GF(p)."""
    def rand(m, n):
        return [[rng.randrange(p) for _ in range(n)] for _ in range(m)]

    def full(m, n):
        # an upper staircase with units on its corners, rows mixed and shuffled
        k = min(m, n)
        cols = sorted(rng.sample(range(n), k))
        rows = [[0] * n for _ in range(m)]
        for i, c in enumerate(cols):
            rows[i][c] = rng.randrange(1, p)
            for j in range(c + 1, n):
                rows[i][j] = rng.randrange(p)
        for i in range(1, k):
            j = rng.randrange(i)
            factor = rng.randrange(p)
            rows[i] = [(u + factor * v) % p for u, v in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        return rows

    def deficient(m, n):
        k = rng.randrange(1, min(m, n))
        left, right = rand(m, k), rand(k, n)
        return [[sum(u * right[t][j] for t, u in enumerate(row)) % p for j in range(n)] for row in left]

    def holes(rows):
        m, n = len(rows), len(rows[0])
        dead_rows, dead_cols = set(rng.sample(range(m), m // 3)), set(rng.sample(range(n), n // 3))
        return [[0 if i in dead_rows or j in dead_cols else v for j, v in enumerate(row)] for i, row in enumerate(rows)]

    dtype = _dtype(GF(p))
    cases = [np.zeros((0, 4), dtype), np.zeros((3, 0), dtype), np.zeros((4, 5), dtype)]
    for m, n in [(1, 1), (2, 5), (5, 2), (4, 4), (6, 9), (9, 6), (12, 12), (16, 24)]:
        for rows in (rand(m, n), full(m, n), holes(full(m, n))):
            cases.append(np.array(rows, dtype=dtype))
        if min(m, n) > 1:
            cases.append(np.array(deficient(m, n), dtype=dtype))
            cases.append(np.array(holes(deficient(m, n)), dtype=dtype))
    return cases


# 3, 5 and 7 make many entries and pivots vanish; 2^61-1 is stored in
# object arrays
@pytest.mark.parametrize("p", [3, 5, 7, CERT_PRIME, 2**61 - 1])
@pytest.mark.parametrize("reduced", [False, True])
def test_mod_p_echelon_matches_the_dense_per_column_reference(p, reduced):
    # the RREF against the reference's; pivoting is pinned, so the pivots
    # that `pivot_columns` reads off it are the forward reference's too
    kinds = set()
    for a in _echelon_cases(random.Random(p), p):
        before = a.copy()
        ref_rows, ref_pivots = dense_mod_p_echelon(a, p, reduced)
        if reduced:
            rows, pivots = _mod_p_echelon(a, p)
            assert rows[: len(pivots)].tolist() == ref_rows[: len(pivots)].tolist(), a.tolist()
        else:
            pivots = pivot_columns(ExactMatrix(GF(p), *a.shape, a))
        assert pivots == ref_pivots, a.tolist()
        assert (a == before).all()
        kinds.add("zero" if not pivots else "full" if len(pivots) == min(a.shape) else "deficient")
    assert kinds == {"zero", "full", "deficient"}
