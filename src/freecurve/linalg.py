"""Dense exact linear algebra over Q and prime fields.

The rank sweeps in `syzygy` eliminate with `_mod_p_echelon` and
`_mod_p_matmul`; the rest uses `rank`, `pivot_columns`, `kernel_basis`,
`integer_kernel_basis` (a kernel over Q as primitive integer rows) and
`solve_exact`.  Every matrix is one numpy array, whatever its field
(see `ExactMatrix`), and each operation has one code path; only the
arithmetic of the elimination depends on the field.  All of it is exact:

* over Q, fraction-free (Bareiss) elimination on rows scaled to coprime
  integers, which keeps intermediate entries at minor size.  An integral
  matrix, one that holds Python ints (a multiplication matrix with
  integral coefficients, such as J_k of an integer form, or the primitive
  kernel rows of `integer_kernel_basis`), has each row divided by its gcd
  only; a row of `Fraction`s has its denominators cleared first.
  Each row's Bareiss scaling is deferred until a pivot hits it, so a row
  that is zero in the pivot column is not touched.  The reduced form is
  read from the echelon rows by fraction-free back-substitution, and a
  `Fraction` is made only at the non-pivot columns;
* over a prime field, Gauss-Jordan elimination mod p to the RREF,
  vectorised on the matrix's own array; ranks and pivot columns read its
  pivots too.  It scans only the columns that start with a nonzero entry:
  a step swaps rows, scales the pivot row and subtracts multiples of it
  from other rows, so a column zero in every row stays zero and never
  holds a pivot.

Pivoting is pinned: columns are scanned left to right and the topmost
nonzero entry of the current column is the pivot.  This makes every
reduced form, kernel basis and particular solution bit-deterministic and
canonical for a given matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .fields import QQ, Field, PrimeField


class ExactMatrix:
    """A rows x cols matrix over an exact field, stored as a numpy array.

    Over a prime p with p^2 < 2^63 the dtype is int64, so a product of two
    entries cannot overflow.  Otherwise it is object: Python ints over a
    larger prime, Fractions over Q.  Entries are field elements, in [0, p)
    over a prime; constructors reduce what they are given mod p.  An
    integral matrix over Q holds Python ints instead of Fractions, never a
    mix of the two; only the multiplication-matrix builder
    (`syzygy.multiples`, from integral coefficients) and `integral` (the
    rows of `integer_kernel_basis` and of the lifts) make one, and every
    operation reads it as it reads Fractions.  Matrices are never changed
    in place, so `transpose` can return a view.
    """

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field: Field, rows: int, cols: int, data: np.ndarray):
        self.field = field
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "ExactMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
        return cls(field, m, n, _entries(field, rows).reshape(m, n))

    @classmethod
    def integral(cls, rows: Sequence[Sequence[int]], n: int) -> "ExactMatrix":
        """The integral matrix over Q with `rows`, each n Python ints."""
        return cls(QQ, len(rows), n, np.array(rows, dtype=object).reshape(len(rows), n))

    def row_lists(self) -> list[list]:
        return self._data.tolist()

    def stack(self, other: "ExactMatrix") -> "ExactMatrix":
        """The rows of self followed by the rows of other."""
        return ExactMatrix(self.field, self.rows + other.rows, self.cols, np.vstack([self._data, other._data]))

    def transpose(self) -> "ExactMatrix":
        """The transpose, a view of the same storage."""
        return ExactMatrix(self.field, self.cols, self.rows, self._data.T)

    def columns(self, idx: Sequence[int]) -> "ExactMatrix":
        """The columns idx of self, in that order."""
        return ExactMatrix(self.field, self.rows, len(idx), self._data[:, idx])

    def __repr__(self):
        return f"ExactMatrix({self.field.name}, {self.rows}x{self.cols})"


def _dtype(field: Field):
    return np.int64 if isinstance(field, PrimeField) and field.fits_int64() else object


def _entries(field: Field, values) -> np.ndarray:
    """`values` as an array of field elements: reduced mod p over a prime,
    `Fraction`s over Q (a `Fraction` given is stored as it is)."""
    a = np.array(values, dtype=_dtype(field))
    if field.char:
        return a % field.char
    flat = a.reshape(-1)  # a view: the array was just made contiguous
    for i, v in enumerate(flat):
        if type(v) is not Fraction:
            flat[i] = Fraction(v)
    return a


# ---------------------------------------------------------------------------
# prime-field elimination, vectorised


def _mod_p_echelon(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Gauss-Jordan elimination mod p on a copy of `a`: the RREF, as
    (rows, pivot cols).

    Each pivot row is scaled to 1 and clears its column in every other row.
    Only the columns with a nonzero entry are scanned: each step swaps rows,
    scales one and subtracts multiples of the pivot row from others, so a
    column that starts zero stays zero and never holds a pivot.
    """
    a = a.copy()
    m = a.shape[0]
    r = 0
    pivots: list[int] = []
    for col in np.flatnonzero(a.any(axis=0)).tolist():
        nz = a[r:, col].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[r], a[i] = a[i], a[r].copy()
        row = a[r, col:]
        row *= pow(int(row[0]), -1, p)
        row %= p
        # every other row with an entry in the column; the pivot's 1 is
        # hidden while they are found
        column = a[:, col]
        column[r] = 0
        hits = column.nonzero()[0]
        factors = column[hits]
        column[r] = 1
        if hits.size:
            # Entries stay in [0, p), so every product is below p^2 and
            # every difference above -p^2.  That is exact in int64, which
            # holds only primes with p^2 < 2^63, and in the Python ints of
            # an object array at any size.
            a[hits, col:] = (a[hits, col:] - factors[:, None] * row) % p
        pivots.append(col)
        r += 1
        if r == m:
            break
    return a, pivots


# Inner dimensions below this keep the int64 limb product exact.
LIMB_INNER_BOUND = 2**15


def _mod_p_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for arrays of field elements in [0, p).

    In int64 (p^2 < 2^63, so p < 2^31.5) b is split into 16-bit limbs:
    each term a_ij * limb is below 2^47.5, so a sum of fewer than 2^15 of
    them is below 2^62.5.  The high product, reduced and shifted back by 16
    bits, is below 2^47.5, so adding the low product to it stays below 2^63
    and one last reduction gives the exact result.  numpy's integer matmul
    runs no BLAS, so no thread or buffer pool.  An object array holds
    Python ints, exact at any size.  An empty product (inner dimension 0)
    is the zero matrix, made without arithmetic.
    """
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=a.dtype)
    if a.dtype == object:
        return a @ b % p
    if a.shape[1] >= LIMB_INNER_BOUND:
        raise ValueError(f"inner dimension {a.shape[1]} is not below {LIMB_INNER_BOUND}")
    high = b >> 16
    low = b - (high << 16)
    return ((a @ high % p << 16) + a @ low) % p


# ---------------------------------------------------------------------------
# rational elimination


def _scaled_int_rows(rows: list[list]) -> list[list[int]]:
    """Scale each row to coprime integers; rank-preserving.  A row of
    Python ints, as an integral matrix holds, is only divided by its gcd;
    `gcd` refuses a `Fraction`, and a row holding one has its denominators
    cleared first."""
    out = []
    for row in rows:
        try:
            g = gcd(*row)
        except TypeError:
            ratios = [v.as_integer_ratio() for v in row]
            denlcm = lcm(*{d for _, d in ratios})
            row = [v * (denlcm // d) for v, d in ratios] if denlcm > 1 else [v for v, _ in ratios]
            g = gcd(*row)
        out.append([v // g for v in row] if g > 1 else row)
    return out


def _bareiss_echelon(a: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Bareiss's fraction-free row echelon form, in place; returns (rows,
    pivot cols).

    Bareiss's step with pivot value pval divides the rows below the pivot
    by the previous pivot value prev, so it multiplies a row that is zero
    in the pivot column by pval/prev.  That scaling is deferred: level[i]
    is the pivot value row i is current to, so its Bareiss entries are its
    stored ones times prev/level[i].  A row that is hit becomes
    (pval*r - ival*p) // level[i], the Bareiss minor itself (the skipped
    factors telescope), and the pivot row is brought current first.  Stored
    and Bareiss entries vanish together, so the pivots and pivot rows are
    Bareiss's.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    level = [1] * m
    pivots: list[int] = []
    piv = 0
    prev = 1
    for col in range(n):
        if piv == m:
            break
        pr = None
        for i in range(piv, m):
            if a[i][col]:
                pr = i
                break
        if pr is None:
            continue
        if pr != piv:
            a[piv], a[pr] = a[pr], a[piv]
            level[piv], level[pr] = level[pr], level[piv]
        prow = a[piv]
        lv = level[piv]
        if lv != prev:
            prow[col:] = [v * prev // lv for v in prow[col:]]
        pval = prow[col]
        for i in range(piv + 1, m):
            row = a[i]
            ival = row[col]
            if ival:
                li = level[i]
                for j in range(col + 1, n):
                    pj = prow[j]
                    rj = row[j]
                    if rj or pj:
                        row[j] = (pval * rj - ival * pj) // li
                row[col] = 0
                level[i] = pval
        pivots.append(col)
        prev = pval
        piv += 1
    return a, pivots


def _integer_rref(M: ExactMatrix) -> tuple[list[list[int]], int, list[int], list[int]]:
    """(X, D, pivots, free) for M over Q: the RREF R of M is the identity
    on the pivot columns and X / D on the others, `free`, with X integer.

    It is read from Bareiss's echelon rows U by fraction-free
    back-substitution.  Let A be the scaled integer rows that became pivot
    rows, in the order they did, and B their entries at the pivot columns.
    Then R = B^-1 A, and the last pivot value D is det B, so X = D*R =
    adj(B) A is an integer matrix.  Row i of U is the sum over k >= i of
    U[i, pc_k] times row k of R, so from the last row up X[i, f] =
    (D*U[i, f] - sum over k > i of U[i, pc_k] * X[k, f]) // U[i, pc_i],
    exactly.  X is made only at the free columns.  With no pivot, D = 1.
    """
    n = M.cols
    if M.rows == 0 or n == 0:
        return [], 1, [], list(range(n))
    u, pivots = _bareiss_echelon(_scaled_int_rows(M._data.tolist()))
    pivset = set(pivots)
    free = [f for f in range(n) if f not in pivset]
    r = len(pivots)
    if r == 0:
        return [], 1, pivots, free
    D = u[r - 1][pivots[-1]]
    x: list[list[int]] = [[]] * r
    for i in range(r - 1, -1, -1):
        ui = u[i]
        xi = [D * ui[f] for f in free]
        for k in range(i + 1, r):
            c = ui[pivots[k]]
            if c:
                for t, v in enumerate(x[k]):
                    if v:
                        xi[t] -= c * v
        pval = ui[pivots[i]]
        x[i] = [v // pval for v in xi]
        u[i] = None  # not read again; freeing it keeps U and X from peaking together
    return x, D, pivots, free


def _rref(M: ExactMatrix) -> tuple[list[list], list[int]]:
    """Unique RREF of M (nonzero rows only) plus pivot columns.  Over Q it
    is read from `_integer_rref`, and a `Fraction` is made only at the
    non-pivot columns."""
    if M.rows == 0 or M.cols == 0:
        return [], []
    if M.field.char:
        rr, pivots = _mod_p_echelon(M._data, M.field.char)
        return rr[: len(pivots)].tolist(), pivots
    x, D, pivots, free = _integer_rref(M)
    zero, one = M.field.zero, M.field.one
    rows = []
    for pc, xi in zip(pivots, x):
        row = [zero] * M.cols
        row[pc] = one
        for f, v in zip(free, xi):
            if v:
                row[f] = Fraction(v, D)
        rows.append(row)
    return rows, pivots


# ---------------------------------------------------------------------------
# public operations


def pivot_columns(M: ExactMatrix) -> list[int]:
    """Pivot columns of M, scanned left to right: the columns independent of
    all columns before them.  They are read from the RREF over a prime and
    from Bareiss's echelon form over Q."""
    if M.rows == 0 or M.cols == 0:
        return []
    if M.field.char:
        return _mod_p_echelon(M._data, M.field.char)[1]
    return _bareiss_echelon(_scaled_int_rows(M._data.tolist()))[1]


def rank(M: ExactMatrix) -> int:
    """Exact rank; deterministic for a fixed input."""
    return len(pivot_columns(M))


def kernel_basis(M: ExactMatrix) -> list[tuple]:
    """Canonical basis of the right null space {v : Mv = 0}.

    The returned vectors, stacked as rows, form the unique reduced echelon
    basis of the kernel, so the output is canonical for a given matrix.
    Basis size is cols - rank.

    It is read off the RREF R of M with its columns reversed.  The vector
    for a free column f is 1 at f, 0 at every other free column, and minus
    R's entry in column f at each pivot column c.  A row of R is zero before
    its pivot, which in M's order means after c, so that entry vanishes
    unless c > f.  Each vector thus leads with its 1 at f, and by ascending
    f the vectors already are the reduced echelon basis: one elimination.
    """
    field = M.field
    n = M.cols
    if n == 0:
        return []
    rr, rev_pivots = _rref(ExactMatrix(field, M.rows, n, M._data[:, ::-1]))
    last = n - 1
    pivots = [last - c for c in rev_pivots]
    pivset = set(pivots)
    vecs = []
    for fcol in range(n):
        if fcol in pivset:
            continue
        v = [field.zero] * n
        v[fcol] = field.one
        for row, pc in zip(rr, pivots):
            v[pc] = field.neg(row[last - fcol])
        vecs.append(tuple(v))
    return vecs


def integer_kernel_basis(M: ExactMatrix) -> ExactMatrix:
    """The canonical kernel basis of M over Q (`kernel_basis`), each vector
    scaled to coprime integers with a positive leading entry, as the rows
    of an integral matrix over Q.

    It is read, like `kernel_basis`, from the RREF of M with its columns
    reversed, but from its integer form X = D*R (`_integer_rref`): the
    vector of the free column f is D at f and minus X's entry in column f
    at each pivot column, divided by its gcd, signed like D.  No `Fraction`
    is made.
    """
    n = M.cols
    x, D, rev_pivots, rev_free = _integer_rref(ExactMatrix(M.field, M.rows, n, M._data[:, ::-1]))
    last = n - 1
    sign = 1 if D > 0 else -1
    vecs = []
    # ascending f in M's order is descending in the reversed one
    for t in range(len(rev_free) - 1, -1, -1):
        v = [0] * n
        v[last - rev_free[t]] = D
        for xi, pc in zip(x, rev_pivots):
            v[last - pc] = -xi[t]
        g = sign * gcd(*v)
        vecs.append([c // g for c in v])
    return ExactMatrix.integral(vecs, n)


def solve_exact(M: ExactMatrix, b: Sequence):
    """Some x with Mx = b, or None when the system is inconsistent.

    When solutions form an affine family the canonical echelon particular
    solution is returned (free coordinates set to zero).  Over Q, b is
    kept as given, ints or Fractions, as the elimination reads both.
    """
    if len(b) != M.rows:
        raise ValueError("right-hand side length must equal row count")
    field = M.field
    rhs = _entries(field, b) if field.char else np.array(b, dtype=object)
    aug = np.hstack([M._data, rhs.reshape(M.rows, 1)])
    rr, pivots = _rref(ExactMatrix(field, M.rows, M.cols + 1, aug))
    if pivots and pivots[-1] == M.cols:
        return None
    x = [field.zero] * M.cols
    for i, pc in enumerate(pivots):
        x[pc] = rr[i][M.cols]
    return tuple(x)
