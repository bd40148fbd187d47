"""Independent brute-force oracles built on sympy, and dense references.

The oracles recompute graded dimensions through a completely separate code
path (sympy polynomials and sympy's rational matrix rank) and exist only to
pin expected values in the tests; keep them small-input only.  The dense
references keep a plainer algorithm that the package replaced, to pin
behaviour that no rank can show, or every row of an elimination.
"""

from fractions import Fraction

import numpy as np
import sympy

from freecurve import syzygy
from freecurve.fields import GF, QQ
from freecurve.linalg import rank
from freecurve.poly import HomogPoly, dim_S, partials

X, Y, Z = sympy.symbols("x y z")
_GENS = (X, Y, Z)


def to_sympy(f):
    expr = sympy.Integer(0)
    for (i, j, k), c in f.terms.items():
        expr += sympy.Rational(c.numerator, c.denominator) * X**i * Y**j * Z**k
    return sympy.expand(expr)


def _exponents(m):
    return [(i, j, m - i - j) for i in range(m, -1, -1) for j in range(m - i, -1, -1)]


def _monomials(m):
    return [X**i * Y**j * Z**k for i, j, k in _exponents(m)]


def _coeff_vector(expr, degree):
    coeffs = sympy.Poly(expr, X, Y, Z).as_dict()
    return [coeffs.get(e, sympy.Integer(0)) for e in _exponents(degree)]


def milnor_dim_oracle(f, k: int) -> int:
    """dim (S/J)_k by spanning J_k with monomial multiples of the partials."""
    if k < 0:
        return 0
    d = f.degree
    expr = to_sympy(f)
    parts = [sympy.diff(expr, v) for v in _GENS]
    nmono = (k + 1) * (k + 2) // 2
    if k < d - 1:
        return nmono
    rows = []
    for part in parts:
        for mono in _monomials(k - d + 1):
            rows.append(_coeff_vector(sympy.expand(mono * part), k))
    M = sympy.Matrix(rows)
    return nmono - M.rank()


def jacobian_matrix_oracle(f, k: int):
    """The degree-k Jacobian multiplication matrix as a sympy Matrix.

    Column (i, nu), i = x, y, z and nu a degree-k monomial, holds the
    coefficients of nu * df/di on the degree-(k+d-1) monomials; both
    monomial lists run in descending lex order.
    """
    d = f.degree
    expr = to_sympy(f)
    cols = []
    for part in (sympy.diff(expr, v) for v in _GENS):
        for mono in _monomials(k):
            cols.append(_coeff_vector(sympy.expand(mono * part), k + d - 1))
    return sympy.Matrix(cols).T


def kernel_oracle(M) -> list[tuple]:
    """The reduced echelon basis of the right null space of a sympy Matrix.

    sympy's `nullspace()` vectors, stacked as rows and `rref()`-ed, as
    tuples of Fractions.
    """
    vecs = M.nullspace()
    if not vecs:
        return []
    basis, _ = sympy.Matrix.hstack(*vecs).T.rref()
    return [tuple(Fraction(int(v.p), int(v.q)) for v in basis.row(i)) for i in range(basis.rows)]


def ar_dim_oracle(f, k: int) -> int:
    """dim AR(f)_k as the nullity of the stacked multiplication matrix."""
    if k < 0:
        return 0
    return 3 * ((k + 1) * (k + 2) // 2) - jacobian_matrix_oracle(f, k).rank()


def smooth_series_oracle(d: int, kmax: int) -> list[int]:
    """Coefficients of ((1 - t^(d-1)) / (1 - t))^3 up to degree kmax."""
    t = sympy.symbols("t")
    series = sympy.Poly(sum(t**i for i in range(d - 1)) ** 3, t)
    return [int(series.coeff_monomial(t**k)) for k in range(kmax + 1)]


def dense_certificate_kernel_degrees(f, top: int, prime: int) -> list[int]:
    """The degrees at which the certified rational profile of f reads an
    exact kernel, with V (the module the upper bounds come from) ranked
    densely: at every degree the multiples of all generators so far are
    built and ranked mod p from scratch, and only the kernel vectors
    outside their span join the generators."""
    P = GF(prime)
    (f,) = syzygy._integral((f,))
    grad = partials(f)
    fx, fy, fz = (g.map_field(P) for g in grad)
    zero = HomogPoly.zero(P, f.degree - 1)
    gens = [(fy, -fx, zero), (fz, zero, -fx), (zero, fz, -fy)]
    degrees = []
    for k, r in enumerate(syzygy._prime_ranks(f, top, P)):
        n = 3 * dim_S(k)
        if r < n:
            V = syzygy.multiples(gens, k, P)
            if rank(V) != n - r:
                degrees.append(k)
                basis = syzygy.syzygy_basis(f, k, QQ, grad=grad)
                new = [tuple(part.map_field(P) for part in syzygy._integral(s)) for s in basis]
                gens = gens + [new[i] for i in syzygy.outside_span(V, syzygy.multiples(new, k, P))]
    return degrees


def dense_mod_p_echelon(a, p: int, reduced: bool = False):
    """Gaussian elimination mod p on a copy of the array `a`, one column at
    a time: every column is scanned for a pivot in the rows not yet used
    (the topmost nonzero entry), the inverse is Fermat's p-2 power, and the
    pivot row clears the column in the rows below it and, with `reduced`,
    also in the rows above after scaling to 1.  Returns (rows, pivot
    columns); `linalg._mod_p_echelon` must agree with it."""
    a = a.copy()
    m, n = a.shape
    r = 0
    pivots = []
    for col in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, col]), p - 2, p)
        if reduced:
            a[r, col:] = a[r, col:] * inv % p
        lo = 0 if reduced else r + 1
        column = a[lo:, col]
        hits = np.nonzero(column)[0]
        if reduced:
            hits = hits[hits != r]
        if hits.size:
            factors = column[hits] if reduced else column[hits] * inv % p
            rows = lo + hits
            a[rows, col:] = (a[rows, col:] - factors[:, None] * a[r, col:][None, :]) % p
        pivots.append(col)
        r += 1
    return a, pivots
