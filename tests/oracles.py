"""Independent brute-force oracles built on sympy, and dense references.

The oracles recompute graded dimensions through a completely separate code
path (sympy polynomials and sympy's rational matrix rank) and exist only to
pin expected values in the tests; keep them small-input only.  The dense
references keep a plainer algorithm that the package replaced, to pin
behaviour that no rank can show, or every row of an elimination.  Two
scalar helpers stand in for the field arithmetic the package does not
keep: `residue` reduces a rational mod p, `scaled` multiplies a
polynomial by a constant.
"""

from fractions import Fraction

import numpy as np
import sympy

from freecurve import syzygy
from freecurve.fields import GF, QQ
from freecurve.linalg import integer_kernel_basis, rank
from freecurve.poly import HomogPoly, dim_S, partials

X, Y, Z = sympy.symbols("x y z")
_GENS = (X, Y, Z)


def residue(q, p: int) -> int:
    """The rational (or integer) q mod p; ValueError if p divides its
    denominator."""
    q = Fraction(q)
    return q.numerator * pow(q.denominator, -1, p) % p


def scaled(f: HomogPoly, c) -> HomogPoly:
    """The polynomial c*f."""
    return HomogPoly(f.degree, {m: c * v for m, v in f.terms.items()})


def euler_check(f: HomogPoly) -> bool:
    """Whether x*f_x + y*f_y + z*f_z equals deg(f) * f exactly."""
    if f.degree == 0 or f.is_zero():
        return True
    fx, fy, fz = partials(f)
    lhs = fx.mul_monomial((1, 0, 0)) + fy.mul_monomial((0, 1, 0)) + fz.mul_monomial((0, 0, 1))
    return lhs == scaled(f, f.degree)


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


def lex_segment_bound(h: int, D: int) -> int:
    """The degree-(D+1) monomials outside the ideal generated by the
    dim S_D - h lex-largest degree-D monomials, counted.  Lex segments
    attain Macaulay's bound, so this is h^<D>."""
    monomials = _exponents(D)
    segment = monomials[: len(monomials) - h]
    above = {(i + a, j + b, k + c) for i, j, k in segment for a, b, c in _exponents(1)}
    return len(_exponents(D + 1)) - len(above)


def fills_on_line(f, D: int, p: int) -> bool:
    """Whether (J_f + hS)_D = S_D mod p for the line h = x + a*y + b*z of
    `syzygy.PLATEAU_LINE`: the partials of f's primitive integer form,
    restricted to h = 0 by sympy substitution, times every binary monomial
    of degree D-d+1, span all D+1 binary monomials of degree D, ranked
    densely mod p (`dense_mod_p_echelon`)."""
    a, b = syzygy.PLATEAU_LINE
    F = sympy.Poly(to_sympy(f), *_GENS).clear_denoms()[1].primitive()[1].as_expr()
    e = f.degree - 1
    rows = []
    for var in _GENS:
        g = sympy.expand(sympy.diff(F, var).subs(X, -(a * Y + b * Z)))
        for u in range(D - e + 1):
            coeffs = sympy.Poly(sympy.expand(g * Y**u * Z ** (D - e - u)), Y, Z).as_dict()
            rows.append([int(coeffs.get((D - j, j), 0)) % p for j in range(D + 1)])
    return len(dense_mod_p_echelon(np.array(rows, dtype=object), p)[1]) == D + 1


def persistence_stop(f, ranks, p: int = syzygy.CERT_PRIME) -> int:
    """The last source degree whose Jacobian rank a sweep of the curve f
    reads, given its ranks over Q or over GF(p), where the plateau's fill
    is tested mod p (over Q, mod `syzygy.CERT_PRIME`, as the profile does).
    With H(D) = dim S_D - rank J_(D-d+1) and D = k+d-2 >= max(d-1, 1): the
    first k at which H(D+1) = H(D)^<D> (Gotzmann's condition, the bound
    taken from lex segments) or H(D+1) = H(D) > 0 and `fills_on_line` at D
    (the plateau), or k-1 if H(D) = 0 comes first, as then H(D+1) <= 0
    needs no read; the last degree of `ranks` if none happens."""
    d = f.degree
    for k in range(1, len(ranks)):
        D = k + d - 2
        if D >= 1:
            h = dim_S(D) - ranks[k - 1]
            if h == 0:
                return k - 1
            h1 = dim_S(D + 1) - ranks[k]
            if h1 == lex_segment_bound(h, D) or (h1 == h and fills_on_line(f, D, p)):
                return k
    return len(ranks) - 1


def dense_certificate_kernel_degrees(f, ranks, prime: int) -> list[int]:
    """The degrees at which the certified rational profile of f reads an
    exact kernel, with V (the module the upper bounds come from) ranked
    densely: at every degree the multiples of all generators so far are
    built and ranked mod p from scratch, and only the kernel vectors
    outside their span join the generators.  `ranks` are f's ranks over Q;
    like the profile, the reference stops where they meet Gotzmann's
    condition or the plateau's (`persistence_stop`)."""
    P = GF(prime)
    f = syzygy.primitive_form(f)
    # integer generators, which `multiples` reduces mod p
    fx, fy, fz = partials(f)
    zero = HomogPoly.zero(f.degree - 1)
    gens = [(fy, -fx, zero), (fz, zero, -fx), (zero, fz, -fy)]
    degrees = []
    stop = persistence_stop(f, ranks)
    for k, r in enumerate(syzygy.jacobian_ranks(f, stop, P)):
        n = 3 * dim_S(k)
        if r < n:
            V = syzygy.multiples(gens, k, P)
            if rank(V) != n - r:
                degrees.append(k)
                # the canonical basis over Q by Bareiss, as primitive integer
                # rows, independent of the lift that `syzygy_basis` reads
                # over Q
                m = dim_S(k)
                basis = integer_kernel_basis(syzygy.jacobian_matrix(f, k, QQ)).row_lists()
                new = [tuple(HomogPoly.from_vector(k, [c % prime for c in v[i * m : (i + 1) * m]]) for i in range(3)) for v in basis]
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


def fraction_rref(rows):
    """The reduced row echelon form of a rational matrix by plain
    Gauss-Jordan in `Fraction`s: for each column left to right, the topmost
    unused row with a nonzero entry is swapped up, divided by that entry
    and subtracted from every other row.  Returns (nonzero rows, pivot
    columns); `linalg`'s fraction-free elimination over Q must agree."""
    a = [[Fraction(v) for v in row] for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    pivots = []
    for col in range(n):
        if r == m:
            break
        i = next((i for i in range(r, m) if a[i][col]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        pval = a[r][col]
        a[r] = [v / pval for v in a[r]]
        for k in range(m):
            factor = a[k][col]
            if k != r and factor:
                a[k] = [u - factor * v for u, v in zip(a[k], a[r])]
        pivots.append(col)
        r += 1
    return a[:r], pivots


def dense_bareiss_echelon(a):
    """Bareiss's fraction-free elimination as published, on a copy of the
    integer rows `a`: at each pivot every row below it, including the rows
    that are zero in the pivot column, becomes (pval*row - ival*pivot row)
    // prev, with the topmost nonzero entry of the column as the pivot.
    Returns (rows, pivot columns); `linalg._bareiss_echelon` must agree."""
    a = [list(row) for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    prev = 1
    pivots = []
    for col in range(n):
        if r == m:
            break
        i = next((i for i in range(r, m) if a[i][col]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        pval = a[r][col]
        for k in range(r + 1, m):
            ival = a[k][col]
            a[k] = [(pval * u - ival * v) // prev for u, v in zip(a[k], a[r])]
        pivots.append(col)
        prev = pval
        r += 1
    return a, pivots
