"""Graded pieces of the Jacobian relation module of a plane curve.

For a degree-d curve f, the degree-k piece of the Jacobian map sends a
triple (a, b, c) of degree-k polynomials to a*f_x + b*f_y + c*f_z.  Its
kernel AR(f)_k collects the degree-k relations (syzygies) among the
partials; the cokernel dimensions m(f)_k are the graded dimensions of the
quotient of the polynomial ring by the Jacobian ideal.  The pipeline
agrees on the ranks once per curve, as a `RankProfile`, the only source
of ar(f)_k and m(f)_k.  Over a prime the profile builds no Jacobian
matrix: rank J_k = dim (J_f)_(k+d-1), read by one sweep up the degrees
of J_f (`_ModuleSweep`, `_swept_ranks`), which carries only the
non-pivot block of its echelon basis and the rows a later degree can
read.  Over Q each rank is proved from one prime (`_proved_ranks`): the
same sweep gives the dimensions of the certificate's module of syzygies,
and where its bounds do not meet, ker_Q J_k is lifted from its images
mod successive primes by CRT and rational reconstruction and verified
exactly (`_lifted_kernel`).  The profile keeps those lifts, and it alone
decides where the structural checks' syzygies come from in each field
(`RankProfile.kernel`, `RankProfile.syzygy`, `syzygy_basis`).  Both
sweeps stop once the Hilbert function of S/J_f meets Gotzmann's
persistence condition, reaches 0, or is flat where J_f fills a fixed line
h = 0 (`_persistent`).  Every
multiplication matrix comes from one builder (`multiples`);
`jacobian_matrix` builds one J_k of any curve, for the kernels mod p.
The sweeps, the kernels mod p and the checks of their syzygies read the
curve's one integer gradient (`RankProfile.grad`) and integer relations:
polynomials live over Q only, and residues mod p exist only inside
arrays, each reduced once (`_field_entries`), in the sums of the exact
checks, which take their field as an argument (`Syzygy.holds_for`), and
as the plain-int entries of a kernel vector mod p laid out as a triple.
`jacobian_ranks` ranks J_0..J_k of any curve from one elimination of J_k
in x-graded column order: the independent reference, and, in one pass
per curve, the saturation oracle's dim (J_f)_j.  `rank_jacobian` reads
one of them; no module here calls it.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, gcd, isqrt, lcm
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import InputError, InternalInconsistencyError
from .fields import GF, Field, FieldPlan, PrimeField, QQ, is_probable_prime
from .linalg import ExactMatrix, _dtype, _mod_p_echelon, _mod_p_matmul, kernel_basis, pivot_columns, rank
from .poly import Gradient, HomogPoly, dim_S, monomial_basis, monomial_position, partials

# Cells of the largest Jacobian matrix of a rank profile, J_top.  2^25
# int64 cells are 256 MiB; the bound admits every d <= 32 at the default
# table degree 2d.  Over Q the certificate's kernels, lifted mod primes,
# may build J_k for any k <= top.  Over a prime the profile builds no J_k.
# The sweeps may stop below J_top, where Gotzmann persistence or the
# plateau fixes the remaining ranks (`_persistent`), but the bound is still
# taken at J_top, so the same inputs are refused whether or not a sweep
# would stop early.
# The sweep's largest arrays (see `_ModuleSweep`) are its x rows, the live
# ones only for J_f (at most dim (J_f)_D, on free12_a 20% of it at the top
# degree) by (D+2) + m(f)_D columns, and the rows that join at D+1, 2|W_D| + |G|
# rows by t dim S_(D+1) columns.  For J_f (t = 1) the gradient joins
# alone, at d-1, and |W_D| = rank J_k - rank J_(k-1) <= 3(k+1) for
# k = D-d+1, as ar(f) never drops; so the joining rows hold at most
# 6 top * dim S_(top+d-1) cells, below the count of J_top.  The
# certificate's sweep of V in S^3 holds at most a*(3 dim S_(k+1) - a)
# <= (3 dim S_top)^2/4 cells, a = dim V_k, in its state.  At k+1 it
# joins at most 2a shifted rows, the 3 Koszul relations (at d-1 only) and
# 3 rows per kernel vector over Q of degree k, each 3 dim S_(k+1) wide.
# The bound still refuses the same inputs in every mode.
MAX_PROFILE_CELLS = 2**25

# The largest curve degree some table degree admits (33): a profile of a
# degree-(d+1) curve reaches at least source degree 2d+1.
MAX_CURVE_DEGREE = next(d for d in count(1) if dim_S(3 * d + 1) * 3 * dim_S(2 * d + 1) > MAX_PROFILE_CELLS)

# The J_f sweep looks for x rows to retire (see `_ModuleSweep`) only once
# it holds this many.  Below it the scan, about a dozen numpy calls, costs
# more than the clearing it can save, and a row kept now is retired by a
# later scan, as the argument holds at any step.  The sweeps of most small
# corpus curves stay below it; those of the degree-12 arrangements pass it
# midway.
RETIRE_MIN_ROWS = 2**6

# The prime of the certified rational profile: the first prime above 2^31,
# and its field, made (and its primality tested) once.
CERT_PRIME = 2_147_483_659
CERT_FIELD = GF(CERT_PRIME)

# Bases of ker_Q J_k by degree k, as `_lifted_kernel` returns them.
Lifts = dict[int, list[list[int]]]


class Syzygy(NamedTuple):
    """A relation a*f_x + b*f_y + c*f_z = 0 with a, b, c of one degree."""

    a: HomogPoly
    b: HomogPoly
    c: HomogPoly

    @property
    def degree(self) -> int:
        return self.a.degree

    @classmethod
    def from_vector(cls, k: int, vec: Sequence) -> "Syzygy":
        """The degree-k triple with coefficient blocks a, b, c in `vec`,
        ints or `Fraction`s as given (over a prime, residues in [0, p));
        unverified.  `vec` must hold 3 dim S_k entries (ValueError
        otherwise)."""
        n = dim_S(k)
        if len(vec) != 3 * n:
            raise ValueError(f"a degree-{k} triple has {3 * n} coefficients, not {len(vec)}")
        return cls(*(HomogPoly.from_vector(k, vec[i * n : (i + 1) * n]) for i in range(3)))

    def holds_for(self, grad: Gradient, field: Field = QQ) -> bool:
        """Whether a*f_x + b*f_y + c*f_z = 0 over `field`, summed exactly:
        over Q as given, over a prime in Python integers reduced mod p once,
        so the triple's and the gradient's coefficients must be integers.

        `grad` is the gradient of the curve, or any nonzero multiple of it,
        such as `RankProfile.grad`.  The zero triple holds.
        """
        return _relation_vanishes([u.terms.items() for u in self], [g.terms.items() for g in grad], field.char)


def _relation_vanishes(triple, gradient, p: int = 0) -> bool:
    """Whether u_1*g_1 + u_2*g_2 + u_3*g_3 = 0, summed exactly and reduced
    mod p once if p > 0.  Each u_i and g_i is an iterable of (monomial,
    coefficient) pairs, int or `Fraction`; over a prime, ints.  The one
    exact check of a syzygy: `Syzygy.holds_for` and the lifted kernel
    vectors (`_lifted_kernel`) are verified here."""
    total: dict[tuple[int, int, int], int] = {}
    for u, g_terms in zip(triple, gradient):
        for (i, j, k), c in u:
            for (gi, gj, gk), gc in g_terms:
                mono = (i + gi, j + gj, k + gk)
                total[mono] = total.get(mono, 0) + c * gc
    return not any(v % p for v in total.values()) if p else not any(total.values())


def multiples(gens: Sequence[Sequence[HomogPoly]], k: int, field: Field) -> ExactMatrix:
    """The degree-k monomial multiples of polynomial tuples, one per row.

    A tuple g = (g_1, ..., g_t) of degree e <= k gives the rows nu*g for
    the degree-(k-e) monomials nu in canonical order (tuples above degree
    k give none); block i of a row holds the coefficients of nu*g_i on the
    degree-k monomials in canonical order.  This is the layout of every
    multiplication matrix here; all tuples have the length of the first.
    It is `_multiples_array` read in `field`: over Q its entries are
    Python ints when every coefficient is integral, `Fraction`s otherwise;
    over a prime they are reduced mod p (see `_field_entries`).
    """
    data = _field_entries(_multiples_array(gens, k), field)
    return ExactMatrix(field, *data.shape, data)


def _multiples_array(gens: Sequence[Sequence[HomogPoly]], k: int) -> np.ndarray:
    """The rows of `multiples`, the one builder of multiplication
    matrices, as an array of the tuples' coefficients.

    A term c*mu of block b of a degree-e tuple puts c in the tuple's row of
    each degree-(k-e) monomial nu, at column b*dim S_k + `monomial_position`
    of nu*mu; distinct terms of one block reach distinct cells, so the
    tuples of each degree take one numpy broadcast of their terms against
    the exponents of nu.  The dtype is int64 where every coefficient is an
    integer that fits it, and object otherwise: Python ints when every
    coefficient is integral, `Fraction`s, zeros too, when one is not.
    """
    n = dim_S(k)
    # per tuple degree: (first row, block column, y- and z-exponent of mu)
    # of each term, and its coefficient
    groups: dict[int, tuple[list, list]] = {}
    row = 0
    for g in gens:
        e = g[0].degree
        if e > k:
            continue
        places, coeffs = groups.setdefault(e, ([], []))
        for b, part in enumerate(g):
            for (_, mj, ml), c in part.terms.items():
                places.append((row, b * n, mj, ml))
                coeffs.append(c)
        row += dim_S(k - e)
    values = [c for _, coeffs in groups.values() for c in coeffs]
    integral = all(c.denominator == 1 for c in values)
    fits = integral and all(-(2**63) < c.numerator < 2**63 for c in values)
    out = np.zeros((row, len(gens[0]) * n if gens else 0), dtype=np.int64 if fits else object)
    if not integral:
        out.fill(Fraction(0))
    for e, (places, coeffs) in groups.items():
        if not places:
            continue
        first, base, mj, ml = np.array(places, dtype=np.int64).T
        nj, nl = _column_cells(k - e, 1)
        rows = first[:, None] + np.arange(len(nj))
        cols = base[:, None] + monomial_position(mj[:, None] + nj, ml[:, None] + nl)
        coeffs = [c.numerator for c in coeffs] if integral else [Fraction(c) for c in coeffs]
        out[rows, cols] = np.array(coeffs, dtype=out.dtype)[:, None]
    return out


def _field_entries(J: np.ndarray, field: Field) -> np.ndarray:
    """An array of `_multiples_array` as entries of `field`, in its dtype:
    over Q its Python ints or `Fraction`s as they are, over a prime its
    integers reduced by one numpy `%`, and its `Fraction`s, which
    `_multiples_array` makes of every entry when one coefficient is not
    integral, as numerator times the inverse of the denominator mod p
    (ValueError if p divides a denominator)."""
    p, dtype = field.char, _dtype(field)
    if not p or dtype == object or J.dtype == object:
        J = J.astype(object, copy=False)
    if p and J.size and isinstance(J.flat[0], Fraction):
        J = np.frompyfunc(lambda c: c.numerator * pow(c.denominator, -1, p), 1, 1)(J)
    return (J % p).astype(dtype, copy=False) if p else J


def outside_span(span: ExactMatrix, candidates: ExactMatrix) -> list[int]:
    """Indices of the candidate rows outside the span of `span`'s rows and
    of the candidate rows before them: with all rows stacked as columns,
    the pivot columns past span's."""
    if candidates.rows == 0:
        return []
    pivots = pivot_columns(span.stack(candidates).transpose())
    return [i - span.rows for i in pivots if i >= span.rows]


def jacobian_matrix(f: HomogPoly, k: int, field: Field = QQ, *, grad: Gradient | None = None) -> ExactMatrix:
    """Matrix of (a,b,c) |-> a*f_x + b*f_y + c*f_z from degree k to k+d-1.

    The transpose of the `multiples` of (f_x,), (f_y,), (f_z,) at degree
    k+d-1, the gradient of f (or `grad`, a nonzero multiple of it) over
    Q, read in `field`: columns come in three blocks (a, b, c), each in
    canonical monomial order; rows are the degree-(k+d-1) monomials in
    canonical order.  Over Q its entries are Python ints when f has
    integer coefficients, `Fraction`s otherwise.  Over a prime the array
    reduces them mod p (`_field_entries`); where p divides a denominator of
    f, f has no image, and ValueError is raised.
    """
    if k < 0:
        raise ValueError("source degree must be non-negative")
    if grad is None:
        p = field.char
        # a term such as 1/p*x^p has an integral derivative
        if p and any(c.denominator % p == 0 for c in f.terms.values()):
            raise ValueError(f"{p} divides a denominator of f, which has no image mod {p}")
        # a constant f has no gradient: `partial` raises ValueError
        grad = partials(f)
    return multiples([(g,) for g in grad], k + f.degree - 1, field).transpose()


def rank_jacobian(f: HomogPoly, k: int, field: Field = QQ) -> int:
    """Rank of the degree-k Jacobian multiplication matrix (0 for k < 0).

    The public per-degree reference, the last entry of `jacobian_ranks`;
    no module of the package calls it, and the benchmark's tracer wraps
    it by name."""
    return jacobian_ranks(f, k, field)[k] if k >= 0 else 0


def jacobian_ranks(f: HomogPoly, top: int, field: Field = QQ) -> tuple[int, ...]:
    """rank J_0, ..., rank J_top, from one elimination of J_top.

    J_top's columns are taken in `x_graded` order, x-exponent of their
    multiplier descending.  The columns with x-exponent >= a form a prefix,
    x^a times the columns of J_(top-a), and multiplication by x^a is
    injective, so the prefix has rank J_(top-a).  Pivot columns are
    scanned left to right, so that rank is the count of pivots in the
    prefix.  The order also keeps the fill of the elimination low.
    """
    pivots = pivot_columns(jacobian_matrix(f, top, field).columns(x_graded(top)))
    return tuple(bisect_left(pivots, 3 * dim_S(k)) for k in range(top + 1))


def x_graded(k: int, ascending: bool = False) -> list[int]:
    """The columns of J_k, or the rows of its transpose, sorted stably by
    the x-exponent of their multiplier nu: descending, or `ascending`.
    Within a block the monomials of x-exponent k-s are the run of s+1
    positions from `monomial_position` of y^s, so each x-exponent takes
    that run of block 0, then of block 1, then of block 2."""
    n = dim_S(k)
    degrees = range(k, -1, -1) if ascending else range(k + 1)
    return [b * n + i for s in degrees for b in range(3) for i in range(dim_S(s - 1), dim_S(s))]


@dataclass(frozen=True)
class RankProfile:
    """The Jacobian ranks of one curve at source degrees 0..top, agreed once.

    `f` is the curve's primitive integer form: coprime Python-int
    coefficients, which reduce mod every prime.  `grad` is its gradient,
    made once, in integers, which every later step reads in every field:
    the arrays built from it are reduced mod p, and the exact checks sum in
    integers and reduce once.  `plan` is the field plan the ranks were
    agreed over; the structural checks of a verdict run on `f` over the
    same plan.  `table_max` is the top degree of the reported tables.
    `lifts` holds the kernels the certificate lifted over Q; over a prime
    it is empty.
    """

    f: HomogPoly
    grad: Gradient
    plan: FieldPlan
    table_max: int
    ranks: tuple[int, ...]
    lifts: Lifts

    @property
    def d(self) -> int:
        return self.f.degree

    def kernel(self, k: int, field: Field) -> list[Sequence[int]]:
        """A basis of ker J_k over `field`: over Q the certificate's lift at
        k, or one lifted now (not stored) where it kept none, verified; over
        a prime the canonical `kernel_basis` of J_k mod p, unverified."""
        if k < 0:
            raise ValueError("source degree must be non-negative")
        if not field.char:
            return self.lifts[k] if k in self.lifts else _lifted_kernel(self.grad, k, CERT_FIELD)
        return kernel_basis(jacobian_matrix(self.f, k, field, grad=self.grad))

    def syzygy(self, k: int, vec: Sequence, field: Field) -> Syzygy:
        """The triple of a vector of `kernel(k, field)`, its residues mod p
        as plain ints over a prime, where it is verified exactly on the
        integer gradient (InternalInconsistencyError if it fails); over Q
        `_lifted_kernel` verified it."""
        syz = Syzygy.from_vector(k, vec)
        if field.char and not syz.holds_for(self.grad, field):
            raise InternalInconsistencyError(f"vector at degree {k} fails the defining relation")
        return syz

    def rank(self, k: int) -> int:
        if k >= len(self.ranks):
            raise ValueError(f"degree {k} is above the profile's top {len(self.ranks) - 1}")
        return self.ranks[k] if k >= 0 else 0

    def ar(self, k: int) -> int:
        """dim AR(f)_k, zero in negative degrees."""
        return 3 * dim_S(k) - self.rank(k)

    def m(self, k: int) -> int:
        """dim (S/J_f)_k, zero in negative degrees."""
        return dim_S(k) - self.rank(k - self.d + 1)


def syzygy_basis(p: RankProfile, k: int, field: Field = QQ) -> list[Syzygy]:
    """The canonical echelon basis of AR(f)_k of profile p, each triple
    verified; over Q each vector scaled to a primitive integer one."""
    return [p.syzygy(k, v, field) for v in p.kernel(k, field)]


def rank_profile(f: HomogPoly, field: Field | FieldPlan = QQ, table_max: int | None = None) -> RankProfile:
    """Agree once on the Jacobian ranks of f at source degrees 0..top.

    f is first scaled to its primitive integer form, which the profile
    keeps as `RankProfile.f`, with its gradient as `RankProfile.grad`: a
    multiple of f has the same ranks and syzygies, and the form reduces
    mod every prime, where ranks only drop.  top = max(2d-1, K), where K =
    `table_max` (default 2d) is the top of the reported tables and 2d-1
    the last degree the reducedness window reads.  A bare field is
    computed over once; a plan agrees on the whole tuple at once.  A zero
    or constant f, K < 0, or a largest Jacobian matrix J_top (dim S_(top+d-1)
    rows by 3 dim S_top columns) above MAX_PROFILE_CELLS raises InputError
    before any matrix is built.  Over a prime the ranks come from one
    sweep up the degrees of J_f (see `_swept_ranks`).  Every field reads
    ranks only until Gotzmann's persistence condition holds on them, and
    fills in the rest from Macaulay's bound, or until the Hilbert function
    is flat at a degree where J_f and a fixed line fill it, and keeps it
    flat (see `_persistent`); either way the tuple is exactly the one a
    sweep to top would give.

    Over Q each rank is proved from one prime p = CERT_PRIME instead of
    eliminated over Q (see `_proved_ranks`):

    * lower bound: J_k is an integer matrix, so rank_p(J_k) <= rank_Q(J_k);
    * upper bound: a set V_k of exact Q-syzygies of degree k has
      dim_p V_k <= dim span_Q V_k <= dim AR(f)_k = 3 dim S_k - rank_Q(J_k),
      where dim_p is the dimension of the span mod p.

    When dim_p V_k = 3 dim S_k - rank_p(J_k), the two bounds meet and the
    prime rank is the rank over Q.  V is the submodule of S^3 generated by
    the Koszul relations, which join at degree d-1, and by the kernel
    vectors over Q found at each degree k where the bounds did not meet,
    which join at k+1.  There the rank is n - s for the s vectors of a
    basis of ker_Q J_k, lifted from prime images and verified exactly
    (`_lifted_kernel`), which the profile keeps as `lifts`.  A second
    sweep, over V, reads every dim_p V_k from the degree its first
    generators join at; below it V_k = 0.  Both stops are tested on these
    proved ranks, never on the ranks mod p, which may be lower, and the
    plateau's fill mod p proves it over Q, so both sweeps and the kernels
    stop together.

    A plan of two primes takes the first prime's ranks without a second
    sweep when their last H(top+d-1) is 0.  The H = 0 stop fills zeros
    from the first H(D) = 0 on, and the other stops fill H > 0, so H then
    reached 0 mod p at some degree D, and the curve is smooth:

    * H(D) = 0 mod p makes J_f m-primary mod p;
    * rank_Q(J_k) >= rank_p(J_k), so H(D) = 0 over Q too, and J_f is
      m-primary over Q as well;
    * over either field three forms of degree d-1 generating an m-primary
      ideal of F[x,y,z] form a regular sequence, and the Hilbert series of
      S/J_f is the complete-intersection one, (1-t^(d-1))^3/(1-t)^3
      (Bruns-Herzog, Cohen-Macaulay Rings), which fixes every rank; a
      line's J_f is S over both fields.

    So the ranks mod p are the ranks over Q, and a second prime could only
    disagree by losing rank.
    """
    K, top = profile_degrees(f.degree, table_max)
    f = primitive_form(f)
    grad = partials(f)
    plan = field if isinstance(field, FieldPlan) else FieldPlan.over(field)
    lifts: Lifts = {}
    ranks = plan.agree(
        lambda F: _persistent(grad, F, top, _proved_ranks(grad, lifts=lifts) if F.char == 0 else _swept_ranks(grad, F)),
        # H(top+d-1) = 0: the curve is smooth, and one prime proves its ranks
        lambda ranks: ranks[top] == dim_S(top + f.degree - 1),
    )
    return RankProfile(f, grad, plan, K, ranks, lifts)


def primitive_form(f: HomogPoly) -> HomogPoly:
    """f, a form over Q, scaled by one positive factor to coprime integer
    coefficients held as Python ints; the zero form raises InputError."""
    if f.is_zero():
        raise InputError("the zero polynomial defines no curve")
    den = lcm(*(c.denominator for c in f.terms.values()))
    ints = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
    g = gcd(*ints.values())
    return HomogPoly(f.degree, {m: c // g for m, c in ints.items()})


def profile_degrees(d: int, table_max: int | None = None) -> tuple[int, int]:
    """The table degree K and the top source degree of the rank profile of
    a degree-d curve (see `rank_profile`), or InputError if that profile
    is refused.  Needs only d, so a caller can refuse before building f."""
    if d < 1:
        raise InputError("a constant defines no curve")
    K = 2 * d if table_max is None else table_max
    if K < 0:
        raise InputError(f"table degree {K} is negative")
    top = max(2 * d - 1, K)
    rows, cols = dim_S(top + d - 1), 3 * dim_S(top)
    if rows * cols > MAX_PROFILE_CELLS:
        raise InputError(
            f"degree {d} with tables to {K} needs a {rows}x{cols} matrix, more than {MAX_PROFILE_CELLS} cells"
        )
    return K, top


def _swept_ranks(grad: Gradient, field: Field) -> Iterator[int]:
    """rank J_0, J_1, ... over a prime field, one step each of a sweep up
    the degrees D = d-1, d, ... of the Jacobian ideal J_f (`_ModuleSweep`):
    rank J_k is dim (J_f)_(k+d-1), and the integer gradient `grad`, which
    the sweep reduces mod p, generates J_f in degree d-1.  The pipeline
    ranks Jacobians mod p only here."""
    J = _ModuleSweep(field, 1, grad[0].degree - 1, retire=True)
    yield J.step([(part,) for part in grad])
    while True:
        yield J.step([])


def _persistent(grad: Gradient, field: Field, top: int, ranks: Iterator[int]) -> tuple[int, ...]:
    """The ranks of J_0..J_top over `field` of the curve with gradient
    `grad`, read from `ranks` only until the rest of H is fixed.

    With H(D) = dim (S/J_f)_D = dim S_D - rank J_(D-d+1), Macaulay's
    theorem bounds H(D+1) <= H(D)^<D> (`_macaulay_bound`).  J_f is
    generated in degree d-1, so no later rank is read once, at some
    D >= d-1, either
    * H(D+1) = H(D)^<D>: then H(E+1) = H(E)^<E> for every E >= D
      (Gotzmann's persistence theorem: G. Gotzmann, Math. Z. 158, 1978;
      Bruns-Herzog, Cohen-Macaulay Rings, 4.3.3); or
    * H(D+1) = H(D) > 0 and (J_f + hS)_D = S_D for the line h =
      x + a*y + b*z of PLATEAU_LINE: then H(E) = H(D) for every E >= D
      (the lemma below, the case j = 1 of the m-regularity criterion of
      D. Bayer and M. Stillman, Invent. Math. 87, 1987, Thm 1.10).
    Once H(D) = 0 the bound is 0, so H(D+1) = 0 is not read either: a
    smooth curve, whose H vanishes from 3d-5 on, stops at source degree
    2d-4.  The plateau ends the sweep of a reduced curve once H has
    settled at tau, where Gotzmann's condition waits for D >= tau.

    Lemma.  Let I in F[x,y,z] be homogeneous and generated in degrees
    <= m, over any field F.  Let h be a nonzero linear form, and write H
    for the Hilbert function of S/I.  If (I+hS)_m = S_m and H(m+1) = H(m),
    then H(E) = H(m) for every E >= m.

    Proof.  Take coordinates u, v, h.  Multiplication by h maps (S/I)_m
    onto (S/I)_(m+1), so equal dimensions give (I:h)_m = I_m.  Assume
    (I:h)_E = I_E for some E >= m.  Let hg in I with g in S_(E+1).  Write
    hg = ua + vb + hc with a, b, c in I_(E+1).  Modulo h, u and v form a
    regular sequence, so a = vt + ha' and b = -ut + hb' for some t in S_E;
    hence g = c + ua' + vb'.  Write t = i + ht' with i in I_E.  By the
    hypothesis at E, a' + vt' and b' - ut' lie in I_E, so g in I.  Hence
    (I:h)_E = I_E for every E >= m: multiplication by h is injective on
    (S/I)_E, and onto (S/I)_(E+1) as (I+hS)_E = S_E, so H(E+1) = H(E).

    (J_f + hS)_D = S_D says that the restrictions of the partials to
    h = 0, three binary forms of degree e = d-1 (`_restricted_gradient`),
    span every binary form of degree D through their degree-D multiples
    (`_fills`).  That is one rank of a 3(D-e+1) x (D+1) matrix, tested
    only at flat steps that Gotzmann's condition does not stop (H(D) > D)
    and where 3(D-e+1) >= D+1.  Over a prime the test runs over `field`.
    The restriction is computed once, at the first test.  Over Q it
    runs mod CERT_PRIME, on the integer gradient: the matrix is then
    integral, and full rank mod a prime means full rank over Q.  If
    h = 0 meets the singular locus of the curve, the forms share a root
    and never fill, and only the other conditions stop the sweep.
    A rank read above Macaulay's bound raises InternalInconsistencyError.
    """
    d, P = grad[0].degree + 1, field if field.char else CERT_FIELD
    out: list[int] = []
    forms = None
    # once the rest of H is fixed: H(D+1) from H(D) and D
    rule = None
    for k in range(top + 1):
        # rank J_k fixes H(D+1); once k >= 1, D >= d-1 and H(D) is known
        # (Macaulay's representation needs D >= 1, which fails for a
        # line at k = 1 only)
        D = k + d - 2
        # H(D) and, once rank J_k is read, H(D+1)
        cur = dim_S(D) - out[-1] if k and D >= 1 else None
        if rule is None and cur == 0:
            rule = _macaulay_bound
        if rule is not None:
            out.append(dim_S(D + 1) - rule(cur, D))
            continue
        out.append(next(ranks))
        if cur is None:
            continue
        bound, nxt = _macaulay_bound(cur, D), dim_S(D + 1) - out[-1]
        if nxt > bound:
            raise InternalInconsistencyError(f"H({D + 1}) = {nxt} exceeds Macaulay's bound {bound}")
        if nxt == bound:
            rule = _macaulay_bound
        elif nxt == cur and 3 * (D - d + 2) >= D + 1:
            if forms is None:
                forms = _restricted_gradient(grad, P)
            if _fills(forms, D, P):
                rule = _flat
    return tuple(out)


def _flat(H: int, D: int) -> int:
    """H(D+1) on the plateau: H(D)."""
    return H


# The line h = x + a*y + b*z of the plateau stop (`_persistent`), as
# (a, b).  Any nonzero h gives the same ranks; large a and b keep the
# small-integer singular points of most inputs off the line, where the
# stop could never fire.
PLATEAU_LINE = (1009, 2027)


def _restricted_gradient(grad: Gradient, P: Field) -> np.ndarray:
    """The integer gradient `grad` on the line h = 0 of PLATEAU_LINE, over
    the prime field P: with x = -(a*y + b*z), three binary forms of degree
    e = d-1, row i holding the coefficients of f_i at y^(e-j) z^j in
    column j, summed in Python integers and reduced mod p once."""
    p, (a, b), e = P.char, PLATEAU_LINE, grad[0].degree
    # x^i = (-1)^i sum_t C(i, t) a^t b^(i-t) y^t z^(i-t), mod p
    powers = [[(-1) ** i * comb(i, t) * a**t * b ** (i - t) % p for t in range(i + 1)] for i in range(e + 1)]
    rows = [[0] * (e + 1) for _ in range(3)]
    for row, part in zip(rows, grad):
        for (i, _, l), c in part.terms.items():
            for t, w in enumerate(powers[i]):
                row[l + i - t] += c * w
    return np.array([[c % p for c in row] for row in rows], dtype=_dtype(P))


def _fills(forms: np.ndarray, D: int, P: Field) -> bool:
    """Whether the degree-D multiples of the binary forms `forms` (rows of
    coefficients, as `_restricted_gradient` lays them out) span all D+1
    binary forms of degree D over P: the rank of their 3(D-e+1) x (D+1)
    multiplication matrix, with y^(D-e-s) z^s times a form shifted by s."""
    e = forms.shape[1] - 1
    M = np.zeros((D - e + 1, 3, D + 1), dtype=forms.dtype)
    for s in range(D - e + 1):
        M[s, :, s : s + e + 1] = forms
    return rank(ExactMatrix(P, 3 * (D - e + 1), D + 1, M.reshape(-1, D + 1))) == D + 1


def _macaulay_bound(h: int, D: int) -> int:
    """h^<D> for D >= 1: with h = C(a_D, D) + C(a_(D-1), D-1) + ... +
    C(a_j, j), a_D > ... > a_j >= j >= 1 (the D-th Macaulay
    representation, taken greedily), the sum of C(a_i + 1, i + 1).  It is
    the largest H(D+1) of a standard graded algebra with H(D) = h, attained
    by a lex-segment ideal."""
    bound = 0
    for i in range(D, 0, -1):
        if not h:
            break
        a = i
        while comb(a + 1, i) <= h:
            a += 1
        h -= comb(a, i)
        bound += comb(a + 1, i + 1)
    return bound


class _ModuleSweep:
    """A graded submodule M of S^t over a prime field, given by generators
    and swept up its degrees: Lazard's Macaulay sweep with the
    Faugere-Lachartre known-pivot split.

    Degree-D column t*j + b holds block b at the j-th degree-D monomial.
    The degree-(D+1) index of x*mu is the degree-D index of mu, so x maps
    each column to the same column.  The state is the reduced echelon
    basis B_D of M_D, held as its pivot columns `piv` (one per row) and
    its non-pivot block N on the columns `non`: on `piv` the basis is the
    identity.  Its last `w` rows W_D are the ones the step to D appended,
    so M_D = x*M_(D-1) + span W_D.  As y*x*M_(D-1) = x*(y*M_(D-1)) lies in
    x*M_D, and likewise for z, M_(D+1) = x*M_D + y*W_D + z*W_D + G, where G
    holds the multiples of the generators that join at D+1.  The rows
    x*B_D are the identity on `piv` too; they read N on `non` and 0 on the
    t(D+2) columns of the x-free monomials, and these make up C, the only
    other columns.  The rows y*W_D, z*W_D and G, laid out together at
    degree D+1, minus their entries on `piv` times the x rows leave a
    residual on C alone that spans the part of M_(D+1) vanishing on `piv`.
    Its reduced echelon form holds the new pivots, W_(D+1); the x rows are
    cleared at them, and both together are B_(D+1).

    With `retire`, which promises that generators join at the first step
    only (J_f: the gradient joins at d-1), the state drops for good every
    x row that no later step can read, and dim M_D is the count of these
    retired pivots (`gone`) plus the rows kept.  Give the monomial
    x^i y^b z^c the cell (b, c).  Column t*j + s has the cell of the j-th
    monomial at every degree, as x keeps it, while y and z raise b or c by
    one (the t blocks share their cells, which can only keep more rows).
    A step reads an old x row only where a joining row y*w or z*w, w in
    W_D, is nonzero at its pivot.  Let the frontier be the new pivots and
    the non-pivot columns some kept row is nonzero on.  The support of
    M_(D+1) lies in that of M_D and the shifts of supp W_D, and the new
    x-free columns (b + c = D+1) lie below no old pivot, so every column a
    later joining row can touch lies on or above a frontier cell: an x row
    whose pivot cell lies above none is never read again.  Which x rows
    stay is known only once the frontier is, so it takes the cells of
    every x row before clearing; with the new rows' cells alone, a row
    whose pivot lies above only an x row's cells can be retired while that
    x row is kept.  The sweep looks for such rows once it holds
    RETIRE_MIN_ROWS x rows.  The certificate's sweep keeps every row, as
    its kernel vectors join at any degree.  A joining row nonzero at a
    retired pivot raises InternalInconsistencyError.
    """

    def __init__(self, field: Field, t: int, D: int, *, retire: bool = False):
        """The zero submodule of S^t, at degree D.  `retire` promises that
        generators join at the first step only."""
        self.field, self.t, self.D, self.w, self.retire = field, t, D, 0, retire
        self.piv = self.gone = np.zeros(0, dtype=np.int64)
        self.non = np.arange(t * dim_S(D))
        self.N = np.zeros((0, len(self.non)), dtype=_dtype(field))

    def step(self, gens: Sequence[Sequence[HomogPoly]]) -> int:
        """Move to degree D+1, where the multiples of the tuples `gens` (of
        degree at most D+1, with integer coefficients, which the step
        reduces mod p) join M; return dim M_(D+1)."""
        p, t, piv, non, N = self.field.char, self.t, self.piv, self.non, self.N
        m1 = dim_S(self.D + 1)
        C = np.concatenate([non, np.arange(t * dim_S(self.D), t * m1)])
        nn = len(non)
        w_piv, w_N = piv[len(piv) - self.w :], N[len(piv) - self.w :]
        # the joining rows at full width: y*W_D, z*W_D, then G, which
        # `_multiples_array` lays out one block after the other, reduced
        # mod p into the dtype of N
        rows = np.zeros((2 * self.w, t * m1), dtype=N.dtype)
        for s, shift in enumerate(_shift_maps(self.D, t)):
            block = rows[s * self.w : (s + 1) * self.w]
            block[np.arange(self.w), shift[w_piv]] = 1
            block[:, shift[non]] = w_N
        if gens:
            G = _field_entries(_multiples_array(gens, self.D + 1), self.field)
            rows = np.vstack([rows, G[:, (np.arange(m1)[:, None] + m1 * np.arange(t)).ravel()]])
        # the x rows read N on the first nn columns of C and 0 on the rest;
        # only the pivots some row touches, and the rows that touch one,
        # enter the product
        touched = rows.any(axis=0)
        if touched[self.gone].any():
            raise InternalInconsistencyError(f"a row joining at degree {self.D + 1} is nonzero at a retired pivot")
        hit = touched[piv]
        on_hit = rows[:, piv[hit]]
        at = on_hit.any(axis=1)
        R = rows[:, C]
        R[at, :nn] -= _mod_p_matmul(on_hit[at], N[hit], p)
        echelon, new = _mod_p_echelon(R % p, p)
        echelon, new = echelon[: len(new)], np.array(new, dtype=np.int64)
        keep = np.ones(len(C), dtype=bool)
        keep[new] = False
        if self.retire and len(piv) >= RETIRE_MIN_ROWS:
            # the frontier: the columns of C that the new rows, or the x
            # rows before clearing, are nonzero on (clearing adds only
            # multiples of the new rows); it holds the new pivots
            supp = echelon.any(axis=0)
            supp[:nn] |= N.any(axis=0)
            live = self._reachable(piv, C[supp])
            self.gone = np.concatenate([self.gone, piv[~live]])
            piv, N = piv[live], N[live]
        # B_(D+1) on the columns it keeps: the x rows cleared at the new
        # pivots (only those on `non`, as the x rows are 0 on the rest of
        # C), then the new rows
        on_non = new < nn
        state = np.empty((len(piv) + len(new), len(C) - len(new)), dtype=N.dtype)
        x_rows = state[: len(piv)]
        np.subtract(p, _mod_p_matmul(N[:, new[on_non]], echelon[on_non][:, keep], p), out=x_rows)
        x_rows[:, : nn - int(on_non.sum())] += N[:, keep[:nn]]
        x_rows %= p
        state[len(piv) :] = echelon[:, keep]
        self.D, self.w = self.D + 1, len(new)
        self.piv = np.concatenate([piv, C[new]])
        self.non = C[keep]
        self.N = state
        return len(self.gone) + len(self.piv)

    def _reachable(self, piv: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        """Which x rows, with pivots `piv` at degree D+1, some later step may
        read: those whose pivot cell lies on or above a cell of `frontier`."""
        cells = _column_cells(self.D + 1, self.t)
        fb, fc = cells[:, frontier]
        pb, pc = cells[:, piv]
        lowest = np.full(self.D + 2, self.D + 2)
        np.minimum.at(lowest, fb, fc)
        np.minimum.accumulate(lowest, out=lowest)
        return lowest[pb] <= pc


@lru_cache(maxsize=None)
def _shift_maps(D: int, t: int) -> np.ndarray:
    """Row s, column c: the degree-(D+1) column of y (s = 0) or z (s = 1)
    times the degree-D column c of S^t (see `_ModuleSweep`): block c mod t
    stays, and y raises b, z raises c' of the cell (b, c') =
    `_column_cells`.  Read-only and cached per degree, like
    `monomial_basis`: the profile bound keeps D below 100."""
    b, c = _column_cells(D, t)
    block = np.arange(t * dim_S(D)) % t
    cols = np.vstack([t * monomial_position(b + 1, c) + block, t * monomial_position(b, c + 1) + block])
    cols.flags.writeable = False
    return cols


@lru_cache(maxsize=None)
def _column_cells(D: int, t: int) -> np.ndarray:
    """Row 0, column c: the y-exponent b of the monomial at the degree-D
    column c of S^t; row 1: its z-exponent (see `_ModuleSweep`).  The
    inverse of `monomial_position`: the monomials with b + c = s form one
    run from the position of y^s, in which c counts up from 0.  Read-only
    and cached per degree, like `_shift_maps`."""
    s = np.repeat(np.arange(D + 1), np.arange(1, D + 2))
    c = np.arange(dim_S(D)) - monomial_position(s, 0)
    cells = np.repeat(np.vstack([s - c, c]), t, axis=1)
    cells.flags.writeable = False
    return cells


def _proved_ranks(grad: Gradient, P: PrimeField = CERT_FIELD, *, lifts: Lifts | None = None) -> Iterator[int]:
    """rank_Q J_0, J_1, ... of the curve with integer gradient `grad`,
    proved from the prime field `P` as `rank_profile` says; each basis of
    ker_Q J_k lifted is stored in `lifts` under k and joins V at k+1.  The
    sweeps take V's generators, like the gradient, in integers and reduce
    them mod p.  V is 0 below the degree its first generators join at, and
    its sweep starts there."""
    fx, fy, fz = grad
    e = fx.degree
    zero = HomogPoly.zero(e)
    # V's generators by the degree they join at: the Koszul relations at
    # d-1, the kernel vectors over Q found at k at k+1
    joining = {e: [(fy, -fx, zero), (fz, zero, -fx), (zero, fz, -fy)]}
    V = None
    for k, r in enumerate(_swept_ranks(grad, P)):
        n = 3 * dim_S(k)
        gens = joining.pop(k, [])
        if V is None and gens:
            V = _ModuleSweep(P, 3, k - 1)
        if (V.step(gens) if V is not None else 0) != n - r:
            vectors = _lifted_kernel(grad, k, P)
            if lifts is not None:
                lifts[k] = vectors
            r = n - len(vectors)
            joining.setdefault(k + 1, []).extend(Syzygy.from_vector(k, v) for v in vectors)
        yield r


def _lifted_kernel(grad: Gradient, k: int, P: PrimeField) -> list[list[int]]:
    """ker_Q J_k of the curve with integer gradient `grad` as primitive
    integer vectors, lifted from its images over the prime field `P` and
    the prime fields above it.  J_k is built once as an integer array
    (`_multiples_array` of the gradient, transposed) and reduced mod each
    prime.

    The image mod p is the reduced echelon basis of ker_p J_k
    (`kernel_basis`): 1 at its free columns, 0 at the others.  Ranks only
    drop mod p, and the pivot columns over Q, the greedy basis of the
    column matroid, dominate any other, so a lucky prime has the fewest
    vectors and the earliest free columns.  A prime whose pattern is worse
    than the best seen is dropped, and a better one restarts the
    combination.  The images of the best pattern are combined by CRT, and
    the entries at the pivot columns are rationally reconstructed (Wang,
    on a common denominator: `_reconstructed`).  Every vector of a
    reconstruction is verified exactly (`_relation_vanishes`), and the
    first one that verifies is returned.  Its s vectors are independent,
    as they carry the identity on the free columns, and lie in ker_Q, and
    dim ker_Q <= dim ker_p = s: they are a basis, the reduced echelon one
    scaled.

    The loop ends.  Every prime that does not divide the pivot minor over
    Q has Q's pattern, and its image is the reduction of Q's reduced
    echelon basis; once one is seen, no prime is better, so every image
    combined after it is such a reduction too.  Each entry of that basis
    is a ratio of r x r minors of J_k, r = n - s, and every column of J_k
    is a monomial times a partial, so by Hadamard each minor is at most
    H = max ||f_i||_2^r.  Past a modulus of 2H^2 a reconstruction
    recovers them and verifies; it usually does at a far smaller one.
    """
    n = 3 * dim_S(k)
    basis, terms = monomial_basis(k), [g.terms.items() for g in grad]
    J = _multiples_array([(g,) for g in grad], k + grad[0].degree).T
    best = None
    for P in _fields_from(P):
        p = P.char
        image = kernel_basis(ExactMatrix(P, *J.shape, _field_entries(J, P)))
        free = tuple(v.index(1) for v in image)
        pattern = (len(free), free)
        if best is not None and pattern > best:
            continue
        freeset = set(free)
        pivots = [c for c in range(n) if c not in freeset]
        residues = np.array([[v[c] for c in pivots] for v in image], dtype=object).reshape(len(image), len(pivots))
        if pattern != best:
            best, modulus, R = pattern, p, residues
        else:
            R = R + modulus * ((residues - R % p) * pow(modulus, -1, p) % p)
            modulus *= p
        lifted = _reconstructed(R, modulus)
        if lifted is None:
            continue
        X, L = lifted
        vectors = []
        for fc, row in zip(free, X.tolist()):
            v = [0] * n
            v[fc] = L
            for c, x in zip(pivots, row):
                v[c] = x
            g = gcd(*v)
            vectors.append([x // g for x in v])
        m = len(basis)
        if all(_relation_vanishes([[(mono, c) for mono, c in zip(basis, v[i * m : (i + 1) * m]) if c] for i in range(3)], terms) for v in vectors):
            return vectors


def _reconstructed(R: np.ndarray, m: int) -> tuple[np.ndarray, int] | None:
    """Integers X and L > 0 with X = L*R mod m entrywise and |X|, L at most
    N = isqrt(m // 2), or None: Wang's rational reconstruction with a
    common denominator.  An entry whose residue times L is not small gets
    its own reconstruction a/b (half the extended Euclid on m and the
    residue), and L grows to lcm(L, b).  For the exact kernel basis L is
    one pivot determinant, so a few reconstructions serve every entry."""
    N = isqrt(m // 2)
    L = 1
    while True:
        X = R * L % m
        X[X > m // 2] -= m
        bad = np.flatnonzero(abs(X) > N)
        if not bad.size:
            return X, L
        r0, r1, t0, t1 = m, int(R.flat[bad[0]]), 0, 1
        while r1 > N:
            q = r0 // r1
            r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
        if not 0 < abs(t1) <= N or gcd(r1, t1) != 1:
            return None
        if L % t1 == 0:
            # the entry's denominator divides L, yet L times it is not small
            return None
        L = lcm(L, abs(t1))
        if L > N:
            return None


def _fields_from(P: PrimeField) -> Iterator[PrimeField]:
    """The prime field P and the prime fields above it, in order."""
    p = P.char
    while True:
        yield P
        p += 2
        while not is_probable_prime(p):
            p += 2
        P = GF(p)


def mdr(p: RankProfile) -> int:
    """Minimal degree of a relation among the partials of f.

    The search is capped at d-1, where the Koszul relations live; running
    past the cap means the arithmetic itself is broken.
    """
    for k in range(p.d):
        if p.ar(k) > 0:
            return k
    raise InternalInconsistencyError(
        f"no relation found through degree {p.d - 1}; the Koszul relations "
        "guarantee one, so this is an arithmetic bug"
    )


def milnor_plateau(p: RankProfile) -> int | None:
    """m(f)_k on the window [3d-5, 3d-2] if it is constant there, else None.

    For a reduced curve m(f)_k equals the global Tjurina number for every
    k >= 3(d-2) (Dimca, Syzygies of Jacobian ideals and defects of linear
    systems, 2013), so the window is constant.  A repeated component
    makes m(f) grow linearly; a non-constant window therefore proves the
    curve non-reduced, and no later window is consulted.
    """
    lo = 3 * p.d - 5
    values = {p.m(k) for k in range(lo, lo + 4)}
    return values.pop() if len(values) == 1 else None


class Reducedness(str, enum.Enum):
    REDUCED = "Reduced"
    NON_REDUCED = "NonReduced"
    PENCIL_OF_LINES = "PencilOfLines"


def reducedness_check(p: RankProfile) -> Reducedness:
    """Classify the curve as reduced, non-reduced, or a pencil of lines.

    Non-reduced exactly when the Milnor window is not constant (see
    `milnor_plateau`).  Reduced curves with a degree-0 relation are
    unions of concurrent lines.
    """
    if milnor_plateau(p) is None:
        return Reducedness.NON_REDUCED
    if p.ar(0) > 0:
        return Reducedness.PENCIL_OF_LINES
    return Reducedness.REDUCED
