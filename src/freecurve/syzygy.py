"""Graded pieces of the Jacobian relation module of a plane curve.

For a degree-d curve f, the degree-k piece of the Jacobian map sends a
triple (a, b, c) of degree-k polynomials to a*f_x + b*f_y + c*f_z.  Its
kernel AR(f)_k collects the degree-k relations (syzygies) among the
partials; the cokernel dimensions m(f)_k are the graded dimensions of the
quotient of the polynomial ring by the Jacobian ideal.  Everything here
reduces to exact ranks and kernels of those multiplication matrices.
The pipeline agrees on them once per curve, as a `RankProfile`, the
only source of the graded dimensions ar(f)_k and m(f)_k; the per-degree
kernels over one field serve the structural checks.  Over a prime the
profile builds no Jacobian matrix: rank J_k = dim (J_f)_(k+d-1).  One
sweep up the degrees of a graded submodule of S^t given by generators
(`_ModuleSweep`), which carries only the non-pivot block of its echelon
basis, reads every rank from the Jacobian ideal J_f (`_prime_ranks`) and,
over Q, the dimensions of the certificate's module of syzygies.
`jacobian_matrix` and `rank_jacobian` build and rank one J_k, for the
kernels and as the independent reference.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError, InternalInconsistencyError
from .fields import GF, Field, FieldPlan, QQ
from .linalg import ExactMatrix, _dtype, _mod_p_echelon, _mod_p_matmul, kernel_basis, pivot_columns, rank
from .poly import Gradient, HomogPoly, dim_S, monomial_basis, monomial_index, partials

# Cells of the largest Jacobian matrix of a rank profile, J_top.  2^25
# int64 cells are 256 MiB; the bound admits every d <= 32 at the default
# table degree 2d.  Over Q the certificate's exact kernels may build J_k
# for any k <= top.  Over a prime the profile builds no J_k.  The sweep's
# largest arrays (see `_ModuleSweep`) are its x rows, dim (J_f)_D rows by
# (D+2) + m(f)_D columns, and the rows that join at D+1, 2|W_D| + |G|
# rows by t dim S_(D+1) columns.  For J_f (t = 1) the gradient joins
# alone, at d-1, and |W_D| = rank J_k - rank J_(k-1) <= 3(k+1) for
# k = D-d+1, as ar(f) never drops; so the joining rows hold at most
# 6 top * dim S_(top+d-1) cells, below the count of J_top.  The
# certificate's sweep of V in S^3 holds at most a*(3 dim S_(k+1) - a)
# <= (3 dim S_top)^2/4 cells, a = dim V_k, in its state.  At k+1 it
# joins at most 2a shifted rows, the 3 Koszul relations (at d-1 only) and
# 3 rows per exact kernel vector of degree k, each 3 dim S_(k+1) wide.
# The bound still refuses the same inputs in every mode.
MAX_PROFILE_CELLS = 2**25

# The largest curve degree some table degree admits (33): a profile of a
# degree-(d+1) curve reaches at least source degree 2d+1.
MAX_CURVE_DEGREE = next(d for d in count(1) if dim_S(3 * d + 1) * 3 * dim_S(2 * d + 1) > MAX_PROFILE_CELLS)

# The prime of the certified rational profile: the first prime above 2^31.
CERT_PRIME = 2_147_483_659

class Syzygy(NamedTuple):
    """A relation a*f_x + b*f_y + c*f_z = 0 with a, b, c of one degree."""

    a: HomogPoly
    b: HomogPoly
    c: HomogPoly

    @property
    def degree(self) -> int:
        return self.a.degree

    @classmethod
    def from_vector(cls, f: HomogPoly, k: int, vec, field: Field, grad: Gradient | None = None) -> "Syzygy":
        """The degree-k triple with coefficient blocks a, b, c in `vec`,
        re-verified against f (whose gradient over `field` may be passed)."""
        n = dim_S(k)
        syz = cls(*(HomogPoly.from_vector(field, k, vec[i * n : (i + 1) * n]) for i in range(3)))
        if not syz.holds_for(f, grad):
            raise InternalInconsistencyError(
                f"vector at degree {k} fails the defining relation"
            )
        return syz

    def holds_for(self, f: HomogPoly, grad: Gradient | None = None) -> bool:
        """Whether a*f_x + b*f_y + c*f_z = 0, summed in Python integers.

        Over Q the triple and the gradient are each scaled by one nonzero
        factor to integer coefficients (`_integral`), which keeps the
        identity; over a prime the integer sums are reduced mod p once.
        """
        field = self.a.field
        triple, gradient = self, grad if grad is not None else partials(f.map_field(field))
        if field.char == 0:
            triple, gradient = _integral(triple), _integral(gradient)
        total: dict[tuple[int, int, int], int] = {}
        for u, g in zip(triple, gradient):
            g_terms = [(mono, int(c)) for mono, c in g.terms.items()]
            for (i, j, k), c in u.terms.items():
                c = int(c)
                for (gi, gj, gk), gc in g_terms:
                    mono = (i + gi, j + gj, k + gk)
                    total[mono] = total.get(mono, 0) + c * gc
        p = field.char
        return not any(v % p for v in total.values()) if p else not any(total.values())


def multiples(gens: Sequence[Sequence[HomogPoly]], k: int, field: Field) -> ExactMatrix:
    """The degree-k monomial multiples of polynomial tuples, one per row.

    A tuple g = (g_1, ..., g_t) of degree e <= k gives the rows nu*g for
    the degree-(k-e) monomials nu in canonical order (tuples above degree
    k give none); block i of a row holds the coefficients of nu*g_i on the
    degree-k monomials in canonical order.  This is the layout of every
    multiplication matrix here; all tuples have the length of the first.
    """
    n = dim_S(k)
    index = monomial_index(k)
    rows, cols = array("q"), array("q")
    values: list = []
    row = 0
    for g in gens:
        for nu in monomial_basis(k - g[0].degree):
            for base, part in zip(range(0, len(g) * n, n), g):
                for mu, coeff in part.terms.items():
                    rows.append(row)
                    cols.append(base + index[(nu[0] + mu[0], nu[1] + mu[1], nu[2] + mu[2])])
                    values.append(coeff)
            row += 1
    return ExactMatrix.from_entries(field, row, len(gens[0]) * n if gens else 0, rows, cols, values)


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

    The transpose (a view) of the `multiples` of (f_x,), (f_y,), (f_z,) at
    degree k+d-1: columns come in three blocks (a, b, c), each in canonical
    monomial order; rows are the degree-(k+d-1) monomials in canonical
    order.  `grad`, the gradient of f over `field`, spares recomputing it.
    """
    if k < 0:
        raise ValueError("source degree must be non-negative")
    d = f.degree
    if d < 1:
        raise ValueError("curve degree must be at least 1")
    if grad is None:
        grad = partials(f.map_field(field))
    return multiples([(part,) for part in grad], k + d - 1, field).transpose()


def rank_jacobian(f: HomogPoly, k: int, field: Field = QQ) -> int:
    """Rank of the degree-k Jacobian multiplication matrix (0 for k < 0)."""
    if k < 0:
        return 0
    return rank(jacobian_matrix(f, k, field))


def syzygy_basis(f: HomogPoly, k: int, field: Field = QQ, *, grad: Gradient | None = None) -> list[Syzygy]:
    """Canonical echelon basis of AR(f)_k; every triple is re-verified."""
    if grad is None:
        grad = partials(f.map_field(field))
    M = jacobian_matrix(f, k, field, grad=grad)
    return [Syzygy.from_vector(f, k, vec, field, grad) for vec in kernel_basis(M)]


@dataclass(frozen=True)
class RankProfile:
    """The Jacobian ranks of one curve at source degrees 0..top, agreed once.

    `f` is the curve's primitive integer form: coprime integer
    coefficients, which reduce mod every prime.  `plan` is the field plan
    the ranks were agreed over; the structural checks of a verdict run on
    `f` over the same plan.  `table_max` is the top degree of the reported
    tables.
    """

    f: HomogPoly
    plan: FieldPlan
    table_max: int
    ranks: tuple[int, ...]

    @property
    def d(self) -> int:
        return self.f.degree

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


def rank_profile(f: HomogPoly, field: Field | FieldPlan = QQ, table_max: int | None = None) -> RankProfile:
    """Agree once on the Jacobian ranks of f at source degrees 0..top.

    f is first scaled to coprime integer coefficients, its primitive
    integer form, which the profile keeps as `RankProfile.f`: a multiple
    of f has the same ranks and syzygies, and the form reduces mod every
    prime, where ranks only drop.  top = max(2d-1, K), where K =
    `table_max` (default 2d) is the top of the reported tables and 2d-1
    the last degree the reducedness window reads.  A bare field is
    computed over once; a plan agrees on the whole tuple at once.  A zero
    or constant f, K < 0, or a largest Jacobian matrix J_top (dim S_(top+d-1)
    rows by 3 dim S_top columns) above MAX_PROFILE_CELLS raises InputError
    before any matrix is built.  Over a prime the ranks come from one
    sweep up the degrees of J_f (see `_ModuleSweep`).

    Over Q each rank is proved from one prime p = CERT_PRIME instead of
    eliminated over Q (see `_certified_ranks`):

    * lower bound: J_k is an integer matrix, so rank_p(J_k) <= rank_Q(J_k);
    * upper bound: a set V_k of exact Q-syzygies of degree k has
      dim_p V_k <= dim span_Q V_k <= dim AR(f)_k = 3 dim S_k - rank_Q(J_k),
      where dim_p is the dimension of the span mod p.

    When dim_p V_k = 3 dim S_k - rank_p(J_k), the two bounds meet and the
    prime rank is the rank over Q.  V is the submodule of S^3 generated by
    the Koszul relations, which join at degree d-1, and by the exact kernel
    vectors found at each degree k where the bounds did not meet, which
    join at k+1; there the rank is read off the exact kernel over Q.  A
    second sweep, over V, reads every dim_p V_k.
    """
    K, top = profile_degrees(f.degree, table_max)
    if f.is_zero():
        raise InputError("the zero polynomial defines no curve")
    (f,) = _integral((f,))
    plan = field if isinstance(field, FieldPlan) else FieldPlan.over(field)
    ranks = plan.agree(lambda F: _certified_ranks(f, top) if F.char == 0 else _prime_ranks(f, top, F))
    return RankProfile(f, plan, K, ranks)


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


def _prime_ranks(f: HomogPoly, top: int, field: Field) -> tuple[int, ...]:
    """The ranks of J_0..J_top over a prime field, in one sweep over the
    degrees D = d-1 .. top+d-1 of the Jacobian ideal J_f, which the
    gradient generates in degree d-1: rank J_k is dim (J_f)_(k+d-1).  The
    pipeline ranks Jacobians mod p only here."""
    J = _ModuleSweep(field, 1, f.degree - 2)
    ranks = [J.step([(part,) for part in partials(f.map_field(field))])]
    return tuple(ranks + [J.step([]) for _ in range(top)])


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
    """

    def __init__(self, field: Field, t: int, D: int):
        """The zero submodule of S^t, at degree D."""
        self.field, self.t, self.D, self.w = field, t, D, 0
        self.piv = np.zeros(0, dtype=np.int64)
        self.non = np.arange(t * dim_S(D))
        self.N = np.zeros((0, len(self.non)), dtype=_dtype(field))

    def step(self, gens: Sequence[Sequence[HomogPoly]]) -> int:
        """Move to degree D+1, where the multiples of the tuples `gens` (of
        degree at most D+1) join M; return dim M_(D+1)."""
        p, t, piv, non, N = self.field.char, self.t, self.piv, self.non, self.N
        m1 = dim_S(self.D + 1)
        C = np.concatenate([non, np.arange(t * dim_S(self.D), t * m1)])
        nn = len(non)
        w_piv, w_N = piv[len(piv) - self.w :], N[len(piv) - self.w :]
        G = multiples(gens, self.D + 1, self.field)._data if gens else np.zeros((0, t * m1), dtype=N.dtype)
        # the joining rows at full width: y*W_D, z*W_D, then G, which
        # `multiples` lays out one block after the other
        rows = np.zeros((2 * self.w + len(G), t * m1), dtype=N.dtype)
        for s, shift in enumerate(_shift_maps(self.D, t)):
            block = rows[s * self.w : (s + 1) * self.w]
            block[np.arange(self.w), shift[w_piv]] = 1
            block[:, shift[non]] = w_N
        rows[2 * self.w :] = G[:, (np.arange(m1)[:, None] + m1 * np.arange(t)).ravel()]
        # the x rows read N on the first nn columns of C and 0 on the rest;
        # only the pivots some row touches, and the rows that touch one,
        # enter the product
        hit = rows.any(axis=0)[piv]
        on_hit = rows[:, piv[hit]]
        at = on_hit.any(axis=1)
        R = rows[:, C]
        R[at, :nn] -= _mod_p_matmul(on_hit[at], N[hit], p)
        echelon, new = _mod_p_echelon(R % p, p, reduced=True)
        echelon, new = echelon[: len(new)], np.array(new, dtype=np.int64)
        keep = np.ones(len(C), dtype=bool)
        keep[new] = False
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
        return len(self.piv)


@lru_cache(maxsize=None)
def _shift_maps(D: int, t: int) -> np.ndarray:
    """Row s, column c: the degree-(D+1) column of y (s = 0) or z (s = 1)
    times the degree-D column c of S^t (see `_ModuleSweep`).  The degree-D
    monomials of x-exponent i come in one run of D+1-i, and y*mu lies
    D+1-i monomials past x*mu, z*mu one more.  Read-only and cached per
    degree, like `monomial_basis`: the profile bound keeps D below 100."""
    run = np.arange(1, D + 2)
    y = np.arange(t * dim_S(D)) + t * np.repeat(np.repeat(run, run), t)
    cols = np.vstack([y, y + t])
    cols.flags.writeable = False
    return cols


def _certified_ranks(f: HomogPoly, top: int, prime: int = CERT_PRIME) -> tuple[int, ...]:
    """The ranks of J_0..J_top over Q of f, an integer form (see
    `rank_profile`), each proved from rank_p bounds or read off an exact
    kernel."""
    P = GF(prime)
    grad = partials(f)
    fx, fy, fz = (g.map_field(P) for g in grad)
    zero = HomogPoly.zero(P, f.degree - 1)
    # V's generators by the degree they join at: the Koszul relations at
    # d-1, the exact kernel vectors found at k at k+1
    joining = {f.degree - 1: [(fy, -fx, zero), (fz, zero, -fx), (zero, fz, -fy)]}
    V = _ModuleSweep(P, 3, -1)
    ranks = []
    for k, r in enumerate(_prime_ranks(f, top, P)):
        n = 3 * dim_S(k)
        if V.step(joining.pop(k, [])) != n - r:
            basis = syzygy_basis(f, k, QQ, grad=grad)
            r = n - len(basis)
            joining.setdefault(k + 1, []).extend(tuple(part.map_field(P) for part in _integral(s)) for s in basis)
        ranks.append(r)
    return tuple(ranks)


def _integral(parts: tuple[HomogPoly, ...]) -> tuple[HomogPoly, ...]:
    """Rational `parts` scaled by one factor to coprime integer coefficients."""
    coeffs = [c for part in parts for c in part.terms.values()]
    scale = Fraction(lcm(*(c.denominator for c in coeffs)), gcd(*(c.numerator for c in coeffs)))
    return tuple(part.scale(scale) for part in parts)


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
