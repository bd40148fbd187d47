"""Derived numerical invariants of a reduced plane curve.

Everything in this module is an integer function of one `RankProfile`:
the global Tjurina number (the stable value of the Milnor algebra
dimensions), the coincidence and stability thresholds measured against
the smooth Hilbert function, the saturation defects n(f)_k from an
Euler-characteristic identity and the quotient dimensions delta(f)_k.
The formulas in (d, r) live here once each: the maximal Tjurina number
`tau_max`, the du Plessis-Wall interval and the defect.  Only the
brute-force saturation oracle, an independent check of n(f)_k, computes
ranks itself: over Q only, on the curve's primitive integer form, with
its functionals held as primitive integer rows, so that every matrix it
eliminates is integral.  It takes the columns of J_f's matrices in
x-graded order (`syzygy.x_graded`), which keeps the fill low.  It uses no
prime field, no Euler formula and no rank profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InternalInconsistencyError, NotReducedError
from .linalg import integer_kernel_basis, rank
from .poly import HomogPoly, choose2, dim_choose2, dim_S, monomial_position
from .syzygy import RankProfile, _column_cells, jacobian_matrix, mdr, milnor_plateau, primitive_form, rank_jacobian, x_graded


def smooth_reference(d: int, k: int) -> int:
    """Milnor-algebra dimension of a smooth degree-d curve at degree k.

    Coefficient of t^k in ((1 - t^(d-1)) / (1 - t))^3; zero outside
    [0, 3(d-2)] and symmetric about the midpoint.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    e = d - 1
    return dim_S(k) - 3 * dim_S(k - e) + 3 * dim_S(k - 2 * e) - dim_S(k - 3 * e)


def tjurina(p: RankProfile) -> int:
    """Global Tjurina number: the constant value of the Milnor window."""
    tau = milnor_plateau(p)
    if tau is None:
        raise NotReducedError(
            "Milnor algebra dimensions do not stabilise; the curve is not reduced"
        )
    return tau


def thresholds(p: RankProfile) -> tuple[int | None, int]:
    """(ct, st): agreement threshold against the smooth reference, and the
    degree from which m(f) stays equal to tau.

    ct is None (infinite) exactly when f is smooth, i.e. when m(f) agrees
    with the smooth reference through degree T+1 = 3d-5.
    """
    d = p.d
    T = 3 * (d - 2)
    tau = tjurina(p)
    ct: int | None = None
    for k in range(0, T + 2):
        if p.m(k) != smooth_reference(d, k):
            ct = k - 1
            break
    # m(f)_k = tau from 3d-5 on, and from 0 on for a line
    st = max(3 * d - 5, 0)
    while st > 0 and p.m(st - 1) == tau:
        st -= 1
    return ct, st


def n_dim(d: int, j: int, tau: int, ar: Callable[[int], int]) -> int:
    """Saturation defect dimension n(f)_j via the Euler characteristic.

    n(f)_j = ar(f)_{j-d+1} + ar(f)_{2d-5-j}
             - [3*choose2(j-d+3) - choose2(j+2) + tau],

    where the bracket is a signed polynomial (negative values of the
    choose2 arguments are meaningful) while the ar terms are honest
    dimensions, zero in negative degrees.  Zero outside [0, 3(d-2)].
    `ar(k)` gives dim AR(f)_k for 0 <= k <= 2d-5: a profile's `ar`, or
    the lookup of a reported ar table.
    """
    T = 3 * (d - 2)
    if j < 0 or j > T:
        return 0
    chi = 3 * choose2(j - d + 3) - choose2(j + 2) + tau
    value = sum(ar(k) for k in (j - d + 1, 2 * d - 5 - j) if k >= 0) - chi
    if value < 0:
        raise InternalInconsistencyError(
            f"negative saturation defect n_{j} = {value} for degree-{d} curve"
        )
    return value


def _saturation_dim(f: HomogPoly, j: int, e: int, functionals: dict) -> int:
    """dim {g in S_j : x^e g, y^e g, z^e g all lie in J_f}, over Q, for f
    an integer form."""
    target = j + e
    if target not in functionals:
        # Functionals cutting out J at the target degree, one primitive
        # integer row each.  The target is at least max(j+1, T+1), so the
        # source degree is >= 0.  The multiples are eliminated in x-graded
        # order, ascending; row order leaves the kernel's RREF unchanged.
        s = target - f.degree + 1
        multiples = jacobian_matrix(f, s).columns(x_graded(s, ascending=True)).transpose()
        functionals[target] = integer_kernel_basis(multiples)
    left_null = functionals[target]
    n_j = dim_S(j)
    if left_null.rows == 0:
        return n_j
    # x^e keeps a monomial's position; y^e and z^e raise its y- or
    # z-exponent by e
    mj, ml = _column_cells(j, 1)
    shifted = (range(n_j), monomial_position(mj + e, ml), monomial_position(mj, ml + e))
    x_part, y_part, z_part = (left_null.columns(cols) for cols in shifted)
    return n_j - rank(x_part.stack(y_part).stack(z_part))


def n_dim_saturation_oracle(f: HomogPoly, j: int, functionals: dict | None = None) -> int:
    """Brute-force n(f)_j over Q: saturate the Jacobian ideal degree by degree.

    f is first scaled to its primitive integer form (the zero form raises
    InputError): a multiple has the same Jacobian ranks and left null
    spaces, and every matrix below is then integral, eliminated on integer
    rows.  The functionals on S_t that vanish on (J_f)_t, a left null
    space of the Jacobian matrix, are computed once per target degree t,
    as primitive integer rows.  Composed with multiplication by x^e, y^e
    and z^e they cut (J_f : m^e)_j out of S_j at t = j+e.  Starting from
    e = max(1, T+1-j), e grows until two consecutive rounds have equal
    dimension; the rounds are nested, so equal dimension means equal
    subspace.  The defect is that dimension minus dim (J_f)_j.  The
    Euler-characteristic formula is not used.

    `functionals` maps a target degree to its functionals.  One dict,
    owned by the caller and shared by every j of one curve, computes each
    target once: every j <= T probes T+1, T+2, ...
    """
    if j < 0:
        raise ValueError("degree must be non-negative")
    if functionals is None:
        functionals = {}
    f = primitive_form(f)
    d = f.degree
    T = 3 * (d - 2)
    dim_j_f = rank_jacobian(f, j - d + 1)
    e = max(1, T + 1 - j)
    previous = _saturation_dim(f, j, e, functionals)
    while True:
        e += 1
        current = _saturation_dim(f, j, e, functionals)
        if current < previous:
            raise InternalInconsistencyError(
                f"(J : m^{e})_{j} has dimension {current} < {previous} = "
                f"dim (J : m^{e - 1})_{j}, but saturation rounds are nested"
            )
        if current == previous:
            return current - dim_j_f
        previous = current


def delta_dim(p: RankProfile, k: int, r: int) -> int:
    """dim of AR(f)_k modulo the free line generated by a minimal syzygy.

    The submodule spanned by one degree-r syzygy is free, so its graded
    dimension is dim S_{k-r} and no quotient needs to be built.
    """
    value = p.ar(k) - dim_S(k - r)
    if value < 0:
        raise InternalInconsistencyError(
            f"delta_{k} = {value} < 0: multiplication by the minimal syzygy "
            "failed to be injective, which is impossible"
        )
    return value


def tau_max(d: int, r: int) -> int:
    """(d-1)(d-r-1) + r^2, the maximal Tjurina number for minimal relation
    degree r: free curves reach it and nearly free curves sit one below
    it.  For 2r >= d the du Plessis-Wall cap lies below it."""
    return (d - 1) * (d - r - 1) + r * r


def dpw_bounds(d: int, r: int) -> tuple[int, int]:
    """du Plessis-Wall interval for the global Tjurina number given r.

    The upper end is tau_max(d, r) lowered by choose2(2r+2-d), which is
    zero for 2r < d and one at d = 2r.
    """
    if d < 3 or not 1 <= r <= d - 1:
        raise ValueError("need d >= 3 and 1 <= r <= d-1")
    return (d - 1) * (d - r - 1), tau_max(d, r) - dim_choose2(2 * r + 2 - d)


def defect(d: int, r: int, tau: int) -> int:
    """e(f) = tau_max(d, r) - tau, the distance below the maximal value.

    Uses the uncapped formula value, so a nearly free curve has defect 1
    even when d = 2r.
    """
    return tau_max(d, r) - tau


@dataclass
class InvariantBundle:
    """The scalar invariants of one reduced curve, read from its profile.

    Its graded tables are functions of the profile: `profile.ar`,
    `profile.m`, `n_dim` and `delta_dim`.
    """

    profile: RankProfile
    r: int
    tau: int
    ct: int | None
    st: int

    @property
    def d(self) -> int:
        return self.profile.d

    @property
    def T(self) -> int:
        return 3 * (self.d - 2)


def compute_bundle(p: RankProfile) -> InvariantBundle:
    """The invariant bundle of a reduced curve, read from its profile.
    Raises NotReducedError for a non-reduced curve."""
    tau = tjurina(p)
    return InvariantBundle(p, mdr(p), tau, *thresholds(p))


def validate_bundle(b: InvariantBundle) -> None:
    """Re-assert every proved constraint; raise on any violation."""
    d, r, tau = b.d, b.r, b.tau
    if d >= 3 and 1 <= r <= d - 1:
        lo, hi = dpw_bounds(d, r)
        if not lo <= tau <= hi:
            raise InternalInconsistencyError(
                f"tau = {tau} outside [{lo}, {hi}] for d = {d}, r = {r}"
            )
    if r >= 1:
        floor = r + d - 2
        if b.ct is not None and b.ct < floor:
            raise InternalInconsistencyError(f"ct = {b.ct} below {floor}")
        if r < d - 1:
            if b.ct is None or b.ct != floor:
                raise InternalInconsistencyError(
                    f"ct = {b.ct} but equality ct = r+d-2 = {floor} is forced for r < d-1"
                )
        if b.ct is not None and b.ct + b.st < b.T:
            raise InternalInconsistencyError(
                f"ct + st = {b.ct + b.st} < T = {b.T}"
            )
    # n over all of [0, T], whatever the table degree; n_dim asserts n >= 0
    vals = [n_dim(d, j, tau, b.profile.ar) for j in range(b.T + 1)]
    mid = b.T // 2
    for i in range(len(vals) - 1):
        ascending = i < mid
        if ascending and vals[i] > vals[i + 1]:
            raise InternalInconsistencyError(
                f"n table not ascending below the midpoint: n_{i} > n_{i + 1}"
            )
        if not ascending and vals[i] < vals[i + 1]:
            raise InternalInconsistencyError(
                f"n table not descending above the midpoint: n_{i} < n_{i + 1}"
            )
