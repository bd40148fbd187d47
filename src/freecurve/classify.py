"""Free / nearly free classification by three cross-checking criteria.

A reduced singular curve with minimal relation degree r is classified
three independent ways: by comparing its global Tjurina number against
the maximal value for its r, by the sum of its coincidence and stability
thresholds, and by the quotient dimensions delta.  The three verdicts are
theorems of one another, so any disagreement aborts every analysis
(exit 3).  Free verdicts are then verified structurally through the
exterior pairing of syzygies (a Saito-style determinant check) and nearly
free verdicts by exhibiting the three generating syzygies and matching
the graded dimensions of the module they span at every degree of the
profile.  A failed structural check is reported as `verified: false`,
not raised; `freecurve corpus` is what fails a curve for it.  The
generators after the minimal relation rho1 are the kernel vectors that
lie outside the multiples S * rho1.  The profile decides where the
kernels come from, in one code path for every field (`RankProfile.kernel`
and `RankProfile.syzygy`): over Q the primitive integer vectors the
certificate lifted, lifted on demand where its bounds met, over a prime
the canonical ones mod p, their residues held as plain ints.  The checks
read the profile's one integer gradient (`RankProfile.grad`) and take
their field as an argument: every polynomial lives over Q, and a check
over a prime reduces its integer coefficients inside its arrays
(`multiples`) and its exact sums once.  Every number the
criteria read comes from the curve's invariant bundle; only the
structural checks build syzygies, once per verdict over the bundle's
field plan.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInconsistencyError
from .fields import Field, QQ
from .linalg import ExactMatrix, solve_exact
from .poly import Gradient, HomogPoly, dim_choose2
from .invariants import InvariantBundle, delta_dim, tau_max
from .syzygy import RankProfile, Syzygy, multiples, outside_span, syzygy_basis

FREE = "Free"
NEARLY_FREE = "NearlyFree"
NEITHER = "Neither"
SMOOTH = "Smooth"
PENCIL_OF_LINES = "PencilOfLines"


@dataclass(frozen=True)
class Classification:
    """Verdict plus the evidence that produced it.

    `criteria` maps each test name to whether it returned the final
    verdict (always all True when present, since disagreement aborts);
    `verified` records the structural check for Free / NearlyFree verdicts
    and is None when no structural check applies.
    """

    verdict: str
    exponents: tuple[int, int] | None
    criteria: dict[str, bool] | None
    symmetry_flag: bool
    verified: bool | None


def tau_test(d: int, r: int, tau: int) -> str:
    """Classification by the Tjurina number alone."""
    if r < 1:
        raise ValueError("requires r >= 1")
    top = tau_max(d, r)
    if 2 * r < d and tau == top:
        return FREE
    if 2 * r <= d and tau == top - 1:
        return NEARLY_FREE
    return NEITHER


def ctst_test(ct: int | None, st: int, d: int) -> str:
    """Classification by ct + st against T = 3(d-2).

    The values T+1 and anything below T are impossible for a reduced
    singular curve, so they abort.
    """
    if ct is None:
        raise ValueError("ct is infinite; smooth curves are handled upstream")
    T = 3 * (d - 2)
    total = ct + st
    if total == T:
        return FREE
    if total == T + 2:
        return NEARLY_FREE
    if total >= T + 3:
        return NEITHER
    raise InternalInconsistencyError(
        f"ct + st = {total} with T = {T}: the values T+1 and below T cannot occur"
    )


def delta_test(p: RankProfile, r: int) -> str:
    """Classification by the quotient dimensions delta at d-r-1 and d-r."""
    if r < 1:
        raise ValueError("requires r = mdr(f) >= 1")
    d = p.d
    at_gap = delta_dim(p, d - r - 1, r)
    if at_gap >= 1:
        if at_gap != 1:
            raise InternalInconsistencyError(
                f"delta_{d - r - 1} = {at_gap}; a free curve must have exactly 1"
            )
        if 2 * r >= d:
            raise InternalInconsistencyError(
                f"free verdict with 2r = {2 * r} >= d = {d} is impossible"
            )
        return FREE
    if delta_dim(p, d - r, r) >= 2:
        if 2 * r > d:
            raise InternalInconsistencyError(
                f"nearly free verdict with 2r = {2 * r} > d = {d} is impossible"
            )
        return NEARLY_FREE
    return NEITHER


def cross_product(rho, rho2) -> tuple[HomogPoly, HomogPoly, HomogPoly]:
    """Componentwise exterior product of two polynomial triples."""
    a, b, c = rho
    a2, b2, c2 = rho2
    return (b * c2 - b2 * c, c * a2 - c2 * a, a * b2 - a2 * b)


def pairing(rho, rho2, grad: Gradient, field: Field = QQ) -> HomogPoly:
    """The unique h with rho x rho2 = h * grad over `field`, for `grad` the
    gradient of the curve or a nonzero multiple of it, such as
    `RankProfile.grad`.  The cross product is taken over Q, in integers
    for integer triples; over a prime, where the triples and `grad` must be
    integral (residues, say), `multiples` reduces it mod p, h holds
    residues in [0, p), and h * grad - rho x rho2 is checked mod p.

    h exists for any two genuine relations of a reduced curve; an
    inconsistent solve therefore signals corrupted inputs and aborts.
    The result lives in degree deg(rho) + deg(rho2) - (d-1).  Paired
    against a minimal relation rho1, h vanishes on the multiples of rho1.
    """
    p = field.char
    cross = cross_product(rho, rho2)
    q = cross[0].degree - grad[0].degree
    if q < 0:
        if all(_vanishes(comp, p) for comp in cross):
            return HomogPoly.zero(0)
        raise InternalInconsistencyError(
            "exterior product nonzero in a degree below the gradient degree"
        )
    # h * grad and the cross product, read off in the layout of `multiples`
    system = multiples([grad], cross[0].degree, field).transpose()
    (rhs,) = multiples([cross], cross[0].degree, field).row_lists()
    solution = solve_exact(system, rhs)
    if solution is None:
        raise InternalInconsistencyError(
            "exterior product of two relations is not a multiple of the "
            "gradient; inputs cannot both lie in the relation module"
        )
    h = HomogPoly.from_vector(q, solution)
    for g_comp, c_comp in zip(grad, cross):
        if not _vanishes(h * g_comp - c_comp, p):
            raise InternalInconsistencyError("pairing verification failed")
    return h


def _vanishes(poly: HomogPoly, p: int) -> bool:
    """Whether poly is 0 over Q (p = 0), or its integer coefficients mod p."""
    return all(c % p == 0 for c in poly.terms.values()) if p else poly.is_zero()


def saito_verify(grad: Gradient, rho1, rho2, field: Field = QQ) -> bool:
    """Determinant test for a candidate free pair over `field` (`grad` and
    the field as in `pairing`).

    Requires deg(rho1) + deg(rho2) = d - 1, which forces the pairing into
    degree 0; the pair generates freely exactly when that constant is
    nonzero.
    """
    if rho1[0].degree + rho2[0].degree != grad[0].degree:
        raise ValueError("syzygy degrees must add up to d - 1")
    return not pairing(rho1, rho2, grad, field).is_zero()


def nearly_free_resolution_dim(d: int, r: int, k: int) -> int:
    """Graded dimension of the module generated by syzygies of degrees
    (r, d-r, d-r) subject to a single relation in degree d-r+1."""
    return (
        2 * dim_choose2(k - d + r + 2)
        + dim_choose2(k - r + 2)
        - dim_choose2(k - d + r + 1)
    )


def _generators(p: RankProfile, r: int, degree: int, count: int, field: Field) -> tuple[Syzygy, ...]:
    """The minimal-degree relation rho1, then the `count` vectors of the
    kernel basis of AR(f)_degree that lie outside S_(degree-r) * rho1; any
    other count aborts.  The kernels are `RankProfile.kernel`'s, and the
    triples `RankProfile.syzygy`'s: over Q primitive integer triples, over a
    prime canonical ones, verified."""
    basis = syzygy_basis(p, r, field)
    if not basis:
        raise ValueError(f"no relation in degree {r}; is r really mdr(f)?")
    rho1 = basis[0]
    kernel = p.kernel(degree, field)
    picked = outside_span(multiples([rho1], degree, field), ExactMatrix.from_rows(field, kernel))
    if len(picked) != count:
        raise InternalInconsistencyError(
            f"complement of the minimal relation in degree {degree} has "
            f"dimension {len(picked)}, expected {count}"
        )
    return (rho1, *(p.syzygy(degree, kernel[i], field) for i in picked))


def nearly_free_generators(p: RankProfile, r: int, field: Field = QQ) -> tuple[Syzygy, Syzygy, Syzygy]:
    """The three generating syzygies of the nearly free curve of profile p:
    rho1 of degree r, then rho2, rho3 of degree d-r, the kernel vectors
    outside S_(d-2r) * rho1, canonical over a prime, and over Q primitive
    integer multiples of the canonical ones.  That they generate is
    certified separately, from the rank profile (`resolution_matches`)."""
    return _generators(p, r, p.d - r, 2, field)


def resolution_matches(p: RankProfile, r: int) -> bool:
    """Whether ar(f)_k equals the dimension of the module generated by
    nearly free generators of degrees (r, d-r, d-r), at every degree of
    the profile."""
    return all(p.ar(k) == nearly_free_resolution_dim(p.d, r, k) for k in range(len(p.ranks)))


def free_pair(p: RankProfile, r: int, field: Field = QQ) -> tuple[Syzygy, Syzygy]:
    """The generating pair (degrees r and d-1-r) of the free curve of
    profile p, scaled as in `nearly_free_generators`."""
    return _generators(p, r, p.d - 1 - r, 1, field)


def _structure_ok(p: RankProfile, r: int, verdict: str, field: Field) -> bool:
    """Structural check of a Free or NearlyFree verdict over one field."""
    try:
        if verdict == FREE:
            return saito_verify(p.grad, *free_pair(p, r, field), field)
        nearly_free_generators(p, r, field)
        return True
    except InternalInconsistencyError:
        return False


def classify(b: InvariantBundle) -> Classification:
    """Run the full decision pipeline on the invariants of a reduced curve.

    Unions of concurrent lines (r = 0) and smooth curves (tau = 0)
    short-circuit; otherwise all three criteria run and must agree, the
    exponents are attached, and the verdict-specific structural
    verification is run once, agreed over the profile's field plan.
    """
    p = b.profile
    d, r, tau = b.d, b.r, b.tau
    if r == 0:
        return Classification(PENCIL_OF_LINES, None, None, False, None)
    if tau == 0:
        return Classification(SMOOTH, None, None, r == 1, None)
    verdicts = {
        "tau_test": tau_test(d, r, tau),
        "ctst_test": ctst_test(b.ct, b.st, d),
        "delta_test": delta_test(p, r),
    }
    if len(set(verdicts.values())) != 1:
        raise InternalInconsistencyError(
            "criteria disagree, which falsifies the implementation: "
            + ", ".join(f"{k} = {v}" for k, v in verdicts.items())
            + f" (d = {d}, r = {r}, tau = {tau}, ct = {b.ct}, st = {b.st})"
        )
    verdict = verdicts["tau_test"]
    exponents: tuple[int, int] | None = None
    verified: bool | None = None
    if verdict in (FREE, NEARLY_FREE):
        exponents = (r, d - 1 - r) if verdict == FREE else (r, d - r)
        verified = (verdict == FREE or resolution_matches(p, r)) and p.plan.agree(
            lambda F: _structure_ok(p, r, verdict, F)
        )
    criteria = {name: v == verdict for name, v in verdicts.items()}
    return Classification(verdict, exponents, criteria, r == 1, verified)
