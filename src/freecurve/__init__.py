"""freecurve: exact Jacobian-syzygy invariants of reduced plane curves.

The package computes, over Q or large prime fields, the graded relation
dimensions of a plane curve's partial derivatives, the global Tjurina
number, Hilbert-function thresholds, saturation defects, and classifies
the curve as free, nearly free, or neither by three mutually
cross-checking criteria.  A line-arrangement module adds the intersection
lattice and the combinatorial rigidity test.
"""

from .arrangements import (
    LatticeSummary,
    LineSet,
    TeraoResult,
    arrangement_poly,
    intersection_lattice,
    interval_table,
    lattice_tjurina,
    terao_rigidity,
)
from .classify import (
    FREE,
    NEARLY_FREE,
    NEITHER,
    PENCIL_OF_LINES,
    SMOOTH,
    Classification,
    classify,
    cross_product,
    ctst_test,
    delta_test,
    free_pair,
    nearly_free_generators,
    pairing,
    saito_verify,
    tau_test,
)
from .errors import (
    FreecurveError,
    InputError,
    InternalInconsistencyError,
    NotReducedError,
    PolyParseError,
)
from .fields import GF, QQ, FieldPlan, PrimeField, RationalField
from .invariants import (
    InvariantBundle,
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
from .linalg import ExactMatrix, kernel_basis, rank, solve_exact
from .parser import parse_poly
from .poly import (
    Gradient,
    HomogPoly,
    choose2,
    dim_S,
    dim_choose2,
    monomial_basis,
    partials,
    poly_str,
)
from .report import analyze, render_json, render_text
from .syzygy import (
    RankProfile,
    Reducedness,
    Syzygy,
    jacobian_matrix,
    mdr,
    rank_jacobian,
    rank_profile,
    reducedness_check,
    syzygy_basis,
)

__version__ = "0.1.0"
