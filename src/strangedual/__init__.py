"""Exact-arithmetic toolkit for the strange duality between the
quadrangle complete intersection singularities.

The package mechanizes the computations behind the duality: exact sparse
polynomial arithmetic, Berglund-Huebsch transposition of exponent
matrices, size-two matrix factorizations and their reduction, weighted
C*-action orbit analysis (Dolgachev numbers), Poincare series and
monodromy frame products, Coxeter-element characteristic polynomials,
and a fully verified catalog of the eight series.
"""

from ._errors import StrangedualError
from .polyring import (
    Monomial,
    Polynomial,
    QuasiFailure,
    format_poly,
    parse_poly,
    quasi_degree,
)
from .invertible import (
    DiagonalGroup,
    ExponentMatrix,
    GradingOperator,
    WeightSolution,
    bh_transpose,
    canonical_weights,
    from_terms,
    grading_operator,
    smith_normal_form,
    symmetry_group,
)
from .matfac import (
    CompleteIntersectionPair,
    FactorizationTriple,
    lift,
    reduce,
    verify_factorization,
)
from .series import (
    FrameProduct,
    UniPolynomial,
    WeightSystem,
    format_frame,
    frame_expand,
    frame_to_polynomial,
    or_polynomial,
    parse_frame,
    parse_weight_system,
    poincare,
    saito_dual,
)
from .coxeter import GabrielovQuadruple, charpoly_Pi, charpoly_S, emit_graph
from .orbits import (
    CStarAction,
    NewtonSplit,
    OrbitRep,
    classify_case,
    dolgachev_pair,
    exceptional_orbits,
    split_newton,
)
from .catalog import (
    Catalog,
    SeriesEntry,
    load_catalog,
    verify_all,
    verify_entry,
)

__version__ = "1.0.0"
