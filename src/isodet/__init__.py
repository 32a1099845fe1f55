"""Exact computation with the rank / isotropic-rank stratification of
e-by-f matrix spaces carrying a non-degenerate bilinear form on the
column side: classification, representatives, dimensions, defining
equations and a desk-scale verification harness over small finite fields
and the rationals."""

from . import errors
from .fields import (
    Field,
    PrimeField,
    QuadraticExtensionField,
    RationalField,
    field_create,
    field_from_json,
)
from .linalg import Matrix, echelon, random_invertible, random_matrix
from .forms_orbits import (
    ALTERNATING,
    SYMMETRIC,
    BilinearForm,
    OrbitFacts,
    OrbitParams,
    SpaceConfig,
    classify,
    closure_leq,
    codimension,
    dimension,
    facts,
    gram_map,
    hyperbolic_swap,
    isotropic_rank,
    params_valid,
    random_isometry,
    random_orbit_point,
    representative,
    solve_congruence,
    split_config,
    tangent_dimension,
    valid_params,
)
from .equations import (
    Generator,
    GeneratorSet,
    Polynomial,
    StarOperator,
    component_generators,
    generic_gram_map,
    generators_for,
    generic_matrix,
    minor_polynomial,
    poly_det,
    poly_pfaffian,
    rank_condition_generators,
    rebuild_generator,
    star_operator,
)

__version__ = "0.1.0"

# The verify harness is loaded on first use (PEP 562), so importing the
# package, or the CLI for any other command, does not compile it.
_VERIFY_NAMES = frozenset({
    "DEFAULT_BUDGET",
    "VerificationReport",
    "check_closure_order",
    "check_dimensions",
    "check_equation_cut",
    "classification_table",
    "exhaustive_census",
    "point_count_dimension_estimate",
    "run_all",
})


def __getattr__(name):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
