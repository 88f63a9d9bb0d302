"""Localisation of finitely presented categories with denominators."""

from .approximation import (
    ApproximationReport,
    LocValuedFunctor,
    choice_independence,
    induced_replacement_functor,
    replacement_functor,
    total_replacement_functor,
    total_value,
    verify_approximation,
    verify_denominator_values,
    verify_shortening,
)
from .axioms import (
    check_isosaturated,
    check_multiplicative,
    check_reflects_denominators,
    check_transformation,
    validate_functor,
)
from .equivalence import (
    CheckReport,
    GzSetting,
    STwoArrow,
    check_s_dense,
    check_s_equivalence,
    check_s_faithful,
    check_s_full,
    classical_equivalence,
    enumerate_s_two_arrows,
    prepare,
    solve_fill,
)
from .fileio import ParseError, load_cat, load_choice, load_functor
from .gz import (
    GzMorphism,
    LocalisedCategory,
    ZigzagSegment,
    ZigzagView,
    extend_to_localisation,
    gz_compose,
    gz_identity,
    gz_inverse,
    induced_functor,
    induced_transformation,
    loc_map,
    localise,
    zigzag_view,
)
from .presentation import (
    CatPresentation,
    CatWithDenoms,
    ConstructionError,
    DenomSet,
    FunctorData,
    GenArrow,
    LimitExceeded,
    LoccatError,
    PathWord,
    PreconditionError,
    Relation,
    TransformationData,
    ValidationError,
    identity_functor,
    opposite,
    validate_cat_with_denoms,
    validate_presentation,
)
from .replacement import (
    ReplacementCategory,
    ReplacementChoice,
    SReplacement,
    auto_choice,
    build_replacement_category,
    canonical_lift,
    compose_replacement,
    find_s_replacements,
    forgetful,
    has_all_trivial,
    has_enough,
    structure_choice_functor,
    validate_choice,
)
from .rewrite import (
    BOUNDED_INCOMPLETE,
    COMPLETE,
    DEFAULT_LIMITS,
    DenomDecider,
    ResourceLimits,
    RewriteRule,
    RewriteSystem,
    complete,
    denominators,
    equal,
    find_inverse,
    homset,
    normalize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
