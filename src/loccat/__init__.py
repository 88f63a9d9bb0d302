"""Localisation of finitely presented categories with denominators."""

from .approximation import (
    ApproximationReport,
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
    squares,
    validate_functor,
)
from .equivalence import (
    CheckReport,
    GzSetting,
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
    LocalisedCategory,
    ZigzagSegment,
    ZigzagView,
    extend_to_localisation,
    induced_functor,
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
    ValidationError,
    identity_functor,
    opposite,
    validate_presentation,
)
from .replacement import (
    ReplacementCategory,
    ReplacementChoice,
    SReplacement,
    auto_choice,
    build_replacement_category,
    canonical_lift,
    find_s_replacements,
    has_enough,
    structure_choice_functor,
)
from .rewrite import (
    BOUNDED_INCOMPLETE,
    COMPLETE,
    DEFAULT_LIMITS,
    DenomDecider,
    ResourceLimits,
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
