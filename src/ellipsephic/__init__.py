"""Exact counting for Vinogradov-type systems over digit-restricted integer sets."""

from .errors import BudgetError, EllipsephicError, InvariantError, ValidationError
from .digits import (
    DigitSet,
    DigitSource,
    EtStarReport,
    MemberSet,
    RepProfile,
    count_members,
    digit_set_text,
    et_star_report,
    is_member,
    iter_members,
    parse_digit_set,
    rep_profile,
)
from .meanvalue import (
    Budget,
    CountResult,
    FitResult,
    SpacedSystem,
    WeightAssignment,
    brute_force_count,
    diagonal_count,
    fit_exponent,
    key_hex,
    lower_bound_reference,
    mitm_count,
    multiplicity_table,
)
from .congruence import (
    GridPoint,
    MeanValueSpec,
    RefinementCheck,
    RestrictionRatio,
    class_norms,
    class_refinement_check,
    congruence_mean_value,
    discrete_integral,
    normalized_two_class,
    restricted_exp_sum,
    restriction_ratio,
    two_class_mean_value,
)
from .lifting import (
    CarrySets,
    CarryTuple,
    Decomposition,
    LiftingChain,
    carry_decomposition,
    carry_sets,
    carry_tuple_for_pair,
    lifting_chain,
    sum_congruence_count,
    unit_tuple_weights,
)
from .waring import (
    CauchyCheck,
    RepresentationTable,
    cauchy_bound_check,
    integer_root,
    representation_table,
    represented_count,
)

__version__ = "0.1.0"
