"""Subword complexity, periodic decompositions, power avoidance, and length
bounds for matrix algebras over prime fields."""

from .algebra import (
    CapExceeded,
    GeneratorSet,
    IndexOutOfRange,
    LengthTrace,
    LiwResult,
    SearchBudgetExceeded,
    check_irreducible_power_free,
    check_liw_complexity,
    estimate_m_star,
    is_reducible,
    length_trace,
    liw,
)
from .bounds import (
    BestMain,
    BoundReport,
    InvalidInputs,
    PappacenaBound,
    best_main_bound,
    bound_table,
    halfdim_bound,
    main_bound,
    pappacena_exceeds_main,
    paz_bound,
)
from .linalg import (
    DimensionMismatch,
    DivisionByZero,
    FMatrix,
    MinPoly,
    NoShiftFound,
    PrimeField,
    ShiftResult,
    SpanBasis,
    dump_matrix_set,
    load_matrix_set,
    min_poly,
    shift_to_invertible,
)
from .oracles import (
    BudgetExceeded,
    LengthTooLarge,
    WordSpace,
    brute_length,
    brute_min_qpt,
    enumerate_words,
    naive_profile,
)
from .powers import (
    EmptyWord,
    Exponent,
    HypothesisUnmet,
    InvalidExponent,
    TcReport,
    avoids,
    max_factor_exponent,
    minimal_period,
    verify_tc,
    verify_tc_integer,
)
from .structure import (
    LengthMismatch,
    PreconditionUnmet,
    ProfileShape,
    QptDecomposition,
    RangeViolation,
    ShapeViolation,
    corollary_max_profile,
    decompose_check,
    mh_equivalence,
    mh_general_equivalence,
    minimal_qpt,
    profile_shape,
)
from .words import (
    Alphabet,
    ComplexityProfile,
    DenominatorMismatch,
    EmptyFactor,
    FracExponent,
    LengthOutOfRange,
    SuffixAutomaton,
    UnknownToken,
    Word,
    border_array,
    complexity_profile,
    count_distinct_factors,
    factor_count,
    fractional_power,
    is_repeated,
    is_right_special,
    parse_word,
)

__version__ = "0.1.0"
