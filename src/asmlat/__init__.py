"""Alternating sign matrices: lattice order, inversion statistics, enumeration."""

from .core import (
    Asm,
    AsmError,
    BadPartialSum,
    BadTotalSum,
    CornerSumMatrix,
    EntryOutOfRange,
    IndexOutOfRange,
    InvalidCornerSums,
    NotAPermutation,
    NotSquare,
    Permutation,
    SizeMismatch,
    corner_sum,
    dual,
    from_corner_sum,
    from_permutation,
    identity,
    minus_count,
    to_permutation,
    transpose,
    validate,
)
from .enumeration import (
    HasseGraph,
    TooLarge,
    bivariate_genfun,
    build_hasse,
    count_formula,
    enumerate_asms,
    genfun_stat,
    iter_asms,
    signed_identity_check,
)
from .polynomials import BivariatePolynomial, HalfIntPolynomial
from .poset import (
    CoverEdge,
    NotAnExchangeBlock,
    Ordering,
    classify_cover_type,
    compare,
    covers_down,
    covers_up,
    enumerate_bigrassmannians,
    is_bigrassmannian,
    is_join_irreducible,
    join,
    meet,
    try_cover,
)
from .stats import (
    Inversion,
    StatRecord,
    beta,
    beta_corner,
    beta_row_weighted,
    beta_weighted,
    dual_inversion_number,
    inversion_list,
    inversion_number,
    local_weak_contribution,
    stat_record,
    weak_inversion,
    weak_inversion_twice,
)
from .verify import VerifyReport, beta_poset_oracle, rank_by_chain, verify

__version__ = "0.1.0"
