"""Exact-arithmetic engine for the universal notions of noncommutative
independence: tensor, free, boolean, monotone, anti-monotone, their
degenerate and q-deformed relatives, graded (Fermi) independence, and the
reductions that express the exotic products through the ordinary tensor
product.  Everything is computed over exact rationals; nothing is floated.
"""

from .algebra import (
    AlgebraSignature,
    EMPTY_WORD,
    Homomorphism,
    Monomial,
    Polynomial,
    Word,
    all_monomials,
    apply_homomorphism,
    concat_words,
    normalize_word,
    single_block_word,
    word_degree,
)
from .axioms import (
    Axiom,
    AxiomFailure,
    AxiomReport,
    enumerate_words,
    expected_outcome,
    gen_random_homomorphism,
    gen_random_state,
    gen_random_word,
    run_axiom_suite,
)
from .classical import (
    FiniteProbSpace,
    IndependenceVerdict,
    RandomVariable,
    independence_equivalence,
    joint_variable,
    product_space,
    projections,
    pushforward,
)
from .errors import (
    DegreeExceeded,
    EngineError,
    ExpressionError,
    RegimeMismatch,
    StateDocumentError,
)
from .moments import (
    MomentFunctional,
    dump_state,
    eval_functional,
    load_state,
    pullback,
    scale,
    state_from_json,
    state_to_json,
    unitize,
)
from .parsing import format_expression, format_word, parse_expression
from .products import (
    JointFunctional,
    ProductKind,
    QDeformed,
    eval_graded_tensor,
    free_centering_oracle,
    kind_label,
    parse_kind_label,
    product_state,
    sum_moment,
)
from .rational import Rational, as_rational, format_rational, parse_rational
from .reductions import (
    ReducedWord,
    ReductionCheck,
    ReductionKind,
    Slot,
    embed_word,
    reduction_sweep,
    tensor_value,
    verify_reduction,
)

__version__ = "0.1.0"
