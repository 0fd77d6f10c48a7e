"""The package's public surface, pinned name by name."""

import types

import ncindep

# Every public name of ``ncindep`` except its submodules, sorted.  Adding or
# dropping a public name is a one-line edit here.
PUBLIC_NAMES = [
    "AlgebraSignature",
    "Axiom",
    "AxiomFailure",
    "AxiomReport",
    "DegreeExceeded",
    "EMPTY_WORD",
    "EngineError",
    "ExpressionError",
    "FiniteProbSpace",
    "Homomorphism",
    "IndependenceVerdict",
    "JointFunctional",
    "MomentFunctional",
    "Monomial",
    "Polynomial",
    "ProductKind",
    "QDeformed",
    "RandomVariable",
    "Rational",
    "ReducedWord",
    "ReductionCheck",
    "ReductionKind",
    "RegimeMismatch",
    "Slot",
    "StateDocumentError",
    "Word",
    "all_monomials",
    "apply_homomorphism",
    "as_rational",
    "concat_words",
    "dump_state",
    "embed_word",
    "enumerate_words",
    "eval_functional",
    "eval_graded_tensor",
    "expected_outcome",
    "format_expression",
    "format_rational",
    "format_word",
    "free_centering_oracle",
    "gen_random_homomorphism",
    "gen_random_state",
    "gen_random_word",
    "independence_equivalence",
    "joint_variable",
    "kind_label",
    "load_state",
    "normalize_word",
    "parse_expression",
    "parse_kind_label",
    "parse_rational",
    "product_space",
    "product_state",
    "projections",
    "pullback",
    "pushforward",
    "reduction_sweep",
    "run_axiom_suite",
    "scale",
    "single_block_word",
    "state_from_json",
    "state_to_json",
    "sum_moment",
    "tensor_value",
    "unitize",
    "verify_reduction",
    "word_degree",
]


def test_the_public_names_are_pinned():
    """Submodules are left out: which of them are attributes depends on
    what else has been imported."""
    names = sorted(name for name, value in vars(ncindep).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
