"""Mutation gate: how many one-edit faults the named tests catch.

Each mutant below is one exact text edit of one source file (its old text
must occur there exactly once) and either the ids of the tests expected to
kill it or, for an edit that changes no result, the reason it cannot be
killed.  For each mutant the tree is copied to a temporary directory, the
edit is made in the copy, and the named tests run there, stopping at the
first failure; a mutant is killed when a named test fails.  For an
equivalent mutant only its old text is looked for, so that the record is
kept current.  The named tests run first on an unedited copy, where all of
them must pass, so that a kill is the edit's doing.  Nothing in the
working tree is edited.

Usage, from anywhere (standard library and pytest only)::

    python3 mutants/run.py

Prints one line per mutant (killed, SURVIVED or equivalent, and the
seconds the run took), then the kill rate over the mutants that are not
equivalent.  Exits 1 when such a mutant survives, when an old text no
longer matches, or when the named tests fail on the unedited tree.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    killers: tuple
    equivalent: str = ""  # why the edit changes no result, for a mutant no test can kill


MUTANTS = (
    # the sweep proves a word once per table and values each open word
    Mutant(
        "proof-ignores-sign-bit", "src/ncindep/reductions.py",
        "if negative ^ tensor_negative or sorted(segments) != sorted(runs):",
        "if sorted(segments) != sorted(runs):",
        ("tests/test_reductions.py::test_proved_words_agree_on_both_public_routes",
         "tests/test_reductions.py::test_sweeps_without_the_proof_give_the_same_results"),
    ),
    Mutant(
        "proof-compares-sets", "src/ncindep/reductions.py",
        "sorted(segments) != sorted(runs)",
        "set(segments) != set(runs)",
        (),
        "a sweep joins two factors, and under a padding product each factor's segments, as each "
        "factor's runs under a reduction, are either all its blocks or their one concatenation; "
        "two such lists with one set are equal",
    ),
    Mutant(
        "sweep-skips-open-words", "src/ncindep/reductions.py",
        "for word, image in table.open:",
        "for word, image in ():",
        ("tests/test_reductions.py::test_sweep_verdicts_under_wrong_products_are_pinned",),
    ),
    Mutant(
        "open-image-drops-sign", "src/ncindep/reductions.py",
        "ReducedWord(-ONE if tensor_negative else ONE, slots)",
        "ReducedWord(ONE, slots)",
        ("tests/test_reductions.py::test_sweep_verdicts_under_wrong_products_are_pinned",),
    ),
    Mutant(
        "tensor-value-drops-sign", "src/ncindep/reductions.py",
        "return reduced.sign * math.prod(",
        "return math.prod(",
        ("tests/test_reductions.py::test_fermi_route_matches_on_the_signed_word",
         "tests/test_acceptance.py::test_criterion_3_reductions_agree_with_their_products"),
    ),
    Mutant(
        "sweep-counts-open-words-only", "src/ncindep/reductions.py",
        "checked += table.count",
        "checked += len(table.open)",
        ("tests/test_reductions.py::test_sweep_verdicts_under_wrong_products_are_pinned",),
    ),
    # one slot multiplication holds the fermi sign rule
    Mutant(
        "fermi-sign-reads-the-other-slot", "src/ncindep/reductions.py",
        "negative ^= left.gpow & right.degree",
        "negative ^= left.degree & right.gpow",
        ("tests/test_reductions.py::test_fermi_embedding_marks_earlier_slots_of_odd_letters",
         "tests/test_reductions.py::test_split_pair_agrees_with_the_word_embedding",
         "tests/test_reductions.py::test_the_shipped_reductions_leave_no_word_open"),
    ),
    # the letter table is data: one pair of marks per reduction kind
    Mutant(
        "monotone-marks-like-boolean", "src/ncindep/reductions.py",
        "ReductionKind.MONOTONE: (_ONE, _PMARK),",
        "ReductionKind.MONOTONE: (_PMARK, _PMARK),",
        ("tests/test_reductions.py::test_one_letter_embeddings_are_the_docstring_table",
         "tests/test_reductions.py::test_the_letter_marks_agree_with_the_product_records",
         "tests/test_reductions.py::test_the_shipped_reductions_leave_no_word_open"),
    ),
    # a product of products is a product over the inner product's state
    Mutant(
        "product-state-letters-reversed", "src/ncindep/products.py",
        "for digit in reversed(digits):",
        "for digit in digits:",
        ("tests/test_products.py::test_four_factors_nest_both_ways_as_the_flat_product[tensor]",
         "tests/test_products.py::test_product_state_entries_are_the_joint_values[tensor]"),
    ),
    Mutant(
        "regroup-skips-merge", "src/ncindep/algebra.py",
        "_append(out, (group[factor], letters))",
        "out.append((group[factor], letters))",
        ("tests/test_algebra.py::test_regroup_merges_the_blocks_that_meet_in_one_group",),
    ),
    # what a kind is lives in its one record
    Mutant(
        "monotone-splits-like-anti-monotone", "src/ncindep/products.py",
        "_Rule(lambda j, k: j < k,",
        "_Rule(lambda j, k: j > k,",
        ("tests/test_products.py::test_monotone_value_gathers_the_first_factor",
         "tests/test_products.py::test_anti_monotone_is_the_mirror_of_monotone"),
    ),
    Mutant(
        "anti-monotone-splits-like-boolean", "src/ncindep/products.py",
        "_Rule(lambda j, k: j > k,",
        "_Rule(lambda j, k: True,",
        ("tests/test_products.py::test_anti_monotone_value_gathers_the_second_factor",
         "tests/test_products.py::test_anti_monotone_is_the_mirror_of_monotone",
         "tests/test_reductions.py::test_the_letter_marks_agree_with_the_product_records"),
    ),
    Mutant(
        "fermi-not-graded", "src/ncindep/products.py",
        "graded=True",
        "graded=False",
        ("tests/test_products.py::test_odd_odd_interchange_flips_the_sign",
         "tests/test_products.py::test_sum_moment_transforms_match_word_enumeration[fermi-False]"),
    ),
    Mutant(
        "tensor-splits-like-boolean", "src/ncindep/products.py",
        "ProductKind.TENSOR: _Rule(lambda j, k: False,",
        "ProductKind.TENSOR: _Rule(lambda j, k: True,",
        ("tests/test_products.py::test_tensor_value_multiplies_per_factor_products",),
    ),
    Mutant(
        "boolean-gathers-like-tensor", "src/ncindep/products.py",
        "ProductKind.BOOLEAN: _Rule(lambda j, k: True,",
        "ProductKind.BOOLEAN: _Rule(lambda j, k: False,",
        ("tests/test_products.py::test_boolean_value_is_product_of_letter_moments",),
    ),
    Mutant(
        "free-run-bound-dropped", "src/ncindep/products.py",
        "sums=_free_cumulants, max_runs=MAX_FREE_RUNS)",
        "sums=_free_cumulants)",
        ("tests/test_products.py::test_free_words_of_too_many_runs_are_refused_before_any_work[ProductKind.FREE-True]",
         "tests/test_products.py::test_free_words_of_too_many_runs_are_refused_before_any_work[kind1-False]"),
    ),
    # the suite's expected outcomes are read from the record
    Mutant(
        "degenerate-factorizes", "src/ncindep/products.py",
        "_Rule(_Degenerate, factorizes=False,",
        "_Rule(_Degenerate, factorizes=True,",
        ("tests/test_axioms.py::test_scaled_and_degenerate_kinds_are_expected_to_break_factorization",),
    ),
    Mutant(
        "deformation-always-factorizes", "src/ncindep/products.py",
        "factorizes=kind.q == ONE",
        "factorizes=True",
        ("tests/test_axioms.py::test_scaled_and_degenerate_kinds_are_expected_to_break_factorization",),
    ),
    Mutant(
        "symmetry-ignores-mirror", "src/ncindep/axioms.py",
        "return rule.mirror is None",
        "return True",
        ("tests/test_axioms.py::test_one_sided_kinds_are_expected_to_break_symmetry",),
    ),
    # the laws run on integer-graded inputs
    Mutant(
        "graded-power-one-too-high", "src/ncindep/moments.py",
        "powers = [D**length for length in range(phi.max_degree + 1)]",
        "powers = [D**(length + 1) for length in range(phi.max_degree + 1)]",
        ("tests/test_moments.py::test_lazy_grading_makes_the_entries_it_reads_as_ints",),
    ),
    Mutant(
        "pullback-drops-denominator", "src/ncindep/moments.py",
        "return num if den == 1 else Rational(num, den)",
        "return num",
        ("tests/test_moments.py::test_pullbacks_of_integer_inputs_are_ints",),
    ),
    Mutant(
        "witness-values-from-graded-inputs", "src/ncindep/axioms.py",
        "drawn = functools.cache(lambda: law(states, homs))",
        "drawn = functools.cache(lambda: graded)",
        ("tests/test_axioms.py::test_factorization_fails_by_exactly_inverse_q_for_the_deformation",
         "tests/test_axioms.py::test_reports_are_pinned_bit_for_bit"),
    ),
    Mutant(
        "free-unit-seed-zero", "src/ncindep/products.py",
        "self._values: dict = {(): 1}",
        "self._values: dict = {(): 0}",
        ("tests/test_products.py::test_empty_word_is_the_unit_in_the_unital_regime",
         "tests/test_products.py::test_evaluate_returns_a_fraction_for_every_word"),
    ),
    # bare words have one home
    Mutant(
        "words-first-letter-fastest", "src/ncindep/algebra.py",
        "layer = [_join(word, letter) for word in layer for letter in letters]",
        "layer = [_join(word, letter) for letter in letters for word in layer]",
        ("tests/test_reductions.py::test_bare_words_are_the_normalized_letter_sequences",),
    ),
    Mutant(
        "collect-keeps-zero-sums", "src/ncindep/algebra.py",
        "        if total:\n            acc[word] = total",
        "        if True:\n            acc[word] = total",
        ("tests/test_algebra.py::test_homomorphisms_expand_as_products_of_block_images",),
    ),
    # the public constructors convert nothing
    Mutant(
        "signature-coerces-degree", "src/ncindep/algebra.py",
        "gens = tuple((n, d) for n, d in self.generators)",
        "gens = tuple((n, int(d)) for n, d in self.generators)",
        ("tests/test_algebra.py::test_public_constructors_convert_nothing",),
    ),
    Mutant(
        "word-coerces-factor", "src/ncindep/algebra.py",
        "blocks = tuple((f, m) for f, m in self.blocks)",
        "blocks = tuple((int(f), m) for f, m in self.blocks)",
        ("tests/test_algebra.py::test_public_constructors_convert_nothing",),
    ),
    # one path per check
    Mutant(
        "bare-skips-algebra-check", "src/ncindep/algebra.py",
        "if monomial.algebra != algebras[factor]:",
        "if False:",
        ("tests/test_products.py::test_word_factor_validation",),
    ),
    Mutant(
        "bare-factor-bound-off-by-one", "src/ncindep/algebra.py",
        "if factor >= len(algebras):",
        "if factor > len(algebras):",
        ("tests/test_products.py::test_word_factor_validation",),
    ),
    Mutant(
        "eval-functional-skips-check", "src/ncindep/moments.py",
        "blocks = _bare(word, (phi.algebra,))",
        "blocks = tuple((factor, monomial.letters) for factor, monomial in word.blocks)",
        ("tests/test_moments.py::test_eval_functional_values_only_words_on_its_factor",),
    ),
    Mutant(
        "lookup-miss-reads-zero", "src/ncindep/moments.py",
        "raise DegreeExceeded(Monomial(self.algebra, letters), self.max_degree)",
        "return ZERO",
        ("tests/test_cli.py::test_words_beyond_the_table_bound_are_degree_errors",),
    ),
    Mutant(
        "check-dispatch-swapped", "src/ncindep/cli.py",
        'if args.target == "reduction":',
        'if args.target != "reduction":',
        ("tests/test_cli.py::test_check_axiom_pass_is_exit_zero",),
    ),
    Mutant(
        "polynomial-valued-while-checked", "src/ncindep/products.py",
        "terms = [(self._check(word), coeff) for word, coeff in polynomial.items()]",
        "terms = ((self._check(word), coeff) for word, coeff in polynomial.items())",
        ("tests/test_products.py::test_word_factor_validation",),
    ),
    # sums add cumulants, and compose only what reaches the result
    Mutant(
        "compose-truncates-one-too-many", "src/ncindep/products.py",
        "for k in range(1, len(f) - j)]",
        "for k in range(1, len(f) - j - 1)]",
        ("tests/test_products.py::test_compose_equals_the_full_composition",
         "tests/test_products.py::test_sum_moment_transforms_match_word_enumeration[monotone-False]"),
    ),
    Mutant(
        "fermi-sum-drops-odd-group", "src/ncindep/products.py",
        "if not run[2]] + [(group, 1, False)])",
        "if not run[2]])",
        ("tests/test_products.py::test_sum_moment_transforms_match_word_enumeration[fermi-False]",
         "tests/test_products.py::test_runs_of_copies_match_word_enumeration[fermi]"),
    ),
    Mutant(
        "tensor-cumulants-unweighted", "src/ncindep/products.py",
        "sums=partial(_cumulants, weight=math.comb)",
        "sums=partial(_cumulants, weight=lambda n, j: 1)",
        ("tests/test_products.py::test_sum_moment_transforms_match_word_enumeration[tensor-False]",
         "tests/test_products.py::test_runs_of_copies_match_word_enumeration[tensor]"),
    ),
    Mutant(
        "boolean-sums-like-tensor", "src/ncindep/products.py",
        "sums=partial(_cumulants, weight=lambda n, j: 1)",
        "sums=partial(_cumulants, weight=math.comb)",
        ("tests/test_products.py::test_sum_moment_transforms_match_word_enumeration[boolean-False]",
         "tests/test_products.py::test_runs_of_copies_match_word_enumeration[boolean]"),
    ),
    Mutant(
        "power-skips-odd-bit", "src/ncindep/products.py",
        "if count & 1:",
        "if count & 1 and result is None:",
        ("tests/test_products.py::test_runs_of_copies_match_word_enumeration[monotone]",
         "tests/test_products.py::test_runs_of_copies_match_word_enumeration[antimonotone]",
         "tests/test_products.py::test_power_is_the_repeated_combination"),
    ),
)


def _copy(into: str) -> str:
    tree = os.path.join(into, "tree")
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "mutants"))
    return tree


def _run_tests(tree: str, killers) -> tuple:
    """(pytest exit code, seconds) of the named tests in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *killers],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode, time.perf_counter() - start


def _edit(tree: str, mutant: Mutant, write=True) -> bool:
    """Make the mutant's edit in ``tree``, or with ``write`` false only look
    for it; False when its old text does not occur exactly once."""
    path = os.path.join(tree, mutant.path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.count(mutant.old) != 1:
        return False
    if write:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text.replace(mutant.old, mutant.new))
    return True


def main() -> int:
    killers = sorted({test for mutant in MUTANTS for test in mutant.killers})
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        if killers:
            code, seconds = _run_tests(_copy(os.path.join(scratch, "clean")), killers)
            if code != 0:
                print("the named tests fail on the unedited tree (pytest exit %d)" % code)
                return 1
            print("unedited tree: the named tests pass (%.1f s)" % seconds)
        killed, faults = 0, 0
        for number, mutant in enumerate(MUTANTS):
            tree = ROOT if mutant.equivalent else _copy(os.path.join(scratch, str(number)))
            if not _edit(tree, mutant, write=not mutant.equivalent):
                print("%-40s OLD TEXT NOT FOUND once in %s" % (mutant.name, mutant.path))
                faults += 1
                continue
            if mutant.equivalent:
                print("%-40s equivalent: %s" % (mutant.name, mutant.equivalent))
                continue
            code, seconds = _run_tests(tree, mutant.killers)
            if code == 1:
                killed += 1
                print("%-40s killed in %.1f s" % (mutant.name, seconds))
            else:
                faults += 1
                print("%-40s %s (pytest exit %d, %.1f s)"
                      % (mutant.name, "SURVIVED" if code == 0 else "ERROR", code, seconds))
            shutil.rmtree(tree)
    counted = sum(not mutant.equivalent for mutant in MUTANTS)
    print("killed %d of %d mutants (%d equivalent not counted)" % (killed, counted, len(MUTANTS) - counted))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
