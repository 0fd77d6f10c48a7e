"""Seeded law checking: which product kinds satisfy which conditions."""

import json

import pytest

from ncindep import (
    Axiom,
    Monomial,
    ProductKind,
    QDeformed,
    RegimeMismatch,
    enumerate_words,
    expected_outcome,
    gen_random_state,
    gen_random_word,
    run_axiom_suite,
)
from ncindep.rational import ONE, ZERO, as_rational
from conftest import A1, A2, G1, N1

NAMED = (
    ProductKind.TENSOR,
    ProductKind.FREE,
    ProductKind.BOOLEAN,
    ProductKind.MONOTONE,
    ProductKind.ANTI_MONOTONE,
)


# ---------------------------------------------------------------------------
# the outcome table


def test_named_kinds_are_expected_to_satisfy_the_core_conditions():
    for axiom in (Axiom.ASSOCIATIVITY, Axiom.INCLUSION, Axiom.FUNCTORIALITY, Axiom.FACTORIZATION):
        for kind in NAMED:
            assert expected_outcome(axiom, kind), (axiom, kind)


def test_scaled_and_degenerate_kinds_are_expected_to_break_factorization():
    assert not expected_outcome(Axiom.FACTORIZATION, ProductKind.DEGENERATE)
    assert not expected_outcome(Axiom.FACTORIZATION, QDeformed(ProductKind.BOOLEAN, 2))
    # the deformation at q = 1 is the plain product and keeps the condition
    assert expected_outcome(Axiom.FACTORIZATION, QDeformed(ProductKind.BOOLEAN, 1))


def test_one_sided_kinds_are_expected_to_break_symmetry():
    assert expected_outcome(Axiom.SYMMETRY, ProductKind.TENSOR)
    assert expected_outcome(Axiom.SYMMETRY, ProductKind.FREE)
    assert expected_outcome(Axiom.SYMMETRY, ProductKind.BOOLEAN)
    assert expected_outcome(Axiom.SYMMETRY, ProductKind.DEGENERATE)
    assert not expected_outcome(Axiom.SYMMETRY, ProductKind.MONOTONE)
    assert not expected_outcome(Axiom.SYMMETRY, ProductKind.ANTI_MONOTONE)


# ---------------------------------------------------------------------------
# observed runs match the table


def run(axiom, kind, trials=4):
    return run_axiom_suite(axiom, kind, seed=7, trials=trials, max_word_len=4)


def test_core_conditions_hold_for_the_named_kinds():
    for axiom in (Axiom.ASSOCIATIVITY, Axiom.INCLUSION, Axiom.FACTORIZATION):
        for kind in NAMED:
            report = run(axiom, kind)
            assert report.passed, (axiom, kind, report.failures[:1])


def test_functoriality_holds_for_the_named_kinds():
    # fermi runs on graded algebras, with degree-keeping substitutions
    for kind in NAMED + (ProductKind.FERMI,):
        report = run(Axiom.FUNCTORIALITY, kind, trials=3)
        assert report.passed, (kind, report.failures[:1])


def test_degenerate_keeps_the_structural_conditions():
    for axiom in (Axiom.ASSOCIATIVITY, Axiom.INCLUSION, Axiom.FUNCTORIALITY):
        assert run(axiom, ProductKind.DEGENERATE, trials=3).passed, axiom


def test_factorization_fails_with_witness_for_degenerate():
    report = run(Axiom.FACTORIZATION, ProductKind.DEGENERATE)
    assert not report.passed
    witness = report.failures[0]
    assert witness.lhs == ZERO  # multi-block words vanish
    assert witness.rhs != ZERO


def test_factorization_fails_by_exactly_inverse_q_for_the_deformation():
    report = run(Axiom.FACTORIZATION, QDeformed(ProductKind.BOOLEAN, 2))
    assert not report.passed
    for witness in report.failures:
        assert witness.lhs == witness.rhs / 2


def test_symmetry_fails_with_witness_for_monotone():
    report = run(Axiom.SYMMETRY, ProductKind.MONOTONE)
    assert not report.passed
    witness = report.failures[0]
    assert witness.lhs != witness.rhs


def test_unit_law_runs_only_in_the_unital_regime():
    assert run(Axiom.UNIT_LAW, ProductKind.TENSOR).passed
    assert run(Axiom.UNIT_LAW, ProductKind.FREE).passed
    assert run(Axiom.UNIT_LAW, ProductKind.FERMI).passed
    with pytest.raises(RegimeMismatch):
        run(Axiom.UNIT_LAW, ProductKind.BOOLEAN)


def test_mirror_applies_only_to_the_one_sided_kinds():
    assert run(Axiom.MIRROR, ProductKind.MONOTONE).passed
    assert run(Axiom.MIRROR, ProductKind.ANTI_MONOTONE).passed
    with pytest.raises(RegimeMismatch):
        run(Axiom.MIRROR, ProductKind.FREE)


def test_every_runnable_cell_of_the_table_matches_observation():
    kinds = NAMED + (ProductKind.DEGENERATE, ProductKind.FERMI, QDeformed(ProductKind.FREE, "1/3"))
    for axiom in (Axiom.ASSOCIATIVITY, Axiom.INCLUSION, Axiom.FACTORIZATION, Axiom.SYMMETRY):
        for kind in kinds:
            report = run(axiom, kind, trials=2)
            assert report.passed == expected_outcome(axiom, kind), (axiom, kind)


# ---------------------------------------------------------------------------
# report mechanics


def test_reports_are_bit_identical_for_the_same_seed():
    first = run(Axiom.FACTORIZATION, ProductKind.DEGENERATE)
    second = run(Axiom.FACTORIZATION, ProductKind.DEGENERATE)
    assert first.lines() == second.lines()
    assert [w.inputs for w in first.failures] == [w.inputs for w in second.failures]


def test_different_seeds_change_the_sampled_inputs():
    a = run_axiom_suite(Axiom.FACTORIZATION, ProductKind.DEGENERATE, seed=1, trials=2, max_word_len=4)
    b = run_axiom_suite(Axiom.FACTORIZATION, ProductKind.DEGENERATE, seed=2, trials=2, max_word_len=4)
    assert [w.inputs for w in a.failures] != [w.inputs for w in b.failures]


def test_witnesses_serialize_and_are_capped():
    report = run(Axiom.FACTORIZATION, ProductKind.DEGENERATE)
    lines = report.lines(max_witnesses=2)
    assert sum(1 for line in lines if line.startswith("witness:")) == 2
    assert lines[-1].endswith("more witnesses")  # the rest are summarized
    for witness in report.failures:
        json.dumps(witness.inputs)  # replayable serialization


def test_trial_count_must_be_positive():
    with pytest.raises(ValueError):
        run_axiom_suite(Axiom.ASSOCIATIVITY, ProductKind.FREE, seed=1, trials=0)


# ---------------------------------------------------------------------------
# generators


def test_random_states_are_reproducible():
    a = gen_random_state(A1, 4, 99)
    b = gen_random_state(A1, 4, 99)
    assert a.table == b.table
    assert gen_random_state(A1, 4, 100).table != a.table


def test_random_states_respect_the_regimes():
    unital = gen_random_state(A1, 3, 5)
    assert unital(Monomial(A1, ())) == ONE
    graded = gen_random_state(G1, 3, 5)
    assert graded.is_even
    plain = gen_random_state(N1, 3, 5)
    assert not plain.unital


def test_random_state_values_stay_small_rationals():
    phi = gen_random_state(A1, 4, 12)
    for monomial, value in phi.table.items():
        if monomial.is_unit:
            continue
        assert abs(value.numerator) <= 3
        assert 1 <= value.denominator <= 8


def test_random_words_are_reproducible_and_bounded():
    w1 = gen_random_word((A1, A2), 5, 42)
    w2 = gen_random_word((A1, A2), 5, 42)
    assert w1 == w2
    assert w1.num_letters <= 5


def test_enumerate_words_counts_letter_sequences():
    words = list(enumerate_words((A1, A2), 2))
    assert len(words) == 4 + 16  # one and two letter sequences over 4 letters
    assert len(set(words)) == len(words)
    assert all(w.num_letters <= 2 for w in words)
