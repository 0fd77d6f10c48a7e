"""Seeded law checking: which product kinds satisfy which conditions."""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from ncindep import (
    AlgebraSignature,
    Axiom,
    Monomial,
    ProductKind,
    QDeformed,
    RegimeMismatch,
    all_monomials,
    enumerate_words,
    expected_outcome,
    gen_random_homomorphism,
    gen_random_state,
    gen_random_word,
    normalize_word,
    pullback,
    run_axiom_suite,
    state_to_json,
)
from ncindep import products
from ncindep.axioms import _MOMENT_PALETTE
from ncindep.rational import ONE, ZERO, as_rational
from conftest import A1, A2, G1, N1, count_fills, count_reads, count_view_builds

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


def test_expected_outcomes_are_read_from_the_record(monkeypatch):
    """A kind's expected verdicts follow its record alone: a tensor record
    that does not factorize and has a mirror expects both laws to fail."""
    record = dataclasses.replace(products._RULES[ProductKind.TENSOR], factorizes=False, mirror=ProductKind.TENSOR)
    monkeypatch.setitem(products._RULES, ProductKind.TENSOR, record)
    assert not expected_outcome(Axiom.FACTORIZATION, ProductKind.TENSOR)
    assert not expected_outcome(Axiom.SYMMETRY, ProductKind.TENSOR)
    assert expected_outcome(Axiom.INCLUSION, ProductKind.TENSOR)


EVEN_SOURCE = AlgebraSignature("S", False, (("u", 0),))
ODD_TARGET = AlgebraSignature("T", False, (("p", 1), ("r", 1)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: expected_outcome(Axiom.INCLUSION, "free"), TypeError, "kind must be a ProductKind or QDeformed"),
    (lambda: run_axiom_suite("associativity", ProductKind.FREE, 0, 1), TypeError, "axiom must be an Axiom"),
    (lambda: gen_random_homomorphism(EVEN_SOURCE, ODD_TARGET, 0, max_image_letters=1),
     ValueError, "found no monomial of degree 0 over 'T'"),
], ids=["outcome-of-a-non-kind", "suite-axiom-as-text", "no-monomial-of-the-degree"])
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error and str(raised.value) == message


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


def test_functoriality_builds_no_letter_keyed_views(monkeypatch):
    """A trial at word length 6 draws target states of degree 12 and reads
    them through the pullback and the evaluator only: no letter-keyed view
    (and so no Monomial-keyed one) of any state is built."""
    builds = count_view_builds(monkeypatch)
    for kind in NAMED + (ProductKind.FERMI,):
        report = run_axiom_suite(Axiom.FUNCTORIALITY, kind, seed=11, trials=1, max_word_len=6)
        assert report.passed and report.checked, kind
    assert builds == []


def test_functoriality_computes_only_the_pulled_entries_it_reads(monkeypatch):
    """A trial at word length 6 draws two target states of degree 12, 8,190
    or 8,191 entries each, grades them, and pulls the graded states back to
    degree 6, 126 or 127 entries each.  Its words read a few entries of
    each, and in each of the six states exactly the entries read are
    computed, each once."""
    fills = count_fills(monkeypatch)
    reads = count_reads(monkeypatch)
    for kind in NAMED + (ProductKind.FERMI,):
        fills.clear()
        report = run_axiom_suite(Axiom.FUNCTORIALITY, kind, seed=11, trials=1, max_word_len=6)
        assert report.passed and report.checked, kind
        assert [len(state._dense) - state.unital for state, _ in fills] == [8190] * 4 + [126, 126], kind
        for state, ranks in fills:
            assert len(set(ranks)) == len(ranks), (kind, ranks)
            assert set(ranks) == reads[state], (kind, ranks)
            assert 1 <= len(ranks) <= (64 if len(state._dense) > 8000 else 16), (kind, ranks)
            assert state._dense.count(None) == len(state._dense) - len(ranks) - state.unital, kind


def test_degenerate_keeps_the_structural_conditions():
    for axiom in (Axiom.ASSOCIATIVITY, Axiom.INCLUSION, Axiom.FUNCTORIALITY):
        assert run(axiom, ProductKind.DEGENERATE, trials=3).passed, axiom


def test_factorization_fails_with_witness_for_degenerate():
    report = run(Axiom.FACTORIZATION, ProductKind.DEGENERATE)
    assert not report.passed
    witness = report.failures[0]
    assert witness.lhs == ZERO  # multi-block words vanish
    assert witness.rhs != ZERO
    assert all(type(w.lhs) is type(w.rhs) is Fraction for w in report.failures)


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
    """The mirror law holds for monotone and anti-monotone, and every other
    kind, a q-deformed one included, is refused."""
    for kind in tuple(ProductKind) + (QDeformed(ProductKind.BOOLEAN, 2),):
        if kind in (ProductKind.MONOTONE, ProductKind.ANTI_MONOTONE):
            assert run(Axiom.MIRROR, kind).passed, kind
        else:
            with pytest.raises(RegimeMismatch, match="the mirror identity relates monotone and anti-monotone"):
                run(Axiom.MIRROR, kind)


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


def test_reports_count_their_comparisons():
    # per trial at length 4: three seed shapes plus eight random words
    report = run(Axiom.ASSOCIATIVITY, ProductKind.FREE, trials=2)
    assert report.checked == 2 * 11
    assert "trials=2 checked=22 failures=0" in report.lines()[0]
    # every monomial of A1 up to length 4, on each side of the unit
    assert run(Axiom.UNIT_LAW, ProductKind.TENSOR, trials=1).checked == 2 * 31
    assert run(Axiom.FACTORIZATION, ProductKind.DEGENERATE, trials=3).checked == 3 * 8
    for axiom in (Axiom.INCLUSION, Axiom.FUNCTORIALITY, Axiom.SYMMETRY, Axiom.MIRROR):
        assert run(axiom, ProductKind.MONOTONE, trials=1).checked > 0, axiom


def test_witnesses_serialize_and_are_capped():
    report = run(Axiom.FACTORIZATION, ProductKind.DEGENERATE)
    lines = report.lines(max_witnesses=2)
    assert sum(1 for line in lines if line.startswith("witness:")) == 2
    assert lines[-1].endswith("more witnesses")  # the rest are summarized
    for witness in report.failures:
        json.dumps(witness.inputs)  # replayable serialization


# SHA-256 of the report lines, every witness shown, of every runnable
# (axiom, kind) pair at seed 7000, 3 trials and length 5, axiom by axiom,
# taken from the per-law comparison loops that the shared one replaced
REPORT_KINDS = tuple(ProductKind) + (QDeformed(ProductKind.BOOLEAN, 2), QDeformed(ProductKind.FREE, "1/3"))
REPORT_DIGEST = "afab93b7a21a30ef4fdd04c27b50cf5b4074ee3515ea5dd20b2d98318d27389f"


def test_reports_are_pinned_bit_for_bit():
    lines = []
    failures = 0
    for axiom in Axiom:
        for kind in REPORT_KINDS:
            try:
                report = run_axiom_suite(axiom, kind, seed=7000, trials=3, max_word_len=5)
            except RegimeMismatch:
                continue
            failures += len(report.failures)
            lines.extend(report.lines(10**6))
    assert (len(lines), failures) == (140, 90)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REPORT_DIGEST


def test_a_failing_trial_serializes_each_state_once(monkeypatch):
    import ncindep.axioms as axioms

    serialized = []

    def counted(phi):
        serialized.append(phi)
        return state_to_json(phi)

    monkeypatch.setattr(axioms, "state_to_json", counted)
    report = run_axiom_suite(Axiom.FACTORIZATION, ProductKind.DEGENERATE, seed=4, trials=1, max_word_len=4)
    assert len(report.failures) == 8
    # nothing is serialized until a witness is read
    assert serialized == []
    assert report.failures[-1].inputs["word"]
    assert len(serialized) == 2 and serialized[0] is not serialized[1]
    shared = report.failures[0].inputs["states"]
    assert shared == [state_to_json(phi) for phi in serialized]
    assert all(witness.inputs["states"] is shared for witness in report.failures)
    assert len(serialized) == 2  # every witness read, the states serialized once
    # a passing trial serializes nothing
    del serialized[:]
    assert run_axiom_suite(Axiom.FACTORIZATION, ProductKind.TENSOR, seed=4, trials=1).passed
    assert serialized == []


def test_every_witness_carries_its_laws_own_inputs(monkeypatch):
    """With every comparison made to fail, each law's witnesses hold its
    states, the word, and the law's own keys."""
    import ncindep.axioms as axioms

    def failing(runner):
        def run_trial(kind, rng, max_word_len):
            states, homs, law, comparisons = runner(kind, rng, max_word_len)

            def off_by_one(*inputs):
                values = law(*inputs)

                def shifted(item):
                    lhs, rhs = values(item)
                    return lhs, rhs + 1
                return shifted
            return states, homs, off_by_one, comparisons
        return run_trial

    for axiom in Axiom:
        monkeypatch.setitem(axioms._TRIAL_RUNNERS, axiom, failing(axioms._TRIAL_RUNNERS[axiom]))
    own = {}
    for axiom in Axiom:
        kind = ProductKind.MONOTONE if axiom is Axiom.MIRROR else ProductKind.TENSOR
        report = run_axiom_suite(axiom, kind, seed=5, trials=1, max_word_len=3)
        assert report.checked == len(report.failures) > 0, axiom
        for witness in report.failures:
            assert witness.lhs + 1 == witness.rhs
            assert type(witness.lhs) is type(witness.rhs) is Fraction
            assert len(witness.inputs["states"]) == {Axiom.UNIT_LAW: 1, Axiom.ASSOCIATIVITY: 3}.get(axiom, 2)
            assert isinstance(witness.inputs["word"], str)
        own[axiom] = [{key: value for key, value in witness.inputs.items() if key not in ("states", "word")}
                      for witness in report.failures]
    assert all(extra == {"bracketing": "left-vs-right"} for extra in own[Axiom.ASSOCIATIVITY])
    assert own[Axiom.UNIT_LAW][:2] == [{"side": "phi*delta"}, {"side": "delta*phi"}]
    assert sorted({extra["factor"] for extra in own[Axiom.INCLUSION]}) == [0, 1]
    homomorphisms = own[Axiom.FUNCTORIALITY][0]["homomorphisms"]
    assert [sorted(images) for images in homomorphisms] == [["u", "v"], ["w", "z"]]
    assert all(extra == own[Axiom.FUNCTORIALITY][0] for extra in own[Axiom.FUNCTORIALITY])
    for axiom in (Axiom.FACTORIZATION, Axiom.SYMMETRY, Axiom.MIRROR):
        assert all(extra == {} for extra in own[axiom]), axiom


def test_suite_signatures_are_built_once():
    """Repeated calls give the one cached tuple, equal to a fresh build."""
    from ncindep.axioms import _signatures

    for kind in REPORT_KINDS:
        for count in (1, 2, 3):
            first = _signatures(count, kind)
            assert _signatures(count, kind) is first
            assert first == _signatures.__wrapped__(count, kind)
        sources = _signatures(2, kind, ("B1", "B2"), (("u", "v"), ("w", "z")))
        assert sources == _signatures.__wrapped__(2, kind, ("B1", "B2"), (("u", "v"), ("w", "z")))
        assert [sig.name for sig in sources] == ["B1", "B2"]


def _grade(homs, word):
    """The product of a word's letters' grades: 840 per letter, or c_u =
    den_u 840^L_u per letter u under the homomorphisms, den_u the lcm of
    u's image's denominators and L_u its longest monomial."""
    signatures, blocks = word
    factor = 1
    for f, letters in blocks:
        for letter in letters:
            if homs:
                terms = homs[f].images[letter].terms
                factor *= (math.lcm(*(c.denominator for c in terms.values()))
                           * 840 ** max((w.num_letters for w in terms), default=0))
            else:
                factor *= 840
    return factor


def test_graded_laws_give_the_drawn_verdicts():
    """Every comparison of every runnable law, valued on the graded inputs
    and on the drawn ones: the same verdict word by word, and each graded
    value the drawn one times the word's grading factor."""
    import ncindep.axioms as axioms
    from ncindep.moments import _graded

    assert axioms._GRADE == 840 == math.lcm(*(value.denominator for value in _MOMENT_PALETTE))
    verdicts = collections.Counter()
    for axiom in Axiom:
        for kind in REPORT_KINDS:
            try:
                run_axiom_suite(axiom, kind, seed=0, trials=1, max_word_len=1)
            except RegimeMismatch:
                continue
            for seed, max_word_len in itertools.product(range(5), (3, 6)):
                for rng in axioms._trial_generators(seed, 2, max_word_len):
                    states, homs, law, comparisons = axioms._TRIAL_RUNNERS[axiom](kind, rng, max_word_len)
                    graded = law([_graded(phi, 840) for phi in states], [axioms._integral(hom) for hom in homs])
                    drawn = law(states, homs)
                    for word, item, _ in comparisons:
                        (lhs, rhs), (exact_lhs, exact_rhs) = graded(item), drawn(item)
                        assert (lhs == rhs) == (exact_lhs == exact_rhs), (axiom, kind, word)
                        factor = _grade(homs, word)
                        assert lhs == exact_lhs * factor and rhs == exact_rhs * factor, (axiom, kind, word)
                        verdicts[axiom, exact_lhs == exact_rhs] += 1
    assert all(verdicts[axiom, True] for axiom in Axiom)
    assert verdicts[Axiom.FACTORIZATION, False] and verdicts[Axiom.SYMMETRY, False]


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


# A graded signature with two odd generators, so keys of every parity mix.
G3 = AlgebraSignature("A3", True, (("a", 1), ("b", 1), ("c", 0)))


def _choice_loop_state(signature, max_degree, rng):
    """The reference draw: one ``rng.choice(_MOMENT_PALETTE)`` per even
    monomial, in canonical order, 0 on odd ones."""
    odd = {name for name, degree in signature.generators if degree}
    table = {(): ONE} if signature.unital else {}
    for length in range(1, max_degree + 1):
        for letters in itertools.product(signature.generator_names, repeat=length):
            if sum(letter in odd for letter in letters) % 2:
                table[letters] = ZERO
            else:
                table[letters] = rng.choice(_MOMENT_PALETTE)
    return table


@pytest.mark.parametrize("signature", [A1, N1, G1, G3], ids=["unital", "non-unital", "graded", "graded-3"])
def test_random_states_draw_as_a_choice_loop(signature):
    """The bulk draws give the reference loop's table, key order and value
    types, leave the generator where the loop leaves it, and so hand the
    same stream on to a homomorphism drawn next."""
    source = AlgebraSignature("B1", signature.unital, (("u", signature.generators[0][1]), ("v", 0)))
    # degree 12 over two generators is a functoriality target: 8,190 draws,
    # in several batches
    for max_degree in (0, 1, 2, 5, 9) + ((12,) if len(signature.generators) == 2 else ()):
        for seed in (0, 1, 7, 2024):
            rng, reference = random.Random(seed), random.Random(seed)
            table = gen_random_state(signature, max_degree, rng).letters_table
            expected = _choice_loop_state(signature, max_degree, reference)
            assert list(table.items()) == list(expected.items()), (max_degree, seed)
            assert [type(v) for v in table.values()] == [type(v) for v in expected.values()]
            assert rng.getstate() == reference.getstate(), (max_degree, seed)
            hom = gen_random_homomorphism(source, signature, rng)
            assert hom.images == gen_random_homomorphism(source, signature, reference).images


def _digest(phi):
    text = json.dumps(state_to_json(phi), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the sorted state documents, taken from the validating
# monomial-by-monomial construction that the letter-keyed one replaced
STATE_DIGESTS = {
    ("A1", 4, 1): "6cd18c0af4d2bec3267e231514a9175d8788ac2554664619569004a527291647",
    ("A1", 4, 2): "90beeb1a03e8367d2f1d5a9012831008178a1de83a0629defaabda8ff570af44",
    ("A1", 12, 1): "64cf6e2a4d7e0549455f39ef0a47aa35d2f669018700fe6bc9ba79e456d3d4e1",
    ("A1", 12, 2): "0326e8ed8f55d77de002c74bccf7385c487918fd430c6ba222c5b7448ffe2296",
    ("N1", 4, 1): "629a7cde40c34acae23c8dcf2aa8685bb721286aef8d4700abf76e75d6c6c8e4",
    ("N1", 4, 2): "77931cb39a09937a7b16240f411926204f56b60677dfb771a699f78dd3f1561a",
    ("N1", 12, 1): "29cbe2f4948fbc8300b4572365cb447d1db8829a3c3aed02d07aea6dc8b547ba",
    ("N1", 12, 2): "0f48cda7eb1da62fcb968883d598b47b9c6df19bdae63825420bfc048dce5fae",
    ("G1", 4, 1): "e22dc5534738d4dcf426eebf52ce41292b8d931527ed371e21970dc60dd51acd",
    ("G1", 4, 2): "23bcdf3b4454737153a5db58ab4758b0831f09d951ad194c7d004d3c809f3c44",
    ("G1", 12, 1): "e7eb3b98989453b4ae8fe679c2cec787219cf55ab7f77f957e909496c3d3afdd",
    ("G1", 12, 2): "8dd1b5fbb4142192cea2e75bf482d00c2841726ce1da97053dc55224d7fad2b1",
}
PULLBACK_DIGESTS = {
    ("A1", 1): "526ca01b31532cb03a65d62f7b05eb4344c02284371469514a1a61cb95f80786",
    ("A1", 2): "8318d16f5f5f6e9e5619dde2af044358f2e33268c67e7cb76d03f0c59ffd088b",
    ("N1", 1): "8e57ca6c2eee5dc026202d26c0ddbc708fe23aad1c3dc6e6838342cae7233261",
    ("N1", 2): "7c8b0869dafa89a798540eee1ea8df066c477e3f71c553928b28390eb26a63b7",
    ("G1", 1): "010123d05472b70f6617c8b130532de454fd5078b100eb507a18bff40c119181",
    ("G1", 2): "7dc7623109791ce4864766d48c826a593217a29f3c1a1cee91da4291be1f11b8",
}
SIGNATURES = {"A1": A1, "N1": N1, "G1": G1}


def test_random_states_are_pinned_bit_for_bit():
    for (name, degree, seed), digest in STATE_DIGESTS.items():
        phi = gen_random_state(SIGNATURES[name], degree, seed)
        assert _digest(phi) == digest, (name, degree, seed)
        assert list(phi.table) == list(all_monomials(phi.algebra, degree))  # canonical order


def test_pullbacks_are_pinned_bit_for_bit():
    for (name, seed), digest in PULLBACK_DIGESTS.items():
        target = SIGNATURES[name]
        source = AlgebraSignature("B1", target.unital, (("u", target.generators[0][1]), ("v", 0)))
        phi = gen_random_state(target, 12, seed)
        hom = gen_random_homomorphism(source, target, seed)
        assert _digest(pullback(phi, hom)) == digest, (name, seed)


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


@pytest.mark.parametrize("signatures", [(A1, A2), (N1,), (G1, A2, A1)], ids=["two", "one", "three"])
def test_the_bare_word_draw_is_a_letter_by_letter_draw(signatures):
    """The bare draw and ``gen_random_word`` give the word of one
    ``randint`` and one ``choice`` of a letter per letter, normalized, and
    leave the generator in the same state."""
    from ncindep.axioms import _alphabet, _random_blocks

    alphabet = _alphabet(signatures)
    for max_letters in (1, 2, 5, 8):
        for seed in range(25):
            rng = random.Random(seed)
            letters = [rng.choice(alphabet) for _ in range(rng.randint(1, max_letters))]
            want = normalize_word([(f, Monomial(signatures[f], (name,))) for f, name in letters])
            bare_rng, word_rng = random.Random(seed), random.Random(seed)
            bare = _random_blocks(alphabet, max_letters, bare_rng)
            assert bare == tuple((f, m.letters) for f, m in want.blocks)
            assert gen_random_word(signatures, max_letters, word_rng) == want
            assert bare_rng.getstate() == word_rng.getstate() == rng.getstate()


def test_enumerate_words_counts_letter_sequences():
    words = list(enumerate_words((A1, A2), 2))
    assert len(words) == 4 + 16  # one and two letter sequences over 4 letters
    assert len(set(words)) == len(words)
    assert all(w.num_letters <= 2 for w in words)
