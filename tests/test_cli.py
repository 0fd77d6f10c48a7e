"""The command-line surface: outputs, exit codes, and error documents."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ncindep
from ncindep import (
    AlgebraSignature,
    FiniteProbSpace,
    MomentFunctional,
    ProductKind,
    RandomVariable,
    gen_random_state,
    parse_kind_label,
    sum_moment,
)
from ncindep.classical import space_to_json, variable_to_json
from ncindep import cli
from ncindep.cli import CLT_WORK_BUDGET, _build_parser, main
from ncindep.moments import dump_state, load_state
from ncindep.products import MAX_FREE_RUNS
from ncindep.rational import as_rational, format_rational
from conftest import total_state

P1 = AlgebraSignature("A1", False, (("a", 0),))
P2 = AlgebraSignature("A2", False, (("b", 0),))
G1 = AlgebraSignature("A1", True, (("a", 1), ("b", 0)))
G2 = AlgebraSignature("A2", True, (("x", 1), ("y", 0)))


@pytest.fixture
def pair_files(tmp_path):
    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    dump_state(total_state(P1, 2, {"a": "1/2"}), s1)
    dump_state(total_state(P2, 2, {"b": "1/3"}), s2)
    return str(s1), str(s2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_doc(err):
    assert err.count("\n") == 1  # a single line
    doc = json.loads(err)
    assert set(doc) == {"code", "message", "context"}
    assert json.dumps(doc, sort_keys=True) + "\n" == err
    return doc


# ---------------------------------------------------------------------------
# eval


def test_eval_boolean_three_letter_word(capsys, pair_files):
    s1, s2 = pair_files
    code, out, err = run(
        capsys, "eval", "--product", "boolean", "--state", s1, s2, "--expr", "A1.a A2.b A1.a"
    )
    assert code == 0 and err == ""
    exact, decimal = out.splitlines()
    assert exact == "1/12"
    assert decimal.startswith("~ 0.083333333333")


def test_eval_degenerate_two_block_word(capsys, pair_files):
    s1, s2 = pair_files
    code, out, _ = run(
        capsys, "eval", "--product", "degenerate", "--state", s1, s2, "--expr", "A1.a A2.b"
    )
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_eval_accepts_polynomials(capsys, pair_files):
    s1, s2 = pair_files
    code, out, _ = run(
        capsys, "eval", "--product", "boolean", "--state", s1, s2,
        "--expr", "6 * A1.a A2.b A1.a + 1/2 * A1.a",
    )
    assert code == 0
    assert out.splitlines()[0] == "3/4"  # 6/12 + 1/4


def test_eval_fermi_signed_word(capsys, tmp_path):
    s1 = tmp_path / "g1.json"
    s2 = tmp_path / "g2.json"
    dump_state(total_state(G1, 2, {"a a": 1}), s1)
    dump_state(total_state(G2, 2, {"x x": 1}), s2)
    code, out, _ = run(
        capsys, "eval", "--product", "fermi", "--state", str(s1), str(s2),
        "--expr", "A1.a A2.x A1.a A2.x",
    )
    assert code == 0
    assert out.splitlines()[0] == "-1"


def test_eval_rejects_two_factors_with_one_algebra_name(capsys, pair_files):
    s1, _ = pair_files
    code, out, err = run(
        capsys, "eval", "--product", "tensor", "--state", s1, s1, "--expr", "A1.a A1.a"
    )
    assert code == 2 and out == ""
    assert error_doc(err)["code"] == "usage"


def test_eval_q_deformed_label(capsys, pair_files):
    s1, s2 = pair_files
    code, out, _ = run(
        capsys, "eval", "--product", "q:boolean:2", "--state", s1, s2, "--expr", "A1.a A2.b"
    )
    assert code == 0
    assert out.splitlines()[0] == "1/12"  # half of the boolean value


# ---------------------------------------------------------------------------
# clt


def test_clt_free_fourth_moment(capsys):
    code, out, _ = run(
        capsys, "clt", "--product", "free", "--moments", "0,1,0,1", "--n", "2", "--order", "4"
    )
    assert code == 0
    assert out.splitlines() == ["6", "normalized: 3/2"]


def test_clt_odd_order_prints_no_normalization(capsys):
    code, out, _ = run(
        capsys, "clt", "--product", "boolean", "--moments", "0,1,0", "--n", "3", "--order", "3"
    )
    assert code == 0
    assert len(out.splitlines()) == 1


def test_clt_fermi_uses_the_graded_tensor(capsys):
    code, out, _ = run(
        capsys, "clt", "--product", "fermi", "--moments", "0,1", "--n", "2", "--order", "2"
    )
    assert code == 0
    assert out.splitlines() == ["2", "normalized: 1"]


def test_clt_fermi_sums_a_thousand_odd_copies(capsys):
    # anticommuting copies: n m4 + n (n - 1) m2^2 = n^2 + 2n, so 1 + 2/n
    code, out, err = run(
        capsys, "clt", "--product", "fermi", "--moments", "0,1,0,3", "--n", "1000", "--order", "4"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["1002000", "normalized: 501/500"]


def test_clt_fermi_rejects_odd_moments(capsys):
    code, out, err = run(
        capsys, "clt", "--product", "fermi", "--moments", "1,1", "--n", "3", "--order", "2"
    )
    assert code == 3 and out == ""
    assert error_doc(err)["code"] == "regime"


@pytest.mark.parametrize("product", [kind.value for kind in ProductKind] + ["q:tensor:2", "q:free:1/3"])
def test_clt_prints_the_sum_moment_of_a_checked_state(capsys, product):
    """clt prints what sum_moment gives on the state from_entries builds from
    the same moments, for n in {1, 2, 3, 7} and orders 1 to 8."""
    kind = parse_kind_label(product)
    fermi = kind is ProductKind.FERMI
    drawn = ("1/2", "-1/3", "2", "3/4", "-5", "1/7", "0", "9/5")
    moments = ["0" if fermi and k % 2 else m for k, m in enumerate(drawn, 1)]
    sig = AlgebraSignature("X", False, (("x", int(fermi)),))
    phi = MomentFunctional.from_entries(sig, 8, {("x",) * k: as_rational(m) for k, m in enumerate(moments, 1)})
    for n in (1, 2, 3, 7):
        for order in range(1, 9):
            total = sum_moment(kind, [phi] * n, order)
            expected = [format_rational(total)]
            if order % 2 == 0:
                expected.append("normalized: %s" % format_rational(total / n ** (order // 2)))
            code, out, err = run(
                capsys, "clt", "--product", product, "--moments=" + ",".join(moments),
                "--n", str(n), "--order", str(order),
            )
            assert (code, err, out.splitlines()) == (0, "", expected), (n, order)


def test_clt_q_deformed_sum_of_many_copies_does_not_recurse_deeply(capsys):
    code, out, err = run(
        capsys, "clt", "--product", "q:tensor:2", "--moments", "0,1", "--n", "400", "--order", "1"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["0"]


@pytest.mark.parametrize("n,moment", [("3", "18"), ("5", "45"), ("1000", "1501500")])
def test_clt_q_deformed_sums_use_the_base_transform(capsys, n, moment):
    # n = 1000 would be 10^12 words; n = 3 and 5 match the word enumeration
    code, out, err = run(
        capsys, "clt", "--product", "q:tensor:2", "--moments=0,1,0,3", "--n", n, "--order", "4"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[0] == moment
    if n == "1000":
        assert out.splitlines()[1] == "normalized: 3003/2000"


@pytest.mark.parametrize("moments", [("--moments", "-1,1"), ("--moments=-1,1",)])
def test_clt_accepts_a_moment_list_with_a_leading_minus(capsys, moments):
    code, out, err = run(
        capsys, "clt", "--product", "tensor", *moments, "--n", "2", "--order", "2"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == ["4", "normalized: 2"]


def test_clt_sums_its_copies_as_one_run(capsys):
    """n = 990,099 copies are one run, not a list: the sum's mean is n/2,
    and the run allocates far less than the 7.9 MB of an n-long list."""
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "clt", "--product", "monotone", "--moments", "1/2", "--n", "990099",
                             "--order", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "990099/2\n", "")
    assert peak < 10**6


def test_clt_refuses_work_past_the_budget(capsys, monkeypatch):
    # 10^30 summands: the refusal must come before the summand list, which
    # Python could not even size
    code, out, err = run(
        capsys, "clt", "--product", "tensor", "--moments", "0,1", "--n", str(10**30),
        "--order", "2",
    )
    assert code == 2 and out == ""
    doc = error_doc(err)
    assert doc["code"] == "usage"
    assert str(108 * 10**30) in doc["message"] and str(CLT_WORK_BUDGET) in doc["message"]
    # each summand costs steps of its own, so 10^8 summands at order 1 are
    # refused before any summand is built
    def summed(*args):
        raise AssertionError("a summand was built")

    monkeypatch.setattr(cli, "_sum_runs", summed)
    code, out, err = run(
        capsys, "clt", "--product", "monotone", "--moments", "0", "--n", str(10**8), "--order", "1",
    )
    assert code == 2 and out == ""
    assert error_doc(err)["code"] == "usage"
    monkeypatch.undo()
    # n = 1000 at order 20 is 8.1 * 10^6 steps, within the budget
    moments = ",".join(["0", "1"] * 10)
    code, out, err = run(
        capsys, "clt", "--product", "tensor", "--moments", moments, "--n", "1000",
        "--order", "20",
    )
    assert code == 0 and err == ""


# ---------------------------------------------------------------------------
# check


def test_check_axiom_pass_is_exit_zero(capsys):
    for product in ("free", "fermi"):
        code, out, _ = run(
            capsys, "check", "--axiom", "associativity", "--product", product,
            "--seed", "1", "--trials", "2", "--max-len", "4",
        )
        assert code == 0, product
        assert "failures=0" in out
        assert out.rstrip().splitlines()[-1] == "expected=pass observed=pass verdict=ok"


def test_check_axiom_expected_failure_is_exit_zero_with_witness(capsys):
    code, out, _ = run(
        capsys, "check", "--axiom", "factorization", "--product", "degenerate",
        "--seed", "3", "--trials", "2", "--max-len", "4",
    )
    assert code == 0
    assert "witness:" in out
    assert out.rstrip().splitlines()[-1] == "expected=fail observed=fail verdict=ok"


def test_check_axiom_over_no_words_is_an_error(capsys, monkeypatch):
    import ncindep.cli as cli
    from ncindep.axioms import AxiomReport

    def empty_suite(axiom, kind, seed, trials, max_len):
        return AxiomReport(axiom, kind, seed, trials, (), 0)

    monkeypatch.setattr(cli, "run_axiom_suite", empty_suite)
    code, out, err = run(capsys, "check", "--axiom", "symmetry", "--product", "tensor")
    assert code == 2
    assert "checked=0" in out
    assert error_doc(err)["code"] == "usage"


def test_check_axiom_on_wrong_regime_is_a_regime_error(capsys):
    code, out, err = run(capsys, "check", "--axiom", "unitlaw", "--product", "boolean")
    assert code == 3
    assert error_doc(err)["code"] == "regime"


def test_check_reduction_sweep(capsys):
    code, out, _ = run(
        capsys, "check", "reduction", "--kind", "fermi", "--seed", "1", "--trials", "2",
        "--max-len", "3",
    )
    assert code == 0
    assert "failures=0" in out
    assert "checked=" in out


def test_check_output_is_deterministic(capsys):
    argv = (
        "check", "--axiom", "symmetry", "--product", "monotone",
        "--seed", "11", "--trials", "2", "--max-len", "4",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "axiom, product",
    [("factorization", "degenerate"), ("factorization", "q:boolean:2"), ("symmetry", "monotone")],
)
def test_check_witnesses_replay_through_eval(capsys, tmp_path, axiom, product):
    """A witness's states, written to files, and its word give its lhs back
    through eval."""
    code, out, _ = run(
        capsys, "check", "--axiom", axiom, "--product", product,
        "--seed", "3", "--trials", "2", "--max-len", "4",
    )
    assert code == 0
    witnesses = [line for line in out.splitlines() if line.startswith("witness: ")]
    assert witnesses
    for number, line in enumerate(witnesses):
        values, inputs = line[len("witness: "):].split(" inputs=", 1)
        lhs = values.split()[0][len("lhs="):]
        doc = json.loads(inputs)
        paths = []
        for index, state in enumerate(doc["states"]):
            path = tmp_path / ("w%d_%d.json" % (number, index))
            path.write_text(json.dumps(state))
            paths.append(str(path))
        code, replayed, err = run(capsys, "eval", "--product", product, "--state", *paths, "--expr", doc["word"])
        assert (code, err) == (0, "")
        assert replayed.splitlines()[0] == lhs, (line, replayed)


@pytest.mark.parametrize(
    "bounds", [("--trials", "0"), ("--trials", "-3"), ("--max-len", "0", "--trials", "1")]
)
def test_check_reduction_rejects_an_empty_sweep(capsys, bounds):
    code, out, err = run(capsys, "check", "reduction", "--kind", "monotone", *bounds)
    assert code == 2 and out == ""
    assert error_doc(err)["code"] == "usage"


@pytest.mark.parametrize(
    "target",
    [("--axiom", "functoriality", "--product", "tensor"), ("reduction", "--kind", "monotone")],
)
def test_check_rejects_word_lengths_beyond_the_bound(capsys, target):
    code, out, err = run(capsys, "check", *target, "--trials", "1", "--max-len", "9")
    assert code == 2 and out == ""
    doc = error_doc(err)
    assert doc["code"] == "usage" and "at most 8" in doc["message"]


@pytest.mark.parametrize(
    "target",
    [("--axiom", "functoriality", "--product", "tensor"), ("reduction", "--kind", "fermi")],
)
def test_check_refuses_work_past_the_budget(capsys, monkeypatch, target):
    # 10^20 trials of one letter: without the refusal this runs for ages
    import ncindep.axioms as axioms
    import ncindep.reductions as reductions

    def no_state(*args):
        raise AssertionError("a state was drawn")

    monkeypatch.setattr(axioms, "gen_random_state", no_state)
    monkeypatch.setattr(reductions, "gen_random_state", no_state)
    code, out, err = run(capsys, "check", *target, "--trials", str(10**20), "--max-len", "1")
    assert code == 2 and out == ""
    doc = error_doc(err)
    assert doc["code"] == "usage"
    assert str(4 * 10**20) in doc["message"] and str(CLT_WORK_BUDGET) in doc["message"]


def test_check_reduction_failure_prints_witnesses(capsys, monkeypatch):
    import ncindep.reductions as reductions
    from ncindep import JointFunctional, ProductKind

    def boolean_joint(factors, kind):
        return JointFunctional(factors, ProductKind.BOOLEAN)

    monkeypatch.setattr(reductions, "JointFunctional", boolean_joint)
    code, out, err = run(
        capsys, "check", "reduction", "--kind", "monotone", "--seed", "3", "--trials", "1",
        "--max-len", "3",
    )
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("reduction=monotone seed=3 trials=1 max-len=3 checked=84 failures=")
    assert "failures=0" not in lines[0]
    assert 1 <= len(lines) - 1 <= 3
    assert all(line.startswith("witness: word=") and " lhs=" in line for line in lines[1:])
    doc = error_doc(err)
    assert doc["code"] == "mismatch" and doc["context"]["kind"] == "monotone"


# ---------------------------------------------------------------------------
# classical


@pytest.fixture
def coin_files(tmp_path):
    half = as_rational("1/2")
    coin = FiniteProbSpace(("h", "t"), {"h": half, "t": half})
    quarter = as_rational("1/4")
    product = FiniteProbSpace(
        ("hh", "ht", "th", "tt"), {o: quarter for o in ("hh", "ht", "th", "tt")}
    )
    first = RandomVariable(product, {o: o[0] for o in product.outcomes})
    second = RandomVariable(product, {o: o[1] for o in product.outcomes})
    paths = {}
    for name, doc in (
        ("coin", space_to_json(coin)),
        ("product", space_to_json(product)),
        ("first", variable_to_json(first)),
        ("second", variable_to_json(second)),
    ):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"map": {"h": "h", "t": "t"}}))
    paths["identity"] = str(identity)
    return paths


def test_classical_independent_coordinates(capsys, coin_files):
    code, out, _ = run(
        capsys, "classical", "independence",
        "--space", coin_files["product"], "--x", coin_files["first"], "--y", coin_files["second"],
    )
    assert code == 0
    assert out.splitlines() == ["atomwise: true", "jointfactor: true"]


def test_classical_dependent_variable(capsys, coin_files):
    code, out, _ = run(
        capsys, "classical", "independence",
        "--space", coin_files["coin"], "--x", coin_files["identity"], "--y", coin_files["identity"],
    )
    assert code == 0
    assert out.splitlines() == ["atomwise: false", "jointfactor: false"]


# ---------------------------------------------------------------------------
# state unitize


def test_state_unitize_writes_a_unital_document(capsys, tmp_path, pair_files):
    s1, _ = pair_files
    out_path = tmp_path / "unital.json"
    code, out, _ = run(capsys, "state", "unitize", "--state", s1, "--out", str(out_path))
    assert code == 0
    extended = load_state(out_path)
    assert extended.algebra.unital
    assert extended.table[min(extended.table, key=lambda m: len(m))] == as_rational(1)


def test_state_unitize_of_a_unital_document_is_a_regime_error(capsys, tmp_path):
    unital = tmp_path / "unital.json"
    dump_state(total_state(G1, 1), unital)
    code, _, err = run(capsys, "state", "unitize", "--state", str(unital))
    assert code == 3
    assert error_doc(err)["code"] == "regime"


@pytest.mark.parametrize(
    "generators,max_degree,moments",
    [([], 10**9, {}), ([{"name": "x", "degree": 0}], 10**8, {"": "1", "x": "1/2"})],
    ids=["no-generators", "one-generator"],
)
def test_a_huge_degree_bound_costs_nothing_to_check(capsys, tmp_path, generators, max_degree, moments):
    # no generators: total at any bound; one generator: "x x" is missing
    unital = bool(generators)
    doc = {
        "algebra": {"name": "A", "unital": unital, "generators": generators},
        "max_degree": max_degree,
        "moments": moments,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "state", "unitize", "--state", str(path))
    if generators:
        assert code == 2
        assert error_doc(err) == {
            "code": "document", "context": {}, "message": "moment table is missing A[x x]"
        }
    else:
        assert code == 0 and err == ""
        assert json.loads(out)["max_degree"] == max_degree


# ---------------------------------------------------------------------------
# errors


def test_expression_errors_carry_offsets(capsys, pair_files):
    s1, s2 = pair_files
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", s1, s2, "--expr", "A1.a + A9.q"
    )
    assert code == 2
    doc = error_doc(err)
    assert doc["code"] == "expression"
    assert doc["context"]["offset"] == 7


def test_malformed_terms_are_expression_errors(capsys, pair_files):
    s1, s2 = pair_files
    code, out, err = run(capsys, "eval", "--product", "free", "--state", s1, s2, "--expr", "A1.a^")
    assert code == 2 and out == ""
    assert error_doc(err) == {"code": "expression", "message": "expected an exponent (at offset 5)",
                              "context": {"offset": 5}}


def test_an_empty_moments_list_is_a_usage_error(capsys):
    code, out, err = run(capsys, "clt", "--product", "free", "--moments", "", "--n", "2", "--order", "2")
    assert code == 2 and out == ""
    doc = error_doc(err)
    assert doc["code"] == "usage" and doc["message"].startswith("bad --moments list")


def test_an_unexpected_verdict_is_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "expected_outcome", lambda axiom, kind: False)
    code, out, err = run(capsys, "check", "--axiom", "inclusion", "--product", "free",
                         "--trials", "1", "--max-len", "2")
    assert code == 1
    assert out.rstrip().splitlines()[-1] == "expected=fail observed=pass verdict=unexpected"
    assert error_doc(err) == {"code": "mismatch", "message": "axiom outcome differs from the documented expectation",
                              "context": {"axiom": "inclusion", "product": "free", "failures": 0}}


def test_missing_state_file_is_a_document_error(capsys, pair_files):
    s1, _ = pair_files
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", s1, "/nowhere.json", "--expr", "A1.a"
    )
    assert code == 2
    doc = error_doc(err)
    assert doc["code"] == "document"
    assert doc["message"] == "file not found: /nowhere.json"
    assert doc["context"] == {"path": "/nowhere.json"}


def test_malformed_state_file_is_a_document_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", str(bad), str(bad), "--expr", "A1.a"
    )
    assert code == 2
    assert error_doc(err)["code"] == "document"


def test_two_keys_of_one_moment_are_a_document_error(capsys, tmp_path, pair_files):
    doc = json.loads(dump_state(total_state(P1, 2, {"a": "1/2"})))
    doc["moments"][" a "] = "2"
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(
        capsys, "eval", "--product", "boolean", "--state", str(path), pair_files[1], "--expr", "A1.a"
    )
    assert (code, out) == (2, "")
    assert error_doc(err) == {
        "code": "document", "message": "moment keys 'a' and ' a ' name one monomial", "context": {}}


@pytest.mark.parametrize("product", ["free", "q:free:2"])
def test_free_words_of_too_many_runs_are_refused_before_any_work(capsys, tmp_path, product):
    """A 200-letter alternating word over two degree-3 states is refused at
    the boundary, before the free recursion could run past the stack."""
    paths = []
    for signature, degree in ((P1, 3), (P2, 3), (P1, 12), (P2, 12)):
        paths.append(str(tmp_path / ("s%d.json" % len(paths))))
        dump_state(gen_random_state(signature, degree, len(paths)), paths[-1])
    word = " ".join(("A1.a", "A2.b")[i % 2] for i in range(200))
    code, out, err = run(capsys, "eval", "--product", product, "--state", *paths[:2], "--expr", word)
    assert (code, out) == (2, "")
    assert error_doc(err) == {"code": "usage", "context": {}, "message": (
        "a word of 200 runs exceeds the free product's bound of %d runs" % MAX_FREE_RUNS)}
    if product == "free":  # a word at the bound evaluates
        word = " ".join(("A1.a", "A2.b")[i % 2] for i in range(MAX_FREE_RUNS))
        code, out, err = run(capsys, "eval", "--product", product, "--state", *paths[2:], "--expr", word)
        assert (code, err) == (0, "") and out.startswith(str(as_rational(out.split()[0])))


def test_words_beyond_the_table_bound_are_degree_errors(capsys, pair_files):
    s1, s2 = pair_files
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", s1, s2, "--expr", "A1.a^3"
    )
    assert code == 3
    doc = error_doc(err)
    assert doc["code"] == "degree"
    assert doc["context"]["max_degree"] == 2


@pytest.mark.parametrize("exponent", ["99999999999999999999", "1000000000000", "10000000"])
def test_huge_exponents_are_expression_errors(capsys, pair_files, exponent):
    s1, s2 = pair_files
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", s1, s2, "--expr", "A1.a^" + exponent
    )
    assert code == 2
    doc = error_doc(err)
    assert doc["code"] == "expression"
    assert doc["context"]["offset"] == 5


@pytest.mark.parametrize("expression, offset", [("A1.a^\u00b2", 5), ("\u00b2*A1.a", 0)],
                         ids=["exponent", "coefficient"])
def test_digits_that_are_not_decimal_are_expression_errors(capsys, pair_files, expression, offset):
    s1, s2 = pair_files
    code, _, err = run(capsys, "eval", "--product", "boolean", "--state", s1, s2, "--expr", expression)
    assert code == 2
    doc = error_doc(err)
    assert doc["code"] == "expression"
    assert doc["context"]["offset"] == offset


@pytest.mark.parametrize("coefficient, offset", [("9" * 5000, 0), ("1/" + "7" * 5000, 2)])
def test_huge_coefficients_are_expression_errors(capsys, pair_files, coefficient, offset):
    s1, s2 = pair_files
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", s1, s2, "--expr",
        coefficient + " * A1.a",
    )
    assert code == 2
    doc = error_doc(err)
    assert doc["code"] == "expression"
    assert doc["context"]["offset"] == offset


def test_a_long_word_beyond_the_bound_is_named_briefly(capsys, pair_files):
    s1, s2 = pair_files
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", s1, s2, "--expr", "A1.a^99999"
    )
    assert code == 3
    assert error_doc(err)["message"] == (
        "monomial A1[a a a a a a a a ...] has length 99999, beyond the stored maximum degree 2"
    )


def test_regime_mismatch_is_exit_three(capsys, tmp_path):
    u1 = tmp_path / "u1.json"
    u2 = tmp_path / "u2.json"
    dump_state(total_state(AlgebraSignature("A1", True, (("a", 0),)), 2), u1)
    dump_state(total_state(AlgebraSignature("A2", True, (("b", 0),)), 2), u2)
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", str(u1), str(u2), "--expr", "A1.a"
    )
    assert code == 3
    assert error_doc(err)["code"] == "regime"


@pytest.mark.parametrize("field", ["max_degree", "moment", "degree"])
def test_json_booleans_are_document_errors(capsys, tmp_path, field):
    # a degree bound and a moment of 1, so that reading true as 1 would pass
    doc = json.loads(dump_state(total_state(P1, 1, {"a": 1})))
    if field == "max_degree":
        doc["max_degree"] = True
    elif field == "moment":
        doc["moments"]["a"] = True
    else:
        doc["algebra"]["generators"][0]["degree"] = False
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", str(path), "--expr", "A1.a"
    )
    assert code == 2
    assert error_doc(err)["code"] == "document"


@pytest.mark.parametrize("command", ["eval", "unitize-in", "unitize-out", "classical"])
def test_a_directory_for_a_file_is_a_document_error(capsys, tmp_path, pair_files, command):
    s1, _ = pair_files
    folder = str(tmp_path)
    argv = {
        "eval": ["eval", "--product", "boolean", "--state", folder, "--expr", "A1.a"],
        "unitize-in": ["state", "unitize", "--state", folder],
        "unitize-out": ["state", "unitize", "--state", s1, "--out", folder],
        "classical": ["classical", "independence", "--space", folder, "--x", s1, "--y", s1],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 2
    doc = error_doc(err)
    assert doc["code"] == "document" and doc["context"] == {"path": folder}


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    b'{"max_degree": ' + b"7" * 5000 + b"}",
    b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf-8", "5000-digit-integer", "deep-nesting"])
@pytest.mark.parametrize("command", ["eval", "classical"])
def test_a_document_that_does_not_decode_is_a_document_error(capsys, tmp_path, content, command):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    argv = (["eval", "--product", "boolean", "--state", str(path), "--expr", "A1.a"] if command == "eval"
            else ["classical", "independence", "--space", str(path), "--x", str(path), "--y", str(path)])
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert error_doc(err)["code"] == "document"


@pytest.mark.parametrize("path, value", [
    (("generators", 0, "degree"), None),
    (("generators", 0, "degree"), 0.5),
    (("generators", 0, "degree"), "1"),
    (("generators", 0, "degree"), 1.0),
    (("name",), ["A1"]),
    (("name",), None),
])
def test_algebra_fields_of_the_wrong_json_type_are_document_errors(capsys, tmp_path, path, value):
    doc = json.loads(dump_state(total_state(P1, 1, {"a": 1})))
    *inner, last = path
    target = doc["algebra"]
    for key in inner:
        target = target[key]
    target[last] = value
    state = tmp_path / "typed.json"
    state.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", str(state), "--expr", "A1.a"
    )
    assert code == 2
    assert error_doc(err)["code"] == "document"


@pytest.mark.parametrize("name", [True, 7])
def test_generator_names_that_are_not_strings_are_document_errors(capsys, tmp_path, name):
    # read through str(), true would name a generator "True"
    doc = {
        "algebra": {"name": "A1", "unital": False, "generators": [{"name": name, "degree": 0}]},
        "max_degree": 1,
        "moments": {str(name): "1"},
    }
    state = tmp_path / "named.json"
    state.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "eval", "--product", "boolean", "--state", str(state), "--expr", "A1.%s" % name
    )
    assert code == 2
    assert error_doc(err)["code"] == "document"


@pytest.mark.parametrize("label", [["h"], {"h": 1}])
def test_variable_labels_that_are_arrays_or_objects_are_document_errors(capsys, coin_files, tmp_path, label):
    variable = tmp_path / "labels.json"
    variable.write_text(json.dumps({"map": {"h": label, "t": "t"}}))
    code, _, err = run(
        capsys, "classical", "independence",
        "--space", coin_files["coin"], "--x", str(variable), "--y", coin_files["identity"],
    )
    assert code == 2
    assert error_doc(err)["code"] == "document"


# Every field of a two-generator state document, as a path of keys.
_FIELDS = (
    (), ("algebra",), ("algebra", "name"), ("algebra", "unital"), ("algebra", "generators"),
    ("algebra", "generators", 0), ("algebra", "generators", 0, "name"),
    ("algebra", "generators", 1, "degree"), ("max_degree",), ("moments",),
    ("moments", ""), ("moments", "a"), ("moments", "a b"),
)
_BIG = "__big_integer__"  # written out as a 5,000-digit JSON integer


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_FIELDS),
                  st.sampled_from([None, 0.5, "x", [], [1, "a"], {}, {"k": None}, _BIG])),
        min_size=1, max_size=3,
    ),
    st.sampled_from(["tensor", "free", "boolean", "q:free:2", "fermi"]),
)
def test_mutated_state_documents_never_escape_main(replacements, product):
    """Each replacement sets one field to a value of another JSON type; the
    tool answers with a documented exit code and, on error, one JSON line."""
    doc = json.loads(dump_state(total_state(G1, 2, {"b": "1/2", "a a": 1})))
    for path, value in replacements:
        if not path:
            doc = copy.deepcopy(value)
            continue
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier replacement removed the field
    text = json.dumps(doc).replace(json.dumps(_BIG), "9" * 5000)
    # the body runs once per example, so it makes its own file and output
    # buffers rather than take function-scoped fixtures
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "state.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["eval", "--product", product, "--state", path, "--expr", "A1.a A1.b"])
    assert code in (0, 2, 3)
    if code:
        error_doc(stderr.getvalue())
    else:
        assert stderr.getvalue() == ""


# Fields of the space, x and y documents of two coin tosses, as a document
# and a path of keys.
_CLASSICAL_FIELDS = (
    ("space", ()), ("space", ("outcomes",)), ("space", ("outcomes", 0)), ("space", ("weights",)),
    ("space", ("weights", "hh")), ("x", ()), ("x", ("map",)), ("x", ("map", "hh")),
    ("y", ("map",)), ("y", ("map", "tt")),
)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(_CLASSICAL_FIELDS),
                  st.sampled_from([None, 0.5, "x", "h", "1/3", [], [1, "a"], {}, {"k": None}, _BIG])),
        min_size=1, max_size=3,
    )
)
def test_mutated_space_and_variable_documents_never_escape_main(replacements):
    """As the state-document fuzz, over the three documents that
    `classical independence` reads."""
    quarter = as_rational("1/4")
    product = FiniteProbSpace(("hh", "ht", "th", "tt"), {o: quarter for o in ("hh", "ht", "th", "tt")})
    docs = {
        "space": space_to_json(product),
        "x": variable_to_json(RandomVariable(product, {o: o[0] for o in product.outcomes})),
        "y": variable_to_json(RandomVariable(product, {o: o[1] for o in product.outcomes})),
    }
    for (name, path), value in replacements:
        if not path:
            docs[name] = copy.deepcopy(value)
            continue
        target = docs[name]
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier replacement removed the field
    argv = ["classical", "independence"]
    with tempfile.TemporaryDirectory() as folder:
        for name, doc in docs.items():
            path = os.path.join(folder, "%s.json" % name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc).replace(json.dumps(_BIG), "9" * 5000))
            argv += ["--" + name, path]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2)
    if code:
        error_doc(stderr.getvalue())
    else:
        assert stderr.getvalue() == ""


# The error codes each exit code may carry.
_CODES = {1: {"mismatch"}, 2: {"usage", "expression", "document"}, 3: {"degree", "regime"}}

# The argv vocabulary: "@name" stands for files of the fixture below, "@pair"
# for two state files, and "@out" for --out <scratch file>, the only file
# main may write.
_HEADS = (
    ("eval",), ("check",), ("check", "reduction"), ("clt",), ("classical", "independence"),
    ("state", "unitize"), ("check", "unitize"), ("state",), ("frobnicate",), ("",), (),
)
_NUMBERS = ("-1", "0", "1", "2", "3")
_KINDS = ("tensor", "free", "boolean", "monotone", "antimonotone", "degenerate", "fermi",
          "q:free:2", "q:tensor:-1", "q:boolean:0", "q:fermi:2", "q:free", "sideways")
_STATES = ("@pair", "@pair", "@s1", "@g1", "@missing", "@space")
_DOCUMENTS = ("@space", "@x", "@y", "@missing", "@s1")
_FLAG_VALUES = {
    "--product": _KINDS, "--kind": ("fermi", "boolean", "monotone", "antimonotone", "tensor"),
    "--state": _STATES,
    "--expr": ("A1.a", "A1.a A2.b A1.a", "1/2 * A1.a + A2.b^2", "A1.b A2.x", "A1.a^3", "A1.", "("),
    "--axiom": ("symmetry", "associativity", "unitlaw", "factorization", "bogus"),
    "--seed": _NUMBERS, "--trials": _NUMBERS, "--max-len": _NUMBERS, "--n": _NUMBERS,
    "--order": _NUMBERS, "--moments": ("0,1,0,1", "1/2,1", "-1,1", "1,,2", "1/0", ""),
    "--space": _DOCUMENTS, "--x": _DOCUMENTS, "--y": _DOCUMENTS,
}
# each command's own flags
_HEAD_FLAGS = {
    "eval": ("--product", "--state", "--expr"),
    "check": ("--axiom", "--product", "--kind", "--seed", "--trials", "--max-len"),
    "clt": ("--product", "--moments", "--n", "--order"),
    "classical": ("--space", "--x", "--y"),
    "state": ("--state",),
}
_NOISE = ("@out", "@s2", "@missing", "reduction", "--trials", "1/2", "", "-1")
_ANY_VALUE = tuple(sorted({value for values in _FLAG_VALUES.values() for value in values}))


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("argv")
    paths = {name: str(folder / ("%s.json" % name[1:])) for name in ("@s1", "@s2", "@g1", "@space", "@x", "@y")}
    dump_state(total_state(P1, 2, {"a": "1/2"}), paths["@s1"])
    dump_state(total_state(P2, 2, {"b": "1/3"}), paths["@s2"])
    dump_state(total_state(G1, 2, {"b": "1/2"}), paths["@g1"])
    quarter = as_rational("1/4")
    space = FiniteProbSpace(("hh", "ht", "th", "tt"), {o: quarter for o in ("hh", "ht", "th", "tt")})
    for name, doc in (("@space", space_to_json(space)),
                      ("@x", variable_to_json(RandomVariable(space, {o: o[0] for o in space.outcomes}))),
                      ("@y", variable_to_json(RandomVariable(space, {o: o[1] for o in space.outcomes})))):
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    tokens = {name: [path] for name, path in paths.items()}
    tokens["@pair"] = [paths["@s1"], paths["@s2"]]
    tokens["@missing"] = [str(folder / "missing.json")]
    tokens["@out"] = ["--out", str(folder / "out.json")]
    return tokens


@st.composite
def _argvs(draw):
    """A head and all its own flags, each with one of its own values, in
    any order; then up to three edits, each dropping a flag or putting in a
    noise word or a flag of any value."""
    head = draw(st.sampled_from(_HEADS))
    flags = _HEAD_FLAGS.get(head[0] if head else "", ())
    pairs = [(flag, draw(st.sampled_from(_FLAG_VALUES[flag]))) for flag in draw(st.permutations(flags))]
    noise = st.one_of(st.sampled_from(_NOISE).map(lambda word: (word,)),
                      st.tuples(st.sampled_from(sorted(_FLAG_VALUES)), st.sampled_from(_ANY_VALUE)))
    for _ in range(draw(st.integers(0, 3))):
        if pairs and draw(st.booleans()):
            del pairs[draw(st.integers(0, len(pairs) - 1))]
        else:
            pairs.insert(draw(st.integers(0, len(pairs))), draw(noise))
    return [*head, *(token for item in pairs for token in item)]


@settings(max_examples=500, deadline=None)
@given(_argvs())
def test_any_argv_gets_a_documented_exit_code(argv_files, words):
    """main answers every argv drawn from the vocabulary with an exit code
    in {0, 1, 2, 3}, and on stderr at most JSON lines whose code matches
    it.  A work budget of 3 trials of 3 letters keeps every check cheap:
    a larger one is refused as a usage error."""
    argv = [path for word in words for path in argv_files.get(word, [word])]
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ncindep.cli.CLT_WORK_BUDGET", 3 * 4**3)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
    for line in stderr.getvalue().splitlines():
        assert error_doc(line + "\n")["code"] in _CODES.get(code, ()), argv


def test_unknown_product_label_is_a_usage_error(capsys, pair_files):
    s1, s2 = pair_files
    code, _, err = run(
        capsys, "eval", "--product", "sideways", "--state", s1, s2, "--expr", "A1.a"
    )
    assert code == 2
    assert error_doc(err)["code"] == "usage"


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert error_doc(err)["code"] == "usage"


def test_one_parser_serves_every_call(capsys, monkeypatch):
    assert _build_parser() is _build_parser()
    argv = ("clt", "--product", "free", "--moments", "0,1,0,1", "--order", "4")
    code, out, err = run(capsys, *argv, "--n", "0")
    assert code == 2 and out == "" and error_doc(err)["code"] == "usage"
    code, out, err = run(capsys, *argv, "--n", "2")
    assert code == 0 and err == ""
    assert out.splitlines() == ["6", "normalized: 3/2"]
    # an option given to one call does not carry over to the next
    import ncindep.cli as cli
    from ncindep.axioms import AxiomReport

    lengths = []

    def suite(axiom, kind, seed, trials, max_len):
        lengths.append(max_len)
        return AxiomReport(axiom, kind, seed, trials, (), 1)

    monkeypatch.setattr(cli, "run_axiom_suite", suite)
    argv = ("check", "--axiom", "symmetry", "--product", "tensor")
    assert run(capsys, *argv, "--max-len", "3")[0] == 0
    assert run(capsys, *argv)[0] == 0
    assert lengths == [3, 6]


def test_module_entry_point_runs_as_a_process(tmp_path):
    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    dump_state(total_state(P1, 2, {"a": "1/2"}), s1)
    dump_state(total_state(P2, 2, {"b": "1/3"}), s2)
    # the child imports the ncindep this process imported, installed or not
    source = os.path.dirname(os.path.dirname(os.path.abspath(ncindep.__file__)))
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-m", "ncindep", "eval", "--product", "boolean",
         "--state", str(s1), str(s2), "--expr", "A1.a A2.b A1.a"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "1/12"
