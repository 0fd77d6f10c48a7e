"""Finite probability spaces and the two faces of independence."""

import random

import pytest

from ncindep import (
    FiniteProbSpace,
    RandomVariable,
    StateDocumentError,
    independence_equivalence,
    joint_variable,
    product_space,
    projections,
    pushforward,
)
from ncindep.classical import (
    load_space,
    load_variable,
    space_from_json,
    space_to_json,
    variable_from_json,
    variable_to_json,
)
from ncindep.rational import ZERO, as_rational

HALF = as_rational("1/2")
COIN = FiniteProbSpace(("h", "t"), {"h": HALF, "t": HALF})


def uniform(labels):
    share = as_rational("1/%d" % len(labels))
    return FiniteProbSpace(tuple(labels), {o: share for o in labels})


# ---------------------------------------------------------------------------
# spaces and variables


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        FiniteProbSpace(("h", "t"), {"h": HALF, "t": as_rational("1/3")})


def test_weights_must_be_nonnegative_and_cover_outcomes():
    with pytest.raises(ValueError):
        FiniteProbSpace(("h", "t"), {"h": as_rational("3/2"), "t": as_rational("-1/2")})
    with pytest.raises(ValueError):
        FiniteProbSpace(("h", "t"), {"h": 1})


def test_identity_variable_keeps_the_law():
    x = RandomVariable(COIN, {"h": "h", "t": "t"})
    assert pushforward(x) == COIN


def test_constant_variable_is_a_point_mass():
    x = RandomVariable(COIN, {"h": "c", "t": "c"})
    law = pushforward(x)
    assert law.weight("c") == as_rational(1)


def test_parity_of_a_fair_four_point_space_is_a_fair_coin():
    four = uniform(("0", "1", "2", "3"))
    parity = RandomVariable(four, {"0": "even", "1": "odd", "2": "even", "3": "odd"})
    law = pushforward(parity)
    assert law.weight("even") == HALF
    assert law.weight("odd") == HALF


def test_unused_codomain_labels_keep_zero_weight():
    x = RandomVariable(COIN, {"h": "a", "t": "a"}, codomain=("a", "b"))
    assert pushforward(x).weight("b") == ZERO


@pytest.mark.parametrize("call, message", [
    (lambda: FiniteProbSpace(("h", "h"), {"h": 1}), "outcome labels must be distinct"),
    (lambda: FiniteProbSpace(("h",), {"h": 1, "t": 0}), "weights given for unknown outcomes ['t']"),
    (lambda: RandomVariable(COIN, {"h": 0, "t": 1}, codomain=(0, 1, 0)), "codomain labels must be distinct"),
    (lambda: RandomVariable(COIN, {"h": 0, "t": 2}, codomain=(0, 1)), "mapping takes values outside the codomain"),
], ids=["repeated-outcome", "unknown-outcome-weight", "repeated-codomain-label", "value-outside-codomain"])
def test_refusals_name_their_cause(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert raised.type is ValueError and str(raised.value) == message


# ---------------------------------------------------------------------------
# products


def test_product_of_two_fair_coins_is_uniform_on_four():
    prod = product_space(COIN, COIN)
    assert len(prod.outcomes) == 4
    assert all(prod.weight(o) == as_rational("1/4") for o in prod.outcomes)


def test_product_with_a_point_mass_is_the_other_factor():
    point = FiniteProbSpace(("*",), {"*": as_rational(1)})
    prod = product_space(COIN, point)
    assert [prod.weight((o, "*")) for o in COIN.outcomes] == [HALF, HALF]


def test_product_multiplies_weights():
    left = FiniteProbSpace(("a", "b"), {"a": as_rational("1/3"), "b": as_rational("2/3")})
    prod = product_space(left, COIN)
    got = [prod.weight(o) for o in prod.outcomes]
    assert got == [as_rational(x) for x in ("1/6", "1/6", "1/3", "1/3")]


def test_product_is_commutative_and_associative_on_weights():
    a = FiniteProbSpace(("a", "b"), {"a": as_rational("1/4"), "b": as_rational("3/4")})
    b = uniform(("u", "v", "w"))
    c = COIN
    ab = product_space(a, b)
    ba = product_space(b, a)
    assert all(ab.weight((x, y)) == ba.weight((y, x)) for x, y in ab.outcomes)
    left = product_space(product_space(a, b), c)
    right = product_space(a, product_space(b, c))
    assert all(
        left.weight(((x, y), z)) == right.weight((x, (y, z)))
        for (x, y), z in left.outcomes
    )


def test_projections_recover_the_marginals():
    left = FiniteProbSpace(("a", "b"), {"a": as_rational("1/5"), "b": as_rational("4/5")})
    prod = product_space(left, COIN)
    p1, p2 = projections(prod)
    assert pushforward(p1) == left
    assert pushforward(p2) == COIN


# ---------------------------------------------------------------------------
# independence both ways


def test_coordinates_on_a_product_are_independent():
    p1, p2 = projections(product_space(COIN, COIN))
    verdict = independence_equivalence(p1, p2)
    assert verdict.atomwise and verdict.jointfactor


def test_a_variable_is_dependent_on_itself():
    x = RandomVariable(COIN, {"h": "h", "t": "t"})
    verdict = independence_equivalence(x, x)
    assert not verdict.atomwise and not verdict.jointfactor


def test_constants_are_independent_of_everything():
    x = RandomVariable(COIN, {"h": "h", "t": "t"})
    c = RandomVariable(COIN, {"h": "*", "t": "*"})
    verdict = independence_equivalence(x, c)
    assert verdict.atomwise and verdict.jointfactor


def test_joint_variable_requires_a_shared_domain():
    x = RandomVariable(COIN, {"h": "h", "t": "t"})
    other = uniform(("0", "1", "2"))
    y = RandomVariable(other, {"0": "a", "1": "a", "2": "b"})
    with pytest.raises(ValueError):
        joint_variable(x, y)


def random_instance(rng):
    size = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, 24) for _ in range(size - 1))
    bounds = [0] + cuts + [24]
    weights = [bounds[k + 1] - bounds[k] for k in range(size)]
    outcomes = tuple("o%d" % k for k in range(size))
    space = FiniteProbSpace(
        outcomes, {o: as_rational("%d/24" % w) for o, w in zip(outcomes, weights)}
    )
    labels = tuple("v%d" % k for k in range(rng.randint(1, 4)))
    x = RandomVariable(space, {o: rng.choice(labels) for o in outcomes}, labels)
    y = RandomVariable(space, {o: rng.choice(labels) for o in outcomes}, labels)
    return x, y


def test_both_tests_agree_on_random_instances():
    rng = random.Random(2024)
    seen = {True: 0, False: 0}
    for _ in range(120):
        x, y = random_instance(rng)
        verdict = independence_equivalence(x, y)
        assert verdict.atomwise == verdict.jointfactor
        seen[verdict.atomwise] += 1
    assert seen[True] and seen[False]  # the sweep visits both answers


# ---------------------------------------------------------------------------
# documents


def test_space_document_round_trip(tmp_path):
    space = FiniteProbSpace(("a", "b"), {"a": as_rational("1/3"), "b": as_rational("2/3")})
    assert space_from_json(space_to_json(space)) == space
    path = tmp_path / "space.json"
    path.write_text(__import__("json").dumps(space_to_json(space)))
    assert load_space(path) == space


def test_variable_document_round_trip(tmp_path):
    x = RandomVariable(COIN, {"h": "yes", "t": "no"})
    doc = variable_to_json(x)
    again = variable_from_json(COIN, doc)
    assert again.mapping == x.mapping
    assert again.codomain == x.codomain
    path = tmp_path / "var.json"
    path.write_text(__import__("json").dumps(doc))
    assert load_variable(path, COIN).mapping == x.mapping


def test_malformed_space_documents_are_rejected():
    good = space_to_json(COIN)
    for breakage in (
        lambda d: d.pop("outcomes"),
        lambda d: d["weights"].pop("h"),
        lambda d: d["weights"].__setitem__("h", "0.5"),
    ):
        doc = {"outcomes": list(good["outcomes"]), "weights": dict(good["weights"])}
        breakage(doc)
        with pytest.raises(StateDocumentError):
            space_from_json(doc)


def test_malformed_variable_documents_are_rejected():
    with pytest.raises(StateDocumentError):
        variable_from_json(COIN, {})
    with pytest.raises(StateDocumentError):
        variable_from_json(COIN, {"map": {"h": "a"}})  # t unmapped
