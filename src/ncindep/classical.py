"""Finite classical probability: product measures, pushforwards, and the
equivalence of the two standard formulations of independence.

Everything is exact: weights are rationals that sum to one, sigma-algebras
are full power sets, and independence is decided two ways -

1. atom by atom: P(X = e1, Y = e2) factorizes for all pairs of codomain
   atoms (enough for all events, since events are finite disjoint unions
   of atoms), and
2. by distributions: the law of the paired map omega -> (X(omega), Y(omega))
   coincides with the product of the two marginal laws.

The two answers agree on every instance; the equivalence is exercised by
the test suite over randomly generated spaces rather than assumed.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import StateDocumentError
from .moments import _read_document
from .rational import ONE, Rational, ZERO, as_rational, format_rational, parse_rational


class FiniteProbSpace:
    """Finitely many outcomes with exact nonnegative weights summing to 1.

    Outcome labels are hashable (strings from JSON documents, tuples for
    product spaces).  Equality disregards outcome order.
    """

    __slots__ = ("outcomes", "weights")

    def __init__(self, outcomes, weights):
        outcomes = tuple(outcomes)
        if not outcomes:
            raise ValueError("a probability space needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be distinct")
        table = {}
        for label in outcomes:
            if label not in weights:
                raise ValueError("missing weight for outcome %r" % (label,))
            weight = as_rational(weights[label])
            if weight < ZERO:
                raise ValueError("negative weight for outcome %r" % (label,))
            table[label] = weight
        if len(weights) != len(outcomes):
            extra = set(weights) - set(outcomes)
            raise ValueError("weights given for unknown outcomes %r" % (sorted(map(str, extra)),))
        if sum(table.values()) != ONE:
            raise ValueError("weights must sum to exactly 1")
        self.outcomes = outcomes
        self.weights = table

    def weight(self, label) -> Rational:
        return self.weights[label]

    def __eq__(self, other):
        if not isinstance(other, FiniteProbSpace):
            return NotImplemented
        return self.weights == other.weights

    __hash__ = None

    def __repr__(self):
        body = ", ".join(
            "%r: %s" % (label, format_rational(self.weights[label]))
            for label in self.outcomes
        )
        return "FiniteProbSpace({%s})" % body


class RandomVariable:
    """Total map from the outcomes of a finite space into a label set."""

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain: FiniteProbSpace, mapping, codomain=None):
        missing = [o for o in domain.outcomes if o not in mapping]
        if missing:
            raise ValueError("mapping undefined on outcomes %r" % (missing,))
        mapping = {o: mapping[o] for o in domain.outcomes}
        image = set(mapping.values())
        if codomain is None:
            codomain = tuple(sorted(image, key=repr))
        else:
            codomain = tuple(codomain)
            if len(set(codomain)) != len(codomain):
                raise ValueError("codomain labels must be distinct")
            if not image <= set(codomain):
                raise ValueError("mapping takes values outside the codomain")
        self.domain = domain
        self.codomain = codomain
        self.mapping = mapping

    def __call__(self, outcome):
        return self.mapping[outcome]

    def __repr__(self):
        return "RandomVariable(%d outcomes -> %d labels)" % (
            len(self.domain.outcomes),
            len(self.codomain),
        )


def pushforward(variable: RandomVariable) -> FiniteProbSpace:
    """Distribution of the variable: weight(e) = sum of P over the preimage
    of e.  Codomain labels with empty preimage keep weight 0."""
    weights = {label: ZERO for label in variable.codomain}
    for outcome in variable.domain.outcomes:
        weights[variable(outcome)] += variable.domain.weight(outcome)
    return FiniteProbSpace(variable.codomain, weights)


def product_space(first: FiniteProbSpace, second: FiniteProbSpace) -> FiniteProbSpace:
    """Product measure on pairs: weight((u, v)) = P1(u) * P2(v)."""
    outcomes = []
    weights = {}
    for u in first.outcomes:
        for v in second.outcomes:
            pair = (u, v)
            outcomes.append(pair)
            weights[pair] = first.weight(u) * second.weight(v)
    return FiniteProbSpace(outcomes, weights)


def projections(product: FiniteProbSpace):
    """The two coordinate variables on a space whose outcomes are pairs."""
    first = RandomVariable(product, {pair: pair[0] for pair in product.outcomes})
    second = RandomVariable(product, {pair: pair[1] for pair in product.outcomes})
    return first, second


def joint_variable(x: RandomVariable, y: RandomVariable) -> RandomVariable:
    """The paired map omega -> (x(omega), y(omega)), with codomain the full
    Cartesian product so that its law lives on the same label set as the
    product of the marginal laws."""
    if x.domain is not y.domain and x.domain != y.domain:
        raise ValueError("variables must share a domain space")
    codomain = tuple((u, v) for u in x.codomain for v in y.codomain)
    mapping = {o: (x(o), y(o)) for o in x.domain.outcomes}
    return RandomVariable(x.domain, mapping, codomain)


class IndependenceVerdict(NamedTuple):
    atomwise: bool
    jointfactor: bool


def independence_equivalence(x: RandomVariable, y: RandomVariable) -> IndependenceVerdict:
    """Decide independence both ways and report each answer.

    ``atomwise`` factorizes P(x = e1, y = e2) over all pairs of atoms;
    ``jointfactor`` compares the law of the paired map against the product
    of the marginal laws.  The two booleans agree on every instance.
    """
    law_joint = pushforward(joint_variable(x, y))  # checks the shared domain first
    law_x = pushforward(x)
    law_y = pushforward(y)
    atomwise = all(
        law_joint.weight((u, v)) == law_x.weight(u) * law_y.weight(v)
        for u in x.codomain
        for v in y.codomain
    )
    jointfactor = law_joint == product_space(law_x, law_y)
    return IndependenceVerdict(atomwise, jointfactor)


# ---------------------------------------------------------------------------
# JSON documents: {"outcomes": [...], "weights": {label: "p/q"}} for spaces,
# {"map": {outcome: label}} for variables on a given space.


def space_to_json(space: FiniteProbSpace) -> dict:
    return {
        "outcomes": [str(label) for label in space.outcomes],
        "weights": {
            str(label): format_rational(space.weight(label))
            for label in space.outcomes
        },
    }


def space_from_json(doc) -> FiniteProbSpace:
    if not isinstance(doc, dict):
        raise StateDocumentError("probability space document must be an object")
    outcomes = doc.get("outcomes")
    weights = doc.get("weights")
    if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
        raise StateDocumentError("'outcomes' must be a list of strings")
    if not isinstance(weights, dict):
        raise StateDocumentError("'weights' must be an object")
    try:
        parsed = {label: parse_rational(str(value)) for label, value in weights.items()}
        return FiniteProbSpace(outcomes, parsed)
    except (ValueError, ZeroDivisionError) as exc:
        raise StateDocumentError(str(exc)) from None


def variable_to_json(variable: RandomVariable) -> dict:
    return {"map": {str(o): str(variable(o)) for o in variable.domain.outcomes}}


def variable_from_json(domain: FiniteProbSpace, doc) -> RandomVariable:
    if not isinstance(doc, dict) or not isinstance(doc.get("map"), dict):
        raise StateDocumentError("variable document must be an object with a 'map'")
    if any(isinstance(label, (list, dict)) for label in doc["map"].values()):
        raise StateDocumentError("variable labels must not be arrays or objects")
    try:
        return RandomVariable(domain, dict(doc["map"]))
    except ValueError as exc:
        raise StateDocumentError(str(exc)) from None


def load_space(path: str) -> FiniteProbSpace:
    return space_from_json(_read_document(path))


def load_variable(path: str, domain: FiniteProbSpace) -> RandomVariable:
    return variable_from_json(domain, _read_document(path))
