"""Moment functionals: finitely specified linear functionals on free algebras.

A :class:`MomentFunctional` stores one exact rational per monomial up to a
maximum degree D, totally - every monomial of length at most D has an entry,
and asking beyond D raises :class:`~ncindep.errors.DegreeExceeded` rather
than inventing a zero.  In the unital regime the empty monomial is present
and pinned to 1.

The JSON document format used by the command line tool::

    {
      "algebra": {
        "name": "A1",
        "unital": false,
        "generators": [{"name": "x", "degree": 0}, ...]
      },
      "max_degree": 4,
      "moments": {"": "1", "x": "0", "x x": "1/2", ...}
    }

Moment keys are space-separated generator names; the empty key is the unit
and is required (with value 1) exactly when the algebra is unital.  Values
are exact rational literals, ``"p/q"`` or a bare integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

from .algebra import (
    AlgebraSignature,
    Homomorphism,
    Monomial,
    Polynomial,
    all_monomials,
)
from .errors import DegreeExceeded, RegimeMismatch, StateDocumentError
from .rational import ONE, Rational, ZERO, as_rational, format_rational


@dataclass(frozen=True, eq=False)
class MomentFunctional:
    """A linear functional given by its moments up to ``max_degree``.

    ``table`` maps every monomial of length <= ``max_degree`` to an exact
    rational.  Unital algebras must map the unit to 1.  Evenness (vanishing
    on odd monomials of a graded algebra) is not forced at construction;
    it is a property some operations require and check via :attr:`is_even`.
    """

    algebra: AlgebraSignature
    max_degree: int
    table: Mapping[Monomial, Rational]

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        clean: dict[Monomial, Rational] = {}
        for monomial, value in dict(self.table).items():
            if monomial.algebra != self.algebra:
                raise ValueError("table entry %r is not over %r" % (monomial, self.algebra.name))
            if len(monomial) > self.max_degree:
                raise ValueError("table entry %r exceeds max_degree %d" % (monomial, self.max_degree))
            clean[monomial] = as_rational(value)
        # entries are distinct, over the algebra, and within the bound, so a
        # count match proves totality without a second enumeration sweep
        width = len(self.algebra.generators)
        start = 0 if self.algebra.unital else 1
        if len(clean) != sum(width**length for length in range(start, self.max_degree + 1)):
            for monomial in all_monomials(self.algebra, self.max_degree):
                if monomial not in clean:
                    raise ValueError("moment table is missing %r" % (monomial,))
        if self.algebra.unital:
            unit = Monomial(self.algebra, ())
            if clean[unit] != ONE:
                raise ValueError("a unital functional must send the unit to 1")
        object.__setattr__(self, "table", clean)
        object.__setattr__(self, "_even", None)
        object.__setattr__(self, "_letters_cache", None)

    @classmethod
    def from_entries(cls, algebra: AlgebraSignature, max_degree: int, entries) -> "MomentFunctional":
        """Build from a mapping of letter tuples (or space-joined strings)."""
        table = {}
        for key, value in entries.items():
            letters = tuple(key.split()) if isinstance(key, str) else tuple(key)
            table[Monomial(algebra, letters)] = as_rational(value)
        return cls(algebra, max_degree, table)

    @property
    def unital(self) -> bool:
        return self.algebra.unital

    @property
    def is_even(self) -> bool:
        """True when every odd-degree monomial up to D has moment 0."""
        cached = self._even
        if cached is None:
            cached = all(
                value == ZERO
                for monomial, value in self.table.items()
                if monomial.degree == 1
            )
            object.__setattr__(self, "_even", cached)
        return cached

    def __call__(self, monomial: Monomial) -> Rational:
        if monomial.algebra != self.algebra:
            raise ValueError("monomial %r is not over %r" % (monomial, self.algebra.name))
        if len(monomial) > self.max_degree:
            raise DegreeExceeded(monomial, self.max_degree)
        return self.table[monomial]

    def value_of_letters(self, letters) -> Rational:
        """Moment of the monomial with the given letters (over this algebra)."""
        return self(Monomial(self.algebra, tuple(letters)))

    @property
    def letters_table(self) -> Mapping[tuple, Rational]:
        """The moment table keyed by plain letter tuples, for evaluation
        loops that want to avoid building monomials."""
        cached = self._letters_cache
        if cached is None:
            cached = {monomial.letters: value for monomial, value in self.table.items()}
            object.__setattr__(self, "_letters_cache", cached)
        return cached

    def __repr__(self):
        return "MomentFunctional(%s, D=%d)" % (self.algebra.name, self.max_degree)


def eval_functional(phi: MomentFunctional, polynomial: Polynomial) -> Rational:
    """Evaluate a functional on a single-algebra polynomial.

    The polynomial's words must each have at most one block, over the
    functional's algebra; the empty word is the unit (unital regime only).
    """
    total = ZERO
    for word, coeff in polynomial.items():
        if word.is_empty:
            if not phi.unital:
                raise RegimeMismatch(
                    "polynomial has a unit term but %r is non-unital" % (phi,)
                )
            total += coeff
            continue
        if word.num_blocks != 1:
            raise ValueError("polynomial is not over a single algebra: %r" % (word,))
        _, monomial = word.blocks[0]
        total += coeff * phi(monomial)
    return total


def pullback(phi: MomentFunctional, hom: Homomorphism, max_degree=None) -> MomentFunctional:
    """The composite functional phi o hom, tabulated over the source.

    The result's degree bound defaults to the largest D such that every
    source monomial of length D has an image phi can evaluate (D times the
    longest image monomial fits under phi's bound).  Requesting more raises
    ``DegreeExceeded``.
    """
    if hom.target != phi.algebra:
        raise ValueError("homomorphism does not land in the functional's algebra")
    longest = 0
    for image in hom.images.values():
        for word in image.terms:
            longest = max(longest, word.num_letters)
    if longest == 0:
        feasible = phi.max_degree
    else:
        feasible = phi.max_degree // longest
    if max_degree is None:
        max_degree = feasible
    elif max_degree * longest > phi.max_degree:
        probe = Monomial(hom.source, hom.source.generator_names[:1] * max_degree)
        raise DegreeExceeded(probe, feasible)
    table = {
        monomial: eval_functional(phi, hom.apply_monomial(monomial))
        for monomial in all_monomials(hom.source, max_degree)
    }
    return MomentFunctional(hom.source, max_degree, table)


def unitize(phi: MomentFunctional) -> MomentFunctional:
    """Adjoin a unit: same moments, plus unit -> 1, on the unitized algebra."""
    if phi.unital:
        raise RegimeMismatch("functional is already unital")
    signature = AlgebraSignature(phi.algebra.name, True, phi.algebra.generators)
    table = {
        Monomial(signature, monomial.letters): value
        for monomial, value in phi.table.items()
    }
    table[Monomial(signature, ())] = ONE
    return MomentFunctional(signature, phi.max_degree, table)


def scale(phi: MomentFunctional, coeff) -> MomentFunctional:
    """Multiply every moment by a nonzero rational (non-unital regime only).

    Scaling a unital functional would break the unit normalization, so it
    is rejected there.
    """
    coeff = as_rational(coeff)
    if coeff == ZERO:
        raise ValueError("scaling coefficient must be nonzero")
    if phi.unital:
        raise RegimeMismatch("cannot scale a unital functional")
    table = {monomial: value * coeff for monomial, value in phi.table.items()}
    return MomentFunctional(phi.algebra, phi.max_degree, table)


# ---------------------------------------------------------------------------
# JSON state documents


def signature_to_json(signature: AlgebraSignature) -> dict:
    return {
        "name": signature.name,
        "unital": signature.unital,
        "generators": [
            {"name": name, "degree": degree} for name, degree in signature.generators
        ],
    }


def signature_from_json(doc) -> AlgebraSignature:
    try:
        name = doc["name"]
        unital = doc["unital"]
        generators = tuple(
            (entry["name"], entry.get("degree", 0)) for entry in doc["generators"]
        )
    except (KeyError, TypeError) as exc:
        raise StateDocumentError("malformed algebra block: %s" % exc) from exc
    if not isinstance(unital, bool):
        raise StateDocumentError("algebra field 'unital' must be a boolean")
    if any(isinstance(degree, bool) for _, degree in generators):
        raise StateDocumentError("generator degrees must be 0 or 1, not booleans")
    try:
        return AlgebraSignature(name, unital, generators)
    except ValueError as exc:
        raise StateDocumentError(str(exc)) from exc


def state_to_json(phi: MomentFunctional) -> dict:
    moments = {
        " ".join(monomial.letters): format_rational(value)
        for monomial, value in phi.table.items()
    }
    return {
        "algebra": signature_to_json(phi.algebra),
        "max_degree": phi.max_degree,
        "moments": moments,
    }


def state_from_json(doc) -> MomentFunctional:
    if not isinstance(doc, dict):
        raise StateDocumentError("state document must be a JSON object")
    for key in ("algebra", "max_degree", "moments"):
        if key not in doc:
            raise StateDocumentError("state document is missing %r" % key)
    signature = signature_from_json(doc["algebra"])
    max_degree = doc["max_degree"]
    if not isinstance(max_degree, int) or isinstance(max_degree, bool) or max_degree < 0:
        raise StateDocumentError("max_degree must be a nonnegative integer")
    moments = doc["moments"]
    if not isinstance(moments, dict):
        raise StateDocumentError("moments must be an object")
    table = {}
    for key, value in moments.items():
        letters = tuple(key.split())
        try:
            monomial = Monomial(signature, letters)
        except (ValueError, RegimeMismatch) as exc:
            raise StateDocumentError("bad moment key %r: %s" % (key, exc)) from exc
        if not isinstance(value, (str, int)) or isinstance(value, bool):
            raise StateDocumentError("moment %r must be a string or integer" % key)
        try:
            table[monomial] = as_rational(value)
        except ValueError as exc:
            raise StateDocumentError("bad moment value for %r: %s" % (key, exc)) from exc
    try:
        return MomentFunctional(signature, max_degree, table)
    except ValueError as exc:
        raise StateDocumentError(str(exc)) from exc


def load_state(path) -> MomentFunctional:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise StateDocumentError("%s: %s" % (path, exc)) from exc
    return state_from_json(doc)


def dump_state(phi: MomentFunctional, path=None) -> str:
    text = json.dumps(state_to_json(phi), indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
