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
import math
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


class MomentFunctional:
    """A linear functional given by its moments up to ``max_degree``.

    Every monomial of length <= ``max_degree`` has an exact rational
    moment, stored once keyed by letter tuples (:attr:`letters_table`);
    :attr:`table`, keyed by :class:`Monomial`, is a view derived on first
    access.  Unital algebras map the unit to 1.  The constructor validates
    its table; the library's own complete tables skip that through
    :meth:`_from_letters`.  Evenness (vanishing on odd monomials of a
    graded algebra) is not forced; operations that need it check
    :attr:`is_even`.
    """

    __slots__ = ("algebra", "max_degree", "_table", "_letters", "_even")

    def __init__(self, algebra: AlgebraSignature, max_degree: int, table: Mapping[Monomial, Rational]):
        self.algebra, self.max_degree, self._table = algebra, max_degree, table
        self.__post_init__()

    def __post_init__(self):
        # the validating body, apart from __init__ so that it can be wrapped
        if self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        clean: dict[Monomial, Rational] = {}
        for monomial, value in dict(self._table).items():
            if monomial.algebra != self.algebra:
                raise ValueError("table entry %r is not over %r" % (monomial, self.algebra.name))
            if len(monomial) > self.max_degree:
                raise ValueError("table entry %r exceeds max_degree %d" % (monomial, self.max_degree))
            clean[monomial] = as_rational(value)
        # entries are distinct, over the algebra, and within the bound, so a
        # count match proves totality.  The count stops once past the table's
        # size (no length past 0 has monomials without generators), and a
        # table that falls short misses one of the first len(clean) + 1
        # monomials, so neither step costs work in D.
        width = len(self.algebra.generators)
        start = 0 if self.algebra.unital else 1
        needed = 0
        for length in range(start, (self.max_degree if width else 0) + 1):
            needed += width**length
            if needed > len(clean):
                break
        if len(clean) != needed:
            for monomial in all_monomials(self.algebra, self.max_degree):
                if monomial not in clean:
                    raise ValueError("moment table is missing %r" % (monomial,))
        if self.algebra.unital:
            unit = Monomial(self.algebra, ())
            if clean[unit] != ONE:
                raise ValueError("a unital functional must send the unit to 1")
        self._table = clean
        self._letters = {monomial.letters: value for monomial, value in clean.items()}
        self._even = None

    @classmethod
    def _from_letters(cls, algebra: AlgebraSignature, max_degree: int, letters: dict) -> "MomentFunctional":
        """Trusted build from a letter-keyed table the caller made complete
        and exact, in canonical order; nothing is checked again."""
        self = cls.__new__(cls)
        self.algebra, self.max_degree, self._letters = algebra, max_degree, letters
        self._table = self._even = None
        return self

    @classmethod
    def from_entries(cls, algebra: AlgebraSignature, max_degree: int, entries) -> "MomentFunctional":
        """Build from a mapping of letter tuples (or space-joined strings)."""
        table = {}
        for key, value in entries.items():
            letters = tuple(key.split()) if isinstance(key, str) else tuple(key)
            table[Monomial(algebra, letters)] = as_rational(value)
        return cls(algebra, max_degree, table)

    @property
    def table(self) -> Mapping[Monomial, Rational]:
        """The moment table keyed by :class:`Monomial`; do not mutate."""
        if self._table is None:
            self._table = {Monomial(self.algebra, key): value for key, value in self._letters.items()}
        return self._table

    @property
    def letters_table(self) -> Mapping[tuple, Rational]:
        """The moment table keyed by plain letter tuples; do not mutate."""
        return self._letters

    @property
    def unital(self) -> bool:
        return self.algebra.unital

    @property
    def is_even(self) -> bool:
        """True when every odd-degree monomial up to D has moment 0."""
        if self._even is None:
            odd = {name for name, degree in self.algebra.generators if degree}
            self._even = not odd or all(
                value == ZERO
                for letters, value in self._letters.items()
                if sum(letter in odd for letter in letters) & 1
            )
        return self._even

    def __call__(self, monomial: Monomial) -> Rational:
        if monomial.algebra != self.algebra:
            raise ValueError("monomial %r is not over %r" % (monomial, self.algebra.name))
        if len(monomial) > self.max_degree:
            raise DegreeExceeded(monomial, self.max_degree)
        return self._letters[monomial.letters]

    def value_of_letters(self, letters) -> Rational:
        """Moment of the monomial with the given letters (over this algebra)."""
        letters = tuple(letters)
        value = self._letters.get(letters)
        # beyond D, or not a monomial here: the checked route raises
        return self(Monomial(self.algebra, letters)) if value is None else value

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


def _times(first: dict, second: dict) -> dict:
    """Product of two single-factor polynomials keyed by letter tuples."""
    out: dict = {}
    for left, c1 in first.items():
        for right, c2 in second.items():
            key, coeff = left + right, c1 * c2
            out[key] = out[key] + coeff if key in out else coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def pullback(phi: MomentFunctional, hom: Homomorphism, max_degree=None) -> MomentFunctional:
    """The composite functional phi o hom, tabulated over the source.

    The result's degree bound defaults to the largest D such that every
    source monomial of length D has an image phi can evaluate (D times the
    longest image monomial fits under phi's bound), and to phi's own bound
    when every image is constant.  Requesting more raises
    ``DegreeExceeded``.  Each monomial's image is its prefix's image times
    one generator's image.
    """
    if hom.target != phi.algebra:
        raise ValueError("homomorphism does not land in the functional's algebra")
    names = hom.source.generator_names
    images = {}  # integer numerators over one denominator, so products stay in ints
    for name in names:
        terms = hom.images[name].terms
        den = math.lcm(*(c.denominator for c in terms.values()))
        images[name] = den, {
            (w.blocks[0][1].letters if w.blocks else ()): c.numerator * (den // c.denominator)
            for w, c in terms.items()
        }
    longest = max((len(letters) for _, image in images.values() for letters in image), default=0)
    feasible = phi.max_degree // longest if longest else phi.max_degree
    if max_degree is None:
        max_degree = feasible
    elif max_degree > feasible:
        # the shown letters of the requested monomial, not the monomial
        probe = Monomial(hom.source, names[:1] * min(max_degree, DegreeExceeded.SHOWN_LETTERS))
        raise DegreeExceeded(probe, feasible, length=max_degree)
    values = phi.letters_table  # holds every key: the images fit under its bound
    table = {(): ONE} if hom.source.unital else {}
    level = {(): (1, {(): 1})}  # the images of the monomials of one length
    for _ in range(max_degree):
        level = {
            prefix + (name,): (den * images[name][0], _times(image, images[name][1]))
            for prefix, (den, image) in level.items()
            for name in names
        }
        for letters, (den, image) in level.items():
            moments = [(c, values[key]) for key, c in image.items()]
            common = math.lcm(*(v.denominator for _, v in moments))
            num = sum(c * v.numerator * (common // v.denominator) for c, v in moments)
            table[letters] = Rational(num, common * den)
    return MomentFunctional._from_letters(hom.source, max_degree, table)


def unitize(phi: MomentFunctional) -> MomentFunctional:
    """Adjoin a unit: same moments, plus unit -> 1, on the unitized algebra."""
    if phi.unital:
        raise RegimeMismatch("functional is already unital")
    signature = AlgebraSignature(phi.algebra.name, True, phi.algebra.generators)
    return MomentFunctional._from_letters(signature, phi.max_degree, {(): ONE, **phi.letters_table})


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
    table = {letters: value * coeff for letters, value in phi.letters_table.items()}
    return MomentFunctional._from_letters(phi.algebra, phi.max_degree, table)


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
        " ".join(letters): format_rational(value)
        for letters, value in phi.letters_table.items()
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
