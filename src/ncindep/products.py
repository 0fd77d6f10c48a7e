"""Joint functionals for the universal notions of independence.

Given one moment functional per free-product factor, a
:class:`JointFunctional` evaluates normal-form words under a chosen product.
What a kind is, from its node to its sums, is one record in ``_RULES``.
Five kinds are one padding rule.  Cut the word into maximal runs of letters
from one factor, gather each factor's runs into segments, and multiply the
factors' moments of their segments.  A run of factor j closes the open
segment of factor k, splitting k's letters there, when

* ``TENSOR`` - never: each factor's letters are gathered in order
  (classical independence);
* ``BOOLEAN`` - always: every run is valued on its own;
* ``MONOTONE`` - j < k: earlier factors are gathered, later ones split;
* ``ANTI_MONOTONE`` - j > k: the mirror image of monotone;
* ``FERMI`` - never, as for tensor, with the Koszul sign -1 for every pair
  of odd letters that the gathering moves past each other.  Every factor
  must be even, i.e. vanish on odd monomials.

The rule's structure, a word's sign and segments, is computed apart from
its values, so that a word can be cut once and valued under many states.

Two kinds have nodes of their own:

* ``FREE`` - mixed free cumulants vanish.  With c the factor of the word's
  first run (of letters from one factor),

      value(w) = sum over sets S of c's runs holding the first run of
                 kappa_c(runs in S) * product of the values of S's gaps,

  a gap being the runs after an element of S up to the next one; kappa_c
  inverts the same sum on c's own moments.
* ``DEGENERATE`` - a factor's moment for words over one factor, 0 otherwise.

:class:`QDeformed` scales a q-base product's inputs by 1/q and its
result by q.  Every kind is one node over all the factors at once.  A
product is itself a state, on the free algebra over its factors'
generators (:func:`product_state`), so a product of products is a product
over that state; the axiom suite checks that the two nestings of three
factors agree.  Boolean, monotone, anti-monotone, degenerate, and
q-deformed products require the non-unital regime - they do not descend
to algebras with identified units.

Also here: an independent centering oracle for the free product, and
moments of sums across factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Sequence

from .algebra import AlgebraSignature, Polynomial, Word, _alphabet, _append, _bare
from .errors import RegimeMismatch
from .moments import MomentFunctional, _empty_table, scale
from .rational import ONE, Rational, ZERO, as_rational, format_rational, parse_rational, product


class ProductKind(Enum):
    TENSOR = "tensor"
    FREE = "free"
    BOOLEAN = "boolean"
    MONOTONE = "monotone"
    ANTI_MONOTONE = "antimonotone"
    DEGENERATE = "degenerate"
    FERMI = "fermi"


# The free product's value of a word sums over sets of its runs, so its cost
# about doubles per two runs: an alternating word of 24 letters takes under
# a second and one of 32 about ten; longer words are refused before any work
MAX_FREE_RUNS = 24


@dataclass(frozen=True)
class QDeformed:
    """q-deformation of a q-base product kind, q a nonzero rational."""

    base: ProductKind
    q: Rational

    def __post_init__(self):
        if not (isinstance(self.base, ProductKind) and _RULES[self.base].q_base):
            raise ValueError(
                "q-deformation exists only for tensor, free, and boolean bases"
            )
        q = as_rational(self.q)
        if q == ZERO:
            raise ValueError("deformation parameter q must be nonzero")
        object.__setattr__(self, "q", q)


def kind_label(kind) -> str:
    """Stable textual label, e.g. ``free`` or ``q:boolean:2``."""
    if isinstance(kind, QDeformed):
        return "q:%s:%s" % (kind.base.value, format_rational(kind.q))
    return kind.value


def parse_kind_label(label: str):
    """Inverse of :func:`kind_label`."""
    text = label.strip()
    if text.lower().startswith("q:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("q-deformed label must look like q:<base>:<q>")
        return QDeformed(parse_kind_label(parts[1]), parse_rational(parts[2]))
    for kind in ProductKind:
        if kind.value == text.lower():
            return kind
    raise ValueError("unknown product kind %r" % label)


# ---------------------------------------------------------------------------
# Product nodes.  A node holds the factors' states, in factor order, and
# values words over them, given as bare normal-form tuples
# ((factor, letters), ...), through eval_blocks(blocks).


class _Padding:
    """The gather/split rule of a padding kind: each factor's letters are
    gathered, in order, into an open segment; a block of factor j first
    closes the open segment of every other factor k in ``closes[j]``, the k
    with ``splits(j, k)``, the kind's node.  A graded kind keeps each
    factor's odd generator names in ``odd``, which turns on the Koszul sign."""

    __slots__ = ("factors", "closes", "odd")

    def __init__(self, splits, graded: bool, factors):
        self.factors = factors
        indices = range(len(factors))
        self.closes = tuple(tuple(k for k in indices if k != j and splits(j, k)) for j in indices)
        self.odd = ([frozenset(name for name, degree in phi.algebra.generators if degree) for phi in factors]
                    if graded else None)

    def segments(self, blocks):
        """The structure of a word under the rule, apart from any values:
        (negative, pairs), where ``negative`` is the Koszul sign bit and
        ``pairs`` lists (k, letters), factor k's segment, in the order the
        segments close."""
        closes, odd = self.closes, self.odd
        pairs = []
        opened: dict = {}  # each factor's open segment
        parities = [0] * len(self.factors)  # odd letters seen per factor, mod 2
        negative = 0
        for j, letters in blocks:
            for k in closes[j]:
                if k in opened:
                    pairs.append((k, tuple(opened.pop(k))))
            opened.setdefault(j, []).extend(letters)
            if odd is not None and sum(letter in odd[j] for letter in letters) & 1:
                # gathering moves this block's odd letters past those of
                # the later factors that came before it
                negative ^= sum(parities[j + 1:]) & 1
                parities[j] ^= 1
        pairs.extend((k, tuple(segment)) for k, segment in opened.items())
        return negative, pairs

    def eval_blocks(self, blocks) -> Rational:
        negative, pairs = self.segments(blocks)
        factors = self.factors
        total = product(factors[k].value_of_letters(letters) for k, letters in pairs)
        return -total if negative else total


class _Degenerate:
    """A factor's moment on words over that factor alone, 0 on the others."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors

    def eval_blocks(self, blocks) -> Rational:
        return self.factors[blocks[0][0]].value_of_letters(blocks[0][1]) if len(blocks) == 1 else 0


def _first_block_sum(cumulant, runs, positions, gap, proper=False) -> Rational:
    """Sum over the sets S of ``positions`` holding the first one of
    cumulant(runs at S) times the values gap(i, j) of S's gaps, the runs
    i..j-1 after an element of S up to the next one or to the end; an empty
    gap counts 1.  With ``proper`` the set of all positions is left out."""
    first, rest = positions[0], positions[1:]
    total = 0
    for size in range(len(rest) + (not proper)):
        for others in itertools.combinations(rest, size):
            chosen = (first,) + others
            scalar = product(gap(a + 1, b) for a, b in zip(chosen, others + (len(runs),)) if a + 1 < b)
            if scalar:
                total += cumulant(tuple(runs[i] for i in chosen)) * scalar
    return total


class _Free:
    """The free product by the first-block recursion above, over the word's
    blocks, each a maximal run of one factor.  Values and cumulants are
    memoized."""

    __slots__ = ("factors", "_values", "_cumulants")

    def __init__(self, factors):
        self.factors = factors
        self._values: dict = {(): 1}
        self._cumulants: list = [{} for _ in factors]

    def eval_blocks(self, blocks) -> Rational:
        value = self._values.get(blocks)
        if value is None:
            first = blocks[0][0]
            positions = [i for i, block in enumerate(blocks) if block[0] == first]
            value = self._values[blocks] = _first_block_sum(
                partial(self._cumulant, first), blocks, positions, lambda i, j: self.eval_blocks(blocks[i:j]))
        return value

    def _cumulant(self, j, runs) -> Rational:
        """Factor j's free cumulant of its blocks ``runs``: the factor's
        moment of their letters minus the first-block sum over the proper
        sets."""
        value = self._cumulants[j].get(runs)
        if value is None:
            moment = lambda a, b: self.factors[j].value_of_letters(sum((run[1] for run in runs[a:b]), ()))
            value = self._cumulants[j][runs] = moment(0, len(runs)) - _first_block_sum(
                partial(self._cumulant, j), runs, range(len(runs)), moment, proper=True)
        return value


def _deformed(rule: "_Rule", factors):
    """The factors that the kind of record ``rule`` joins: a q-deformed
    product is q times its base product of the factors scaled by 1/q, each
    distinct factor scaled once; any other kind joins them unchanged."""
    if rule.q is None:
        return factors
    scaled = {phi: scale(phi, ONE / rule.q) for phi in dict.fromkeys(factors)}
    return tuple(map(scaled.__getitem__, factors))


def _check_regime(kind, factors) -> "_Rule":
    """The kind's record, once the factors are in a regime the kind joins."""
    rule = _rule(kind)
    unital_flags = {phi.unital for phi in factors}
    if len(unital_flags) > 1:
        raise RegimeMismatch("factors mix unital and non-unital algebras")
    if unital_flags.pop() and not rule.unital:
        raise RegimeMismatch("%s products require the non-unital regime" % kind_label(kind))
    if rule.graded:
        for phi in factors:
            if not phi.is_even:
                raise RegimeMismatch("graded tensor products need even functionals (%r is not)" % (phi,))
    return rule


class JointFunctional:
    """One functional per factor, joined under a product kind.

    Every kind is one node over all the factors, each factor's state read
    through its moments.  A product of products is a product over the
    inner product's state (:func:`product_state`), so no node nests
    another.  A q-deformed kind joins the factors scaled by 1/q under its
    base kind and scales its values by q.  Evaluation caches are internal
    and never change observable results.  A free or q-deformed free
    product refuses, with ``ValueError`` before any work, a word of more
    than ``MAX_FREE_RUNS`` blocks.
    """

    def __init__(self, factors: Sequence[MomentFunctional], kind):
        factors = tuple(factors)
        if not factors:
            raise ValueError("at least one factor is required")
        rule = _check_regime(kind, factors)
        self.factors = factors
        self.kind = kind
        self._algebras = tuple(phi.algebra for phi in factors)
        scaled = _deformed(rule, factors)
        node = rule.node
        self._root = node(scaled) if isinstance(node, type) else _Padding(node, rule.graded, scaled)
        self._q, self._max_runs = rule.q, rule.max_runs

    def _check(self, word: Word) -> tuple:
        """The bare block tuple of a word this functional can value; any
        other word is rejected before any work."""
        blocks = _bare(word, self._algebras)
        if not blocks and not self.factors[0].unital:
            raise RegimeMismatch("the empty word is the unit, which the non-unital regime lacks")
        if self._max_runs is not None and len(blocks) > self._max_runs:
            raise ValueError("a word of %d runs exceeds the free product's bound of %d runs"
                             % (len(blocks), self._max_runs))
        return blocks

    def value_of_blocks(self, blocks) -> Rational:
        """Value of a trusted normal-form word given as a bare block tuple
        ((factor, letters), ...), over the joined factors; an ``int`` when
        the factors' moments read are."""
        value = self._root.eval_blocks(blocks)
        return value if self._q is None else self._q * value

    def evaluate(self, word: Word) -> Rational:
        return Rational(self.value_of_blocks(self._check(word)))

    __call__ = evaluate

    def evaluate_polynomial(self, polynomial: Polynomial) -> Rational:
        """Value of a polynomial; every word is checked before any is valued."""
        terms = [(self._check(word), coeff) for word, coeff in polynomial.items()]
        return sum((coeff * self.value_of_blocks(blocks) for blocks, coeff in terms), ZERO)

    def __repr__(self):
        names = ", ".join(phi.algebra.name for phi in self.factors)
        return "JointFunctional(%s; %s)" % (kind_label(self.kind), names)


def product_state(joint: JointFunctional, max_degree: int) -> MomentFunctional:
    """The joint functional as a state up to ``max_degree`` on the free
    product of its factors' algebras: the free algebra on their generators,
    in factor order (factors sharing a name are refused with ``ValueError``),
    named by joining their names with ``*``.  Each entry is computed on its
    first read: its rank walked back to its letters as in
    :func:`~ncindep.moments.pullback`, a factor's consecutive letters merged
    into one block, and the word valued by ``joint``.  A graded product
    state is even without completing its table.  A free product's degree
    past ``MAX_FREE_RUNS``, or a table past
    :data:`~ncindep.moments.MAX_TABLE_ENTRIES`, is refused before any work."""
    if not isinstance(joint, JointFunctional):
        raise TypeError("joint must be a JointFunctional")
    if type(max_degree) is not int:
        raise TypeError("max_degree must be an int")
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    if joint._max_runs is not None and max_degree > joint._max_runs:
        raise ValueError("a free product state of degree %d exceeds the free product's bound of %d runs"
                         % (max_degree, joint._max_runs))
    algebras = joint._algebras
    signature = AlgebraSignature("*".join(algebra.name for algebra in algebras), algebras[0].unital,
                                 tuple(generator for algebra in algebras for generator in algebra.generators))
    letters = [(factor, (name,)) for factor, name in _alphabet(algebras)]
    width, shift = len(letters), int(not signature.unital)

    def fill(rank):
        node, digits = rank + shift, []  # node r > 0 is node (r - 1) // g extended by generator (r - 1) % g
        while node:
            node, digit = divmod(node - 1, width)
            digits.append(digit)
        blocks: list = []
        for digit in reversed(digits):
            _append(blocks, letters[digit])
        return joint.value_of_blocks(tuple(blocks))

    state = MomentFunctional._from_dense(signature, max_degree, _empty_table(signature, max_degree), fill)
    if _rule(joint.kind).graded:
        state._even = True
    return state


def eval_graded_tensor(factors: Sequence[MomentFunctional], word: Word) -> Rational:
    """Value of a word under the graded (Fermi) tensor product of the
    factors, i.e. under ``JointFunctional(factors, ProductKind.FERMI)``."""
    return JointFunctional(factors, ProductKind.FERMI).evaluate(word)


# ---------------------------------------------------------------------------
# Independent centering oracle for the binary free product.


_RAW, _CENTERED = 0, 1


def free_centering_oracle(phi1: MomentFunctional, phi2: MomentFunctional, word: Word, cache=None) -> Rational:
    """Free-product moment computed by centering, independently of the
    cumulant recursion.

    Each block a is split as a = (a - phi(a) 1) + phi(a) 1 and the word is
    expanded multilinearly.  An alternating product of centered elements
    has value 0; scalar parts are absorbed by re-normalizing, and products
    of neighbouring same-side centered elements are merged and re-expanded.
    Unital regime only, two factors only.  A dict passed as ``cache`` is
    reused across calls for the same pair of functionals.
    """
    if not (phi1.unital and phi2.unital):
        raise RegimeMismatch("the centering oracle needs unital functionals")
    phis = (phi1, phi2)
    for factor, monomial in word.blocks:
        if factor > 1:
            raise ValueError("the centering oracle handles exactly two factors")
        if monomial.algebra != phis[factor].algebra:
            raise ValueError("word does not match the given functionals")
    if cache is None:
        cache = {}
    tables = (phi1.letters_table, phi2.letters_table)

    def mean_of(factor: int, letters) -> Rational:
        value = tables[factor].get(letters)
        if value is None:
            value = phis[factor].value_of_letters(letters)  # raises when too long
        return value

    def value(seq) -> Rational:
        if not seq:
            return ONE
        hit = cache.get(seq)
        if hit is not None:
            return hit
        raw_index = -1
        for index, (tag, _, _) in enumerate(seq):
            if tag == _RAW:
                raw_index = index
                break
        if raw_index >= 0:
            tag, factor, letters = seq[raw_index]
            mean = mean_of(factor, letters)
            head, tail = seq[:raw_index], seq[raw_index + 1:]
            result = value(head + ((_CENTERED, factor, letters),) + tail)
            if mean:
                result = result + mean * value(head + tail)
        else:
            # all centered: find a same-side neighbouring pair to merge
            pair_index = -1
            for index in range(len(seq) - 1):
                if seq[index][1] == seq[index + 1][1]:
                    pair_index = index
                    break
            if pair_index < 0:
                # alternating product of centered elements
                result = ZERO
            else:
                _, factor, w1 = seq[pair_index]
                _, _, w2 = seq[pair_index + 1]
                c1 = mean_of(factor, w1)
                c2 = mean_of(factor, w2)
                head, tail = seq[:pair_index], seq[pair_index + 2:]
                # (m1 - c1)(m2 - c2) = m1 m2 - c2 m1 - c1 m2 + c1 c2
                result = value(head + ((_RAW, factor, w1 + w2),) + tail)
                if c2:
                    result = result - c2 * value(head + ((_RAW, factor, w1),) + tail)
                if c1:
                    result = result - c1 * value(head + ((_RAW, factor, w2),) + tail)
                if c1 and c2:
                    result = result + c1 * c2 * value(head + tail)
        cache[seq] = result
        return result

    return value(
        tuple((_RAW, factor, monomial.letters) for factor, monomial in word.blocks)
    )


# ---------------------------------------------------------------------------
# Moments of sums across factors.
#
# A summand enters as its truncated moment series M(w) = 1 + m_1 w + ... +
# m_order w^order, rescaled to M(Dw) over a common denominator D: a list
# of integers m_k D^k indexed by power.


def _compose(f, g):
    """f(g(w)) for a series g without constant term, by Horner's rule."""
    out = [f[-1]]
    for j in range(len(f) - 2, -1, -1):
        # out * g + f[j], where g[0] == 0 drops the i == k term; what is left
        # gets multiplied by g^j, which starts at w^j, so only the
        # coefficients below w^(len(f) - j) reach the result
        out = [f[j]] + [sum(out[i] * g[k - i] for i in range(k)) for k in range(1, len(f) - j)]
    return out


def _power(combine, x, count):
    """x combined with itself ``count`` >= 1 times, by squaring; the powers
    of one x commute under any associative ``combine``."""
    result = None
    while True:
        if count & 1:
            result = x if result is None else combine(result, x)
        count >>= 1
        if not count:
            return result
        x = combine(x, x)


def _cumulants(given, weight, inverse=False):
    """Cumulants of a moment series, or with ``inverse`` the moment series of
    a cumulant series, by m_n = sum_{j=1..n} weight(n-1, j-1) k_j m_(n-j):
    binomial weights give the classical cumulants, weight 1 the boolean."""
    order = len(given) - 1
    found = [1] + [0] * order
    moments, cumulants = (found, given) if inverse else (given, found)
    for n in range(1, order + 1):
        rest = sum(weight(n - 1, j - 1) * cumulants[j] * moments[n - j] for j in range(1, n))
        found[n] = given[n] + rest if inverse else given[n] - rest
    return found


def _free_cumulants(given, inverse=False):
    """Free cumulants of a moment series, or with ``inverse`` the moment
    series of a cumulant series, by m_n = sum_{s=1..n} k_s [w^(n-s)] M(w)^s."""
    order = len(given) - 1
    found = [1] + [0] * order
    moments, cumulants = (found, given) if inverse else (given, found)
    # power[s][j] = [w^j] M(w)^s; step n needs column n - s, which uses
    # moments below n only
    power = [[1] + [0] * order for _ in range(order + 1)]
    for n in range(1, order + 1):
        for s in range(1, n):
            j = n - s
            power[s][j] = sum(moments[i] * power[s - 1][j - i] for i in range(j + 1))
        rest = sum(cumulants[s] * power[s][n - s] for s in range(1, n))
        found[n] = given[n] + rest if inverse else given[n] - rest
    return found


def _sum_series(rule: "_Rule", runs):
    """Moment series of the sum of summands independent in the given order
    under the kind of record ``rule``, from runs (series, count, odd) of equal
    consecutive summands, ``odd`` flagging those of odd degree in a graded sum."""
    if len(runs) == 1 and runs[0][1] == 1:
        return runs[0][0]
    sums = rule.sums
    if isinstance(sums, str):
        # Reciprocal Cauchy transforms compose (Muraki); in K(w) = w M(w)
        # the monotone sum is K_1(K_2(...K_N)), the first summand outermost,
        # and the anti-monotone sum composes in the reverse order.
        total = None
        for m, count, _ in reversed(runs) if sums == "first" else runs:
            k = _power(_compose, [0] + m, count)
            total = k if total is None else _compose(k, total)
        return total[1:]
    if rule.graded and any(odd for _, _, odd in runs):
        # Odd summands anticommute, so the square of their sum is the sum of
        # their squares, which are even: the group's moment 2k is the k-th
        # of the ungraded sum of the squares, and its odd moments vanish.
        # The group commutes with the even summands, one more summand.
        group = [0] * len(runs[0][0])
        group[::2] = _sum_series(rule, [(m[::2], count, False) for m, count, odd in runs if odd])
        return _sum_series(rule, [run for run in runs if not run[2]] + [(group, 1, False)])
    # every other sum adds each distinct summand's transform, taken once, times its count
    counts: dict = {}
    for m, count, _ in runs:
        key = tuple(m)
        counts[key] = counts.get(key, 0) + count
    rows = [[count * c for c in sums(m)] for m, count in counts.items()]
    return sums([1] + [sum(column) for column in zip(*rows)][1:], inverse=True)


def sum_moment(kind, states: Sequence[MomentFunctional], order: int, generators=None) -> Rational:
    """The order-th moment of x_1 + ... + x_N under the joint functional.

    Each state designates one generator x_i; when an algebra has a single
    generator the designation is automatic.  A run of equal consecutive
    summands is read once.  Every plain :class:`ProductKind` sums exactly,
    in O(order^3) integer operations per distinct summand or run: tensor,
    free and boolean sums add the summands' classical, free and boolean
    cumulants, and degenerate sums their moments.  Monotone sums compose
    K(w) = w M(w) with the earlier factor outermost, anti-monotone sums
    with the later one, a run of n copies in O(log n) compositions.  Fermi
    sums take the odd summands, which anticommute, as the tensor sum of
    their squares, one more tensor summand beside the even ones.  A
    :class:`QDeformed` kind sums under its base kind, as the joint
    functional evaluates.

    The transforms run on integers over a common denominator D of all the
    moments: m_k enters as m_k D^k.  This is exact because every transform
    is graded by degree, with integer weights, and divides by nothing but
    the constant term 1, so it commutes with w -> w/D: the order-th
    coefficient of the result is the sum's moment times D^order.
    """
    states = tuple(states)
    if type(order) is not int:
        raise TypeError("order must be an int")
    if order < 1:
        raise ValueError("order must be at least 1")
    if not states:
        raise ValueError("at least one factor is required")
    _rule(kind)  # a non-kind is refused before the summands are read
    if generators is not None:
        generators = tuple(generators)
        if len(generators) != len(states):
            raise ValueError("need one designated generator per state")
    runs = []  # ((state, generator), count) per run of equal summands
    pairs = zip(states, generators or itertools.repeat(None))
    for (phi, name), group in itertools.groupby(pairs):
        if generators is None:
            gens = phi.algebra.generator_names
            if len(gens) != 1:
                raise ValueError(
                    "algebra %r has %d generators; pass `generators` explicitly"
                    % (phi.algebra.name, len(gens))
                )
            name = gens[0]
        runs.append(((phi, name), sum(1 for _ in group)))
    return _sum_runs(kind, runs, order)


def _sum_runs(kind, runs, order: int) -> Rational:
    """:func:`sum_moment` of checked arguments, the summands given as runs
    ((state, generator), count) of equal consecutive ones."""
    # each distinct (state, generator) is read once
    degrees = {summand: summand[0].algebra.degree_of(summand[1]) for summand, _ in runs}
    rule = _check_regime(kind, [phi for phi, _ in degrees])
    scaled = _deformed(rule, [phi for phi, _ in degrees])
    moments = {summand: [phi.value_of_letters((summand[1],) * k) for k in range(1, order + 1)]
               for summand, phi in zip(degrees, scaled)}
    denominator = math.lcm(*(m.denominator for row in moments.values() for m in row))
    powers = [denominator**k for k in range(order + 1)]
    rows = {
        summand: [1] + [m.numerator * (powers[k] // m.denominator) for k, m in enumerate(row, 1)]
        for summand, row in moments.items()
    }
    series = [(rows[summand], count, rule.graded and degrees[summand] == 1) for summand, count in runs]
    total = Rational(_sum_series(rule, series)[order], powers[order])
    return total if rule.q is None else rule.q * total


# ---------------------------------------------------------------------------
# One record per kind.


@dataclass(frozen=True)
class _Rule:
    """What a product kind is, read wherever the kind matters."""

    node: object  # _Free, _Degenerate, or a padding kind's splits(j, k): whether j's block closes k's segment
    unital: bool = False  # it joins unital factors
    graded: bool = False  # even factors, the Koszul sign, and odd summands grouped in sums
    q_base: bool = False  # it can be q-deformed
    mirror: "ProductKind | None" = None  # the kind that the factor swap turns it into
    sums: object = None  # a moment transform (inverse=True inverts) whose values add, or the
    # summand, "first" or "last", whose K(w) = w M(w) is outermost when the summands compose
    factorizes: bool = True  # a two-block word's value is the product of its blocks' moments
    q: "Rational | None" = None  # a deformation's q: inputs scaled by 1/q, values by q
    max_runs: "int | None" = None  # the most blocks, runs of one factor's letters, of a word it values


_RULES = {
    ProductKind.TENSOR: _Rule(lambda j, k: False, unital=True, q_base=True,
                              sums=partial(_cumulants, weight=math.comb)),
    ProductKind.FREE: _Rule(_Free, unital=True, q_base=True, sums=_free_cumulants, max_runs=MAX_FREE_RUNS),
    ProductKind.BOOLEAN: _Rule(lambda j, k: True, q_base=True, sums=partial(_cumulants, weight=lambda n, j: 1)),
    ProductKind.MONOTONE: _Rule(lambda j, k: j < k, mirror=ProductKind.ANTI_MONOTONE, sums="first"),
    ProductKind.ANTI_MONOTONE: _Rule(lambda j, k: j > k, mirror=ProductKind.MONOTONE, sums="last"),
    ProductKind.DEGENERATE: _Rule(_Degenerate, factorizes=False,
                                  sums=lambda given, inverse=False: given),  # moments add
}
# the graded tensor product is the tensor product with the Koszul sign
_RULES[ProductKind.FERMI] = replace(_RULES[ProductKind.TENSOR], graded=True, q_base=False)


def _rule(kind) -> _Rule:
    """A kind's record, and the one check that ``kind`` is a kind; a
    q-deformed kind's is its base's, non-unital, not a q-base, unmirrored,
    with its q, and factorizing only at q = 1."""
    if isinstance(kind, QDeformed):
        return replace(_RULES[kind.base], unital=False, q_base=False, mirror=None,
                       factorizes=kind.q == ONE, q=kind.q)
    if not isinstance(kind, ProductKind):
        raise TypeError("kind must be a ProductKind or QDeformed")
    return _RULES[kind]
