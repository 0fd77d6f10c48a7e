"""Joint functionals for the universal notions of independence.

Given one moment functional per free-product factor, a
:class:`JointFunctional` evaluates normal-form words under a chosen product:

* ``TENSOR`` - classical: stable-partition the letters by factor, keeping
  their internal order, and multiply the per-factor moments.
* ``FREE`` - defined by the subset recursion: for a word with blocks
  a_1 ... a_m alternating between the two sides,

      value(a_1...a_m) = sum over proper subsets I of {1..m} of
          (-1)^(m - #I + 1) * value(product of a_k, k in I, re-normalized)
          * product of side-moments of a_k, k not in I,

  with the empty product valued 1.  Results are memoized per word.
* ``BOOLEAN`` - the product of the blocks' individual moments.
* ``MONOTONE`` - first side evaluated on the ordered product of all its
  letters, second side on each of its blocks separately.
* ``ANTI_MONOTONE`` - the mirror image of monotone.
* ``DEGENERATE`` - the block's moment for single-block words, 0 otherwise.
* :class:`QDeformed` - the one-parameter deformation of a symmetric base
  product: scale both inputs by 1/q, apply the base product, multiply by q.

Tensor products of any arity are evaluated directly; every other kind is
extended beyond two factors by iterating the binary product to the left,
which the axiom suite independently checks to be associative.  Boolean,
monotone, anti-monotone, degenerate, and q-deformed products require the
non-unital regime - they do not descend to algebras with identified units.

Also here: an independent centering oracle for the free product, the graded
(fermionic) tensor product, and moments of sums across factors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .algebra import Monomial, Polynomial, Word, normalize_word
from .errors import RegimeMismatch
from .moments import MomentFunctional, scale
from .rational import ONE, Rational, ZERO, as_rational, format_rational, parse_rational


class ProductKind(Enum):
    TENSOR = "tensor"
    FREE = "free"
    BOOLEAN = "boolean"
    MONOTONE = "monotone"
    ANTI_MONOTONE = "antimonotone"
    DEGENERATE = "degenerate"


_Q_BASES = (ProductKind.TENSOR, ProductKind.FREE, ProductKind.BOOLEAN)
_NON_UNITAL_ONLY = (
    ProductKind.BOOLEAN,
    ProductKind.MONOTONE,
    ProductKind.ANTI_MONOTONE,
    ProductKind.DEGENERATE,
)


@dataclass(frozen=True)
class QDeformed:
    """q-deformation of a symmetric product kind, q a nonzero rational."""

    base: ProductKind
    q: Rational

    def __post_init__(self):
        if self.base not in _Q_BASES:
            raise ValueError(
                "q-deformation exists only for tensor, free, and boolean bases"
            )
        q = as_rational(self.q)
        if q == ZERO:
            raise ValueError("deformation parameter q must be nonzero")
        object.__setattr__(self, "q", q)


Kind = "ProductKind | QDeformed"


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
        base = parse_kind_label(parts[1])
        if not isinstance(base, ProductKind):
            raise ValueError("nested q-deformations are not supported")
        return QDeformed(base, parse_rational(parts[2]))
    for kind in ProductKind:
        if kind.value == text.lower():
            return kind
    raise ValueError("unknown product kind %r" % label)


# ---------------------------------------------------------------------------
# Evaluator tree.  Nodes own a set of factor indices and evaluate words whose
# blocks all belong to owned factors.  The node protocol is eval_word(word).


class _Leaf:
    __slots__ = ("phi", "factor", "owned")

    def __init__(self, phi: MomentFunctional, factor: int):
        self.phi = phi
        self.factor = factor
        self.owned = frozenset((factor,))

    def eval_word(self, word: Word) -> Rational:
        if word.is_empty:
            return ONE
        # a normal-form word over one factor has exactly one block
        return self.phi(word.blocks[0][1])


class _Scaled:
    """A functional multiplied by a scalar, for composite inner states."""

    __slots__ = ("inner", "coeff", "owned")

    def __init__(self, inner, coeff):
        self.inner = inner
        self.coeff = coeff
        self.owned = inner.owned

    def eval_word(self, word: Word) -> Rational:
        return self.coeff * self.inner.eval_word(word)


class _TensorAll:
    """Direct n-ary tensor evaluation by stable partition."""

    __slots__ = ("phis", "owned")

    def __init__(self, phis: Sequence[MomentFunctional]):
        self.phis = tuple(phis)
        self.owned = frozenset(range(len(self.phis)))

    def eval_word(self, word: Word) -> Rational:
        buckets: dict[int, list] = {}
        for factor, monomial in word.blocks:
            buckets.setdefault(factor, []).extend(monomial.letters)
        total = ONE
        for factor in sorted(buckets):
            total *= self.phis[factor].value_of_letters(buckets[factor])
        return total


class _Binary:
    """Binary product of two evaluator nodes for one non-q kind."""

    __slots__ = ("kind", "sides", "owned", "_memo", "_leaf_lookup")

    def __init__(self, kind: ProductKind, left, right):
        if left.owned & right.owned:
            raise ValueError("left and right sides share factor indices")
        self.kind = kind
        self.sides = (left, right)
        self.owned = left.owned | right.owned
        self._memo: dict = {}
        # with two plain functionals the subset recursion can run on bare
        # letter tuples, skipping word and monomial construction entirely
        self._leaf_lookup = None
        if (
            kind is ProductKind.FREE
            and isinstance(left, _Leaf)
            and isinstance(right, _Leaf)
        ):
            self._leaf_lookup = {
                left.factor: (left.phi.letters_table, left.phi),
                right.factor: (right.phi.letters_table, right.phi),
            }

    def _runs(self, word: Word):
        """Maximal runs of blocks belonging to one side, as sub-words."""
        left_owned = self.sides[0].owned
        runs: list[tuple[int, list]] = []
        current = -1
        for block in word.blocks:
            side = 0 if block[0] in left_owned else 1
            if side == current:
                runs[-1][1].append(block)
            else:
                runs.append((side, [block]))
                current = side
        return [(side, Word(tuple(blocks))) for side, blocks in runs]

    def eval_word(self, word: Word) -> Rational:
        kind = self.kind
        if kind is ProductKind.FREE:
            if self._leaf_lookup is not None:
                return self._free_fast(
                    tuple((f, m.letters) for f, m in word.blocks)
                )
            return self._free_value(word)
        runs = self._runs(word)
        sides = self.sides
        if kind is ProductKind.BOOLEAN:
            total = ONE
            for side, sub in runs:
                total *= sides[side].eval_word(sub)
            return total
        if kind is ProductKind.MONOTONE:
            gathered: list = []
            total = ONE
            for side, sub in runs:
                if side == 0:
                    gathered.extend(sub.blocks)
                else:
                    total *= sides[1].eval_word(sub)
            if gathered:
                total *= sides[0].eval_word(normalize_word(gathered))
            return total
        if kind is ProductKind.ANTI_MONOTONE:
            gathered = []
            total = ONE
            for side, sub in runs:
                if side == 1:
                    gathered.extend(sub.blocks)
                else:
                    total *= sides[0].eval_word(sub)
            if gathered:
                total *= sides[1].eval_word(normalize_word(gathered))
            return total
        if kind is ProductKind.DEGENERATE:
            if not runs:
                return ONE
            if len(runs) == 1:
                side, sub = runs[0]
                return sides[side].eval_word(sub)
            return ZERO
        if kind is ProductKind.TENSOR:
            total = ONE
            for wanted in (0, 1):
                gathered = [b for side, sub in runs if side == wanted for b in sub.blocks]
                if gathered:
                    total *= sides[wanted].eval_word(normalize_word(gathered))
            return total
        raise AssertionError("unhandled product kind %r" % kind)

    def _free_value(self, word: Word) -> Rational:
        memo = self._memo
        hit = memo.get(word)
        if hit is not None:
            return hit
        runs = self._runs(word)
        m = len(runs)
        if m == 0:
            memo[word] = ONE
            return ONE
        sides = self.sides
        values = [sides[side].eval_word(sub) for side, sub in runs]
        total = ZERO
        for bits in range((1 << m) - 1):  # every proper subset, full one excluded
            scalar = ONE
            for k in range(m):
                if not (bits >> k) & 1:
                    scalar *= values[k]
            if not scalar:
                continue
            blocks: list = []
            for k in range(m):
                if (bits >> k) & 1:
                    blocks.extend(runs[k][1].blocks)
            inner = self._free_value(normalize_word(blocks))
            if not inner:
                continue
            if (m - bits.bit_count() + 1) & 1:
                total -= inner * scalar
            else:
                total += inner * scalar
        memo[word] = total
        return total

    def _free_fast(self, blocks) -> Rational:
        """Subset recursion on bare ``(factor, letters)`` tuples.

        Equivalent to :meth:`_free_value` but skips word and monomial
        construction, which dominates the cost on large sweeps.
        """
        memo = self._memo
        hit = memo.get(blocks)
        if hit is not None:
            return hit
        m = len(blocks)
        if m == 0:
            memo[blocks] = ONE
            return ONE
        lookup = self._leaf_lookup
        values = []
        for factor, letters in blocks:
            table, phi = lookup[factor]
            value = table.get(letters)
            if value is None:
                value = phi.value_of_letters(letters)  # raises on long words
            values.append(value)
        total = ZERO
        for bits in range((1 << m) - 1):  # proper subsets only
            scalar = ONE
            for k in range(m):
                if not (bits >> k) & 1:
                    scalar *= values[k]
            if not scalar:
                continue
            kept: list = []
            for k in range(m):
                if (bits >> k) & 1:
                    factor, letters = blocks[k]
                    if kept and kept[-1][0] == factor:
                        kept[-1] = (factor, kept[-1][1] + letters)
                    else:
                        kept.append(blocks[k])
            inner = self._free_fast(tuple(kept))
            if not inner:
                continue
            if (m - bits.bit_count() + 1) & 1:
                total -= inner * scalar
            else:
                total += inner * scalar
        memo[blocks] = total
        return total


def _scaled_state(node, coeff):
    # For plain functionals the scaling is realized by actually scaling the
    # moment table; composite nodes get a result-scaling wrapper instead.
    if isinstance(node, _Leaf):
        return _Leaf(scale(node.phi, coeff), node.factor)
    return _Scaled(node, coeff)


def _make_binary(kind, left, right):
    if isinstance(kind, QDeformed):
        inv = ONE / kind.q
        inner = _Binary(kind.base, _scaled_state(left, inv), _scaled_state(right, inv))
        return _Scaled(inner, kind.q)
    return _Binary(kind, left, right)


def _check_regime(kind, factors):
    unital_flags = {phi.unital for phi in factors}
    if len(unital_flags) > 1:
        raise RegimeMismatch("factors mix unital and non-unital algebras")
    unital = unital_flags.pop()
    plain = kind.base if isinstance(kind, QDeformed) else kind
    if isinstance(kind, QDeformed) and unital:
        raise RegimeMismatch("q-deformed products require the non-unital regime")
    if plain in _NON_UNITAL_ONLY and unital:
        raise RegimeMismatch(
            "%s products require the non-unital regime" % plain.value
        )


class JointFunctional:
    """One functional per factor, joined under a product kind.

    ``bracketing`` selects how binary products are iterated when there are
    more than two factors: ``None`` (the default) means direct evaluation
    for tensor and left iteration for everything else, while ``"left"`` and
    ``"right"`` force an explicit binary tree (used to test associativity).
    Evaluation caches are internal and never change observable results.
    """

    def __init__(self, factors: Sequence[MomentFunctional], kind, bracketing=None):
        factors = tuple(factors)
        if not factors:
            raise ValueError("at least one factor is required")
        if not isinstance(kind, (ProductKind, QDeformed)):
            raise TypeError("kind must be a ProductKind or QDeformed")
        _check_regime(kind, factors)
        self.factors = factors
        self.kind = kind
        leaves = [_Leaf(phi, index) for index, phi in enumerate(factors)]
        if bracketing is None and kind is ProductKind.TENSOR:
            root = _TensorAll(factors)
        elif bracketing in (None, "left"):
            root = leaves[0]
            for leaf in leaves[1:]:
                root = _make_binary(kind, root, leaf)
        elif bracketing == "right":
            root = leaves[-1]
            for leaf in reversed(leaves[:-1]):
                root = _make_binary(kind, leaf, root)
        else:
            raise ValueError("bracketing must be None, 'left', or 'right'")
        self._root = root

    def _validate(self, word: Word):
        n = len(self.factors)
        for factor, monomial in word.blocks:
            if factor >= n:
                raise ValueError(
                    "word uses factor %d but only %d factors are joined" % (factor, n)
                )
            if monomial.algebra != self.factors[factor].algebra:
                raise ValueError(
                    "block over %r sits on factor %d, which belongs to %r"
                    % (monomial.algebra.name, factor, self.factors[factor].algebra.name)
                )

    def evaluate(self, word: Word) -> Rational:
        self._validate(word)
        if word.is_empty and not self.factors[0].unital:
            raise RegimeMismatch(
                "the empty word is the unit, which the non-unital regime lacks"
            )
        return self._root.eval_word(word)

    __call__ = evaluate

    def evaluate_polynomial(self, polynomial: Polynomial) -> Rational:
        total = ZERO
        for word, coeff in polynomial.items():
            total += coeff * self.evaluate(word)
        return total

    def __repr__(self):
        names = ", ".join(phi.algebra.name for phi in self.factors)
        return "JointFunctional(%s; %s)" % (kind_label(self.kind), names)


def eval_product(joint: JointFunctional, word: Word) -> Rational:
    """Value of a normal-form word under the joint functional."""
    return joint.evaluate(word)


# ---------------------------------------------------------------------------
# Independent centering oracle for the binary free product.


_RAW, _CENTERED = 0, 1


def free_centering_oracle(phi1: MomentFunctional, phi2: MomentFunctional, word: Word, cache=None) -> Rational:
    """Free-product moment computed by centering, independently of the
    subset recursion.

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
# Graded (fermionic) tensor product.


def eval_graded_tensor(factors: Sequence[MomentFunctional], word: Word) -> Rational:
    """Tensor value with Koszul signs from the Z2 grading.

    The word's letters are stably sorted by factor; each transposition of
    two letters from different factors contributes (-1)^(d1*d2) where the
    d's are their degrees.  Every functional must be even - a functional
    that sees odd elements cannot be part of a graded product state - and
    with an all-degree-0 grading this reduces exactly to ``TENSOR``.
    """
    factors = tuple(factors)
    for phi in factors:
        if not phi.is_even:
            raise RegimeMismatch(
                "graded tensor products need even functionals (%r is not)" % (phi,)
            )
    exponent = 0
    degrees = [0] * len(factors)
    buckets: dict[int, list] = {}
    for factor, monomial in word.blocks:
        if factor >= len(factors):
            raise ValueError("word uses factor %d beyond the %d given" % (factor, len(factors)))
        if monomial.algebra != factors[factor].algebra:
            raise ValueError("block over %r does not match factor %d" % (monomial.algebra.name, factor))
        degree = monomial.degree
        if degree:
            crossed = 0
            for other in range(factor + 1, len(factors)):
                crossed ^= degrees[other]
            exponent ^= crossed  # degree is 1 here, so the product is `crossed`
        degrees[factor] ^= degree
        buckets.setdefault(factor, []).extend(monomial.letters)
    total = ONE
    for factor in sorted(buckets):
        total *= factors[factor].value_of_letters(buckets[factor])
    if exponent:
        total = -total
    return total


# ---------------------------------------------------------------------------
# Moments of sums across factors.
#
# A summand enters as its truncated moment series M(w) = 1 + m_1 w + ... +
# m_order w^order, a list of exact rationals indexed by power.


def _add(rows):
    """Coefficient-wise sum of series."""
    return [sum(column) for column in zip(*rows)]


def _reciprocal(a):
    """1/a for a series with constant term 1."""
    out = [ONE]
    for k in range(1, len(a)):
        out.append(-sum(a[i] * out[k - i] for i in range(1, k + 1)))
    return out


def _compose(f, g):
    """f(g(w)) for a series g without constant term, by Horner's rule."""
    out = [f[-1]] + [ZERO] * (len(f) - 1)
    for coeff in reversed(f[:-1]):
        # out * g + coeff, where g[0] == 0 drops the i == k term
        out = [coeff] + [sum(out[i] * g[k - i] for i in range(k)) for k in range(1, len(f))]
    return out


def _free_cumulants(given, inverse=False):
    """Free cumulants of a moment series, or with ``inverse`` the moment
    series of a cumulant series, by m_n = sum_{s=1..n} k_s [w^(n-s)] M(w)^s."""
    order = len(given) - 1
    found = [ONE] + [ZERO] * order
    moments, cumulants = (found, given) if inverse else (given, found)
    # power[s][j] = [w^j] M(w)^s; step n needs column n - s, which uses
    # moments below n only
    power = [[ONE] + [ZERO] * order for _ in range(order + 1)]
    for n in range(1, order + 1):
        for s in range(1, n):
            j = n - s
            power[s][j] = sum(moments[i] * power[s - 1][j - i] for i in range(j + 1))
        rest = sum(cumulants[s] * power[s][n - s] for s in range(1, n))
        found[n] = given[n] + rest if inverse else given[n] - rest
    return found


def _sum_series(kind: ProductKind, series):
    """Moment series of the sum of summands, independent in the given order
    under ``kind``, from the summands' moment series."""
    if kind is ProductKind.TENSOR:
        # the summands commute: binomial convolution
        total = series[0]
        for m in series[1:]:
            total = [
                sum(math.comb(k, i) * total[i] * m[k - i] for i in range(k + 1))
                for k in range(len(m))
            ]
        return total
    if kind is ProductKind.FREE:
        return _free_cumulants(_add(map(_free_cumulants, series)), inverse=True)
    if kind is ProductKind.BOOLEAN:
        # eta = 1 - 1/M adds, so the non-constant coefficients of 1/M add
        return _reciprocal(_add(map(_reciprocal, series)))
    if kind is ProductKind.DEGENERATE:
        # mixed words vanish, leaving each summand's own moments
        return _add(series)
    # Reciprocal Cauchy transforms compose (Muraki); in K(w) = w M(w) the
    # monotone sum is K_1(K_2(...K_N)), the earlier factor outermost, and
    # the anti-monotone sum composes in the reverse order.
    ks = [[ZERO] + m for m in series]
    if kind is ProductKind.MONOTONE:
        ks.reverse()
    total = ks[0]
    for k in ks[1:]:
        total = _compose(k, total)
    return total[1:]


def _sum_by_words(kind, states, letters, order) -> Rational:
    """:func:`sum_moment` as the sum of the joint values of all N^order
    words over the designated ``letters``; the route for q-deformed kinds
    and the reference the transforms are tested against."""
    joint = JointFunctional(states, kind)
    total = ZERO
    for combo in itertools.product(range(len(states)), repeat=order):
        word = normalize_word((index, letters[index]) for index in combo)
        total += joint.evaluate(word)
    return total


def sum_moment(kind, states: Sequence[MomentFunctional], order: int, generators=None) -> Rational:
    """The order-th moment of x_1 + ... + x_N under the joint functional.

    Each state designates one generator x_i; when an algebra has a single
    generator the designation is automatic.  Every plain
    :class:`ProductKind` convolves the summands' moments m_1..m_order
    exactly, in O(order^3) rational operations per summand: tensor sums
    convolve binomially, free cumulants add, boolean eta-transforms
    1 - 1/M(w) add, monotone sums compose K(w) = w M(w) with the earlier
    factor outermost and anti-monotone sums with the later one, and
    degenerate sums add the summands' own moments.  :class:`QDeformed`
    kinds still enumerate: they sum the joint values of all N^order words
    x_{i_1} ... x_{i_order}.
    """
    states = tuple(states)
    if order < 1:
        raise ValueError("order must be at least 1")
    if generators is None:
        names = []
        for phi in states:
            gens = phi.algebra.generator_names
            if len(gens) != 1:
                raise ValueError(
                    "algebra %r has %d generators; pass `generators` explicitly"
                    % (phi.algebra.name, len(gens))
                )
            names.append(gens[0])
    else:
        names = list(generators)
        if len(names) != len(states):
            raise ValueError("need one designated generator per state")
    letters = [Monomial(phi.algebra, (name,)) for phi, name in zip(states, names)]
    if not isinstance(kind, ProductKind) or not states:
        # q-deformed kinds; JointFunctional rejects bad kinds and no states
        return _sum_by_words(kind, states, letters, order)
    _check_regime(kind, states)
    series = [
        [ONE] + [phi(Monomial(phi.algebra, letter.letters * k)) for k in range(1, order + 1)]
        for phi, letter in zip(states, letters)
    ]
    return _sum_series(kind, series)[order]
