"""
Routing products through the plain tensor
=========================================

Each of the boolean, monotone, anti-monotone, and graded products can be
re-expressed as the ordinary tensor product after enlarging the algebras
slightly.  The embedding rewrites every letter into a slot word; the
enlarged states extend the original ones; and evaluating the rewritten
word under plain tensor independence reproduces the fancy product value
exactly.  This script shows the rewrites and checks a few values both
ways.
"""

from ncindep import (
    AlgebraSignature,
    JointFunctional,
    MomentFunctional,
    Monomial,
    ProductKind,
    ReductionKind,
    Word,
    embed_word,
    format_word,
    verify_reduction,
)
from ncindep.rational import as_rational

A = AlgebraSignature("A", False, (("a", 0),))
B = AlgebraSignature("B", False, (("b", 0),))
phi = MomentFunctional(A, 4, {Monomial(A, ("a",) * k): as_rational(1) / (k + 1) for k in (1, 2, 3, 4)})
psi = MomentFunctional(B, 4, {Monomial(B, ("b",) * k): as_rational(1) / (k + 2) for k in (1, 2, 3, 4)})

word = Word((
    (0, Monomial(A, ("a",))),
    (1, Monomial(B, ("b",))),
    (0, Monomial(A, ("a",))),
))
print("word:", format_word(word))

# The rewrite adjoins a projection p to each algebra.  Where a letter acts,
# its own slot carries the letter; the other factor's slot carries p for
# the boolean rewrite, and for the monotone one only on the side of the
# later factor.  Each slot's entries print as a tuple, one per factor;
# None marks p.
for kind in (ReductionKind.BOOLEAN, ReductionKind.MONOTONE, ReductionKind.ANTI_MONOTONE):
    reduced = embed_word(kind, 2, word)
    print("%-14s" % kind.value, *(slot.entries for slot in reduced.slots))

# Both evaluation routes, compared exactly: the direct closed form on the
# left, the tensor value of the rewritten word on the right.  The mirror
# word b a b is included so each kind shows a different value somewhere.
mirror_word = Word((
    (1, Monomial(B, ("b",))),
    (0, Monomial(A, ("a",))),
    (1, Monomial(B, ("b",))),
))
for sample in (word, mirror_word):
    print()
    print("values of", format_word(sample))
    for kind in (ReductionKind.BOOLEAN, ReductionKind.MONOTONE, ReductionKind.ANTI_MONOTONE):
        check = verify_reduction(kind, (phi, psi), sample)
        print("%-14s direct=%s  via tensor=%s  equal=%s" % (kind.value, check.lhs, check.rhs, check.equal))

# The graded product routes through tensor as well, after adjoining a sign
# element g with g^2 = 1 that tracks how many odd letters have gone by.
# With two odd generators the alternating word a b a b picks up one
# genuine sign flip:
G = AlgebraSignature("G", True, (("x", 1),))
H = AlgebraSignature("H", True, (("y", 1),))
chi = MomentFunctional(G, 2, {Monomial(G, ()): as_rational(1), Monomial(G, ("x",)): as_rational(0), Monomial(G, ("x", "x")): as_rational(1)})
omega = MomentFunctional(H, 2, {Monomial(H, ()): as_rational(1), Monomial(H, ("y",)): as_rational(0), Monomial(H, ("y", "y")): as_rational(1)})
signed = Word((
    (0, Monomial(G, ("x",))),
    (1, Monomial(H, ("y",))),
    (0, Monomial(G, ("x",))),
    (1, Monomial(H, ("y",))),
))
print()
print("graded word:", format_word(signed))
reduced = embed_word(ReductionKind.FERMI, 2, signed)
for slot_pair in reduced.slots:
    print("  slots:", slot_pair)
check = verify_reduction(ReductionKind.FERMI, (chi, omega), signed)
print("direct=%s  via tensor=%s  equal=%s" % (check.lhs, check.rhs, check.equal))

# For comparison, the same shape with commuting (degree-0) letters is +1
# under the plain tensor product — the sign is purely a grading effect.
E = AlgebraSignature("G", True, (("x", 0),))
F = AlgebraSignature("H", True, (("y", 0),))
even_chi = MomentFunctional(E, 2, {Monomial(E, ()): as_rational(1), Monomial(E, ("x",)): as_rational(0), Monomial(E, ("x", "x")): as_rational(1)})
even_omega = MomentFunctional(F, 2, {Monomial(F, ()): as_rational(1), Monomial(F, ("y",)): as_rational(0), Monomial(F, ("y", "y")): as_rational(1)})
flat = Word((
    (0, Monomial(E, ("x",))),
    (1, Monomial(F, ("y",))),
    (0, Monomial(E, ("x",))),
    (1, Monomial(F, ("y",))),
))
plain = JointFunctional((even_chi, even_omega), ProductKind.TENSOR)
print("ungraded value:", plain.evaluate(flat))
