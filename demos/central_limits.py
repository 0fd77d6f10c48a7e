"""
Four central limits from one coin
=================================

Sum n independent copies of a +/-1 coin flip, normalize by sqrt(n), and
watch the moments settle.  Which limit they settle on depends on the
notion of independence: classical (tensor) sums go Gaussian, free sums go
to the semicircle, boolean sums stay two-point, monotone sums go to the
arcsine law.  Everything below is exact rational arithmetic — the n-th
row really is the n-th moment, not a simulation.
"""

from ncindep import AlgebraSignature, MomentFunctional, Monomial, ProductKind, sum_moment
from ncindep.rational import as_rational


def coin_state(index, unital, max_degree=6):
    """Moments of a fair +/-1 coin: odd ones vanish, even ones are 1."""
    sig = AlgebraSignature("S%d" % index, unital, (("z", 0),))
    entries = {
        Monomial(sig, ("z",) * k): as_rational(1 - k % 2)
        for k in range(1, max_degree + 1)
    }
    if unital:
        entries[Monomial(sig, ())] = as_rational(1)
    return MomentFunctional(sig, max_degree, entries)


KINDS = (
    (ProductKind.TENSOR, True),
    (ProductKind.FREE, True),
    (ProductKind.BOOLEAN, False),
    (ProductKind.MONOTONE, False),
)

# The order-k moment of (x_1 + ... + x_n)/sqrt(n) is sum_moment / n^(k/2);
# for even k that is again a rational number.
print("normalized 4th moments (limits: gaussian 3, semicircle 2, two-point 1, arcsine 3/2)")
print("%-10s" % "kind", end="")
# sum_moment adds the summands' cumulants (monotone sums compose their
# transforms) rather than expanding n^k words, so n = 1000 is cheap
ns = (1, 2, 3, 10, 100, 1000)
for n in ns:
    print("%16s" % ("n=%d" % n), end="")
print()
for kind, unital in KINDS:
    print("%-10s" % kind.value, end="")
    for n in ns:
        states = [coin_state(i, unital) for i in range(1, n + 1)]
        value = sum_moment(kind, states, 4) / as_rational(n) ** 2
        print("%16s" % value, end="")
    print()

# The 6th moments tell the same story one order up: 15, 5, 1, and 5/2.
print()
print("normalized 6th moments (limits: 15, 5, 1, 5/2)")
print("%-10s" % "kind", end="")
for n in ns:
    print("%16s" % ("n=%d" % n), end="")
print()
for kind, unital in KINDS:
    print("%-10s" % kind.value, end="")
    for n in ns:
        states = [coin_state(i, unital) for i in range(1, n + 1)]
        value = sum_moment(kind, states, 6) / as_rational(n) ** 3
        print("%16s" % value, end="")
    print()

# Odd moments vanish at every n for every kind — the coin is symmetric and
# all four products preserve that.
states = [coin_state(i, True) for i in range(1, 5)]
print()
print("3rd moment of a 4-term free sum:", sum_moment(ProductKind.FREE, states, 3))
