"""Shared builders for the test suite.

Everything here is plain construction plumbing: named signatures used
across many tests and a zero-filled state builder so fixtures only spell
out the moments they care about.
"""

from ncindep import (
    AlgebraSignature,
    MomentFunctional,
    Monomial,
    all_monomials,
    moments,
)
from ncindep.rational import ONE, ZERO, as_rational

# Two scalar-generator factors in each regime, reused throughout.
A1 = AlgebraSignature("A1", True, (("a", 0), ("b", 0)))
A2 = AlgebraSignature("A2", True, (("x", 0), ("y", 0)))
A3 = AlgebraSignature("A3", True, (("s", 0), ("t", 0)))

N1 = AlgebraSignature("A1", False, (("a", 0), ("b", 0)))
N2 = AlgebraSignature("A2", False, (("x", 0), ("y", 0)))
N3 = AlgebraSignature("A3", False, (("s", 0), ("t", 0)))

# Graded factors with one odd and one even generator (unital regime).
G1 = AlgebraSignature("A1", True, (("a", 1), ("b", 0)))
G2 = AlgebraSignature("A2", True, (("x", 1), ("y", 0)))


def total_state(algebra, max_degree, entries=None):
    """A moment functional that is 0 everywhere except the given entries.

    Keys are space-joined letter strings ("a b" for the monomial ab); the
    unit entry of a unital algebra is supplied automatically.
    """
    table = {m: ZERO for m in all_monomials(algebra, max_degree)}
    if algebra.unital:
        table[Monomial(algebra, ())] = ONE
    for key, value in (entries or {}).items():
        letters = tuple(key.split()) if isinstance(key, str) else tuple(key)
        table[Monomial(algebra, letters)] = as_rational(value)
    return MomentFunctional(algebra, max_degree, table)


def mono(algebra, text):
    """Monomial from a space-joined letter string ("" is the unit)."""
    return Monomial(algebra, tuple(text.split()))


def count_view_builds(monkeypatch):
    """Patch the hook that every letter-keyed table view (and so every
    Monomial-keyed one) is built from; returns the list of
    (algebra, max_degree) it is called with."""
    builds = []
    hook = moments._canonical_letters

    def counting(algebra, max_degree):
        builds.append((algebra, max_degree))
        return hook(algebra, max_degree)

    monkeypatch.setattr(moments, "_canonical_letters", counting)
    return builds


def count_fills(monkeypatch):
    """Patch the trusted build that every state with entries computed on
    first read (every drawn state and every pullback) is made by; returns a
    list of (state, ranks), one per such state, ``ranks`` the ranks its fill
    computed, in order."""
    fills = []
    build = moments.MomentFunctional._from_dense.__func__

    def counting(cls, algebra, max_degree, dense, fill=None):
        if fill is None:
            return build(cls, algebra, max_degree, dense)
        ranks = []

        def counted(rank):
            ranks.append(rank)
            return fill(rank)

        state = build(cls, algebra, max_degree, dense, counted)
        fills.append((state, ranks))
        return state

    monkeypatch.setattr(moments.MomentFunctional, "_from_dense", classmethod(counting))
    return fills


def count_reads(monkeypatch):
    """Patch the entry reader that every lookup of a state goes through;
    returns a dict from each state read to the set of ranks read from it."""
    reads = {}
    read = moments.MomentFunctional._at

    def counting(self, rank):
        reads.setdefault(self, set()).add(rank)
        return read(self, rank)

    monkeypatch.setattr(moments.MomentFunctional, "_at", counting)
    return reads
