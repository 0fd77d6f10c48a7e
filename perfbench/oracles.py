"""Reference values computed apart from ncindep's evaluators.

Everything here works on plain ``fractions.Fraction`` values and letter
tuples; nothing calls into the library.  The benchmark compares the
library's outputs against these routes.

Moment sequences are lists ``m`` with ``m[0] == 1`` and ``m[k]`` the k-th
moment of one summand.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb


def _series_power(coeffs, s, upto):
    """Coefficients 0..upto of (sum_i coeffs[i] z^i) ** s."""
    out = [Fraction(1)] + [Fraction(0)] * upto
    for _ in range(s):
        nxt = [Fraction(0)] * (upto + 1)
        for i, a in enumerate(out):
            if a:
                for j in range(upto + 1 - i):
                    if j < len(coeffs) and coeffs[j]:
                        nxt[i + j] += a * coeffs[j]
        out = nxt
    return out


def classical_sum(m, n, order):
    """E[(x_1 + ... + x_n)^order] for tensor (classically) independent
    copies: classical cumulants add.  m_k = sum_s C(k-1, s-1) kappa_s m_{k-s}."""
    kappa = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        kappa[k] = m[k] - sum(comb(k - 1, s - 1) * kappa[s] * m[k - s] for s in range(1, k))
    total = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        total[k] = sum(comb(k - 1, s - 1) * n * kappa[s] * total[k - s] for s in range(1, k + 1))
    return total[order]


def free_sum(m, n, order):
    """Free copies: free cumulants add.  The first block of a non-crossing
    partition has s elements and leaves s gaps filled independently, so
    m_k = sum_s kappa_s [z^(k-s)] M(z)^s."""
    kappa = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        rest = Fraction(0)
        for s in range(1, k):
            rest += kappa[s] * _series_power(m, s, k - s)[k - s]
        kappa[k] = m[k] - rest
    total = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        acc = Fraction(0)
        for s in range(1, k + 1):
            acc += n * kappa[s] * _series_power(total[:k], s, k - s)[k - s]
        total[k] = acc
    return total[order]


def boolean_sum(m, n, order):
    """Boolean copies: boolean cumulants add.  m_k = sum_s beta_s m_{k-s}."""
    beta = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        beta[k] = m[k] - sum(beta[s] * m[k - s] for s in range(1, k))
    total = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        total[k] = sum(n * beta[s] * total[k - s] for s in range(1, k + 1))
    return total[order]


def _runs(pattern, side):
    """Lengths of the maximal runs of ``side`` in a 0/1 pattern."""
    return [len(list(group)) for key, group in itertools.groupby(pattern) if key == side]


def monotone_sum(m, n, order, anti=False):
    """Monotone copies, left-bracketed, peeling off the last factor: the
    earlier sum S is gathered (valued on all its letters at once) and the
    new copy x is split (valued run by run).  Anti-monotone swaps the two
    roles.  Sums over every S/x pattern of each length k <= order."""
    previous = list(m[: order + 1])  # S_1 = x_1
    for _ in range(2, n + 1):
        current = [Fraction(1)]
        for k in range(1, order + 1):
            acc = Fraction(0)
            for pattern in itertools.product((0, 1), repeat=k):
                count_new = sum(pattern)
                if anti:
                    value = m[count_new]
                    for run in _runs(pattern, 0):
                        value *= previous[run]
                else:
                    value = previous[k - count_new]
                    for run in _runs(pattern, 1):
                        value *= m[run]
                acc += value
            current.append(acc)
        previous = current
    return previous[order]


def fermi_sum(m, n, order):
    """Graded tensor copies of one odd generator: each word x_{i_1}...x_{i_k}
    is valued by the sign of the stable sort that groups its letters by
    copy ((-1) per inversion, every letter being odd) times the product of
    the per-copy moments.  Odd moments must be zero."""
    total = Fraction(0)
    for combo in itertools.product(range(n), repeat=order):
        counts = [0] * n
        for index in combo:
            counts[index] += 1
        value = Fraction(1)
        for count in counts:
            value *= m[count]
            if not value:
                break
        if not value:
            continue
        inversions = sum(
            1
            for p in range(order)
            for q in range(p + 1, order)
            if combo[p] > combo[q]
        )
        total += -value if inversions & 1 else value
    return total


CLT_FORMULAS = {
    "tensor": classical_sum,
    "free": free_sum,
    "boolean": boolean_sum,
    "monotone": monotone_sum,
    "antimonotone": lambda m, n, order: monotone_sum(m, n, order, anti=True),
    "fermi": fermi_sum,
}


def free_closed_form(blocks, tables):
    """Free-product value of a word of at most four alternating blocks over
    two unital states, from the closed forms

        phi(a) ;  phi(a) psi(b) ;  phi(a1 a2) psi(b) ;
        phi(a1 a2) psi(b1) psi(b2) + phi(a1) phi(a2) psi(b1 b2)
            - phi(a1) phi(a2) psi(b1) psi(b2),

    with the roles of the two states swapped when the word starts on the
    second factor.  ``blocks`` is a tuple of (factor, letters); ``tables``
    maps each factor to a dict from letter tuples to moments.  Returns None
    for words of five or more blocks."""
    m = len(blocks)
    if m == 0:
        return Fraction(1)
    if m > 4:
        return None
    first, second = blocks[0][0], 1 - blocks[0][0]
    phi, psi = tables[first], tables[second]
    w = [letters for _, letters in blocks]
    if m == 1:
        return phi[w[0]]
    if m == 2:
        return phi[w[0]] * psi[w[1]]
    if m == 3:
        return phi[w[0] + w[2]] * psi[w[1]]
    a1, b1, a2, b2 = w
    return (
        phi[a1 + a2] * psi[b1] * psi[b2]
        + phi[a1] * phi[a2] * psi[b1 + b2]
        - phi[a1] * phi[a2] * psi[b1] * psi[b2]
    )
