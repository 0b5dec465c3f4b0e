"""Path-sum matrix of the planar web parametrization and its tropical minors.

The web of Gr(k, n) is a k x (n - k) grid of left/down lanes, sources 1..k
entering on the right, sinks k+1..n leaving at the bottom with sink n on
the left.  Its (k - 1)(n - k - 1) bounded regions are the variables, by
column strip from the right, then by row strip from the bottom.  The
first k columns are the identity, and entry (i, j), for a sink j, is
``(-1)^(k-i)`` times the sum, over staircase paths from source i to sink
j, of the products of the variables below them (Postnikov,
arXiv:math/0609764; Speyer & Williams, J. Algebraic Combin. 22, 2005).
The web is positive: each maximal minor, one permutation expansion, must
have the single coefficient +1; its exponents are the forms of its
tropicalization, their minimum.  :func:`all_tropical_minors` gives those
of Gr(3, 6), in x1..x4.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod


class PositivityError(ValueError):
    """A minor expansion vanishes or has a coefficient other than +1."""


PLUECKER_TRIPLES = tuple(itertools.combinations(range(1, 7), 3))


@lru_cache(maxsize=None)
def _web(k, n):
    """The k x n matrix of the web of Gr(k, n): the identity, then the
    signed path sums to the sinks.

    A path from source i to sink j > k drops from row k - 1 - b at lane
    ``drops[b]`` from the left, for b < k - i, nondecreasing in b and not
    left of sink j's lane n - j; x_{a(k-1)+b+1}, in column strip a and row
    strip b, is below it iff ``a + drops[b] < n - k - 1``, one term a path."""
    def entry(i, j):
        sign = (-1) ** (k - i)
        if j <= k:
            return {(0,) * ((k - 1) * (n - k - 1)): 1} if i == j else {}
        return {tuple(int(b < k - i and a + drops[b] < n - k - 1)
                      for a in range(n - k - 1) for b in range(k - 1)): sign
                for drops in itertools.combinations_with_replacement(
                    range(n - j, n - k), k - i)}
    return tuple(tuple(entry(i, j) for j in range(1, n + 1))
                 for i in range(1, k + 1))


def _minor(matrix, cols):
    """The expanded minor of ``matrix`` on the 1-based columns ``cols``, one
    per row, a term per permutation signed by the parity of its inversions."""
    total = {}
    for perm in itertools.permutations(cols):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for factors in itertools.product(*(row[j - 1].items() for row, j
                                           in zip(matrix, perm, strict=True))):
            term = tuple(map(sum, zip(*(t for t, _ in factors))))
            total[term] = total.get(term, 0) + sign * prod(
                c for _, c in factors)
    return {t: c for t, c in total.items() if c}


def _forms(idx, poly):
    """The sorted exponents of ``poly``, the minor on ``idx``, if every
    coefficient is +1."""
    if not poly:
        raise PositivityError(f"minor {idx} vanishes identically")
    coeffs = set(poly.values())
    if coeffs != {1}:
        raise PositivityError(
            f"minor {idx} has coefficients {sorted(coeffs)}, not all +1")
    return tuple(sorted(poly))


@lru_cache(maxsize=None)
def _tropical_minors(k, n):
    """dict column k-set -> :func:`_forms`, for each minor of Gr(k, n)."""
    return {idx: _forms(idx, _minor(_web(k, n), idx))
            for idx in itertools.combinations(range(1, n + 1), k)}


def all_tropical_minors():
    """dict triple -> tuple of linear forms, for all 20 minors of Gr(3, 6)."""
    return _tropical_minors(3, 6)
