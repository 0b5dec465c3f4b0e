"""Path-sum matrix of the planar web parametrization and its tropical minors.

The parametrizing web is a 3x3 grid of left/down lanes with sources 1,2,3
entering on the right and sinks 4,5,6 leaving at the bottom.  Entry (i, j)
of the matrix is ``(-1)^(i+1)`` times the sum, over monotone staircase paths
from source i to sink j, of the product of the region variables lying below
the path.  Maximal minors of the resulting matrix expand with a uniform
coefficient sign; their tropicalizations are minima of linear forms with
0/1/2 coefficients in the four region variables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


class PositivityError(ValueError):
    """A minor expansion has mixed signs or a coefficient other than +-1."""


# Region variables by (column strip, row strip); strips are numbered from
# the top-left corner of the grid.
_REGION_VAR = {(0, 1): 4, (1, 1): 2, (0, 2): 3, (1, 2): 1}

PLUECKER_TRIPLES = tuple(itertools.combinations(range(1, 7), 3))

Term = tuple  # exponent vector over x1..x4
Poly = dict   # Term -> int coefficient


def _monomial_for_drops(source, drops):
    """Exponents of the variables below the staircase with given drop columns.

    ``drops[r]`` is the column where the path descends from row r to r+1,
    for r = source..3; region (c, r) lies below the path iff c >= drops[r].
    """
    exp = [0, 0, 0, 0]
    for r in (1, 2):
        if r < source:
            continue
        for c in range(drops[r], 2):
            exp[_REGION_VAR[(c, r)] - 1] += 1
    return tuple(exp)


def _entry(i, j):
    if j <= 3:
        return {(0, 0, 0, 0): 1} if i == j else {}
    sink_col = 6 - j
    poly = {}
    rows = range(i, 4)
    for cols in itertools.product(range(3), repeat=len(rows)):
        drops = dict(zip(rows, cols))
        if drops[3] != sink_col:
            continue
        if any(drops[r] < drops[r + 1] for r in rows if r + 1 in drops):
            continue
        term = _monomial_for_drops(i, drops)
        poly[term] = poly.get(term, 0) + 1
    return poly


@lru_cache(maxsize=1)
def web_matrix():
    """The 3x6 matrix of signed path sums, entries as exponent->coeff dicts."""
    matrix = []
    for i in (1, 2, 3):
        sign = 1 if i % 2 == 1 else -1
        matrix.append(tuple(
            {t: sign * c for t, c in _entry(i, j).items()} for j in range(1, 7)))
    return tuple(matrix)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            t = tuple(x + y for x, y in zip(ta, tb))
            out[t] = out.get(t, 0) + ca * cb
    return out


def _poly_add(a: Poly, b: Poly, scale=1) -> Poly:
    out = dict(a)
    for t, c in b.items():
        out[t] = out.get(t, 0) + scale * c
        if out[t] == 0:
            del out[t]
    return out


def minor_polynomial(idx) -> Poly:
    """Expanded 3x3 minor on the given column triple (1-based)."""
    i, j, k = idx
    m = web_matrix()
    cols = (i - 1, j - 1, k - 1)
    total = {}
    for perm, sign in ((((0, 1, 2)), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                       ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        prod = {(0, 0, 0, 0): 1}
        for row, p in enumerate(perm):
            prod = _poly_mul(prod, m[row][cols[p]])
        total = _poly_add(total, prod, sign)
    return total


def tropical_minor(idx):
    """Linear forms of the tropicalized minor, sorted; coefficients checked.

    The expansion must be cancellation-free up to a global sign: every
    surviving coefficient equal to +1 after normalization.
    """
    idx = tuple(idx)
    if idx not in PLUECKER_TRIPLES:
        raise ValueError(f"{idx} is not an increasing triple in 1..6")
    poly = minor_polynomial(idx)
    if not poly:
        raise PositivityError(f"minor {idx} vanishes identically")
    coeffs = set(poly.values())
    if coeffs not in ({1}, {-1}):
        raise PositivityError(
            f"minor {idx} has non-unit or mixed coefficients {sorted(coeffs)}")
    return tuple(sorted(poly))


@lru_cache(maxsize=1)
def all_tropical_minors():
    """dict triple -> tuple of linear forms, for all 20 column triples."""
    return {idx: tropical_minor(idx) for idx in PLUECKER_TRIPLES}
