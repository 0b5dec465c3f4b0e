import itertools

import pytest

from tropd4.webmatrix import (
    PLUECKER_TRIPLES,
    PositivityError,
    _forms,
    _minor,
    _tropical_minors,
    _web,
    all_tropical_minors,
)


def _poly(*terms):
    """Polynomial from (coeff, e1, e2, e3, e4) tuples."""
    return {t[1:]: t[0] for t in terms}


# The expected matrix, entry by entry (exponents over x1..x4).
ONE = _poly((1, 0, 0, 0, 0))
EXPECTED_MATRIX = (
    (ONE, {}, {}, ONE,
     _poly((1, 1, 1, 0, 0), (1, 1, 0, 0, 0), (1, 0, 0, 0, 0)),
     _poly((1, 1, 1, 1, 1), (1, 1, 1, 1, 0), (1, 1, 0, 1, 0),
           (1, 1, 1, 0, 0), (1, 1, 0, 0, 0), (1, 0, 0, 0, 0))),
    ({}, ONE, {}, _poly((-1, 0, 0, 0, 0)),
     _poly((-1, 1, 0, 0, 0), (-1, 0, 0, 0, 0)),
     _poly((-1, 1, 0, 1, 0), (-1, 1, 0, 0, 0), (-1, 0, 0, 0, 0))),
    ({}, {}, ONE, ONE, ONE, ONE),
)

# The twenty expected tropical minors, as sets of linear forms.
Z = (0, 0, 0, 0)
X1 = (1, 0, 0, 0)
X12 = (1, 1, 0, 0)
X13 = (1, 0, 1, 0)
X123 = (1, 1, 1, 0)
X1234 = (1, 1, 1, 1)
XX1234 = (2, 1, 1, 1)
EXPECTED_MINORS = {
    (1, 2, 3): {Z},
    (1, 2, 4): {Z},
    (1, 2, 5): {Z},
    (1, 2, 6): {Z},
    (1, 3, 4): {Z},
    (1, 3, 5): {Z, X1},
    (1, 3, 6): {Z, X1, X13},
    (1, 4, 5): {X1},
    (1, 4, 6): {X1, X13},
    (1, 5, 6): {X13},
    (2, 3, 4): {Z},
    (2, 3, 5): {Z, X1, X12},
    (2, 3, 6): {Z, X1, X12, X13, X123, X1234},
    (2, 4, 5): {X1, X12},
    (2, 4, 6): {X1, X12, X13, X123, X1234},
    (2, 5, 6): {X13, X123, X1234},
    (3, 4, 5): {X12},
    (3, 4, 6): {X12, X123, X1234},
    (3, 5, 6): {X123, X1234, XX1234},
    (4, 5, 6): {XX1234},
}


class TestWebMatrix:
    def test_entry_15(self):
        assert _web(3, 6)[0][4] == EXPECTED_MATRIX[0][4]

    def test_entry_26(self):
        assert _web(3, 6)[1][5] == EXPECTED_MATRIX[1][5]

    def test_entry_12_is_zero(self):
        assert _web(3, 6)[0][1] == {}

    def test_full_matrix(self):
        m = _web(3, 6)
        for i in range(3):
            for j in range(6):
                assert m[i][j] == EXPECTED_MATRIX[i][j], (i + 1, j + 1)


class TestTropicalMinors:
    def test_all_twenty_match(self):
        minors = all_tropical_minors()
        assert len(minors) == 20
        for idx in PLUECKER_TRIPLES:
            assert set(minors[idx]) == EXPECTED_MINORS[idx], idx

    def test_examples(self):
        minors = all_tropical_minors()
        assert set(minors[2, 3, 5]) == {Z, X1, X12}
        assert minors[1, 2, 3] == (Z,)
        assert minors[4, 5, 6] == (XX1234,)

    def test_uniform_sign_expansion(self):
        """Every minor expands with coefficient +1."""
        for idx in PLUECKER_TRIPLES:
            values = set(_minor(_web(3, 6), idx).values())
            assert values == {1}, idx

    def test_mixed_signs_rejected(self):
        with pytest.raises(PositivityError, match="not all \\+1"):
            _forms((1, 2, 3), {Z: 1, X1: -1})

    def test_non_unit_coefficients_rejected(self):
        with pytest.raises(PositivityError, match="not all \\+1"):
            _forms((1, 2, 3), {Z: 2})

    def test_vanishing_minor_rejected(self):
        with pytest.raises(PositivityError, match="vanishes identically"):
            _forms((1, 2, 3), {})


class TestWebOfAnyGrassmannian:
    """The web of Gr(k, n) from the one rule of ``_web``."""

    def test_gr36_is_the_public_web(self):
        assert _web(3, 6) == EXPECTED_MATRIX
        assert _tropical_minors(3, 6) == all_tropical_minors()

    @pytest.mark.parametrize("k,n,minors,forms", [
        (2, 5, 10, 14), (2, 6, 15, 25), (2, 7, 21, 41), (2, 8, 28, 63),
        (3, 7, 35, 110)])
    def test_every_minor_is_sign_coherent(self, k, n, minors, forms):
        """Each maximal minor of the k x n web has one coefficient, +1 or
        -1, with no repeated form; Gr(3, 7) has 35 minors with 110 forms
        in 6 variables."""
        web = _web(k, n)
        assert len(web) == k and {len(row) for row in web} == {n}
        tropical = _tropical_minors(k, n)
        assert list(tropical) == list(itertools.combinations(
            range(1, n + 1), k))
        assert sum(map(len, tropical.values())) == forms
        assert len(tropical) == minors
        for idx, terms in tropical.items():
            poly = _minor(web, idx)
            assert set(poly.values()) in ({1}, {-1}), idx
            assert terms == tuple(sorted(poly))
            assert {len(t) for t in terms} == {(k - 1) * (n - k - 1)}


class TestPositivity:
    """The web is positive: every maximal minor expands with coefficient
    +1, and a sign flip anywhere in it is caught."""

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (2, 7),
                                     (2, 8), (3, 7)])
    def test_every_minor_expands_with_plus_one(self, k, n):
        web = _web(k, n)
        for idx in itertools.combinations(range(1, n + 1), k):
            assert set(_minor(web, idx).values()) == {1}, idx

    @pytest.mark.parametrize("col", range(1, 7))
    def test_negated_column_is_rejected(self, col):
        web = [[{t: -c for t, c in e.items()} if j == col else e
                for j, e in enumerate(row, 1)] for row in _web(3, 6)]
        with pytest.raises(PositivityError, match="not all \\+1"):
            for idx in PLUECKER_TRIPLES:
                _forms(idx, _minor(web, idx))

    def test_gr36_minors_are_checked(self, monkeypatch):
        """:func:`all_tropical_minors` expands the web it reads through
        :func:`_forms`: with column 6 negated, it raises.  Its cache is
        cleared before and after, so later tests read the true web."""
        import tropd4.webmatrix as wm
        web = [[{t: -c for t, c in e.items()} if j == 6 else e
                for j, e in enumerate(row, 1)] for row in _web(3, 6)]
        monkeypatch.setattr(wm, "_web", lambda k, n: web)
        _tropical_minors.cache_clear()
        try:
            with pytest.raises(PositivityError, match="not all \\+1"):
                all_tropical_minors()
        finally:
            monkeypatch.undo()
            _tropical_minors.cache_clear()
        assert set(all_tropical_minors()[4, 5, 6]) == EXPECTED_MINORS[4, 5, 6]
