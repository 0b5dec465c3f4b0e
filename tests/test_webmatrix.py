import pytest

from tropd4.webmatrix import (
    PLUECKER_TRIPLES,
    PositivityError,
    all_tropical_minors,
    minor_polynomial,
    tropical_minor,
    web_matrix,
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
    ({}, _poly((-1, 0, 0, 0, 0)), {}, _poly((-1, 0, 0, 0, 0)),
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
        assert web_matrix()[0][4] == EXPECTED_MATRIX[0][4]

    def test_entry_26(self):
        assert web_matrix()[1][5] == EXPECTED_MATRIX[1][5]

    def test_entry_12_is_zero(self):
        assert web_matrix()[0][1] == {}

    def test_full_matrix(self):
        m = web_matrix()
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
        assert set(tropical_minor((2, 3, 5))) == {Z, X1, X12}
        assert tropical_minor((1, 2, 3)) == (Z,)
        assert tropical_minor((4, 5, 6)) == (XX1234,)

    def test_uniform_sign_expansion(self):
        """Every minor expands with a single repeated coefficient sign."""
        for idx in PLUECKER_TRIPLES:
            values = set(minor_polynomial(idx).values())
            assert values in ({1}, {-1}), idx

    def test_invalid_triple(self):
        with pytest.raises(ValueError):
            tropical_minor((3, 2, 5))

    def test_mixed_signs_rejected(self, monkeypatch):
        import tropd4.webmatrix as wm
        monkeypatch.setattr(wm, "minor_polynomial",
                            lambda idx: {Z: 1, X1: -1})
        with pytest.raises(PositivityError):
            tropical_minor((1, 2, 3))

    def test_non_unit_coefficients_rejected(self, monkeypatch):
        import tropd4.webmatrix as wm
        monkeypatch.setattr(wm, "minor_polynomial", lambda idx: {Z: 2})
        with pytest.raises(PositivityError):
            tropical_minor((1, 2, 3))
