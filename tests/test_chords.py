import itertools
import re
from fractions import Fraction

import pytest

from tropd4.chords import (
    RHO,
    SIGMA,
    TAU,
    Chord,
    SamePairError,
    SymmetryOp,
    all_chord_pairs,
    all_chords,
    apply_to_chord,
    apply_symmetry,
    arc,
    chord_text,
    crossing,
    pair_crossing_count,
    pair_rep,
    parse_chord,
    partner,
    reflect,
    tangent,
)

from oracles import geometric_crossing


class TestChordPairs:
    def test_pair_count_n4(self):
        assert len(all_chord_pairs(4)) == 16

    def test_pair_count_n3(self):
        # 3 diagonal pairs plus 6 tangent pairs; also the number of almost
        # positive roots of the rank-3 system
        assert len(all_chord_pairs(3)) == 9

    def test_central_pair_representatives(self):
        reps = {chord_text(c, 4) for c in all_chord_pairs(4) if c.is_tangent}
        assert reps == {f"{p}{s}" for p in range(4) for s in "LR"}

    def test_chord_validity(self):
        with pytest.raises(ValueError):
            arc(0, 4, 4)  # long diagonal
        with pytest.raises(ValueError):
            arc(0, 1, 4)  # polygon edge
        with pytest.raises(ValueError):
            all_chord_pairs(2)

    def test_partner_involution(self):
        for n in (3, 4, 5):
            for c in all_chords(n):
                assert partner(partner(c, n), n) == c


class TestCrossing:
    def test_interleaving_diagonals(self):
        assert crossing(arc(4, 2, 4), arc(1, 3, 4), 4)  # 0b2 x 13

    def test_tangents_at_same_vertex(self):
        assert not crossing(tangent(0, "L", 4), tangent(0, "R", 4), 4)

    def test_shared_endpoint(self):
        assert not crossing(arc(0, 3, 4), arc(1, 3, 4), 4)

    def test_snake_is_crossing_free(self):
        n = 4
        chords = set()
        for text in ("0L", "0R", "03", "13"):
            c = parse_chord(text, n)
            chords |= {c, partner(c, n)}
        assert not any(crossing(a, b, n)
                       for a, b in itertools.combinations(chords, 2))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_irreflexive(self, n):
        chords = all_chords(n)
        for a, b in itertools.combinations(chords, 2):
            assert crossing(a, b, n) == crossing(b, a, n)
        for a in chords:
            assert not crossing(a, a, n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_geometric_realization(self, n):
        """The combinatorial rules agree with exact segment intersection."""
        chords = all_chords(n)
        for eps in (Fraction(1, 10), Fraction(1, 100)):
            for a, b in itertools.combinations(chords, 2):
                assert crossing(a, b, n) == geometric_crossing(a, b, n, eps), \
                    (chord_text(a, n), chord_text(b, n))

    def test_invariant_under_rigid_motions(self):
        n = 4
        chords = all_chords(n)
        for op in (RHO, reflect(0), reflect(3)):
            for a, b in itertools.combinations(chords, 2):
                assert crossing(a, b, n) == crossing(
                    apply_to_chord(op, a, n), apply_to_chord(op, b, n), n)


class TestPairCrossingCount:
    def test_worked_example(self):
        # the pair of {1bar,2} crosses the snake pairs 2,1,1,1 times
        n = 4
        p = pair_rep(arc(5, 2, n), n)
        snake = [pair_rep(parse_chord(t, n), n)
                 for t in ("13", "03", "0L", "0R")]
        assert [pair_crossing_count(p, s, n) for s in snake] == [1, 2, 1, 1]

    def test_no_crossing(self):
        n = 4
        assert pair_crossing_count(pair_rep(arc(4, 2, n), n),
                                   pair_rep(tangent(0, "L", n), n), n) == 0

    def test_same_pair_error(self):
        n = 4
        with pytest.raises(SamePairError):
            pair_crossing_count(arc(0, 2, n), arc(4, 6, n), n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_both_representatives_agree(self, n):
        pairs = all_chord_pairs(n)
        for a, b in itertools.permutations(pairs, 2):
            via_rep = sum(crossing(a, c, n) for c in {b, partner(b, n)})
            via_partner = sum(crossing(partner(a, n), c, n)
                              for c in {b, partner(b, n)})
            assert via_rep == via_partner == pair_crossing_count(a, b, n)

    def test_symmetric(self):
        n = 4
        pairs = all_chord_pairs(n)
        for a, b in itertools.combinations(pairs, 2):
            assert pair_crossing_count(a, b, n) == pair_crossing_count(b, a, n)

    @pytest.mark.parametrize("op", [RHO, TAU, SIGMA, reflect(0), reflect(1)])
    def test_counts_invariant_under_all_symmetries(self, op):
        n = 4
        pairs = all_chord_pairs(n)
        for a, b in itertools.combinations(pairs, 2):
            ia = pair_rep(apply_to_chord(op, a, n), n)
            ib = pair_rep(apply_to_chord(op, b, n), n)
            assert pair_crossing_count(a, b, n) == \
                pair_crossing_count(ia, ib, n)


class TestSymmetries:
    def test_tau_rotates_and_swaps(self):
        n = 4
        assert chord_text(apply_to_chord(TAU, arc(0, 3, n), n), n) == "10b"
        assert chord_text(apply_to_chord(TAU, tangent(0, "R", n), n), n) == "1L"

    def test_sigma_involution(self):
        n = 4
        for c in all_chords(n):
            assert apply_to_chord(SIGMA, apply_to_chord(SIGMA, c, n), n) == c

    def test_reflection_involution(self):
        n = 4
        for a in range(8):
            op = reflect(a)
            for c in all_chords(n):
                assert apply_to_chord(op, apply_to_chord(op, c, n), n) == c

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_each_kind_is_its_vertex_map(self, n):
        """Each kind, and the half-turn, moves both ends of a diagonal and
        the vertex of a tangent as its docstring says; only a reflection
        reads its axis."""
        flip = {"L": "R", "R": "L"}

        def moved(c, vertex, swap):
            if c.is_tangent:
                return tangent(vertex(c.p), flip[c.side] if swap else c.side,
                               n)
            return arc(vertex(c.p), vertex(c.q), n)

        for c in all_chords(n):
            assert partner(c, n) == moved(c, lambda k: k + n, False)
            for axis in range(2 * n):
                for op, vertex, swap in [
                        (SymmetryOp("rho", axis), lambda k: k + 1, False),
                        (SymmetryOp("tau", axis), lambda k: k + 1, True),
                        (reflect(axis), lambda k: axis - k, True),
                        (SymmetryOp("sigma", axis), lambda k: k, True)]:
                    assert apply_to_chord(op, c, n) == moved(c, vertex, swap)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown symmetry kind 'spin'"):
            apply_to_chord(SymmetryOp("spin"), arc(0, 2, 4), 4)

    def test_apply_symmetry_recanonicalizes(self):
        n = 4
        t = frozenset(pair_rep(parse_chord(s, n), n)
                      for s in ("0L", "0R", "03", "13"))
        image = apply_symmetry(RHO, t, n)
        assert all(c == pair_rep(c, n) for c in image)
        assert len(image) == 4

    @pytest.mark.parametrize("n", [3, 4])
    def test_apply_symmetry_is_the_per_chord_rule(self, n):
        """``apply_symmetry``, read off one table per symmetry, against
        ``pair_rep(apply_to_chord(op, c, n), n)`` chord by chord, for rho,
        tau, sigma and the reflection at every axis: on every set of the
        9 pairs at n = 3; at n = 4, on every set of at most two of the 16
        pairs and on all of them; and on each chord alone, so partners of
        the representatives too."""
        pairs = all_chord_pairs(n)
        sizes = range(len(pairs) + 1) if n == 3 else (0, 1, 2, len(pairs))
        sets = [frozenset(s) for k in sizes
                for s in itertools.combinations(pairs, k)]
        sets += [frozenset([c]) for c in all_chords(n)]
        for op in [RHO, TAU, SIGMA, *map(reflect, range(2 * n))]:
            for s in sets:
                assert apply_symmetry(op, s, n) == frozenset(
                    pair_rep(apply_to_chord(op, c, n), n) for c in s)

    def test_apply_symmetry_rejects_what_the_rule_rejects(self):
        """An unknown kind, and a chord outside the model (adjacent
        vertices, a long diagonal, a vertex past the last, a side that is
        neither L nor R), raise ValueError; no KeyError of the table
        escapes."""
        t = frozenset([arc(0, 2, 4)])
        with pytest.raises(ValueError, match="unknown symmetry kind 'spin'"):
            apply_symmetry(SymmetryOp("spin"), t, 4)
        for c in (Chord(0, 1), Chord(0, 4), Chord(8, -1, "L"),
                  Chord(0, -1, "X")):
            with pytest.raises(ValueError, match="not a chord of the 2\\*4"):
                apply_symmetry(RHO, t | {c}, 4)


class TestTextForm:
    def test_round_trip(self):
        for n in (3, 4, 5):
            for c in all_chords(n):
                assert parse_chord(chord_text(c, n), n) == c

    def test_bar_suffix(self):
        assert parse_chord("0b2", 4) == arc(4, 2, 4)
        assert parse_chord("02b", 4) == arc(0, 6, 4)
        assert parse_chord("3R", 4) == tangent(3, "R", 4)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_chord("xyz", 4)

    def test_vertex_digit_out_of_range(self):
        """Vertices are written 0..n-1, with ``b`` for the second copy; a
        digit of n or more is rejected, not read modulo 2n."""
        for text in ("5L", "7b2", "04", "4b0", "1b4b"):
            with pytest.raises(ValueError, match=re.escape(repr(text))):
                parse_chord(text, 4)

    def test_every_text_in_range_round_trips(self):
        """Over every text the syntax admits, a text with a digit of n or
        more is rejected, and every text that parses round-trips."""
        for n in (3, 4, 5):
            vertices = [f"{d}{b}" for d in range(10) for b in ("", "b")]
            texts = [v + s for v in vertices for s in ("L", "R")]
            texts += [u + v for u in vertices for v in vertices]
            parsed = set()
            for text in texts:
                if any(int(d) >= n for d in re.findall(r"\d", text)):
                    with pytest.raises(ValueError,
                                       match=re.escape(repr(text))):
                        parse_chord(text, n)
                    continue
                try:
                    c = parse_chord(text, n)
                except ValueError:  # equal or adjacent endpoints
                    continue
                assert parse_chord(chord_text(c, n), n) == c
                parsed.add(c)
            assert parsed == set(all_chords(n))
