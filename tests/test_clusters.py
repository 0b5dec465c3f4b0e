import itertools
from math import comb

import pytest

from tropd4.chords import (
    TAU,
    all_chord_pairs,
    apply_symmetry,
    pair_crossing_count,
    pair_rep,
    parse_chord,
    reflect,
)
from tropd4.clusters import (
    classify_modulo,
    cluster_complex,
    cluster_of,
    compatibility_degree,
    enumerate_pseudotriangulations,
    flip,
    flip_graph,
    full_symmetry_generators,
    graph_is_connected,
    root_of_pair,
    root_pair_bijection,
    snake_pairs,
    tau_on_root,
)
from tropd4.reference import PSI_TABLE, RAY_COORDS

from oracles import (
    brute_force_compatible_sets,
    brute_force_maximal_compatible_sets,
)

# the base pseudotriangulation, whose pairs carry -alpha_1..-alpha_4
SNAKE = frozenset(snake_pairs())


def cluster_count(n):
    # number of clusters in the rank-n D-type theory
    return comb(2 * n - 2, n - 1) * (3 * n - 2) // n


class TestEnumeration:
    @pytest.mark.parametrize("n,expected", [(3, 14), (4, 50), (5, 182)])
    def test_counts(self, n, expected):
        assert expected == cluster_count(n)
        assert len(enumerate_pseudotriangulations(n)) == expected

    def test_snake_is_enumerated(self, pseudotriangulations4):
        assert SNAKE in pseudotriangulations4

    def test_all_have_n_pairs(self):
        for n in (3, 4, 5):
            assert all(len(t) == n for t in enumerate_pseudotriangulations(n))

    def test_pairwise_noncrossing(self, pseudotriangulations4):
        for t in pseudotriangulations4:
            for a, b in itertools.combinations(t, 2):
                assert pair_crossing_count(a, b, 4) == 0

    def test_deterministic_order(self):
        first = enumerate_pseudotriangulations(3)
        assert list(first) == sorted(first, key=sorted)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_brute_force_oracle(self, n):
        assert set(enumerate_pseudotriangulations(n)) == \
            brute_force_maximal_compatible_sets(all_chord_pairs(n), n)


class TestFlips:
    def test_involution(self, pseudotriangulations4):
        for t in pseudotriangulations4:
            for p in t:
                u, q = flip(t, p, 4)
                back, entering = flip(u, q, 4)
                assert back == t and entering == p
                assert len(set(t) ^ set(u)) == 2

    def test_flip_of_snake_pair_unique(self):
        t = SNAKE
        p = pair_rep(parse_chord("13", 4), 4)
        rest = t - {p}
        completions = [
            q for q in all_chord_pairs(4)
            if q not in t and all(pair_crossing_count(q, r, 4) == 0
                                  for r in rest)]
        assert len(completions) == 1
        _, q = flip(t, p, 4)
        assert q == completions[0]

    def test_flip_tangent_pair(self):
        t = frozenset(pair_rep(parse_chord(s, 4), 4)
                      for s in ("1L", "2L", "0b2", "1b2"))
        u, q = flip(t, pair_rep(parse_chord("2L", 4), 4), 4)
        assert u in enumerate_pseudotriangulations(4)

    def test_flip_requires_membership(self):
        with pytest.raises(ValueError):
            flip(SNAKE, pair_rep(parse_chord("02", 4), 4), 4)


class TestFlipGraph:
    def test_n4_shape(self):
        adj = flip_graph(4)
        assert len(adj) == 50
        assert sum(len(v) for v in adj.values()) // 2 == 100
        assert all(len(v) == 4 for v in adj.values())
        assert graph_is_connected(adj)

    def test_n3_shape(self):
        adj = flip_graph(3)
        assert len(adj) == 14
        assert sum(len(v) for v in adj.values()) // 2 == 21
        assert all(len(v) == 3 for v in adj.values())


class TestSymmetryClasses:
    def test_seven_classes(self, pseudotriangulations4):
        orbits = classify_modulo(pseudotriangulations4,
                                 full_symmetry_generators(), 4)
        assert len(orbits) == 7
        assert sorted((len(o) for o in orbits), reverse=True) == \
            [16, 8, 8, 8, 4, 4, 2]

    def test_trivial_group(self, pseudotriangulations4):
        orbits = classify_modulo(pseudotriangulations4, (), 4)
        assert len(orbits) == 50
        assert all(len(o) == 1 for o in orbits)

    def test_reflections_and_tau_suffice(self, pseudotriangulations4):
        """The smaller generating set (reflections and the twisted rotation)
        produces the same partition as the four-operation group."""
        small = tuple(reflect(a) for a in range(8)) + (TAU,)
        full = classify_modulo(pseudotriangulations4,
                               full_symmetry_generators(), 4)
        assert classify_modulo(pseudotriangulations4, small, 4) == full

    def test_symmetries_preserve_pseudotriangulations(
            self, pseudotriangulations4):
        ts = set(pseudotriangulations4)
        for op in full_symmetry_generators() + (reflect(1), reflect(5)):
            for t in ts:
                assert apply_symmetry(op, t, 4) in ts


class TestRootLabels:
    def test_snake_pairs_get_negative_simples(self):
        for i, p in enumerate(snake_pairs()):
            expected = tuple(-1 if j == i else 0 for j in range(4))
            assert root_of_pair(p) == expected

    def test_worked_example(self):
        p = pair_rep(parse_chord("1b2", 4), 4)
        assert root_of_pair(p) == (1, 2, 1, 1)

    def test_against_reference_dictionary(self):
        for label, (root, chord) in PSI_TABLE.items():
            assert root_of_pair(pair_rep(parse_chord(chord, 4), 4)) == root

    def test_tau_on_root_follows_its_chords(self):
        """tau takes the root of 0L to that of 1R and the root of 13 to
        that of 20b (one step ccw, sides swapped), and has order 4: four
        steps turn the disk by a half-turn, which fixes every pair, and
        swap the sides back."""
        def root(text):
            return root_of_pair(parse_chord(text, 4))
        assert tau_on_root(root("0L")) == root("1R")
        assert tau_on_root(root("13")) == root("20b")
        roots = sorted(root_pair_bijection())
        powers = [roots]
        for _ in range(4):
            powers.append([tau_on_root(r) for r in powers[-1]])
        assert sorted(powers[1]) == roots
        assert powers[4] == roots != powers[2]

    def test_bijection_onto_sixteen_roots(self):
        table = root_pair_bijection()
        assert len(table) == 16
        assert set(table.values()) == set(all_chord_pairs(4))
        negatives = [r for r in table if sum(r) < 0]
        assert sorted(negatives) == sorted(
            tuple(-1 if j == i else 0 for j in range(4)) for i in range(4))


class TestCompatibilityDegree:
    def test_examples(self):
        assert compatibility_degree((0, -1, 0, 0), (1, 2, 1, 1)) == 2
        assert compatibility_degree((-1, 0, 0, 0), (0, 1, 1, 1)) == 0
        assert compatibility_degree((0, 0, -1, 0), (0, 0, -1, 0)) == -1

    def test_negative_simple_relation_everywhere(self):
        """Degree against -alpha_i reads off the i-th root coefficient."""
        roots = sorted(root_pair_bijection())
        for i in range(4):
            neg = tuple(-1 if j == i else 0 for j in range(4))
            for beta in roots:
                expected = -1 if beta == neg else beta[i]
                assert compatibility_degree(neg, beta) == expected

    def test_rotation_invariance_everywhere(self):
        roots = sorted(root_pair_bijection())
        for a, b in itertools.product(roots, repeat=2):
            assert compatibility_degree(a, b) == \
                compatibility_degree(tau_on_root(a), tau_on_root(b))

    def test_symmetry(self):
        roots = sorted(root_pair_bijection())
        for a, b in itertools.combinations(roots, 2):
            assert compatibility_degree(a, b) == compatibility_degree(b, a)


class TestClusterComplex:
    def test_f_vector(self):
        f_vector, _, _ = cluster_complex()
        assert f_vector == (16, 66, 100, 50)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_faces_match_brute_force_oracle(self, k):
        """The k-faces are the roots of the k-sets of pairwise compatible
        pairs; there are none of size 5."""
        expected = {frozenset(map(root_of_pair, s)) for s in
                    brute_force_compatible_sets(all_chord_pairs(4), 4, k)}
        assert cluster_complex()[1].get(k, set()) == expected

    def test_facets_are_clusters(self, pseudotriangulations4):
        _, _, facets = cluster_complex()
        assert facets == {cluster_of(t) for t in pseudotriangulations4}
        assert all(len(f) == 4 for f in facets)

    def test_worked_cluster(self):
        t = frozenset(pair_rep(parse_chord(s, 4), 4)
                      for s in ("1L", "2L", "0b2", "1b2"))
        assert cluster_of(t) == {(0, 1, 0, 1), (1, 1, 0, 1),
                                 (1, 1, 0, 0), (1, 2, 1, 1)}

    def test_ridges_are_flip_edges(self, pseudotriangulations4):
        ts = pseudotriangulations4
        index = {cluster_of(t): i for i, t in enumerate(ts)}
        adj = flip_graph(4)
        ridge_edges = set()
        for a, b in itertools.combinations(index, 2):
            if len(a & b) == 3:
                ridge_edges.add(frozenset((index[a], index[b])))
        flip_edges = {frozenset((i, j)) for i in adj for j in adj[i]}
        assert ridge_edges == flip_edges

    def test_dictionary_roots_are_the_vertices(self):
        roots = {root for root, _ in PSI_TABLE.values()}
        assert roots == set(root_pair_bijection())
        assert len(RAY_COORDS) == 16
