import functools
import itertools
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropd4.fan import integer_heights, trop_phi2
from tropd4.hypersimplex import (
    canonical_point,
    canonical_subdivision,
    certified,
    classify_plane_type,
    hypersimplex_vertices,
    induced_subdivision,
    is_matroid_basis_set,
    reference_signatures,
    signature_intersection_dims,
    subdivision_forms,
    subdivision_signature,
    subdivision_to_json,
)
import tropd4.geometry as geometry
from tropd4.geometry import polytope_f_vector, regular_subdivision
from tropd4.reference import (
    CONES_PER_TYPE,
    RAY_COORDS,
    TABLE1,
    ray_set,
)
from tropd4.webmatrix import PLUECKER_TRIPLES

from oracles import (
    _affine_coordinates,
    _affine_rank,
    _det,
    brute_force_cell_forms,
    brute_force_cone_faces,
    brute_force_lower_cells,
    brute_force_matroid_basis_set,
    brute_force_orbit,
    brute_force_orbit_key,
    certificate_holds,
    classify_by_signature,
    fan_symmetry_group,
    gf2_rank,
    matroid_f_vector,
    satisfies_tropical_plucker_relations,
)


def interior_point(labels):
    return tuple(sum(c) for c in zip(*sorted(ray_set(labels))))


def vertex_list(triples):
    verts = hypersimplex_vertices()
    return [verts[PLUECKER_TRIPLES.index(t)] for t in sorted(triples)]


def is_simplex(triples):
    return _affine_rank(vertex_list(triples)) == len(triples) - 1


def lift_heights(lift):
    """Heights on the 20 vertices: at the canonical point of the first
    Table 1 cone of a plane type, named by the type; seeded generic
    heights, for an int; tied heights in 0..2, whose cells mix simplices
    and other polytopes; the tropical minors of a seeded integer matrix;
    or at the first G ray of ``RAY_COORDS``, whose three cells of 14
    vertices lie in one orbit under the permutations of 1..6."""
    if lift == "G ray":
        return trop_phi2(next(r for r in RAY_COORDS.values()
                              if len(induced_subdivision(trop_phi2(r))) == 3))
    if lift == "tied":
        rng = random.Random(1)
        return [rng.randint(0, 2) for _ in range(20)]
    if lift == "minors":
        rng = random.Random(5)
        return tropical_minors([[rng.randint(0, 60) for _ in range(6)]
                                for _ in range(3)])
    if isinstance(lift, str):
        rays = ray_set(TABLE1[lift][0])
        return trop_phi2(tuple(sum(c) for c in zip(*rays)))
    rng = random.Random(lift)
    return [rng.randint(0, 1000) for _ in range(20)]


@functools.cache
def hypersimplex_volume(cell):
    """Three times the normalized volume of a full-dimensional cell of
    Delta(3,6): the sum of ``|det|`` over the 6x6 vertex matrices of a
    triangulation.  A non-simplex cell is cut by the oracle's lower
    envelope of fast-growing heights, a placing triangulation."""
    pts = vertex_list(cell)
    simplices = [pts] if len(pts) == 6 else [
        [pts[i] for i in s]
        for s in brute_force_lower_cells(pts, [64 ** i for i in
                                               range(len(pts))])]
    assert all(len(s) == 6 for s in simplices)
    return sum(abs(_det(s)) for s in simplices)


@functools.cache
def oracle_f_vector(points):
    """Face counts by dimension of ``conv(points)``, without the polytope
    itself: the faces of the cone over the rows ``(u, 1)``, where ``u`` are
    affine coordinates on the span, scaled to integers."""
    lifted = [u + (1,) for u in _affine_coordinates(points)]
    scale = lcm(*(x.denominator for row in lifted for x in row))
    rows = [tuple(int(x * scale) for x in row) for row in lifted]
    counts = {}
    for face in brute_force_cone_faces(rows, len(rows[0])):
        if len(face) < len(rows) or len(rows) == 1:
            dim = _affine_rank(sorted(face))
            counts[dim] = counts.get(dim, 0) + 1
    return tuple(counts[d] for d in range(len(counts)))


class TestVertices:
    def test_twenty_lexicographic(self):
        verts = hypersimplex_vertices()
        assert len(verts) == 20
        assert verts[0] == (1, 1, 1, 0, 0, 0)
        assert all(sum(v) == 3 for v in verts)
        assert all(set(v) <= {0, 1} for v in verts)

    def test_order_matches_triples(self):
        for idx, v in zip(PLUECKER_TRIPLES, hypersimplex_vertices()):
            assert tuple(i + 1 for i, x in enumerate(v) if x) == idx


class TestMatroidCheck:
    def test_uniform(self):
        assert is_matroid_basis_set(PLUECKER_TRIPLES)

    def test_two_disjoint_triples(self):
        assert not is_matroid_basis_set([(1, 2, 3), (4, 5, 6)])

    def test_coloop_extension(self):
        bases = [t for t in PLUECKER_TRIPLES if 1 in t]
        assert is_matroid_basis_set(bases)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_matroid_basis_set([])

    def test_singleton(self):
        assert is_matroid_basis_set([(1, 2, 3)])

    @given(st.lists(st.sampled_from(PLUECKER_TRIPLES), min_size=1,
                    max_size=20))
    def test_matches_frozenset_oracle(self, family):
        assert is_matroid_basis_set(family) == \
            brute_force_matroid_basis_set(family)

    def test_matches_frozenset_oracle_on_mixed_families(self):
        """Elements of several types, bases of unequal sizes, repeated
        bases as lists, sets and frozensets, and one-shot generators."""
        ground = [0, 1, 2, "a", "b", (0,), (1, "a"), frozenset()]
        shapes = (list, set, frozenset, tuple)
        rng = random.Random(43)
        verdicts = Counter()
        for _ in range(300):
            r = rng.randint(0, 3)
            if rng.random() < 0.5:  # a uniform matroid, maybe with a change
                support = rng.sample(ground, rng.randint(r, len(ground)))
                family = list(itertools.combinations(support, r))
                if rng.random() < 0.5:
                    del family[rng.randrange(len(family))]
                if rng.random() < 0.3:
                    family.append(rng.sample(ground, rng.randint(0, 4)))
            else:
                family = [rng.sample(ground, rng.choice([r, r, r + 1]))
                          for _ in range(rng.randint(1, 8))]
            if not family:
                continue
            family += rng.choices(family, k=rng.randint(0, 3))
            family = [rng.choice(shapes)(b) for b in family]
            rng.shuffle(family)
            expected = brute_force_matroid_basis_set(family)
            assert is_matroid_basis_set(family) == expected
            assert is_matroid_basis_set(b for b in family) == expected
            verdicts[expected] += 1
        assert min(verdicts[True], verdicts[False]) >= 50
        with pytest.raises(ValueError):
            is_matroid_basis_set(b for b in ())

    def test_plain_families_of_triples(self, tables_built):
        """Tuples and lists of triples with repeats, each with at most one
        unsorted, non-vertex or list triple: ``_vertex_mask`` gives the
        mask of the distinct vertices, or raises ``ValueError`` naming the
        triple that is not a vertex, or ``TypeError`` for a list, which is
        unhashable; ``is_matroid_basis_set`` gives the oracle's verdict,
        and builds the family's own exchange tables exactly once, whether
        or not the mask exists."""
        import tropd4.hypersimplex as hx
        index = {t: i for i, t in enumerate(PLUECKER_TRIPLES)}
        rng = random.Random(61)
        kinds = Counter()
        for _ in range(400):
            family = rng.sample(PLUECKER_TRIPLES, rng.randint(1, 6))
            family += rng.choices(family, k=rng.randint(0, 3))
            kind = rng.choice(["vertex", "unsorted", "outside", "list"])
            bad = {"unsorted": tuple(reversed(rng.choice(PLUECKER_TRIPLES))),
                   "outside": rng.choice([(0, 1, 2), (1, 2, 7), (1, 2),
                                          (1, 1, 2)]),
                   "list": list(rng.choice(PLUECKER_TRIPLES))}.get(kind)
            if bad is not None:
                family.insert(rng.randrange(len(family) + 1), bad)
            family = rng.choice([tuple, list])(family)
            if kind == "vertex":
                assert hx._vertex_mask(family) == \
                    sum(1 << index[t] for t in set(family))
            elif kind == "list":
                with pytest.raises(TypeError):
                    hx._vertex_mask(family)
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"{bad!r} is not a vertex of Delta(3,6)")):
                    hx._vertex_mask(family)
            tables_built.clear()
            verdict = is_matroid_basis_set(family)
            assert verdict == brute_force_matroid_basis_set(family), family
            assert len(tables_built) == 1
            kinds[kind] += 1
            kinds[verdict] += 1
        assert min(kinds.values()) >= 50 and len(kinds) == 6

    def test_matches_frozenset_oracle_on_cells(self):
        rng = random.Random(29)
        weights = [trop_phi2(interior_point(labels))
                   for rows in TABLE1.values() for labels in rows[:2]]
        weights += [[rng.randint(0, 30) for _ in range(20)]
                    for _ in range(4)]
        verdicts = set()
        for w in weights:
            for cell in induced_subdivision(w):
                verdict = is_matroid_basis_set(cell)
                assert verdict == brute_force_matroid_basis_set(cell)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_matches_oracle_on_every_small_or_cofinite_family(
            self, exchange_families):
        """All 2,701 families of at most 3 triples of 1..6 or lacking at
        most 3, on the mask path: 470 of the 2,700 proper families are
        matroids, and so is the uniform one."""
        verdicts = Counter()
        for family in exchange_families:
            expected = brute_force_matroid_basis_set(family)
            assert is_matroid_basis_set(family) == expected, family
            verdicts[expected] += 1
        assert verdicts == {True: 471, False: 2230}

    def test_verdict_does_not_depend_on_the_path(
            self, exchange_families, benchmark_subdivisions, tables_built):
        """Every family of the oracle test and every cell of the 240 lifts
        of the ``generic-lift`` benchmark at seed 7 gets one verdict as a
        cell that holds its mask, on the tables of Delta(3,6), building
        none; and as given, with repeated bases, as a generator, and as
        reversed tuples, sets and lists, each building its own tables
        exactly once."""
        import tropd4.hypersimplex as hx
        cells = [c for cells in benchmark_subdivisions for c in cells]
        for family in [*exchange_families, *cells]:
            held = hx._Cell(family)
            held.mask = hx._vertex_mask(family)
            verdict = is_matroid_basis_set(held)
            assert tables_built == []
            family = list(family)
            shapes = [family, family + family[::2], (b for b in family)]
            shapes += [map(shape, family) for shape in
                       (lambda b: tuple(reversed(b)), set, list)]
            for k, bases in enumerate(shapes, 1):
                assert is_matroid_basis_set(bases) == verdict, family
                assert len(tables_built) == k
            tables_built.clear()
        for empty in ([], (b for b in ())):
            with pytest.raises(ValueError):
                is_matroid_basis_set(empty)

    def test_repeated_elements_of_a_basis_count_once(self):
        """A basis is the set of its elements: (1, 1, 2) is {1, 2}, so
        ``[(1, 1, 2), (1, 2, 2)]`` is one basis, and bases of U(2,3) and
        of U(3,5) written with repeats are still uniform matroids."""
        assert is_matroid_basis_set([(1, 1, 2), (1, 2, 2)])
        assert is_matroid_basis_set([("a", "a", "b"), ("a", "c"),
                                     ("c", "b", "b")])
        rng = random.Random(11)
        for _ in range(50):
            family = [list(t) + rng.sample(t, rng.randint(0, 3))
                      for t in itertools.combinations(range(5), 3)]
            for b in family:
                rng.shuffle(b)
            assert brute_force_matroid_basis_set(map(tuple, family))
            assert is_matroid_basis_set(family)

    def test_families_of_delta_2_5_and_cells_of_delta_3_7(self):
        """The families other hypersimplices give, on tables of their own:
        all 1,023 nonempty vertex sets of Delta(2,5), 171 of them
        matroids; and the 4,390 cells of 30 lifts of the 35 vertices of
        Delta(3,7), 140 of them matroidal, the even lifts with uniform
        heights in 0..1000 and the odd ones with the min-plus 3x3 minors
        of a 3x7 matrix with entries in 0..60."""
        pairs = list(itertools.combinations(range(1, 6), 2))
        verdicts = Counter()
        for mask in range(1, 1 << len(pairs)):
            family = [t for i, t in enumerate(pairs) if mask >> i & 1]
            verdict = is_matroid_basis_set(family)
            assert verdict == brute_force_matroid_basis_set(family), family
            verdicts["Delta(2,5)", verdict] += 1
        triples = list(itertools.combinations(range(1, 8), 3))
        points = [tuple(int(e in t) for e in range(1, 8)) for t in triples]
        rng = random.Random(5)
        for lift in range(30):
            if lift % 2:
                matrix = [[rng.randint(0, 60) for _ in range(7)]
                          for _ in range(3)]
                heights = [min(sum(matrix[r][c - 1] for r, c in enumerate(p))
                               for p in itertools.permutations(t))
                           for t in triples]
            else:
                heights = [rng.randint(0, 1000) for _ in triples]
            for mask in geometry.lower_cell_masks(points, heights):
                cell = [t for i, t in enumerate(triples) if mask >> i & 1]
                verdict = is_matroid_basis_set(cell)
                assert verdict == brute_force_matroid_basis_set(cell), cell
                verdicts["Delta(3,7)", verdict] += 1
        assert verdicts == {("Delta(2,5)", True): 171,
                            ("Delta(2,5)", False): 852,
                            ("Delta(3,7)", True): 140,
                            ("Delta(3,7)", False): 4250}


@pytest.fixture
def tables_built(monkeypatch):
    """A list that records each call of ``_exchange_tables``, the builder
    of a family's own exchange tables."""
    import tropd4.hypersimplex as hx
    built = []
    exchange_tables = hx._exchange_tables
    monkeypatch.setattr(hx, "_exchange_tables", lambda bases, ground: (
        built.append(ground) or exchange_tables(bases, ground)))
    return built


@pytest.fixture(scope="module")
def exchange_families():
    """Every family of at most 3 triples of 1..6, and every family that
    lacks at most 3 of the 20, ``PLUECKER_TRIPLES`` itself among them."""
    return [family for k in (1, 2, 3, 17, 18, 19, 20)
            for family in itertools.combinations(PLUECKER_TRIPLES, k)]


def tropical_minors(matrix):
    """Min-plus 3x3 minors of a 3x6 matrix, in lexicographic triple order."""
    return [min(sum(matrix[r][col - 1] for r, col in enumerate(perm))
                for perm in itertools.permutations(triple))
            for triple in PLUECKER_TRIPLES]


class TestPluckerRelations:
    """Basis exchange on every cell agrees with the 3-term tropical
    Plücker relations on the 30 octahedral faces."""

    def test_uniform_heights(self):
        rng = random.Random(31)
        for _ in range(6):
            w = [rng.randint(0, 1000) for _ in range(20)]
            cells = induced_subdivision(w)
            assert all(is_matroid_basis_set(c) for c in cells) == \
                satisfies_tropical_plucker_relations(w)

    def test_tropical_minors_of_random_matrices(self):
        rng = random.Random(37)
        verdicts = []
        for _ in range(6):
            w = tropical_minors([[rng.randint(0, 60) for _ in range(6)]
                                 for _ in range(3)])
            verdict = satisfies_tropical_plucker_relations(w)
            cells = induced_subdivision(w)
            assert all(is_matroid_basis_set(c) for c in cells) == verdict
            verdicts.append(verdict)
        assert all(verdicts)

    def test_both_verdicts_occur(self):
        assert not satisfies_tropical_plucker_relations(list(range(20)))
        assert satisfies_tropical_plucker_relations(
            trop_phi2(interior_point(("r3", "r9", "r10", "r12"))))


class TestInducedSubdivision:
    def test_flat_weight(self):
        cells = induced_subdivision([0] * 20)
        assert len(cells) == 1
        assert cells[0] == frozenset(PLUECKER_TRIPLES)

    def test_matches_brute_force_oracle(self):
        w = trop_phi2(interior_point(("r3", "r9", "r10", "r12")))
        cells = induced_subdivision(w)
        oracle = brute_force_lower_cells(hypersimplex_vertices(), w)
        as_indices = sorted(
            frozenset(PLUECKER_TRIPLES.index(t) for t in c) for c in cells)
        assert sorted(map(sorted, as_indices)) == sorted(map(sorted, oracle))
        assert all(is_matroid_basis_set(c) for c in cells)

    def test_bipyramid_cone_matroidal(self):
        w = trop_phi2(interior_point(("r4", "r8", "r10", "r15", "r16")))
        cells = induced_subdivision(w)
        assert all(is_matroid_basis_set(c) for c in cells)

    def test_random_weight_fails_matroid_check(self):
        rng = random.Random(23)
        w = [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
             for _ in range(20)]
        cells = induced_subdivision(w)
        assert not all(is_matroid_basis_set(c) for c in cells)

    def test_uniform_lifts_fill_the_hypersimplex(self):
        """Seeded heights in 0..1000, as in the benchmark's uniform lifts:
        the cells' volumes add up to the 66 of Delta(3,6)."""
        rng = random.Random(61)
        for _ in range(40):
            cells = induced_subdivision(
                [rng.randint(0, 1000) for _ in range(20)])
            assert sum(map(hypersimplex_volume, cells)) == 3 * 66

    def test_uniform_lift_cells_are_lower_facets(self):
        """Each cell's secondary-cone certificate holds at the heights, so
        each cell is a lower facet of the lift; with the volumes above,
        the cells fill the polytope."""
        rng = random.Random(61)
        w = [rng.randint(0, 1000) for _ in range(20)]
        verts = hypersimplex_vertices()
        for cell in induced_subdivision(w):
            forms = brute_force_cell_forms(
                verts, {PLUECKER_TRIPLES.index(t) for t in cell})
            assert certificate_holds(forms, w)

    def test_cells_hold_their_masks_in_the_order_of_index_sets(self):
        """On the 240 lifts of the ``generic-lift`` benchmark at seed 7 and
        on 60 seeded lifts tied in 0..2, the cells, in order, are the index
        sets of ``regular_subdivision`` read as triples, and each holds the
        mask of its triples."""
        import tropd4.hypersimplex as hx
        rng = random.Random(3)
        lifts = benchmark_lifts(7, 240)
        lifts += [[rng.randint(0, 2) for _ in range(20)] for _ in range(60)]
        for w in lifts:
            cells = induced_subdivision(w)
            assert cells == tuple(
                frozenset(map(PLUECKER_TRIPLES.__getitem__, cell))
                for cell in regular_subdivision(hypersimplex_vertices(), w))
            assert [c.mask for c in cells] == \
                [hx._vertex_mask(frozenset(c)) for c in cells]

    @settings(max_examples=25)
    @given(st.permutations(range(20)),
           st.lists(st.integers(0, 2), min_size=20, max_size=20))
    def test_tied_lift_does_not_depend_on_point_order(self, perm, heights):
        """Ties are inserted in index order, so a permutation changes the
        order in which the sweep meets the points, not the cells."""
        verts = hypersimplex_vertices()
        cells = regular_subdivision([verts[i] for i in perm],
                                    [heights[i] for i in perm])
        assert sorted(sorted(perm[i] for i in cell) for cell in cells) \
            == list(map(sorted, regular_subdivision(verts, heights)))


class TestSignature:
    def test_trivial_subdivision(self):
        sig = subdivision_signature([frozenset(PLUECKER_TRIPLES)])
        per_cell, records = sig
        assert len(per_cell) == 1
        assert per_cell[0][0] == 20
        assert records == ()

    def test_two_cones_of_same_type_agree(self):
        rows = TABLE1["EEFFa"]
        sigs = {subdivision_signature(canonical_subdivision(ray_set(labels)))
                for labels in rows[:2]}
        assert len(sigs) == 1

    def test_types_a_and_b_differ_as_described(self):
        sig_a = reference_signatures()["EEFFa"]
        sig_b = reference_signatures()["EEFFb"]
        assert sig_a != sig_b
        dims_a = signature_intersection_dims(sig_a)
        dims_b = signature_intersection_dims(sig_b)
        assert -1 in dims_a  # two cells that do not meet
        assert dims_b.count(2) == 3  # three two-dimensional intersections
        assert -1 not in dims_b

    def test_permutation_invariance(self):
        cells = list(canonical_subdivision(
            ray_set(("r3", "r9", "r10", "r12"))))
        rng = random.Random(4)
        base = subdivision_signature(cells)
        for _ in range(5):
            rng.shuffle(cells)
            assert subdivision_signature(cells) == base

    @pytest.mark.parametrize("lift", [*sorted(CONES_PER_TYPE), 41, 43, 47,
                                      "tied", "minors"])
    def test_matches_oracle_recomputation(self, lift):
        cells = induced_subdivision(lift_heights(lift))
        assert len(cells) > 1

        # the cells of a tropical plane are matroid polytopes, whose faces
        # come from ordered set partitions; any other cell has its faces
        # from the extreme rays of its cone
        matroidal = isinstance(lift, str) and lift != "tied"

        def f_vector(cell):
            if matroidal:
                assert brute_force_matroid_basis_set(cell)
                return matroid_f_vector(cell)
            return oracle_f_vector(tuple(vertex_list(cell)))
        invariant = {c: (len(c), f_vector(c)) for c in cells}
        records = []
        for a, b in itertools.combinations(cells, 2):
            shared = vertex_list(a & b)
            d = _affine_rank(shared) if shared else -1
            records.append((tuple(sorted((invariant[a], invariant[b]))), d))
        expected = (tuple(sorted(invariant[c] for c in cells)),
                    tuple(sorted(records)))
        assert subdivision_signature(cells) == expected
        if lift == "tied":
            assert {is_simplex(c) for c in cells} == {True, False}

    @pytest.mark.parametrize("lift", [41, "tied", "G ray"])
    def test_simplices_cost_one_rank(self, lift, monkeypatch):
        # signed with cold caches: a simplex is ranked once and never
        # graded, one non-simplex per orbit is graded, and only pairs of
        # two non-simplices rank what they share
        import tropd4.hypersimplex as hx
        cells = induced_subdivision(lift_heights(lift))
        others = [c for c in set(cells) if not is_simplex(c)]
        orbits = {brute_force_orbit_key(c): len(c) for c in others}
        for cache in (hx._cell_invariant, hx._span_dim, hx._orbit_invariant,
                      hx._relabelling):
            cache.cache_clear()
        graded, ranked = [], []
        f_vector, intersection_dim = hx.polytope_f_vector, hx.intersection_dim

        def counted_f_vector(vertices):
            graded.append(len(vertices))
            return f_vector(vertices)

        def counted_intersection_dim(*args):
            ranked.append(args)
            return intersection_dim(*args)
        monkeypatch.setattr(hx, "polytope_f_vector", counted_f_vector)
        monkeypatch.setattr(hx, "intersection_dim", counted_intersection_dim)
        hx.subdivision_signature(cells)
        assert sorted(graded) == sorted(orbits.values())
        if lift == "G ray":
            assert len(others) == 3 and graded == [14]
        assert len(ranked) <= len(set(cells)) + comb(len(others), 2)
        # at most six points of Delta(3,6) are affinely independent
        spans = {c for c in cells if len(c) <= 6}
        spans.update(a & b for a, b in itertools.combinations(others, 2))
        assert {frozenset(shared) for _, shared, _ in ranked} <= {
            frozenset(map(PLUECKER_TRIPLES.index, s)) for s in spans}

    def test_span_tables_match_gf2_rank_oracle(self, monkeypatch):
        """On all 60,459 sets of 1 to 6 vertices, the half tables certify
        a simplex, with no rank, exactly when its 0/1 vectors have full
        rank over GF(2).  The invariant is computed past its cache, with
        the rank and the orbit recorded instead of computed."""
        import tropd4.hypersimplex as hx
        ranked = []
        monkeypatch.setattr(hx, "_span_dim", lambda mask: ranked.append(
            mask))
        monkeypatch.setattr(hx, "_orbit_key", lambda mask: mask)
        monkeypatch.setattr(hx, "_orbit_invariant", lambda key: None)
        verts = hypersimplex_vertices()
        verdicts = Counter()
        for n in range(1, 7):
            for chosen in itertools.combinations(range(20), n):
                mask = sum(1 << i for i in chosen)
                simplex = hx._cell_invariant.__wrapped__(mask)[1]
                expected = gf2_rank([verts[i] for i in chosen]) == n
                assert (simplex, ranked == []) == (expected, expected), chosen
                ranked.clear()
                verdicts[expected] += 1
        assert sum(verdicts.values()) == 60459
        assert min(verdicts.values()) > 10000

    def test_dependent_six_vertices_are_graded(self):
        # {1} with each pair of {2, 3, 4, 5}: six vertices on the facet
        # x_1 = 1 that span an octahedron, not a 5-simplex
        cell = frozenset((1,) + p
                         for p in itertools.combinations(range(2, 6), 2))
        [invariant], _ = subdivision_signature([cell])
        assert invariant == (6, polytope_f_vector(vertex_list(cell)))
        assert invariant != (6, (6, 15, 20, 15, 6))

    def test_simplex_with_even_determinant_is_a_simplex(self, cold_cells,
                                                        monkeypatch):
        # dependent mod 2, so the parity test cannot certify it; the exact
        # rank must, and a simplex is never graded
        cell = frozenset([(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 6),
                          (2, 3, 6), (3, 4, 5)])
        assert _det(vertex_list(cell)) == 6
        monkeypatch.setattr(cold_cells, "polytope_f_vector", None)
        [invariant], _ = subdivision_signature([cell])
        assert invariant == (6, (6, 15, 20, 15, 6))

    @pytest.mark.parametrize("lift", [41, 47, 48])
    def test_only_even_determinants_are_ranked(self, lift, cold_cells,
                                               monkeypatch):
        # every cell of these lifts is a 5-simplex, so no pair is ranked;
        # a cell is ranked only when its determinant is even
        cells = induced_subdivision(lift_heights(lift))
        assert {len(c) for c in cells} == {6}
        even = sorted(sorted(map(PLUECKER_TRIPLES.index, c)) for c in cells
                      if _det(vertex_list(c)) % 2 == 0)
        ranked = []
        intersection_dim = cold_cells.intersection_dim

        def counted_intersection_dim(points, cell_a, cell_b):
            ranked.append(sorted(cell_a))
            return intersection_dim(points, cell_a, cell_b)
        monkeypatch.setattr(cold_cells, "intersection_dim",
                            counted_intersection_dim)
        per_cell, _ = subdivision_signature(cells)
        assert set(per_cell) == {(6, (6, 15, 20, 15, 6))}
        assert sorted(ranked) == even
        assert len(even) == {41: 0, 47: 1, 48: 6}[lift]

    def test_simplex_flag_on_small_vertex_sets(self):
        # seeded subsets of 1 to 6 vertices, most of them not cells of a
        # lift, so that lower-dimensional and dependent sets occur
        rng = random.Random(2)
        outcomes = Counter()
        for _ in range(500):
            n = rng.randint(1, 6)
            cell = frozenset(rng.sample(PLUECKER_TRIPLES, n))
            [invariant], _ = subdivision_signature([cell])
            simplex = _affine_rank(vertex_list(cell)) == n - 1
            simplex_invariant = (n, tuple(comb(n, k) for k in range(1, n))
                                 or (1,))
            assert (invariant == simplex_invariant) == simplex, cell
            outcomes[n, simplex] += 1
        assert {n for n, simplex in outcomes if not simplex} >= {4, 5, 6}
        assert all(outcomes[n, True] for n in range(1, 7))

    @pytest.mark.parametrize("cell,message", [
        (frozenset(), "at least one point"),
        (frozenset({(1, 2, 7)}), r"\(1, 2, 7\) is not a vertex"),
    ])
    def test_rejects_bad_cells(self, cell, message):
        with pytest.raises(ValueError, match=message):
            subdivision_signature([frozenset(PLUECKER_TRIPLES), cell])

    def test_repeated_triple_counts_once(self):
        """A cell given as a list with a repeated triple has the vertex
        mask of its frozenset, so the signature does not change."""
        import tropd4.hypersimplex as hx
        rng = random.Random(3)
        cells = induced_subdivision([rng.randint(0, 2) for _ in range(20)])
        repeated = []
        for cell in cells:
            triples = sorted(cell)
            triples.append(rng.choice(triples))
            rng.shuffle(triples)
            repeated.append(triples)
            mask = sum(1 << PLUECKER_TRIPLES.index(t) for t in cell)
            assert hx._vertex_mask(triples) == hx._vertex_mask(cell) == mask
        assert subdivision_signature(repeated) == subdivision_signature(cells)

    def test_reference_signatures_distinct(self):
        sigs = reference_signatures()
        assert len(sigs) == 6
        assert len(set(sigs.values())) == 6


def matrix_families(count, seed):
    """The base families, as vertex masks, of ``count`` seeded 3x6 integer
    matrices of rank 3, and of two faces of each one's matroid polytope.
    Entries in -1..1 and a zero column now and then make loops and
    coloops; a face keeps the bases of most weight under seeded weights
    in 0..2 on the elements."""
    rng = random.Random(seed)
    families = set()
    for _ in range(count):
        rows = [[rng.randint(-1, 1) for _ in range(6)] for _ in range(3)]
        for e in rng.sample(range(6), rng.choice([0, 0, 1])):
            for row in rows:
                row[e] = 0
        bases = [t for t in PLUECKER_TRIPLES
                 if _det([[row[e - 1] for e in t] for row in rows])]
        if not bases:
            continue
        families.add(sum(1 << PLUECKER_TRIPLES.index(t) for t in bases))
        for _ in range(2):
            weight = [rng.randint(0, 2) for _ in range(6)]
            worth = {t: sum(weight[e - 1] for e in t) for t in bases}
            top = max(worth.values())
            families.add(sum(1 << PLUECKER_TRIPLES.index(t) for t in bases
                             if worth[t] == top))
    return sorted(families)


@pytest.fixture
def ranks(monkeypatch):
    """A list that records the vertex sets that ``hypersimplex`` ranks
    with ``intersection_dim``, with ``_span_dim``'s cache cleared before
    and after."""
    import tropd4.hypersimplex as hx
    ranked = []
    intersection_dim = hx.intersection_dim

    def counted(points, cell_a, cell_b):
        ranked.append(tuple(cell_a))
        return intersection_dim(points, cell_a, cell_b)
    hx._span_dim.cache_clear()
    monkeypatch.setattr(hx, "intersection_dim", counted)
    yield ranked
    monkeypatch.undo()
    hx._span_dim.cache_clear()


class TestExchangeClasses:
    """One basis-exchange walk gives both the matroid verdict and, from
    the connected components, the dimension of a matroid polytope."""

    def test_span_dim_of_shared_faces_and_matrix_matroids(
            self, fan36, benchmark_subdivisions, ranks):
        """Every vertex set that two cells share, in the 48 canonical
        subdivisions, the 16 ray subdivisions and the Plücker lifts of the
        ``generic-lift`` benchmark at seed 7, is a face of both, and so a
        matroid; so is the base family of a matrix and each face of it.
        On all of them ``_span_dim`` is the oracle's affine rank, read
        off the exchange classes with no rank."""
        import tropd4.hypersimplex as hx
        subdivisions = [canonical_subdivision(c.rays)
                        for c in fan36.maximal_cones]
        subdivisions += [induced_subdivision(trop_phi2(r)) for r in fan36.rays]
        subdivisions += benchmark_subdivisions[2::3]
        shared = {hx._vertex_mask(a) & hx._vertex_mask(b) for cells in
                  subdivisions for a, b in itertools.combinations(cells, 2)}
        shared.discard(0)
        families = matrix_families(3000, 17)
        for mask in sorted(shared) + families:
            assert brute_force_matroid_basis_set(cell_of(mask)), mask
            vertices = vertex_list(cell_of(mask))
            assert hx._span_dim(mask) == _affine_rank(vertices), mask
        assert ranks == []
        assert (len(shared), len(families)) == (310, 1654)
        # loops and coloops: elements in no basis and in every basis
        elements = [Counter(e for t in cell_of(m) for e in t)
                    for m in families]
        assert any(len(c) < 6 for c in elements)
        assert any(n == sum(c.values()) // 3 for c in elements
                   for n in c.values())
        assert {hx._span_dim(m) for m in families} == set(range(6))

    def test_span_dim_ranks_only_non_matroids(self, ranks):
        """The empty set and a family that fails basis exchange go to
        ``intersection_dim``."""
        import tropd4.hypersimplex as hx
        two = hx._vertex_mask([(1, 2, 3), (4, 5, 6)])
        assert (hx._span_dim(0), hx._span_dim(two)) == (-1, 1)
        assert ranks == [(), (0, 19)]

    def test_every_set_of_four_to_six_vertices(self, monkeypatch):
        """On all 4,845 four-sets, 15,504 five-sets and 38,760 six-sets of
        vertices, the verdict is the oracle's, as a cell and as a plain
        list.  The cells of five or six vertices that are independent mod
        2, 12,864 and 19,200 of them, are rejected before the walk; no
        four-set is."""
        import tropd4.hypersimplex as hx
        walked = []
        exchange_classes = hx._exchange_classes
        monkeypatch.setattr(hx, "_exchange_classes", lambda *args: (
            walked.append(args) or exchange_classes(*args)))
        verts = hypersimplex_vertices()
        unwalked = Counter()
        for n in (4, 5, 6):
            for chosen in itertools.combinations(range(20), n):
                cell = hx._Cell(PLUECKER_TRIPLES[i] for i in chosen)
                cell.mask = sum(1 << i for i in chosen)
                walked.clear()
                verdict = is_matroid_basis_set(cell)
                assert verdict == brute_force_matroid_basis_set(cell), cell
                independent = gf2_rank([verts[i] for i in chosen]) == n
                assert (walked == []) == (n > 4 and independent), cell
                unwalked[n] += walked == []
                assert is_matroid_basis_set(sorted(cell)) == verdict
        assert unwalked == {4: 0, 5: 12864, 6: 19200}


class TestMatroidFVectorOracle:
    def test_known_polytopes(self):
        assert matroid_f_vector(PLUECKER_TRIPLES) == (20, 90, 120, 60, 12)
        assert matroid_f_vector([(1, 2, 3)]) == (1,)
        # U(3,4) on 1..4: a tetrahedron
        assert matroid_f_vector(itertools.combinations(range(1, 5), 3)) \
            == (4, 6, 4)

    def test_matches_polytope_f_vector_on_minor_lifts(self):
        for seed in range(6):
            rng = random.Random(seed)
            w = tropical_minors([[rng.randint(0, 60) for _ in range(6)]
                                 for _ in range(3)])
            for cell in induced_subdivision(w):
                assert brute_force_matroid_basis_set(cell)
                assert matroid_f_vector(cell) == \
                    polytope_f_vector(vertex_list(cell))


class TestFaceGrading:
    """``polytope_f_vector`` grades faces through facet intersections;
    the matroid oracle grades them from ordered set partitions."""

    def test_canonical_cells(self, fan36):
        cells = {cell for c in fan36.maximal_cones
                 for cell in canonical_subdivision(c.rays)}
        assert len(cells) == 48
        for cell in cells:
            assert polytope_f_vector(vertex_list(cell)) == \
                matroid_f_vector(cell)

    def test_non_simplex_cells_of_minor_lifts(self):
        graded = 0
        for seed in range(6, 10):
            rng = random.Random(seed)
            w = tropical_minors([[rng.randint(0, 60) for _ in range(6)]
                                 for _ in range(3)])
            for cell in induced_subdivision(w):
                if not is_simplex(cell):
                    graded += 1
                    assert polytope_f_vector(vertex_list(cell)) == \
                        matroid_f_vector(cell)
        assert graded >= 10

    def test_non_simplex_cells_of_benchmark_sized_lifts(self):
        # minors of matrices with entries in 0..1000, as in the benchmark's
        # Plücker lifts, whose non-simplex cells have 10 to 15 vertices;
        # these seeds give cells of 10, 12, 13 and 14
        sizes = Counter()
        for seed in range(16):
            rng = random.Random(seed)
            w = tropical_minors([[rng.randint(0, 1000) for _ in range(6)]
                                 for _ in range(3)])
            for cell in induced_subdivision(w):
                if not is_simplex(cell):
                    sizes[len(cell)] += 1
                    assert polytope_f_vector(vertex_list(cell)) == \
                        matroid_f_vector(cell)
        assert set(sizes) == {10, 12, 13, 14}
        assert sum(sizes.values()) >= 80

    def test_one_sweep_per_vertex_set_no_rank(self, monkeypatch,
                                              sweep_calls):
        """Each vertex set, a simplex too, is swept once and its faces are
        read off the facet masks: nothing is ranked, and grading a set
        again sweeps nothing."""
        import tropd4.geometry as geometry
        geometry._polytope_facets.cache_clear()
        ranked = []
        pivot_columns = geometry._pivot_columns
        monkeypatch.setattr(geometry, "_pivot_columns",
                            lambda rows: ranked.append(len(rows)) or
                            pivot_columns(rows))
        ten = [t for t in PLUECKER_TRIPLES if 1 in t]
        assert polytope_f_vector(vertex_list(ten)) == matroid_f_vector(ten)
        assert len(sweep_calls) == 1
        simplex = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4),
                   (2, 3, 4)]
        assert abs(_det(vertex_list(simplex))) == 3
        assert polytope_f_vector(vertex_list(simplex)) == \
            oracle_f_vector(tuple(vertex_list(simplex))) == \
            tuple(comb(6, k + 1) for k in range(5))
        assert len(sweep_calls) == 2
        four = [(1, 2, k) for k in range(3, 7)]
        assert polytope_f_vector(vertex_list(four)) == matroid_f_vector(four)
        assert len(sweep_calls) == 3
        for cell in (ten, simplex, four):
            polytope_f_vector(vertex_list(cell))
        assert len(sweep_calls) == 3 and ranked == []


def benchmark_lifts(seed, count):
    """The heights of ``lift_inputs(random.Random(seed), count)`` in
    ``perfbench/run.py``: uniform in 0..1000 for the lifts k with
    ``k % 3 < 2``, the tropical minors of a 3x6 matrix with entries in
    0..1000 for the others."""
    rng = random.Random(seed)
    return [[rng.randint(0, 1000) for _ in range(20)] if k % 3 < 2 else
            tropical_minors([[rng.randint(0, 1000) for _ in range(6)]
                             for _ in range(3)])
            for k in range(count)]


def cell_of(mask):
    """The triples of the vertices whose bits are set in ``mask``."""
    return frozenset(t for i, t in enumerate(PLUECKER_TRIPLES)
                     if mask >> i & 1)


@pytest.fixture(scope="module")
def benchmark_subdivisions():
    """The subdivisions of the 240 lifts of the ``generic-lift``
    benchmark at seed 7."""
    return [induced_subdivision(w) for w in benchmark_lifts(7, 240)]


@pytest.fixture(scope="module")
def key_cells(fan36, benchmark_subdivisions):
    """The distinct non-simplex cells, as vertex masks, of the 240 lifts
    of the ``generic-lift`` benchmark at seed 7, of 150 seeded lifts tied
    in 0..2, of the 48 canonical subdivisions and of the 16 ray
    subdivisions."""
    import tropd4.hypersimplex as hx
    rng = random.Random(1)
    subdivisions = {
        "lifts": benchmark_subdivisions,
        "tied": [induced_subdivision([rng.randint(0, 2) for _ in range(20)])
                 for _ in range(150)],
        "canonical": [canonical_subdivision(c.rays)
                      for c in fan36.maximal_cones],
        "rays": [induced_subdivision(trop_phi2(r)) for r in fan36.rays],
    }
    return {name: sorted({hx._vertex_mask(c) for cells in subs for c in cells
                          if len(c) > 6 or not is_simplex(c)})
            for name, subs in subdivisions.items()}


@pytest.fixture(scope="module")
def oracle_keys(key_cells):
    """The oracle's key of every image of every tested cell, computed
    once per orbit: the least image over all 720 relabellings."""
    keys = {}
    for mask in sorted(set().union(*key_cells.values())):
        if mask not in keys:
            orbit = brute_force_orbit(cell_of(mask))
            keys.update(dict.fromkeys(orbit, min(orbit)))
    return keys


INPUTS = ("lifts", "tied", "canonical", "rays")


class TestOrbitKey:
    """Non-simplex cells are counted once per orbit under the
    permutations of 1..6, on the key of :func:`_orbit_key`."""

    @pytest.mark.parametrize("inputs", INPUTS)
    def test_keys_name_the_oracle_orbits(self, inputs, key_cells,
                                         oracle_keys, monkeypatch):
        """Each key is an image of its cell, and two cells have equal keys
        exactly when they lie in one orbit.  At most 48 relabellings are
        tried on a cell, except on tied lifts."""
        import tropd4.hypersimplex as hx
        tried = []
        relabelling = hx._relabelling
        monkeypatch.setattr(hx, "_relabelling",
                            lambda order: tried.append(order) or
                            relabelling(order))
        pairs, most = set(), 0
        for mask in key_cells[inputs]:
            tried.clear()
            key = hx._orbit_key(mask)
            assert oracle_keys[key] == oracle_keys[mask]
            pairs.add((key, oracle_keys[mask]))
            most = max(most, len(tried))
        assert len(pairs) == len({k for k, _ in pairs}) \
            == len({o for _, o in pairs})
        assert (len(key_cells[inputs]), len(pairs)) == {
            "lifts": (206, 18), "tied": (1939, 395), "canonical": (48, 4),
            "rays": (36, 5)}[inputs]
        assert most <= 48 or inputs == "tied"

    @pytest.mark.parametrize("inputs", INPUTS)
    def test_invariants_match_cold_counts(self, inputs, key_cells,
                                          cold_cells):
        for mask in key_cells[inputs]:
            vertices = vertex_list(cell_of(mask))
            assert cold_cells._cell_invariant(mask) == (
                (len(vertices), polytope_f_vector(vertices)), False)

    @pytest.mark.parametrize("inputs", INPUTS)
    def test_relabelled_cells_keep_their_key(self, inputs, key_cells):
        import tropd4.hypersimplex as hx
        rng = random.Random(5)
        for mask in key_cells[inputs]:
            key = hx._orbit_key(mask)
            for _ in range(20):
                p = rng.sample(range(1, 7), 6)
                image = [tuple(sorted(p[e - 1] for e in t))
                         for t in cell_of(mask)]
                assert hx._orbit_key(hx._vertex_mask(image)) == key

    def test_empty_cell_raises_before_any_relabelling(self, cold_cells,
                                                      monkeypatch):
        monkeypatch.setattr(cold_cells, "_relabelling", None)
        with pytest.raises(ValueError, match="need at least one point"):
            subdivision_signature([frozenset()])

    def test_whole_hypersimplex_tries_every_relabelling(self, cold_cells,
                                                        monkeypatch):
        # its six degrees are equal: each element lies in 10 triples
        tried = []
        relabelling = cold_cells._relabelling
        monkeypatch.setattr(cold_cells, "_relabelling",
                            lambda order: tried.append(order) or
                            relabelling(order))
        whole = (1 << 20) - 1
        assert cold_cells._orbit_key(whole) == whole == \
            brute_force_orbit_key(PLUECKER_TRIPLES)
        assert sorted(tried) == list(itertools.permutations(range(1, 7)))
        assert cold_cells._cell_invariant(whole) == (
            (20, (20, 90, 120, 60, 12)), False)


@pytest.fixture
def cold_cells(monkeypatch):
    """The cell invariants, span dimensions, orbit invariants and
    relabellings cleared before and after, so that the test sees each
    orbit graded."""
    import tropd4.hypersimplex as hx
    caches = (hx._cell_invariant, hx._span_dim, hx._orbit_invariant,
              hx._relabelling)
    for cache in caches:
        cache.cache_clear()
    yield hx
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def cold_verdicts(monkeypatch):
    """The canonical subdivisions cleared before and after, so that the
    test sees each one built; yields :mod:`tropd4.verify`, whose
    :func:`check_cone_proofs` judges their cells."""
    import tropd4.hypersimplex as hx
    import tropd4.verify as verify
    hx._subdivision_at.cache_clear()
    yield verify
    monkeypatch.undo()
    hx._subdivision_at.cache_clear()


class TestVerdictPerCell:
    def test_one_verdict_per_distinct_cell(self, cold_verdicts, monkeypatch,
                                           fan36):
        """The 288 canonical cells, 48 of them distinct, are judged once
        each per call of the proof, with no verdict kept between calls."""
        judged = []
        real = cold_verdicts.is_matroid_basis_set

        def counted(cell):
            judged.append(cell)
            return real(cell)
        monkeypatch.setattr(cold_verdicts, "is_matroid_basis_set", counted)
        cells = [cell for c in fan36.maximal_cones
                 for cell in canonical_subdivision(c.rays)]
        assert len(cells) == 288
        for _ in range(2):
            judged.clear()
            assert cold_verdicts.check_cone_proofs() == []
            assert len(judged) == len(set(judged)) == len(set(cells)) == 48

    def test_rejected_cell_fails_every_point_that_has_it(
            self, cold_verdicts, monkeypatch, fan36):
        """Rejecting the most common canonical cell fails exactly the
        cones whose subdivision at the canonical point holds it, each once
        and with no other violation."""
        rays = [sorted(c.rays) for c in fan36.maximal_cones]
        cells = [induced_subdivision(trop_phi2(canonical_point(r)))
                 for r in rays]
        counts = Counter(cell for subdivision in cells
                         for cell in subdivision)
        chosen = max(counts, key=counts.get)
        assert counts[chosen] == 14
        real = cold_verdicts.is_matroid_basis_set
        monkeypatch.setattr(cold_verdicts, "is_matroid_basis_set",
                            lambda cell: cell != chosen and real(cell))
        assert cold_verdicts.check_cone_proofs() == [
            {"check": "canonical cells matroidal", "cone": list(map(list, r))}
            for r, subdivision in zip(rays, cells) if chosen in subdivision]


class TestClassify:
    @pytest.mark.parametrize("labels,expected", [
        (("r3", "r9", "r10", "r12"), "EEEG"),
        (("r1", "r5", "r7", "r11", "r13"), "FFFGG"),
        (("r2", "r5", "r8", "r14"), "EEFFb"),
    ])
    def test_examples(self, labels, expected):
        assert classify_plane_type(sorted(ray_set(labels))) == expected

    def test_all_48_match_the_table(self, cone_types):
        expected = {}
        for plane_type, rows in TABLE1.items():
            for labels in rows:
                expected[frozenset(ray_set(labels))] = plane_type
        assert cone_types == expected

    def test_type_multiset(self, cone_types):
        counts = {}
        for t in cone_types.values():
            counts[t] = counts.get(t, 0) + 1
        assert counts == CONES_PER_TYPE

    def test_unknown_signature(self):
        with pytest.raises(ValueError, match="no reference type"):
            classify_by_signature((('bogus',), ()), table_signatures())

    def test_signature_oracle_agrees_on_all_48(self, fan36):
        """The classifier that looks signatures up among the first Table 1
        cone of each type gives every cone the type read off its rays."""
        references = table_signatures()
        for c in fan36.maximal_cones:
            sig = subdivision_signature(canonical_subdivision(c.rays))
            assert classify_by_signature(sig, references) == \
                classify_plane_type(c.rays)

    @pytest.mark.parametrize("rays,match", [
        (("r3", "r9", "r10"), "no plane type: EEG$"),  # a facet
        (("r2", "r3", "r6", "r9"), "no plane type: EEEE$"),
        # E triples 456 and 156, which share two elements
        (("r5", "r6", "r8", "r9"), "no plane type: EEFF$"),
        ([(0, 0, 0, 0)], "match no ray type"),  # one cell
        ([(1, 1, 1, 1)], "match no ray type"),  # six cells
    ], ids=["facet", "EEEE", "EEFF", "origin", "generic"])
    def test_rejects_ray_sets_that_are_not_maximal_cones(self, rays, match):
        rays = [RAY_COORDS.get(r, r) for r in rays]
        with pytest.raises(ValueError, match=match):
            classify_plane_type(rays)


def table_signatures():
    """Signature of the first Table 1 cone of each type: the references
    of the signature-lookup oracle."""
    return {t: subdivision_signature(canonical_subdivision(ray_set(rows[0])))
            for t, rows in TABLE1.items()}


def cells_at(ray):
    """The cells of the subdivision at ``ray``, smallest first."""
    return sorted(induced_subdivision(trop_phi2(ray)), key=len)


def e_triple(cell):
    """The elements in more than 5 of the triples of ``cell``."""
    counts = Counter(e for triple in cell for e in triple)
    return frozenset(e for e, n in counts.items() if n > 5)


class TestRayLetters:
    """The rules that name the rays' letters and split EEFFa from EEFFb,
    pinned on the 16 rays and the 48 cones."""

    @pytest.fixture(scope="class")
    def letters(self, fan36):
        sizes = {(10, 19): "E", (16, 16): "F", (14, 14, 14): "G"}
        return {r: sizes[tuple(map(len, cells_at(r)))] for r in fan36.rays}

    def test_six_e_six_f_four_g(self, letters):
        assert Counter(letters.values()) == {"E": 6, "F": 6, "G": 4}

    def test_e_small_cell_is_two_of_a_triple(self, letters):
        import tropd4.hypersimplex as hx
        for ray in (r for r, letter in letters.items() if letter == "E"):
            small = cells_at(ray)[0]
            t = e_triple(small)
            assert len(t) == 3
            assert small == {s for s in PLUECKER_TRIPLES
                             if len(t.intersection(s)) >= 2}
            assert hx._ray_letter(ray) == ("E", t)

    def test_f_cells_split_at_one_four_set(self, letters):
        for ray in (r for r, letter in letters.items() if letter == "F"):
            cells = set(cells_at(ray))
            splits = [q for q in itertools.combinations(range(1, 7), 4)
                      if cells == {
                          frozenset(s for s in PLUECKER_TRIPLES
                                    if cmp(len(set(q) & set(s)), 2))
                          for cmp in (operator.ge, operator.le)}]
            assert len(splits) == 1

    def test_eeff_triples_disjoint_in_a_and_share_one_in_b(self, letters):
        for plane_type, shared in (("EEFFa", 0), ("EEFFb", 1)):
            for labels in TABLE1[plane_type]:
                a, b = (e_triple(cells_at(r)[0]) for r in ray_set(labels)
                        if letters[r] == "E")
                assert len(a & b) == shared


@pytest.fixture
def cold_orbits(monkeypatch):
    """The orbit maps, the subdivisions at the fan's points and what is
    read from them cleared before and after, so that the test sees them
    built; yields :mod:`tropd4.hypersimplex`."""
    import tropd4.correspondence as correspondence
    import tropd4.hypersimplex as hx
    caches = (hx._fan_orbits, hx._subdivision_at, hx._ray_letter,
              hx.reference_signatures, correspondence.classify_all_cones,
              correspondence.cluster_classes)
    for cache in caches:
        cache.cache_clear()
    yield hx
    monkeypatch.undo()
    for cache in caches:
        cache.cache_clear()


class TestFanOrbits:
    """The subdivisions at the 16 rays and the 48 canonical points, read
    from orbit representatives, against the lower envelope; the orbits
    against the group that :func:`oracles.fan_symmetry_group` builds on
    triples."""

    @pytest.fixture(scope="class")
    def group(self, fan36):
        return fan_symmetry_group(
            {r: induced_subdivision(integer_heights(r)) for r in fan36.rays})

    def test_cells_are_the_envelopes(self, cold_orbits, monkeypatch, fan36):
        """Cold, the 64 points take 10 lower envelopes, at the heights of
        the 3 ray and 7 canonical representatives, in fan order; every
        point's cells, and their masks, are its own envelope's."""
        envelopes = []
        real = cold_orbits.induced_subdivision

        def counted(w):
            envelopes.append(w)
            return real(w)
        monkeypatch.setattr(cold_orbits, "induced_subdivision", counted)
        points = [*fan36.rays,
                  *(canonical_point(c.rays) for c in fan36.maximal_cones)]
        subdivisions = [cold_orbits._subdivision_at(r) for r in fan36.rays]
        subdivisions += [canonical_subdivision(c.rays)
                         for c in fan36.maximal_cones]
        moved = cold_orbits._fan_orbits()
        assert envelopes == [integer_heights(p) for p in points
                             if p not in moved]
        assert len(envelopes) == 10
        for point, cells in zip(points, subdivisions):
            envelope = real(integer_heights(point))
            assert cells == envelope
            assert [c.mask for c in cells] == [c.mask for c in envelope]

    def test_orbit_sizes_and_group_order(self, group, fan36):
        """The group has order 24 on the 16 ray classes, maps cones to
        cones, and has orbits of sizes 6, 6, 4 on the rays and 12, 12, 6,
        6, 6, 4, 2 on the 48 cones."""
        rays = sorted(fan36.rays)
        cones = {frozenset(map(rays.index, c.rays))
                 for c in fan36.maximal_cones}
        assert len(group) == 24
        ray_orbits = {frozenset(p[i] for p in group) for i in range(16)}
        cone_orbits = {frozenset(frozenset(p[i] for i in c) for p in group)
                       for c in cones}
        assert set().union(*cone_orbits) == cones
        assert sorted(map(len, ray_orbits)) == [4, 6, 6]
        assert sorted(map(len, cone_orbits)) == [2, 4, 6, 6, 6, 12, 12]

    def test_each_point_is_moved_from_the_first_of_its_orbit(self, group,
                                                            fan36):
        """A ray or canonical point is moved from the first ray or cone of
        its orbit in fan order, and only the 10 firsts are not moved."""
        import tropd4.hypersimplex as hx
        moved = hx._fan_orbits()
        rays = sorted(fan36.rays)
        cones = [(frozenset(map(rays.index, c.rays)), canonical_point(c.rays))
                 for c in fan36.maximal_cones]
        firsts = []
        for r in fan36.rays:
            orbit = {rays[p[rays.index(r)]] for p in group}
            firsts.append(next(s for s in fan36.rays if s in orbit))
            assert moved.get(r, (r,))[0] == firsts[-1]
        for c, point in cones:
            orbit = {frozenset(p[i] for i in c) for p in group}
            firsts.append(next(q for d, q in cones if d in orbit))
            assert moved.get(point, (point,))[0] == firsts[-1]
        assert len(set(firsts)) == 10
        assert len(moved) == 54 and not set(firsts) & set(moved)

    @pytest.mark.parametrize("generator, i, j", [
        (0, 5, 6), (2, 5, 6), (0, 0, 1), (1, 2, 10), (2, 3, 4)])
    def test_swapped_vertices_do_not_pass(self, cold_orbits, monkeypatch,
                                          generator, i, j):
        """Two vertices swapped in one generator's vertex map.  The
        vertices 0-4 and 10 (123, 124, 125, 126, 134, 234) have height 0
        at every ray, so a swap among them moves every ray as before and
        only the cells go wrong: the cone proofs of ``full_report(7)``
        fail.  Any other swap sends some ray to no ray, and the orbit maps
        raise ``ValueError``."""
        maps = list(cold_orbits._FAN_SYMMETRIES)
        g = list(maps[generator])
        g[i], g[j] = g[j], g[i]
        maps[generator] = tuple(g)
        monkeypatch.setattr(cold_orbits, "_FAN_SYMMETRIES", tuple(maps))
        import tropd4.verify as verify
        if {i, j} <= {0, 1, 2, 3, 4, 10}:
            violations = verify.full_report(7)["violations"]
            assert "subdivision constant on cone" in {
                v["check"] for v in violations}
        else:
            with pytest.raises(ValueError, match="to no ray"):
                verify.full_report(7)


def verdicts(forms, heights, weak=False):
    """The verdict of :func:`certified` at each of the batch ``heights``,
    in order: its ``ok`` bits, or its ``weak`` bits when ``weak``.  No bit
    is set outside the points' fields, and every ``ok`` bit is a ``weak``
    bit."""
    width, *bitsets = certified(forms, heights)
    fields = []
    for bitset in bitsets:
        bits = [bitset >> p * width & 1 for p in range(len(heights))]
        assert bitset == sum(b << p * width for p, b in enumerate(bits))
        fields.append([bool(b) for b in bits])
    weak_bits, ok_bits = fields
    assert all(map(operator.le, ok_bits, weak_bits))
    return weak_bits if weak else ok_bits


def integer_batch(rows):
    """Rational ``rows`` times the lcm of all their denominators: a
    positive scale, which keeps the sign of every linear form at every
    row, so ``certified``, which takes ints, gives each row its verdict."""
    scale = lcm(*(Fraction(v).denominator for row in rows for v in row))
    return [tuple(int(v * scale) for v in row) for row in rows]


@st.composite
def certificate_batches(draw):
    """A certificate of small equality forms and strict forms of large
    norm, and a batch of heights of which some satisfy it, as ints or as
    Fractions.

    The equality forms are multiples of ``e_0``, so a point satisfies
    them when its coordinate 0 is 0.  Each strict form has nonnegative
    coefficients on the other coordinates, one of them at least 2**16,
    so its norm needs a field of 32 bits or more where the equality
    forms alone need 16: the two kinds evaluated apart would give
    bitsets of two widths.  Points whose other coordinates are positive
    then satisfy it, and a zero or a negative one may break it."""
    n = draw(st.integers(2, 5))
    equalities = [tuple(c * (i == 0) for i in range(n)) for c in draw(
        st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=3))]
    stricts = []
    for _ in range(draw(st.integers(1, 4))):
        coefficients = [draw(st.integers(-3, 3))] + draw(st.lists(
            st.integers(0, 2 ** 20), min_size=n - 1, max_size=n - 1))
        coefficients[draw(st.integers(1, n - 1))] = draw(
            st.integers(2 ** 16, 2 ** 20))
        stricts.append(tuple(coefficients))
    points = draw(st.lists(st.tuples(
        st.sampled_from([0, 0, 0, 1, -2]),
        *[st.one_of(st.integers(1, 9), st.integers(-2, 50))] * (n - 1)),
        min_size=1, max_size=12))
    if draw(st.booleans()):
        points = [tuple(Fraction(v, d) for v in p)
                  for p, d in zip(points, draw(st.lists(
                      st.integers(1, 12), min_size=len(points),
                      max_size=len(points))))]
    return (tuple(equalities), tuple(stricts)), points


class TestCertificate:
    """The secondary-cone certificate of the 48 canonical subdivisions."""

    @pytest.fixture(scope="class")
    def canonical(self, fan36):
        return [(sorted(c.rays), canonical_subdivision(c.rays))
                for c in fan36.maximal_cones]

    def test_forms_match_fraction_oracle(self, canonical):
        verts = hypersimplex_vertices()
        index = {t: i for i, t in enumerate(PLUECKER_TRIPLES)}
        cells = {frozenset(index[t] for t in cell)
                 for _, cells in canonical for cell in cells}
        assert len(cells) == 48
        for cell in cells:
            forms = subdivision_forms([{PLUECKER_TRIPLES[i] for i in cell}])
            assert forms == brute_force_cell_forms(verts, cell)

    @given(certificate_batches())
    @example(((((1, 0),), ((0, 2 ** 16),)), [(0, 1), (1, 1), (0, -1),
                                             (0, 1)]))
    @example(((((1, 0),), ((0, 2 ** 16),)), [(0, 0), (1, 0), (0, 1)]))
    def test_batch_matches_plain_sums(self, case):
        """Each point's verdicts in the batch, ``ok`` and ``weak``, are the
        ones its forms' plain sums give, whichever points beside it
        fail.  A batch of Fractions is certified scaled to integers."""
        forms, points = case
        rows = integer_batch(points)
        assert verdicts(forms, rows) == \
            [certificate_holds(forms, w) for w in points]
        assert verdicts(forms, rows, weak=True) == \
            [certificate_holds(forms, w, weak=True) for w in points]

    def test_certified_iff_envelope_gives_canonical_cells(self, canonical):
        """Interior points, and points on a facet or a ray of each cone,
        where ties can coarsen the subdivision, certified as one batch
        per cone, each at the integer heights of its integer multiple."""
        rng = random.Random(13)
        seen = set()
        for rays, cells in canonical:
            batch = []
            for zeros in (0, 0, 1, len(rays) - 1):
                coeffs = [Fraction(rng.randint(1, 30), rng.randint(1, 5))
                          for _ in rays]
                for k in rng.sample(range(len(rays)), zeros):
                    coeffs[k] = 0
                x = tuple(sum(a * r[i] for a, r in zip(coeffs, rays))
                          for i in range(4))
                batch.append(integer_heights(integer_batch([x])[0]))
            got = verdicts(subdivision_forms(cells), batch)
            assert got == [set(induced_subdivision(w)) == set(cells)
                           for w in batch]
            seen.update(got)
        assert seen == {False, True}

    def test_neighbour_forms_reject_every_canonical_point(self, canonical):
        """At the batch of the 48 canonical points, each certificate holds
        at its own cone's point alone."""
        heights = [integer_heights(canonical_point(rays))
                   for rays, _ in canonical]
        for k, (_, cells) in enumerate(canonical):
            assert verdicts(subdivision_forms(cells), heights) == \
                [j == k for j in range(len(heights))]

    def test_one_flipped_strict_form_is_caught(self, canonical):
        rng = random.Random(5)
        for rays, cells in canonical:
            equalities, stricts = subdivision_forms(cells)
            k = rng.randrange(len(stricts))
            flipped = stricts[:k] + (tuple(-x for x in stricts[k]),) \
                + stricts[k + 1:]
            w = integer_heights(canonical_point(rays))
            assert verdicts((equalities, flipped), [w]) == [False]

    def test_matches_form_by_form_oracle_on_huge_heights(self, canonical):
        """Heights of size 10**30: each cone's canonical heights scaled,
        plus a huge affine function of the vertices, which no form sees;
        the same with one height nudged; both in one batch, scaled to
        integers, under the cone's own forms and its neighbour's, in
        fields wider than 64 bits."""
        rng = random.Random(17)
        verts = hypersimplex_vertices()
        forms = [subdivision_forms(cells) for _, cells in canonical]
        seen = set()
        for k, (rays, _) in enumerate(canonical):
            scale = Fraction(rng.randint(10 ** 29, 10 ** 30),
                             rng.randint(1, 10 ** 6))
            affine = [Fraction(rng.randint(-10 ** 30, 10 ** 30),
                               rng.randint(1, 99)) for _ in range(7)]
            lifted = [scale * h + affine[6] + sum(map(operator.mul, affine, v))
                      for h, v in zip(integer_heights(canonical_point(rays)),
                                      verts)]
            nudged = list(lifted)
            nudged[rng.randrange(len(nudged))] += Fraction(1, 10 ** 6)
            rows = integer_batch([lifted, nudged])
            for f in (forms[k], forms[k - 1]):
                assert certified(f, rows)[0] > 64
                got = verdicts(f, rows)
                assert got == [certificate_holds(f, w)
                               for w in (lifted, nudged)]
                seen.update(got)
        assert seen == {False, True}

    def test_memo_answers_each_certificate_by_its_own_forms(self,
                                                             canonical):
        """Each cone's heights, under its own certificate and its
        neighbour's in turn, and under rebuilt copies of both, which are
        equal to them but not the same objects: no verdict is carried
        from one certificate to the next."""
        forms = [subdivision_forms(cells) for _, cells in canonical]
        for k, (rays, cells) in enumerate(canonical):
            w = integer_heights(canonical_point(rays))
            own, neighbour = forms[k], forms[k - 1]
            rebuilt = subdivision_forms(cells)
            rebuilt_neighbour = subdivision_forms(canonical[k - 1][1])
            assert rebuilt == own and rebuilt is not own
            assert rebuilt_neighbour == neighbour
            assert rebuilt_neighbour is not neighbour
            # the oracle's verdicts, which the calls below must repeat
            assert certificate_holds(own, w)
            assert not certificate_holds(neighbour, w)
            for f, holds in ((own, True), (neighbour, False), (own, True),
                             (rebuilt, True), (rebuilt_neighbour, False),
                             (rebuilt, True), (neighbour, False)):
                assert verdicts(f, [w]) == [holds]

    def test_rejects_lower_dimensional_cell(self):
        with pytest.raises(ValueError, match="not full-dimensional"):
            subdivision_forms([set(PLUECKER_TRIPLES[:6])])


class TestCertifiesRejectsBadHeights:
    """``certified`` takes ints only, as ``integer_heights`` gives them,
    where ``induced_subdivision`` also takes Fractions, and a batch of one
    point or more."""

    @pytest.fixture(scope="class")
    def forms(self):
        return subdivision_forms(canonical_subdivision(
            ray_set(("r3", "r9", "r10", "r12"))))

    @pytest.mark.parametrize("w", [[0.5] * 20, ["1"] * 20,
                                   [Fraction(1, 2)] * 19 + [0.5]])
    def test_rejects_heights_that_are_not_rational(self, forms, w):
        with pytest.raises(ValueError, match="must be ints"):
            certified(forms, [w])
        with pytest.raises(ValueError, match="ints or Fractions"):
            induced_subdivision(w)

    def test_rejects_fraction_heights(self, forms):
        """A batch of Fractions, whole ones too, and a batch that holds
        one row of Fractions beside integer heights, are rejected: the
        caller scales rational heights to integers."""
        w = integer_heights(canonical_point(ray_set(("r3", "r9", "r10",
                                                     "r12"))))
        for batch in ([[Fraction(1, 2)] * 20], [list(map(Fraction, w))],
                      [w, [Fraction(h, 2) for h in w]]):
            with pytest.raises(ValueError, match="must be ints"):
                certified(forms, batch)
        assert certified(forms, [w])[2] == 1

    def test_rejects_an_empty_batch(self, forms):
        with pytest.raises(ValueError, match="at least one point"):
            certified(forms, [])


class TestJson:
    def test_shape_and_stability(self):
        cells = canonical_subdivision(ray_set(("r3", "r9", "r10", "r12")))
        data = subdivision_to_json(cells)
        assert sorted(data) == ["cells", "signature"]
        assert data["cells"] == sorted(data["cells"])
        again = subdivision_to_json(list(reversed(list(cells))))
        assert again == data
