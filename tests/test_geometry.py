import ast
import hashlib
import itertools
import operator
import pathlib
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import tropd4.geometry as geometry
from tropd4.geometry import (
    Cone,
    Fan,
    NotPointedError,
    basis_relations,
    cone_from_rays,
    cone_rays,
    form_signs,
    intersection_dim,
    point_in_hull,
    point_signs,
    polytope_f_vector,
    regular_subdivision,
    set_bits,
)

from tropd4.fan import trop_phi2
from tropd4.hypersimplex import (
    canonical_subdivision,
    hypersimplex_vertices,
    induced_subdivision,
)
from tropd4.reference import FAN_F_VECTOR
from tropd4.webmatrix import PLUECKER_TRIPLES

from oracles import (
    _affine_coordinates,
    _affine_rank,
    _det,
    brute_force_cone_dim,
    brute_force_cone_faces,
    brute_force_cone_facets,
    brute_force_cone_rays,
    brute_force_lower_cells,
    brute_force_point_in_hull,
    fraction_rref,
)

R = {  # the sixteen fan rays, by conventional label number
    1: (0, 0, 1, 0), 2: (0, 0, -1, 0), 3: (1, 0, 0, 0), 4: (1, 0, -1, 0),
    5: (-1, 0, 0, 0), 6: (0, 0, 0, 1), 7: (-1, 0, 0, 1), 8: (0, 0, 0, -1),
    9: (0, 0, 1, -1), 10: (1, 0, 0, -1), 11: (0, 1, 0, 0), 12: (0, 1, 0, -1),
    13: (0, 1, 1, -1), 14: (0, -1, 0, 0), 15: (1, -1, 0, 0),
    16: (1, -1, -1, 0),
}


class TestCanonicalizeRay:
    """A cone scales its rows to integers and keeps each as the unique
    positive multiple with coprime entries; zero rows are dropped."""

    def test_gcd_scaling(self):
        assert Cone(4, [(0, 0, -2, 0), (2, 4, 6, 8)]).halfspaces == \
            ((0, 0, -1, 0), (1, 2, 3, 4))

    def test_zero_vector(self):
        assert Cone(4, [(0, 0, 0, 0)]).halfspaces == ()
        assert Cone(2, [(0, 0), (0, 3), (0, 0)]).halfspaces == ((0, 1),)

    def test_rational_input(self):
        assert Cone(2, [(Fraction(1, 2), Fraction(3, 4))]).halfspaces == \
            ((2, 3),)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5),
           st.integers(1, 7))
    def test_positive_multiple(self, v, k):
        if not any(v):
            return
        [w] = Cone(len(v), [v]).halfspaces
        assert Cone(len(v), [[Fraction(k * x, 3) for x in v]]).halfspaces \
            == (w,)
        assert gcd(*(abs(x) for x in w)) == 1
        # w is a positive multiple of v: proportional with matching signs
        i = next(i for i, x in enumerate(v) if x)
        assert w[i] * v[i] > 0
        assert all(w[i] * v[j] == w[j] * v[i] for j in range(len(v)))


class TestConeRays:
    def test_orthant(self):
        rays = cone_rays([(1, 0, 0, 0), (0, 1, 0, 0),
                          (0, 0, 1, 0), (0, 0, 0, 1)], 4)
        assert rays == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)]

    def test_not_pointed(self):
        with pytest.raises(NotPointedError) as exc:
            cone_rays([(1, 0), (-1, 0)], 2)
        assert any(exc.value.direction)

    def test_iterator_input(self):
        orthant = [(1, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 2))]
        assert cone_rays(iter(orthant), 3) == cone_rays(orthant, 3)
        assert cone_from_rays(iter(orthant), 3).halfspaces == \
            cone_from_rays(orthant, 3).halfspaces

    def test_bipyramid_round_trip(self):
        rays = [R[1], R[5], R[7], R[11], R[13]]
        cone = cone_from_rays(rays, 4)
        assert set(cone.rays) == set(rays)
        assert brute_force_cone_dim(cone.halfspaces, 4) == 4
        # every halfspace is tight on a spanning subset of rays
        for h in cone.halfspaces:
            tight = [r for r in cone.rays
                     if sum(a * b for a, b in zip(h, r)) == 0]
            assert len(tight) >= 3

    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3),
                    min_size=3, max_size=7))
    def test_round_trip_random(self, halfspaces):
        try:
            rays = cone_rays(halfspaces, 3)
        except NotPointedError:
            return
        again = cone_from_rays(rays, 3) if rays else None
        if rays:
            assert sorted(again.rays) == sorted(rays)
        for r in rays:
            assert all(sum(a * b for a, b in zip(h, r)) >= 0
                       for h in halfspaces if any(h))

    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(
        st.just(d), st.booleans(),
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=d + 3))))
    @settings(max_examples=150)
    def test_matches_brute_force_oracle(self, case):
        dim, in_orthant, halfspaces = case
        if in_orthant:  # pointed, and usually more than the origin
            halfspaces += [tuple(int(i == j) for j in range(dim))
                           for i in range(dim)]
        if _affine_rank([(0,) * dim] + halfspaces) < dim:
            with pytest.raises(NotPointedError):
                cone_rays(halfspaces, dim)
            return
        assert cone_rays(halfspaces, dim) == \
            brute_force_cone_rays(halfspaces, dim)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


# (dim, add the orthant, integer rows, insertions): each insertion puts a
# zero row, or a repeat of a row already there, at a position of the list.
SWEEP_INPUTS = st.integers(1, 5).flatmap(lambda d: st.tuples(
    st.just(d), st.booleans(),
    st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=d + 3),
    st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=3)))


def sweep_rows(case):
    """The dimension and rows a ``SWEEP_INPUTS`` case describes."""
    dim, in_orthant, rows, insertions = case
    if in_orthant:
        rows += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    for pos, zero in insertions:
        row = (0,) * dim if zero or not rows else rows[pos % len(rows)]
        rows.insert(pos % (len(rows) + 1), row)
    return dim, rows


class TestDoubleDescriptionContract:
    """Integer rows in; primitive lines, and primitive rays with exact
    tight masks over the input positions, out."""

    @given(SWEEP_INPUTS)
    @example((2, False, [(0, 0), (1, 0), (0, 0), (1, 0), (0, 1)], []))
    @example((3, True, [(0, 0, 0)], [(0, True), (2, False), (9, False)]))
    @example((1, False, [(0,), (2,), (-1,)], []))
    @settings(max_examples=200)
    def test_masks_are_tight_sets(self, case):
        dim, rows = sweep_rows(case)
        lines, rays = geometry._double_description(rows, dim)
        for l in lines:
            assert gcd(*l) == 1
            assert all(_dot(h, l) == 0 for h in rows)
        for r, mask in rays:
            assert gcd(*r) == 1
            values = [_dot(h, r) for h in rows]
            assert min(values, default=0) >= 0
            assert mask == sum(1 << i for i, v in enumerate(values) if v == 0)
        if not lines:
            assert sorted(r for r, _ in rays) == \
                brute_force_cone_rays(rows, dim)

    @given(st.integers(1, 4).flatmap(lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * d),
                           st.integers(1, 6)), max_size=d + 3))))
    @example((2, [((1, 0), 2), ((0, 0), 3), ((0, 2), 4)]))
    @example((3, [((2, -1, 0), 3), ((-4, 2, 0), 5)]))
    def test_fraction_input_matches_integer_scaled(self, case):
        dim, scaled = case
        rows = [row for row, _ in scaled]
        fractions = [tuple(Fraction(x, k) for x in row) for row, k in scaled]
        assert Cone(dim, fractions) == Cone(dim, rows)
        try:
            rays = cone_rays(rows, dim)
        except NotPointedError as exc:
            with pytest.raises(NotPointedError) as again:
                cone_rays(fractions, dim)
            assert again.value.direction == exc.direction
        else:
            assert cone_rays(fractions, dim) == rays
        assert cone_from_rays(fractions, dim) == cone_from_rays(rows, dim)


def _cube(d):
    return list(itertools.product((-1, 1), repeat=d))


def _cross(d):
    return [tuple(s * int(i == j) for j in range(d))
            for i in range(d) for s in (1, -1)]


# Each polytope has vertices on more facets than its dimension, or facets
# with more vertices than that, so that most rays of one of its two cones
# in polytope_cones are not simple.
POLYTOPES = {
    "3-cube": _cube(3),
    "octahedron": _cross(3),
    "square pyramid": [(1, 1, 0), (1, -1, 0), (-1, -1, 0), (-1, 1, 0),
                       (0, 0, 1)],
    "4-cross-polytope": _cross(4),
}


def polytope_cones():
    """Per polytope, two cones and their rays: the cone over it, cut out by
    its facet normals, whose rays are the points ``(v, 1)`` of its
    vertices; and the cone of its affine functionals, cut out by those
    points, whose rays are its facet normals.  The facet normals come from
    the brute-force oracle."""
    cones = []
    for vertices in POLYTOPES.values():
        points = [v + (1,) for v in vertices]
        facets = brute_force_cone_rays(points, len(points[0]))
        cones += [(facets, sorted(points)), (points, facets)]
    return cones


class TestSimpleRayRule:
    """A pair with a simple ray, tight on exactly d - 1 rows where d is the
    dimension of the pointed part, is taken as adjacent without scanning
    the other rays.  On cones whose rays mostly are not simple, with a
    zero row and a repeated row among the rows in any order, the rays and
    their tight masks must still be exact."""

    @given(st.sampled_from(polytope_cones()).flatmap(lambda cone: st.tuples(
        st.just(cone), st.sampled_from(cone[0]),
        st.permutations(range(len(cone[0]) + 2)))))
    @settings(max_examples=120)
    def test_rays_and_masks_match_brute_force_oracle(self, case):
        (rows, oracle_rays), repeat, order = case
        dim = len(rows[0])
        # a zero row and a repeated row leave the cone, and its rays, as
        # they are
        rows = rows + [(0,) * dim, repeat]
        rows = [rows[i] for i in order]
        lines, rays = geometry._double_description(rows, dim)
        assert lines == []
        assert sorted(r for r, _ in rays) == oracle_rays
        for r, mask in rays:
            assert mask == sum(1 << i for i, h in enumerate(rows)
                               if _dot(h, r) == 0)


def assert_masks_match_coordinate_sweep(rows, dim):
    """The mask sweep, given the coordinate sweep's bits, returns exactly
    the masks of the coordinate sweep, in its order."""
    _, rays = geometry._double_description(rows, dim)
    bits = [1 << i for i in range(len(rows))]
    assert geometry._double_description(rows, dim, bits=bits) == \
        [mask for _, mask in rays]


def assert_bits_relabel_the_masks(rows, dim, bits):
    """With ``bits`` the mask sweep returns the masks of the coordinate
    sweep relabelled, in their order; and those are the rows tight on each
    ray under ``bits``."""
    def relabel(mask):
        return sum(b for i, b in enumerate(bits) if mask >> i & 1)
    _, rays = geometry._double_description(rows, dim)
    masks = [relabel(m) for _, m in rays]
    assert masks == [sum(b for h, b in zip(rows, bits) if _dot(h, r) == 0)
                     for r, _ in rays]
    assert geometry._double_description(rows, dim, bits=bits) == masks


def shuffled_bits(count, rng):
    """``count`` distinct single bits in shuffled order, drawn from
    ``count + 1`` positions, so that their positions need not be
    contiguous."""
    positions = list(range(count + 1))
    rng.shuffle(positions)
    return [1 << p for p in positions[:count]]


class TestSweepOrderPinned:
    """Callers rely on the order of the sweep's lines and rays, so a change
    to the order must fail here.  The digest is of the sweep that tested
    every candidate pair by scanning all tight masks."""

    DIGEST = "1c2b75cbda670444ec23f0df5d8998ad"

    @staticmethod
    def corpus(fan36, sweep_calls):
        """The rows and dimension of the sweeps of 60 lower envelopes on
        Delta(3,6), and of the facet sweeps of the 48 distinct cells of
        the canonical subdivisions."""
        verts = hypersimplex_vertices()
        rng = random.Random(1901)
        lifts = [[rng.randint(0, 1000) for _ in range(20)]
                 for _ in range(40)]
        lifts += [[rng.randint(0, 2) for _ in range(20)] for _ in range(20)]
        for w in lifts:
            regular_subdivision(verts, w)
        corpus = list(sweep_calls)
        assert len(corpus) == 60
        index = {t: i for i, t in enumerate(PLUECKER_TRIPLES)}
        cells = {tuple(sorted(index[t] for t in cell))
                 for c in fan36.maximal_cones
                 for cell in canonical_subdivision(c.rays)}
        assert len(cells) == 48
        corpus += [([verts[i] + (1,) for i in cell], 7)
                   for cell in sorted(cells)]
        sweep_calls.clear()
        return corpus

    def test_digest_of_envelope_and_cell_sweeps(self, fan36, sweep_calls):
        outputs = repr([geometry._double_description(rows, dim)
                        for rows, dim in self.corpus(fan36, sweep_calls)])
        assert hashlib.md5(outputs.encode()).hexdigest() == self.DIGEST

    def test_mask_sweep_matches_coordinate_sweep(self, fan36, sweep_calls):
        for rows, dim in self.corpus(fan36, sweep_calls):
            assert_masks_match_coordinate_sweep(rows, dim)

    @given(SWEEP_INPUTS)
    @example((2, False, [(0, 0), (1, 0), (0, 0), (1, 0), (0, 1)], []))
    @example((3, False, [], []))
    @settings(max_examples=200)
    def test_mask_sweep_matches_on_any_rows(self, case):
        dim, rows = sweep_rows(case)
        assert_masks_match_coordinate_sweep(rows, dim)

    def test_bits_relabel_the_masks(self, fan36, sweep_calls):
        rng = random.Random(2903)
        for rows, dim in self.corpus(fan36, sweep_calls):
            assert_bits_relabel_the_masks(
                rows, dim, shuffled_bits(len(rows), rng))

    @given(SWEEP_INPUTS, st.randoms(use_true_random=False))
    @example((2, False, [(0, 0), (1, 0), (0, 0), (1, 0), (0, 1)], []),
             random.Random(0))
    @example((3, True, [(0, 0, 0)], [(0, True), (2, False)]),
             random.Random(1))
    @settings(max_examples=200)
    def test_bits_relabel_the_masks_on_any_rows(self, case, rng):
        dim, rows = sweep_rows(case)
        assert_bits_relabel_the_masks(rows, dim,
                                      shuffled_bits(len(rows), rng))


class TestConeFromRays:
    """``cone_from_rays`` cuts a cone out by exactly its facets, with no
    redundant halfspace."""

    @given(SWEEP_INPUTS)
    @example((2, False, [(1, 0), (0, 0), (2, 0), (1, 1), (1, 0)], []))
    @example((3, False, [], [(0, True)]))
    @example((3, True, [(1, 1, 0), (2, 2, 0)], [(1, False)]))
    @settings(max_examples=200)
    def test_halfspaces_are_the_facets(self, case):
        dim, rows = sweep_rows(case)
        if brute_force_cone_dim(rows, dim) < dim:
            return
        cone = Cone(dim, rows)
        generators = cone.rays + cone.lines + tuple(
            tuple(-x for x in l) for l in cone.lines)
        assert cone_from_rays(generators, dim).halfspaces == \
            tuple(brute_force_cone_facets(rows, dim))

    @pytest.mark.parametrize("rays,dim", [
        ([(1, 0, 0)], 2),  # would be cut down to (1, 0)
        ([(1, 0)], 3),  # would be padded to (1, 0, 0)
        ([(1, 0, 0), (0, 1)], 3),
    ])
    def test_rejects_rays_of_another_dimension(self, rays, dim):
        with pytest.raises(ValueError, match=f"rays must have {dim} entries"):
            cone_from_rays(rays, dim)


# (dim, generators): at most dim + 4 integer vectors with last entry >= 1,
# so the cone they span is pointed.
CONE_GENERATORS = st.integers(3, 4).flatmap(lambda d: st.tuples(
    st.just(d), st.lists(st.tuples(*[st.integers(-2, 2)] * (d - 1),
                                   st.integers(1, 3)),
                         min_size=d, max_size=d + 4)))


class TestConeKeepsItsFacets:
    """A pointed, full-dimensional cone keeps its facets alone, sorted,
    whatever redundant rows it is cut out by, each with the mask of the
    rays it is tight on."""

    @given(CONE_GENERATORS, st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_redundant_rows_give_the_same_cone(self, case, rng):
        """Beside the facets: the sum of two facets, tight on a smaller
        face; a positive multiple of one; a repeat of another; and the sum
        of them all, tight on no ray."""
        dim, generators = case
        cone = cone_from_rays(generators, dim)
        if brute_force_cone_dim(cone.halfspaces, dim) < dim:
            return
        h1, h2 = cone.halfspaces[:2]
        rows = list(cone.halfspaces) + [
            tuple(map(operator.add, h1, h2)), tuple(3 * a for a in h1), h2,
            tuple(map(sum, zip(*cone.halfspaces)))]
        rng.shuffle(rows)
        redundant = Cone(dim, rows)
        assert redundant == cone
        assert redundant.halfspaces == tuple(brute_force_cone_facets(rows,
                                                                     dim))
        assert redundant.tight == tuple(
            sum(1 << j for j, r in enumerate(redundant.rays) if not _dot(h, r))
            for h in redundant.halfspaces)

    def test_lower_dimensional_cone_keeps_its_rows(self):
        """The ray x = 0, y >= 0 is pointed, but +-x are tight on its one
        ray: every row stays, in its order, with its mask."""
        cone = Cone(2, [(2, 0), (0, 1), (1, 1), (-1, 0)])
        assert cone.rays == ((0, 1),) and cone.lines == ()
        assert cone.halfspaces == ((1, 0), (0, 1), (1, 1), (-1, 0))
        assert cone.tight == (1, 0, 0, 1)


class TestConeFaceRaySets:
    def test_square_pyramid(self):
        square = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]
        faces = Fan(3, (cone_from_rays(square, 3),)).face_ray_sets()
        edges = {frozenset((a, b)) for a, b in zip(square, square[1:] +
                                                   square[:1])}
        assert faces == {frozenset((r,)) for r in square} | edges | \
            {frozenset(square)}

    @given(CONE_GENERATORS)
    @settings(max_examples=60)
    def test_matches_brute_force_oracle(self, case):
        """Each cone as drawn, and rebuilt with the sum of its first two
        halfspaces, a redundant one, added."""
        dim, generators = case
        cone = cone_from_rays(generators, dim)
        if brute_force_cone_dim(cone.halfspaces, dim) < dim:
            return
        h1, h2 = cone.halfspaces[:2]
        redundant = Cone(dim, cone.halfspaces + (
            tuple(map(operator.add, h1, h2)),))
        assert redundant.rays == cone.rays
        expected = brute_force_cone_faces(list(cone.rays), dim)
        for c in (cone, redundant):
            assert Fan(dim, (c,)).face_ray_sets() == expected


class TestFaceContaining:
    @given(CONE_GENERATORS)
    @settings(max_examples=60)
    def test_matches_brute_force_oracle(self, case):
        """The sum of a face's rays lies in the relative interior of the
        face, so its smallest face is that face; the origin's is empty, and
        a point past a facet lies in no face."""
        dim, generators = case
        cone = cone_from_rays(generators, dim)
        if brute_force_cone_dim(cone.halfspaces, dim) < dim:
            return
        for face in brute_force_cone_faces(list(cone.rays), dim):
            assert cone.face_containing(tuple(map(sum, zip(*face)))) == face
        assert cone.face_containing((0,) * dim) == frozenset()
        total = tuple(map(sum, zip(*cone.rays)))
        for h in cone.halfspaces:
            k = _dot(h, total) // _dot(h, h) + 1  # so that h(total - k h) < 0
            past = tuple(x - k * c for x, c in zip(total, h))
            assert cone.face_containing(past) is None

    @pytest.mark.parametrize("x", [(1, 0, -5), (1,)])
    def test_rejects_points_of_another_length(self, x):
        cone = Cone(2, ((1, 0), (0, 1)))
        with pytest.raises(ValueError, match="points must have 2 entries"):
            cone.face_containing(x)


class TestFanFaces:
    def test_graded_once_on_first_use(self, fan36, sweep_calls):
        """A fan grades its faces on first use, not when it is built, from
        the tight masks of its cones' halfspaces, with no sweep; a second
        ``f_vector`` or ``face_ray_sets`` call grades nothing again."""
        fan = Fan(4, fan36.maximal_cones)
        assert "_faces_by_dim" not in vars(fan)
        assert fan.f_vector() == FAN_F_VECTOR
        assert sweep_calls == []
        graded = fan._faces_by_dim
        assert fan.f_vector() == FAN_F_VECTOR
        faces = fan.face_ray_sets()
        assert len(faces) == sum(FAN_F_VECTOR)
        faces.clear()  # the caller's copy, not the fan's
        assert len(fan.face_ray_sets()) == sum(FAN_F_VECTOR)
        assert fan._faces_by_dim is graded and sweep_calls == []

    def test_rejects_cones_of_another_dimension(self):
        """A 3-dimensional orthant in a fan of dimension 2 would report
        f-vector (3, 3) and drop its 3-face."""
        orthant = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
        with pytest.raises(ValueError, match=r"ambient dimension 2: got \[3\]"):
            Fan(2, (orthant,))
        with pytest.raises(ValueError, match="ambient dimension 3"):
            Fan(3, (orthant, Cone(2, ((1, 0), (0, 1)))))

    def test_not_pointed(self):
        fan = Fan(2, (Cone(2, ((1, 0),)),))
        # f_vector twice: a failed first use must not leave faces behind
        for entry in (fan.f_vector, fan.face_ray_sets, fan.f_vector):
            with pytest.raises(NotPointedError):
                entry()


class TestPrivateGeometryNames:
    def test_no_module_imports_underscore_names_from_geometry(self):
        package = pathlib.Path(geometry.__file__).parent
        imported = []
        for path in sorted(package.glob("*.py")):
            if path.name == "geometry.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and (
                        node.module == "geometry" and node.level == 1
                        or node.module == "tropd4.geometry"):
                    imported += [f"{path.name}: {alias.name}"
                                 for alias in node.names
                                 if alias.name.startswith("_")]
        assert imported == []


class TestIntersectCones:
    """Two cones intersect in the cone of their joined halfspaces."""

    @staticmethod
    def meet(a, b):
        return Cone(a.ambient_dim, a.halfspaces + b.halfspaces)

    def test_idempotent(self):
        orthant = Cone(4, [(1, 0, 0, 0), (0, 1, 0, 0),
                           (0, 0, 1, 0), (0, 0, 0, 1)])
        both = self.meet(orthant, orthant)
        assert both.rays == orthant.rays

    def test_hyperplane(self):
        a = Cone(2, [(1, 0)])
        b = Cone(2, [(-1, 0)])
        c = self.meet(a, b)
        assert brute_force_cone_dim(c.halfspaces, 2) == 1
        assert not c.is_pointed
        assert c.face_containing((0, 5)) is not None and \
            c.face_containing((0, -5)) is not None
        assert c.face_containing((1, 0)) is None

    def test_common_facet(self):
        a = cone_from_rays([R[3], R[9], R[10], R[12]], 4)
        b = cone_from_rays([R[3], R[9], R[12], R[13]], 4)
        c = self.meet(a, b)
        assert brute_force_cone_dim(c.halfspaces, 4) == 3
        assert set(c.rays) == {R[3], R[9], R[12]}

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.meet(Cone(2, [(1, 0)]), Cone(3, [(1, 0, 0)]))
        with pytest.raises(ValueError):
            Cone(3, [(1, 0, 0), (0, 1)])


SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


def proper_faces(points):
    """Vertex index sets of the nonempty proper faces of ``conv(points)``,
    by dimension, read off the masks that ``geometry._faces`` grades from
    the cached facet sweep.  The polytope itself is left out, unless it is
    a single point."""
    points = geometry._distinct_points(points)
    _, _, facets = geometry._polytope_facets(points)
    faces = geometry._faces(facets, len(points))
    if len(points) > 1:
        del faces[max(faces)]
    return {d - 1: {frozenset(i for i in range(len(points)) if m >> i & 1)
                    for m in masks} for d, masks in faces.items()}


class TestPointConfiguration:
    """``regular_subdivision``, ``polytope_f_vector`` and the face sets
    take a point list that is nonempty, of one length and without
    repeats."""

    @staticmethod
    def rejected(points, message):
        for entry in (lambda: regular_subdivision(points, [0] * len(points)),
                      lambda: proper_faces(points),
                      lambda: polytope_f_vector(points)):
            with pytest.raises(ValueError, match=message):
                entry()

    def test_no_points(self):
        self.rejected([], "at least one point")

    def test_points_of_different_lengths(self):
        self.rejected([(0, 0), (1, 0, 0), (0, 1)], "same length")
        self.rejected([(0, 0, 0), (1, 0), (0, 1)], "same length")

    def test_repeated_point(self):
        self.rejected(SQUARE + [(1, 0)], "distinct")
        self.rejected([(Fraction(1, 2), 0), (0, 1), (Fraction(2, 4), 0)],
                      "distinct")

    def test_float_coordinates(self):
        """Floats are rejected, also after the equal int points have
        filled the affine frame cache."""
        geometry._affine_frame.cache_clear()
        points = [(0, 0), (1, 0), (0, 1)]
        assert regular_subdivision(points, [0, 0, 0]) == [frozenset({0, 1, 2})]
        assert polytope_f_vector(points) == (3, 3)
        self.rejected([tuple(map(float, p)) for p in points],
                      "ints or Fractions")
        with pytest.raises(ValueError, match="ints or Fractions"):
            regular_subdivision(points, [0, 0.5, 0])

    def test_affine_frame_cache(self):
        maxsize = geometry._affine_frame.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
        geometry._affine_frame.cache_clear()
        points = [[0, 0], [1, 0], [0, 1], [1, 1]]
        cells = regular_subdivision(points, [0, 0, 0, 1])
        assert regular_subdivision(tuple(map(tuple, points)),
                                   [0, 0, 0, 1]) == cells
        info = geometry._affine_frame.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        # the same list, changed in place: a triangle with the lifted point
        # inside it
        points[0] = [2, 2]
        assert regular_subdivision(points, [0, 0, 0, 1]) == \
            brute_force_lower_cells(points, [0, 0, 0, 1]) != cells


class TestRegularSubdivision:
    def test_one_lifted_corner(self):
        cells = regular_subdivision(SQUARE, [0, 0, 0, 1])
        assert sorted(map(sorted, cells)) == [[0, 1, 2], [1, 2, 3]]

    def test_flat(self):
        cells = regular_subdivision(SQUARE, [0, 0, 0, 0])
        assert sorted(map(sorted, cells)) == [[0, 1, 2, 3]]

    def test_rational_heights(self):
        cells = regular_subdivision(
            SQUARE, [Fraction(1, 3), 0, 0, Fraction(1, 7)])
        assert sorted(map(len, cells)) == [3, 3]

    @given(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    def test_square_against_brute_force(self, heights):
        assert regular_subdivision(SQUARE, heights) == \
            brute_force_lower_cells(SQUARE, heights)

    GRID = [(x, y) for x in range(3) for y in range(3)]

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9))
    @settings(max_examples=40)
    def test_grid_against_brute_force(self, heights):
        assert regular_subdivision(self.GRID, heights) == \
            brute_force_lower_cells(self.GRID, heights)

    def test_generic_heights_give_simplices(self):
        rng = random.Random(5)
        for _ in range(20):
            heights = [Fraction(rng.randint(-300, 300), rng.randint(1, 97))
                       for _ in self.GRID]
            if len(set(heights)) < len(heights):
                continue
            cells = regular_subdivision(self.GRID, heights)
            assert all(len(c) == 3 for c in cells)

    def test_cells_cover_hull(self):
        rng = random.Random(11)
        heights = [2, 0, 1, 0, 0, 3, 1, 0, 2]
        cells = regular_subdivision(self.GRID, heights)
        for _ in range(1000):
            weights = [rng.randint(0, 5) for _ in self.GRID]
            if not any(weights):
                continue
            total = sum(weights)
            y = tuple(sum(Fraction(w, total) * Fraction(p[i])
                          for w, p in zip(weights, self.GRID))
                      for i in range(2))
            assert any(point_in_hull(y, [self.GRID[i] for i in sorted(c)])
                       for c in cells)

    def test_cells_meet_in_common_faces(self):
        rng = random.Random(3)
        for _ in range(15):
            heights = [rng.randint(0, 4) for _ in self.GRID]
            cells = regular_subdivision(self.GRID, heights)
            for a, b in itertools.combinations(cells, 2):
                shared = a & b
                if not shared:
                    continue
                for cell in (a, b):
                    verts = [self.GRID[i] for i in sorted(cell)]
                    local = frozenset(sorted(cell).index(i)
                                      for i in sorted(shared))
                    faces = proper_faces(verts)
                    all_faces = {f for fs in faces.values() for f in fs}
                    all_faces.add(frozenset(range(len(verts))))
                    assert local in all_faces

    def test_degenerate_input(self):
        with pytest.raises(ValueError):
            regular_subdivision([(0, 0)], [1])

    @given(st.lists(st.integers(-9, 9), min_size=9, max_size=9))
    @settings(max_examples=20)
    def test_rational_points_in_a_plane(self, heights):
        # The grid scaled by 1/3 and placed in the plane z = x + 1/2 of
        # R^3 is an affine image of the grid: the cells are the same.
        points = [(Fraction(x, 3), Fraction(y, 3), Fraction(2 * x + 3, 6))
                  for x, y in self.GRID]
        assert regular_subdivision(points, heights) == \
            regular_subdivision(self.GRID, heights)


DELTA_2_5 = [tuple(1 if i in s else 0 for i in range(5))
             for s in itertools.combinations(range(5), 2)]

# Heights for the 10 vertices of Delta(2,5): a narrow integer range gives
# ties and cells that are not simplices, a wide one generic heights.
DELTA_2_5_HEIGHTS = st.one_of(
    st.lists(st.integers(-2, 2), min_size=10, max_size=10),
    st.lists(st.integers(-500, 500), min_size=10, max_size=10),
    st.lists(st.fractions(-2, 2, max_denominator=3), min_size=10,
             max_size=10),
)


class TestLowerEnvelopeOrder:
    """The sweep inserts halfspaces in height order; the cells must not
    depend on it."""

    @given(DELTA_2_5_HEIGHTS)
    @example([0] * 10)
    @example([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
    @example([Fraction(1, 2)] * 5 + [0] * 5)
    @settings(max_examples=60)
    def test_delta_2_5_against_brute_force(self, heights):
        assert regular_subdivision(DELTA_2_5, heights) == \
            brute_force_lower_cells(DELTA_2_5, heights)

    @given(DELTA_2_5_HEIGHTS, st.permutations(range(10)))
    @settings(max_examples=60)
    def test_permuting_points_permutes_cells(self, heights, perm):
        # position j of the permuted input holds point perm[j]
        cells = regular_subdivision([DELTA_2_5[i] for i in perm],
                                    [heights[i] for i in perm])
        relabelled = sorted((frozenset(perm[j] for j in c) for c in cells),
                            key=sorted)
        assert relabelled == regular_subdivision(DELTA_2_5, heights)


@st.composite
def lifted_configurations(draw):
    """Distinct integer points in R^n, n <= 4, and integer heights from 0
    to 2, so that many tie.  The points are drawn on a k-dimensional
    lattice, k <= n, and mapped into R^n by an integer affine map, so that
    many do not span R^n."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    coords = st.integers(-2, 2)
    origin, *frame = draw(st.lists(st.tuples(*[coords] * n),
                                   min_size=k + 1, max_size=k + 1))
    params = draw(st.lists(st.tuples(*[coords] * k), min_size=2,
                           max_size=8, unique=True))
    points = list(dict.fromkeys(
        tuple(o + sum(c * v[j] for c, v in zip(p, frame))
              for j, o in enumerate(origin)) for p in params))
    assume(len(points) >= 2)
    heights = draw(st.lists(st.integers(0, 2), min_size=len(points),
                            max_size=len(points)))
    return points, heights


class TestLowerEnvelopeIsPointed:
    """``lower_cell_masks`` sweeps once, in the mask sweep, and checks for
    no line: after the affine frame the cone of affine supports is
    pointed.  The coordinate sweep of the rows it sweeps must find no line
    and the same masks."""

    @given(lifted_configurations())
    @example(([(0, 0), (1, 1), (2, 2)], [0, 0, 0]))
    @example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [1, 0, 1]))
    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_coordinate_sweep_finds_no_line(self, sweep_calls, case):
        points, heights = case
        sweep_calls.clear()
        masks = geometry.lower_cell_masks(points, heights)
        [call] = sweep_calls
        rows, dim = call
        lines, rays = geometry._double_description(rows, dim)
        assert lines == []
        # row 0 is t >= 0, given the bit above the points; each point has
        # its own bit
        vertical = 1 << len(points)
        assert call.bits[0] == vertical
        assert sorted(call.bits) == [1 << i for i in range(len(points) + 1)]
        relabelled = [sum(b for i, b in enumerate(call.bits) if m >> i & 1)
                      for _, m in rays]
        assert masks == [m for m in relabelled if not m & vertical]


class TestIntersectionDim:
    def test_shared_edge(self):
        cells = regular_subdivision(SQUARE, [0, 0, 0, 1])
        assert intersection_dim(SQUARE, *cells) == 1

    def test_disjoint(self):
        points = [(0, 0), (1, 0), (2, 0), (3, 0)]
        assert intersection_dim(points, {0, 1}, {2, 3}) == -1

    def test_single_shared_vertex(self):
        points = [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1)]
        assert intersection_dim(points, {0, 1, 2}, {0, 3, 4}) == 0

    def test_fraction_points(self):
        points = [(Fraction(1, 2), 0), (0, Fraction(1, 3)),
                  (Fraction(1, 2), Fraction(1, 3)),
                  (Fraction(1, 4), Fraction(1, 6))]  # 3 is on edge 0-1
        assert intersection_dim(points, {0, 1, 2}, {0, 1, 3}) == 1
        assert intersection_dim(points, {0, 1, 3}, {0, 1, 2, 3}) == 1
        assert intersection_dim(points, {0, 1, 2}, {0, 1, 2, 3}) == 2
        assert intersection_dim(points, {2}, {2, 3}) == 0

    @pytest.mark.parametrize("cell_a,cell_b", [
        ({-1, 2}, {-1, 2}),  # would count point 2 twice and give 0
        ({0, 3}, {0, 3}),  # would raise IndexError
        ({0, 1.0}, {0, 1.0}),  # would raise TypeError
        ({0}, {0, 3}),  # would give 0, never reading index 3
    ])
    def test_rejects_bad_indices(self, cell_a, cell_b):
        points = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(ValueError, match=r"not an int in range\(3\)"):
            intersection_dim(points, cell_a, cell_b)

    @given(st.lists(st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 4),
                    min_size=1, max_size=6))
    def test_matches_fraction_elimination(self, points):
        everything = set(range(len(points)))
        assert intersection_dim(points, everything, everything) == \
            _affine_rank(points)


class TestPivotColumns:
    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=5)))
    @example([[0, 2, 1], [0, 4, 2]])  # a zero column, rank 1 of 2 rows
    @example([[1, 2, 0, 3], [2, 1, 0, 3], [0, 1, 0, 1]])
    def test_rows_are_det_times_the_fraction_rref(self, matrix):
        """The pivots are the oracle's; every pivot entry is one D, +-det
        of the pivot columns on some rows; each row up to the rank is D
        times the oracle's reduced row, and the rows past it are zero."""
        pivots, rows = geometry._pivot_columns(matrix)
        want, reduced = fraction_rref(matrix)
        assert pivots == want
        rank = len(pivots)
        det = rows[0][pivots[0]] if pivots else 1
        assert [rows[k][c] for k, c in enumerate(pivots)] == [det] * rank
        assert abs(det) in {abs(_det([[row[c] for c in pivots]
                                      for row in chosen]))
                            for chosen in itertools.combinations(matrix,
                                                                 rank)}
        assert rows[:rank] == [[det * x for x in row] for row in reduced]
        assert not any(map(any, rows[rank:]))


class TestBasisRelations:
    @given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3),
                    min_size=1, max_size=6))
    def test_each_vector_in_the_first_basis(self, vectors):
        """The relations are unique: the pivots are independent, and each
        relation is primitive and positive at its vector."""
        pivots, relations = basis_relations(vectors)
        rank = [_affine_rank([(0, 0, 0)] + vectors[:k])
                for k in range(len(vectors) + 1)]
        assert pivots == [k for k in range(len(vectors))
                          if rank[k + 1] > rank[k]]
        assert sorted(relations) == sorted(set(range(len(vectors)))
                                           - set(pivots))
        for q, c in relations.items():
            assert all(sum(x * v[i] for x, v in zip(c, vectors)) == 0
                       for i in range(3))
            assert c[q] > 0 and gcd(*c) == 1
            assert {i for i, x in enumerate(c) if x} <= {q, *pivots}


def packed_width(forms, x):
    """The field width :func:`form_signs` must take at the point ``x``:
    the smallest power of two from 16 with
    ``2**(w-1) > max(1, max ||f||_1) * max(1, max |x_k|)``."""
    bound = max(1, max((sum(abs(a) for a in f) for f in forms), default=0)) \
        * max(1, max((abs(v) for v in x), default=0))
    w = 16
    while not 2 ** (w - 1) > bound:
        w *= 2
    return w


def assert_packed_signs(forms, x):
    """:func:`form_signs` at the batch of the one point ``x`` against
    plain sums, form by form."""
    values = [sum(a * b for a, b in zip(f, x)) for f in forms]
    width, every, nonnegative, zero = form_signs(forms, [x])
    assert width == packed_width(forms, x) and every == 1
    assert nonnegative == [int(v >= 0) for v in values]
    assert zero == [int(v == 0) for v in values]
    # the same forms turned positive at x, then with the ones that vanish
    # there
    positive = [f if v > 0 else tuple(-a for a in f)
                for f, v in zip(forms, values) if v]
    vanishing = [f for f, v in zip(forms, values) if not v]
    _, _, nonnegative, zero = form_signs(positive + vanishing, [x])
    assert nonnegative == [1] * len(forms)
    assert zero == [0] * len(positive) + [1] * len(vanishing)


@st.composite
def packed_cases(draw):
    """Random forms, at a point of small or huge coordinates."""
    n = draw(st.integers(1, 6))
    forms = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * n), max_size=30))
    coordinate = st.one_of(st.integers(-50, 50),
                           st.integers(-10 ** 40, 10 ** 40))
    return forms, draw(st.tuples(*[coordinate] * n))


@st.composite
def extreme_packed_cases(draw):
    """Forms of norm at most 1 at a point whose largest coordinate, ``m``,
    is ``2**(w-1) - 1`` or ``2**(w-1)``: the forms ``+-e_0`` take the
    values ``+-m``, the extremes of a field of width w, or one more than
    that, which needs width 2w.  Returns the case and the width."""
    w = draw(st.sampled_from([16, 32, 64, 128]))
    m = 2 ** (w - 1) - draw(st.sampled_from([1, 0]))
    n = draw(st.integers(1, 4))
    x = [draw(st.sampled_from([m, -m]))] + draw(st.lists(st.one_of(
        st.sampled_from([0, 1, -1, m, -m, m - 1, 1 - m]),
        st.integers(-m, m)), min_size=n - 1, max_size=n - 1))
    unit = st.tuples(st.integers(0, n - 1), st.sampled_from([-1, 0, 1]))
    forms = [(1,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1)]
    for k, sign in draw(st.lists(unit, max_size=8)):
        forms.insert(draw(st.integers(0, len(forms))),
                     tuple(sign * (i == k) for i in range(n)))
    return (forms, tuple(x)), w if m < 2 ** (w - 1) else 2 * w


class TestPackedForms:
    """:func:`form_signs`, at batches of one point and of many."""

    @given(packed_cases())
    def test_signs_match_plain_sums(self, case):
        assert_packed_signs(*case)

    @given(extreme_packed_cases())
    def test_extreme_values_fit_their_fields(self, case_and_width):
        (forms, x), width = case_and_width
        assert form_signs(forms, [x])[0] == width
        assert_packed_signs(forms, x)

    @given(st.one_of(packed_cases(), extreme_packed_cases().map(
        lambda case_and_width: case_and_width[0])))
    def test_all_nonnegative_matches_plain_sums(self, case):
        """On random forms, and on the same forms turned nonnegative at x,
        then with one form that is positive there negated."""
        forms, x = case
        values = [sum(a * b for a, b in zip(f, x)) for f in forms]
        assert form_signs(forms, [x])[2] == [int(v >= 0) for v in values]
        turned = [f if v >= 0 else tuple(-a for a in f)
                  for f, v in zip(forms, values)]
        assert form_signs(turned, [x])[2] == [1] * len(forms)
        for k in (k for k, v in enumerate(values) if v):
            flipped = turned[:k] + [tuple(-a for a in turned[k])] \
                + turned[k + 1:]
            assert form_signs(flipped, [x])[2] == \
                [int(j != k) for j in range(len(forms))]

    def test_widths_double_from_16(self):
        forms = [(1, -3), (0, 4)]  # norm 4
        assert [form_signs(forms, [(v, 0)])[0]
                for v in (0, 2 ** 13 - 1, 2 ** 13, 10 ** 40)] == \
            [16, 16, 32, 256]
        assert form_signs(forms, [(0, 0), (2 ** 13, 0)])[0] == 32

    def test_rejects_bad_input(self):
        for x in ((Fraction(1, 2), 1), (1, 0.5), (Fraction(2), 3)):
            with pytest.raises(ValueError, match="must be ints"):
                form_signs([(1, 1)], [x])
        for x in ((1,), (1, 2, 3)):
            with pytest.raises(ValueError, match="point has"):
                form_signs([(1, 1)], [x])
        with pytest.raises(ValueError, match="same length"):
            form_signs([(1, 1), (1,)], [(1, 1)])

    def test_zero_point_still_fits_the_coefficients(self):
        """A coefficient of 40000 needs 32 bits even where x is zero."""
        assert form_signs([(40000,)], [(0,)]) == (32, 1, [1], [1])

    @given(packed_cases(), st.lists(st.integers(-10 ** 6, 10 ** 6),
                                    min_size=1, max_size=40))
    def test_batches_match_plain_sums(self, case, entries):
        """A batch of points: the point of the case, then points made of
        ``entries``, cycled to its length."""
        forms, x = case
        cycle = itertools.cycle(entries)
        points = [x] + [tuple(next(cycle) for _ in x)
                        for _ in range(len(entries))]
        width, every, nonnegative_bits, zero = form_signs(forms, points)
        assert width == max(packed_width(forms, p) for p in points)
        assert every == sum(1 << p * width for p in range(len(points)))
        values = [[sum(a * b for a, b in zip(f, p)) for p in points]
                  for f in forms]
        assert nonnegative_bits == [sum(1 << p * width for p, v in
                                        enumerate(row) if v >= 0)
                                    for row in values]
        assert zero == [sum(1 << p * width for p, v in enumerate(row)
                            if v == 0) for row in values]

    def test_batches_reject_bad_points(self):
        for points in ([(1, 2, 3)], [(1, Fraction(1, 2))], [(1, 2.0)], [],
                       [(1, 2), (1,)]):
            with pytest.raises(ValueError):
                form_signs([(1, 1)], points)


def kept_width(forms, points):
    """The field width :func:`point_signs` must take: the smallest power
    of two from 32 with ``2**(w-1) > max(1, max |f_j[k]|) * max(1,
    max ||x_p||_1)``."""
    bound = max(1, max((abs(a) for f in forms for a in f), default=0)) \
        * max(1, max(sum(abs(v) for v in x) for x in points))
    w = 32
    while not 2 ** (w - 1) > bound:
        w *= 2
    return w


def assert_point_signs(forms, points):
    """:func:`point_signs` against plain sums, point by point and form by
    form: the top bit of field j of each point's bitsets stands for form
    j."""
    width, high, signs = point_signs(forms, points)
    assert width == kept_width(forms, points)
    tops = [(j + 1) * width - 1 for j in range(len(forms))]
    assert high == sum(1 << t for t in tops)
    assert len(signs) == len(points)
    for x, (nonnegative, zero) in zip(points, signs):
        values = [sum(a * b for a, b in zip(f, x)) for f in forms]
        assert nonnegative == sum(1 << t for t, v in zip(tops, values)
                                  if v >= 0)
        assert zero == sum(1 << t for t, v in zip(tops, values) if v == 0)


class TestPointSigns:
    """:func:`point_signs`, the forms packed once, one field per form."""

    @given(packed_cases(), st.lists(st.integers(-10 ** 6, 10 ** 6),
                                    min_size=1, max_size=40))
    def test_batches_match_plain_sums(self, case, entries):
        forms, x = case
        cycle = itertools.cycle(entries)
        assert_point_signs(forms, [x] + [tuple(next(cycle) for _ in x)
                                         for _ in range(len(entries))])

    @given(extreme_packed_cases())
    def test_extreme_values_fit_their_fields(self, case_and_width):
        """The cases of :func:`form_signs` with the roles swapped: one form
        whose largest coefficient is ``2**(w-1) - 1`` or ``2**(w-1)``, at
        points of norm 1, which reach the extremes of a field of width w
        or one more."""
        (units, x), width = case_and_width
        assert point_signs([x], units)[0] == max(32, width)
        assert_point_signs([x], units)

    def test_widths_double_from_32_on_the_norm_of_the_points(self):
        forms = [(1, -1), (0, 1)]
        points = [(0, 0), (2 ** 30, 2 ** 30 - 1), (2 ** 30, 2 ** 30),
                  (-10 ** 40, 1)]
        assert [point_signs(forms, [x])[0] for x in points] == \
            [32, 32, 64, 256]
        assert point_signs(forms, points)[0] == 256
        # a coefficient of 2**31 needs 64 bits even where x is zero
        assert point_signs([(2 ** 31, 0)], [(0, 0)]) == (64, 1 << 63, [(
            1 << 63, 1 << 63)])

    def test_forms_are_packed_once_and_kept(self, monkeypatch):
        """A tuple of forms is packed once, at 32 bits, for every batch
        that fits, whether the forms come as tuples or lists; a batch
        that needs wider fields packs its own, and the kept packing still
        serves the batches after it."""
        widths, real = [], geometry._pack

        def pack(vectors, width):
            widths.append(width)
            return real(vectors, width)
        monkeypatch.setattr(geometry, "_pack", pack)
        forms = ((3, -1, 0), (0, 2, 5), (-7, 0, 1))
        geometry._packed_forms.cache_clear()
        for points in ([(1, 2, 3)], [(0, 0, 0), (7, -7, 1)], [(1, 2, 3)]):
            for f in (forms, [list(g) for g in forms]):
                assert_point_signs(f, points)
        assert widths == [32]
        for _ in range(2):
            assert_point_signs(forms, [(2 ** 40, 0, 0)])
        assert widths == [32, 64, 64]
        assert_point_signs(forms, [(1, 1, 1)])
        assert widths == [32, 64, 64]

    def test_rejects_bad_input(self):
        forms = [(1, 1), (2, -1)]
        for points in ([(Fraction(1, 2), 1)], [(1, 0.5)], [(Fraction(2), 3)],
                       [(1, 2), (1, Fraction(1, 3))]):
            with pytest.raises(ValueError, match="must be ints"):
                point_signs(forms, points)
        for points in ([(1,)], [(1, 2, 3)]):
            with pytest.raises(ValueError, match="point has"):
                point_signs(forms, points)
        with pytest.raises(ValueError, match="at least one point"):
            point_signs(forms, [])
        with pytest.raises(ValueError, match="same length"):
            point_signs([(1, 1), (1,)], [(1, 1)])


def packed_exactly(vectors, width):
    """The columns ``sum(v[k] << j*width)`` and ``high``, by shifts and
    sums alone."""
    columns = tuple(sum(v[k] << j * width for j, v in enumerate(vectors))
                    for k in range(len(vectors[0]))) if vectors else ()
    return columns, sum(1 << j * width + width - 1
                        for j in range(len(vectors)))


class TestPack:
    """``geometry._pack`` against exact shift-and-add packing: fields of
    16 to 64 bits take ``struct``, wider ones ``int.to_bytes``."""

    @pytest.mark.parametrize("width", [16, 32, 64, 128, 256])
    def test_random_vectors_at_the_extremes(self, width):
        rng = random.Random(width)
        top = 2 ** (width - 1)
        entries = [top - 1, -top, 0, 1, -1, top - 2, 1 - top]
        for count in (0, 1, 511, 512, 513):
            vectors = [tuple(rng.choice(entries) if rng.random() < 0.5
                             else rng.randint(-top, top - 1)
                             for _ in range(3)) for _ in range(count)]
            assert geometry._pack(vectors, width) == \
                packed_exactly(vectors, width)

    def test_every_field_at_its_extremes(self):
        for width in (16, 32, 64, 128, 256):
            top = 2 ** (width - 1)
            vectors = [(top - 1, -top), (-top, top - 1), (-1, 0), (0, -1)]
            assert geometry._pack(vectors, width) == \
                packed_exactly(vectors, width)


def bits_by_position(mask):
    """The one-bit masks of ``mask``, read one position at a time."""
    return [1 << i for i in range(mask.bit_length()) if mask >> i & 1]


class TestSetBits:
    """``set_bits`` against the bits read one position at a time."""

    def test_zero_and_single_bits(self):
        assert list(set_bits(0)) == []
        for i in (0, 1, 19, 20, 63, 64, 200, 1000):
            assert list(set_bits(1 << i)) == [1 << i]

    def test_every_10_bit_mask(self):
        for mask in range(1 << 10):
            assert list(set_bits(mask)) == bits_by_position(mask)

    @given(st.integers(0, 2 ** 20 - 1))
    def test_20_bit_masks(self, mask):
        assert list(set_bits(mask)) == bits_by_position(mask)

    @given(st.integers(2 ** 200 + 1, 2 ** 320))
    def test_masks_above_2_to_the_200(self, mask):
        assert list(set_bits(mask)) == bits_by_position(mask)


class TestFanPointLocation:
    def test_equal_words_of_two_widths_stay_apart(self):
        """On the line, the batch of a small positive and a small negative
        point packs at width 16 into the word that one large negative
        point packs into at width 32, so a memo keyed by the word alone
        would hand one batch the other's cones."""
        fan = Fan(1, (Cone(1, ((1,),)), Cone(1, ((-1,),))))
        pair, single = [(5,), (-16,)], [(5 - 16 * 2 ** 16,)]
        assert geometry._pack(pair, 16)[0] == geometry._pack(single, 32)[0]
        for order in ((pair, single), (single, pair)):
            fan = Fan(1, fan.maximal_cones)
            for points in order * 2:
                width, _, held, _ = fan.locate(points)
                assert width == (16 if points is pair else 32)
                assert held == [sum(1 << p * width
                                    for p, x in enumerate(points)
                                    if c.face_containing(x) is not None)
                                for c in fan.maximal_cones], points


@st.composite
def hull_cases(draw):
    """A vertex list and query points for :func:`point_in_hull`.

    The vertices are small lattice points of ``Z^k`` sent into ``Q^d`` by
    a rational affine map, identity or not, so the configuration may be
    full-dimensional or embedded in a lower-dimensional span.  A query is
    a convex combination (on the boundary when some weights are zero), an
    affine combination (in the span, often outside the hull), a convex
    combination moved along a coordinate axis (often off the span), or a
    random rational point.
    """
    d = draw(st.integers(1, 4))
    ratio = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    if draw(st.booleans()):
        k, linear = d, [[int(i == j) for j in range(d)] for i in range(d)]
    else:
        k = draw(st.integers(0, d))
        linear = draw(st.lists(st.lists(ratio, min_size=d, max_size=d),
                               min_size=k, max_size=k))
    offset = draw(st.lists(ratio, min_size=d, max_size=d))
    lattice = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k),
                            min_size=1, max_size=6))
    vertices = [tuple(o + sum(c * row[j] for c, row in zip(p, linear))
                      for j, o in enumerate(offset)) for p in lattice]
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["convex", "affine", "moved", "random"]))
        if kind == "random":
            queries.append(tuple(draw(st.lists(ratio, min_size=d,
                                               max_size=d))))
            continue
        low = -2 if kind == "affine" else 0
        w = draw(st.lists(st.integers(low, 3), min_size=len(vertices),
                          max_size=len(vertices)))
        if kind == "affine":
            w[0] += 1 - sum(w)
        elif not any(w):
            w[0] = 1
        total = sum(w)
        y = [sum(Fraction(c, total) * v[j] for c, v in zip(w, vertices))
             for j in range(d)]
        if kind == "moved":
            y[draw(st.integers(0, d - 1))] += draw(ratio)
        queries.append(tuple(y))
    return vertices, queries


HULL_CASES = hull_cases()


class TestPointInHull:
    @staticmethod
    def cell():
        """A 5-dimensional cell of a matroid subdivision of Delta(3,6)."""
        cells = induced_subdivision(trop_phi2((1, 1, 1, -1)))
        verts = hypersimplex_vertices()
        triples = [tuple(m + 1 for m in range(6) if v[m]) for v in verts]
        cell = max(cells, key=len)
        assert len(cell) > 6  # full-dimensional and not a simplex
        return [v for v, t in zip(verts, triples) if t in cell], \
            [v for v, t in zip(verts, triples) if t not in cell]

    def test_centroid_inside(self):
        inside, _ = self.cell()
        centroid = [Fraction(sum(c), len(inside)) for c in zip(*inside)]
        assert point_in_hull(centroid, inside)

    def test_off_span_point_projecting_inside(self):
        # Raising one coordinate of the centroid leaves the hyperplane of
        # coordinate sum 3, the equation of the cell's span.  Dropped to
        # any five of the coordinates, the point would still lie inside the
        # cell, so only the span's equation rejects it.
        inside, _ = self.cell()
        centroid = [Fraction(sum(c), len(inside)) for c in zip(*inside)]
        for j in range(6):
            y = list(centroid)
            y[j] += Fraction(1, 7)
            assert sum(y) != 3
            assert not point_in_hull(y, inside)

    def test_in_span_outside_cell(self):
        inside, outside = self.cell()
        assert outside
        for v in outside:
            assert not point_in_hull(v, inside)
        assert all(point_in_hull(v, inside) for v in inside)

    RATIONAL_TRIANGLE = [(Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 0),
                         (0, 0, Fraction(1, 5))]  # in 2x + 3y + 5z = 1

    def test_rational_vertices(self):
        tri = self.RATIONAL_TRIANGLE
        assert point_in_hull((Fraction(1, 6), Fraction(1, 9),
                              Fraction(1, 15)), tri)
        assert point_in_hull((Fraction(1, 4), Fraction(1, 6), 0), tri)
        assert point_in_hull(tri[2], tri)
        # in the plane, but with a negative barycentric coordinate
        assert not point_in_hull((Fraction(1, 2), Fraction(1, 3),
                                  Fraction(-1, 5)), tri)
        # off the plane
        assert not point_in_hull((Fraction(1, 6), Fraction(1, 9),
                                  Fraction(1, 10)), tri)

    def test_single_vertex(self):
        assert point_in_hull((Fraction(1, 2), 3), [(Fraction(1, 2), 3)])
        assert not point_in_hull((Fraction(1, 3), 3), [(Fraction(1, 2), 3)])

    def test_no_vertices(self):
        with pytest.raises(ValueError):
            point_in_hull((0, 0), [])

    def test_ragged_vertices(self):
        with pytest.raises(ValueError):
            point_in_hull((0, 0), [(0, 0), (1, 0, 0)])

    def test_query_length_differs(self):
        # zip would read (0, 0, 5) as (0, 0), a vertex
        with pytest.raises(ValueError):
            point_in_hull((0, 0, 5), [(0, 0), (1, 0)])
        with pytest.raises(ValueError):
            point_in_hull((0,), [(0, 0), (1, 0)])

    @given(HULL_CASES)
    @example(([(0, 0), (2, 0), (0, 2), (2, 2)],
              [(1, 0), (2, 1), (1, 1), (3, 1), (1, -1)]))
    @example(([(Fraction(1, 2), 0, 1), (0, Fraction(1, 3), 1)],
              [(Fraction(1, 4), Fraction(1, 6), 1), (0, 0, 1),
               (Fraction(1, 4), Fraction(1, 6), 2), (1, Fraction(-2, 3), 1)]))
    @example(([(1, 1, 1)], [(1, 1, 1), (1, 1, 2)]))
    @settings(max_examples=150)
    def test_matches_caratheodory_oracle(self, case):
        vertices, queries = case
        for y in queries:
            assert point_in_hull(y, vertices) == \
                brute_force_point_in_hull(y, vertices)
        if len(vertices) > 1:
            # the same list object, changed in place, must not be answered
            # from the entry of its old contents
            vertices.pop()
            for y in queries:
                assert point_in_hull(y, vertices) == \
                    brute_force_point_in_hull(y, vertices)

    def test_float_coordinates(self):
        """A float query, or float vertices on a cache miss, raise
        ValueError; a float list equal to a cached rational list is
        answered from the cache, exactly."""
        geometry._polytope_facets.cache_clear()
        triangle = [(0, 0), (2, 0), (0, 2)]
        assert point_in_hull((1, 1), triangle)
        with pytest.raises(ValueError, match="ints or Fractions"):
            point_in_hull((0.5, 0.5), triangle)
        with pytest.raises(ValueError, match="ints or Fractions"):
            point_in_hull((1, 1), [(0.0, 0.0), (3.0, 0.0), (0.0, 3.0)])
        assert not point_in_hull((1, 2), [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)])

    def test_mutated_vertex_list(self):
        segment = [[0, 0], [2, 0]]
        assert point_in_hull((2, 0), segment)
        segment[1][0] = 1
        assert not point_in_hull((2, 0), segment)
        segment.append([3, 0])
        assert point_in_hull((2, 0), segment)

    def test_repeated_vertex_list_sweeps_once(self, sweep_calls):
        geometry._polytope_facets.cache_clear()
        square = [[Fraction(i, 7), Fraction(j, 7), 5]
                  for i in (0, 1) for j in (0, 1)]
        assert point_in_hull((Fraction(1, 14), Fraction(1, 14), 5), square)
        assert len(sweep_calls) == 1
        assert not point_in_hull((Fraction(1, 7), Fraction(2, 7), 5),
                                 tuple(map(tuple, square)))
        assert len(sweep_calls) == 1
        maxsize = geometry._polytope_facets.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    def test_faces_then_membership_sweep_once(self, sweep_calls):
        """The faces of a vertex list and a membership query on it read
        one cached sweep."""
        geometry._polytope_facets.cache_clear()
        square = [(Fraction(i, 3), Fraction(j, 3), 2)
                  for i in (0, 1) for j in (0, 1)]
        assert polytope_f_vector(square) == (4, 4)
        assert len(sweep_calls) == 1
        assert point_in_hull((Fraction(1, 6), Fraction(1, 3), 2), square)
        assert not point_in_hull((Fraction(1, 6), Fraction(1, 2), 2), square)
        assert len(sweep_calls) == 1


# Distinct 0/1 points are vertices of the cube, so any set of them is in
# convex position: full-dimensional in the small cubes, embedded in the
# hyperplane of coordinate sum 3 in Delta(3,6).
ZERO_ONE_GROUNDS = [list(itertools.product((0, 1), repeat=d))
                    for d in (1, 2, 3, 4)] + [list(hypersimplex_vertices())]


@st.composite
def zero_one_polytopes(draw):
    """Distinct 0/1 points, at most ten of one ground set, and sometimes
    the midpoint of two of them, sent by an injective rational affine map
    that scales each coordinate and appends one more coordinate that is an
    affine function of them.  The midpoint has a coordinate 1/2, so it is
    not a vertex: it lies on an edge or inside a larger face."""
    ground = draw(st.sampled_from(ZERO_ONE_GROUNDS))
    points = draw(st.lists(st.sampled_from(ground), min_size=1, max_size=10,
                           unique=True))
    if len(points) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2,
                             max_size=2, unique=True))
        points.append(tuple(Fraction(a + b, 2)
                            for a, b in zip(points[i], points[j])))
    d = len(ground[0])
    ratio = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    scale = draw(st.lists(ratio.filter(bool), min_size=d, max_size=d))
    offset = draw(st.lists(ratio, min_size=d + 1, max_size=d + 1))
    last = draw(st.lists(ratio, min_size=d, max_size=d))
    return [tuple(s * x + o for s, x, o in zip(scale, p, offset))
            + (sum(c * x for c, x in zip(last, p)) + offset[d],)
            for p in points]


class TestPolytopeFaces:
    @given(zero_one_polytopes())
    @example([(Fraction(1, 2), 3, 0)])
    @example([(1,)])
    @example([(0, 0), (2, 0), (1, 0), (0, 2)])  # an edge midpoint
    @example([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])  # a square's centre
    @example([(0, 0), (3, 0), (0, 3), (1, 1)])  # inside a triangle
    @settings(max_examples=60)
    def test_matches_brute_force_oracle(self, points):
        # the face sets, and the counts that the cell invariants read, of
        # the cone over the rows (u, 1), where u are affine coordinates on
        # the span, scaled to integers; a point that is not a vertex lies
        # on the faces that hold it
        lifted = [u + (1,) for u in _affine_coordinates(points)]
        scale = lcm(*(x.denominator for row in lifted for x in row))
        rows = [tuple(int(x * scale) for x in row) for row in lifted]
        index = {row: i for i, row in enumerate(rows)}
        expected = {}
        for face in brute_force_cone_faces(rows, len(rows[0])):
            if len(face) < len(points) or len(points) == 1:
                members = frozenset(index[r] for r in face)
                dim = _affine_rank([points[i] for i in sorted(members)])
                expected.setdefault(dim, set()).add(members)
        assert proper_faces(points) == expected
        assert polytope_f_vector(points) == tuple(
            len(expected[d]) for d in range(len(expected)))

    def test_square_f_vector(self):
        assert polytope_f_vector(SQUARE) == (4, 4)

    def test_triangle(self):
        assert polytope_f_vector([(0, 0), (2, 0), (0, 2)]) == (3, 3)

    def test_tetrahedron(self):
        simplex = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert polytope_f_vector(simplex) == (4, 6, 4)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_simplices_have_binomial_f_vectors(self, d, sweep_calls):
        # a d-simplex in R^(d+1), with rational vertices off the origin;
        # its f-vector and faces read one cached sweep
        geometry._polytope_facets.cache_clear()
        simplex = [tuple(Fraction(int(i == j) + 1, 3) for j in range(d + 1))
                   for i in range(d + 1)]
        assert polytope_f_vector(simplex) == \
            tuple(comb(d + 1, k + 1) for k in range(d))
        faces = proper_faces(simplex)
        assert {f for fs in faces.values() for f in fs} == {
            frozenset(s) for k in range(1, d + 1)
            for s in itertools.combinations(range(d + 1), k)}
        assert len(sweep_calls) == 1

    def test_counts_build_no_face_sets(self, monkeypatch):
        """The f-vector counts the graded masks: no face becomes a set
        of vertex indices."""
        members = []
        monkeypatch.setattr(geometry, "_members",
                            lambda *args: members.append(args))
        octahedron = [v for v in hypersimplex_vertices() if v[0] and not v[5]]
        assert polytope_f_vector(octahedron) == (6, 12, 8)
        assert polytope_f_vector([(2, 1)]) == (1,)
        assert members == []

    def test_octahedron_in_hypersimplex_goes_through_dd(self, sweep_calls):
        # Delta(2,4) as the face {1 in S, 6 not in S} of Delta(3,6)
        geometry._polytope_facets.cache_clear()
        octahedron = [v for v in hypersimplex_vertices() if v[0] and not v[5]]
        assert len(octahedron) == 6
        assert polytope_f_vector(octahedron) == (6, 12, 8)
        assert len(sweep_calls) == 1
