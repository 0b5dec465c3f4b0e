import collections
import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tropd4.fan import (
    _distinct_forms,
    _normal_fan,
    _selection,
    bipyramid_cones,
    compute_fan_f36,
    fan_to_json,
    integer_heights,
    trop_phi2,
)
from tropd4.geometry import Cone, Fan, NotPointedError, cone_from_rays
from tropd4.reference import (
    BIPYRAMIDS,
    FAN_F_VECTOR,
    RAY_COORDS,
    ray_set,
)
from tropd4.verify import _wall_violations
from tropd4.webmatrix import (
    PLUECKER_TRIPLES,
    _tropical_minors,
    all_tropical_minors,
)

from oracles import (
    argmin_halfspaces,
    argmin_region,
    brute_force_cone_dim,
    brute_force_cone_rays,
    minor_values,
    noncrossing_diagonal_counts,
)

Z = (0, 0, 0, 0)
X1 = (1, 0, 0, 0)
X12 = (1, 1, 0, 0)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def linearity_regions(forms, dim=4):
    """Halfspace lists of the full-dimensional regions on which one fixed
    form attains the minimum, from the oracles alone."""
    regions = [argmin_halfspaces(forms, i) for i in range(len(forms))]
    return [hs for hs in regions if brute_force_cone_dim(hs, dim) == dim]


def ray_sum(cone):
    return tuple(map(sum, zip(*cone.rays)))


MINORS = [all_tropical_minors()[idx] for idx in PLUECKER_TRIPLES]


class TestLinearityFan:
    def test_constant_gives_full_space(self):
        # one region with no halfspace: all of R^4, which is not pointed
        assert linearity_regions((Z,)) == [[]]

    def test_two_forms_split_by_hyperplane(self):
        regions = linearity_regions((Z, X1))
        assert len(regions) == 2
        assert {tuple(hs) for hs in regions} == \
            {((1, 0, 0, 0),), ((-1, 0, 0, 0),)}

    def test_three_forms_three_regions(self):
        regions = linearity_regions((Z, X1, X12))
        assert len(regions) == 3
        # each region has an interior point where exactly its form is minimal
        witnesses = {Z: (1, 1, 0, 0), X1: (-1, 1, 0, 0), X12: (-1, -1, 0, 0)}
        for form, x in witnesses.items():
            values = {f: _dot(f, x) for f in (Z, X1, X12)}
            assert min(values, key=values.get) == form
            hits = [hs for hs in regions if all(_dot(h, x) >= 0 for h in hs)]
            assert len(hits) == 1
            assert all(_dot(h, x) != 0 for h in hits[0])

    def test_each_maximal_cone_is_an_argmin_region(self, fan36):
        """Each maximal cone is the region around its ray sum on which every
        minor keeps its minimal form, and its facets are among the
        differences of those forms."""
        for cone in fan36.maximal_cones:
            hs = argmin_region(ray_sum(cone), MINORS)
            assert brute_force_cone_rays(hs, 4) == list(cone.rays), cone
            assert set(cone.halfspaces) <= set(hs), cone

    def test_oracle_without_a_minor_fails(self, fan36):
        """Leaving out any one minor that is not a single form makes some
        cone's argmin region larger than the cone."""
        for k, forms in enumerate(MINORS):
            if len(forms) == 1:
                continue
            rest = MINORS[:k] + MINORS[k + 1:]
            assert any(brute_force_cone_rays(argmin_region(ray_sum(c), rest),
                                             4) != list(c.rays)
                       for c in fan36.maximal_cones), PLUECKER_TRIPLES[k]


class TestFanF36:
    def test_ray_set_matches(self, fan36):
        assert set(fan36.rays) == set(RAY_COORDS.values())

    def test_f_vector(self, fan36):
        assert fan36.f_vector() == FAN_F_VECTOR

    def test_two_bipyramids(self, fan36):
        bips = {frozenset(c.rays) for c in bipyramid_cones()}
        assert bips == {frozenset(ray_set(b)) for b in BIPYRAMIDS}
        sizes = sorted(len(c.rays) for c in fan36.maximal_cones)
        assert sizes == [4] * 46 + [5, 5]

    def test_48_distinct_pointed_cones(self, fan36):
        assert len(fan36.maximal_cones) == 48
        assert len({c.rays for c in fan36.maximal_cones}) == 48
        assert all(c.is_pointed and
                   brute_force_cone_dim(c.halfspaces, 4) == 4
                   for c in fan36.maximal_cones)

    def test_complete_and_face_to_face(self, fan36, cones_holding):
        rng = random.Random(101)
        for _ in range(10000):
            x = tuple(rng.randint(-50, 50) for _ in range(4))
            hits = cones_holding(fan36, x)
            assert hits, x
            if len(hits) > 1 and any(x):
                shared = frozenset.intersection(
                    *(frozenset(fan36.maximal_cones[i].rays) for i in hits))
                assert shared, x
                assert cone_from_rays(sorted(shared), 4).face_containing(
                    x) is not None

    def test_cones_containing_matches_each_cone(self, fan36, cones_holding):
        """Also at the same points scaled by 10**20, whose packed fields
        are wider."""
        rng = random.Random(29)
        points = [tuple(rng.randint(-40, 40) for _ in range(4))
                  for _ in range(500)]
        points += fan36.rays
        faces = fan36.face_ray_sets()
        points += [tuple(map(sum, zip(*f))) for f in sorted(faces, key=sorted)]
        for scale in (1, 10 ** 20):
            for x in points:
                x = tuple(scale * v for v in x)
                assert cones_holding(fan36, x) == [
                    i for i, c in enumerate(fan36.maximal_cones)
                    if c.face_containing(x) is not None], x
        assert cones_holding(fan36, Z) == list(range(48))

    def test_cones_and_normals_pinned(self, fan36):
        """The cones' halfspaces and rays, and the point-location normals in
        their order, are pinned: the report, ``tropd4 fan`` and the
        artifacts are read off them."""
        key = repr(([(c.halfspaces, c.rays) for c in fan36.maximal_cones],
                    fan36._normals))
        assert hashlib.md5(key.encode()).hexdigest() == \
            "518fa7a97b8d3779df086f2615b006f3"

    def test_one_sweep_per_region(self, fan36, sweep_calls):
        assert compute_fan_f36.__wrapped__() == fan36
        # each region of the walk sweeps once, the rows of its selected
        # forms, for its rays, facets and tight masks
        assert len(sweep_calls) == 48
        # the same count for the 15 minors of Gr(2, 6) in R^3, 14 cones
        sweep_calls.clear()
        fan = _normal_fan(_tropical_minors(2, 6).values(), (1, 3, 7))
        assert len(fan.maximal_cones) == 14
        assert len(sweep_calls) == 14
        assert all(call.bits is None for call in sweep_calls)

    def test_single_form_minimal_on_each_cone(self, fan36):
        """On every maximal cone each minor selects one linear form."""
        rng = random.Random(7)
        minors = all_tropical_minors()
        for cone in fan36.maximal_cones:
            rays = sorted(cone.rays)
            samples = []
            for _ in range(5):
                coeffs = [rng.randint(1, 9) for _ in rays]
                samples.append(tuple(
                    sum(c * r[i] for c, r in zip(coeffs, rays))
                    for i in range(4)))
            for idx in PLUECKER_TRIPLES:
                forms = minors[idx]
                argmins = [frozenset(
                    f for f in forms
                    if _dot(f, x) == min(_dot(g, x) for g in forms))
                    for x in samples]
                assert frozenset.intersection(*argmins), (idx, rays)


class TestTypeAFans:
    """The whole fan build on data that shares nothing with Gr(3, 6): the
    web of Gr(2, n) in R^(n-3), whose fan is the normal fan of the
    associahedron, the cluster fan of type A_(n-3) (Speyer & Williams,
    J. Algebraic Combin. 22, 2005).  Its faces are the sets of pairwise
    noncrossing diagonals of the n-gon."""

    F_VECTORS = {5: (5, 5), 6: (9, 21, 14), 7: (14, 56, 84, 42),
                 8: (20, 120, 300, 330, 132)}

    @pytest.mark.parametrize("n", sorted(F_VECTORS))
    def test_f_vector_counts_noncrossing_diagonals(self, n):
        assert noncrossing_diagonal_counts(n) == self.F_VECTORS[n]
        start = (1, 3, 7, 29, 31)[:n - 3]
        fan = _normal_fan(_tropical_minors(2, n).values(), start)
        assert fan.f_vector() == self.F_VECTORS[n]
        assert len(fan.maximal_cones) == self.F_VECTORS[n][-1]
        assert _wall_violations(fan, start) == []


class TestSelection:
    """Each minor's selected form, read off the distinct forms, is the
    first of its forms least in ``(f(s), -f(h))``, as ``min`` over its
    forms picks it, ties included."""

    FORM = st.tuples(*[st.integers(-1, 1)] * 3)
    POINT = st.tuples(*[st.integers(-2, 2)] * 3)

    @given(st.lists(st.lists(FORM, min_size=1, max_size=4), min_size=1,
                    max_size=5), POINT, POINT)
    @example([[(1, 0, 0), (0, 1, 0)], [(0, 1, 0), (1, 0, 0)]], (0, 0, 0),
             (1, 1, 0))  # every form ties: each minor keeps its first
    def test_first_least_form_per_minor(self, minors, point, normal):
        forms, positions = _distinct_forms(minors)
        assert len(set(forms)) == len(forms)
        assert [[forms[i] for i in at] for at in positions] == minors
        selection = _selection(forms, positions, point, normal)
        assert [forms[i] for i in selection] == [
            min(m, key=lambda f: (_dot(f, point), -_dot(f, normal)))
            for m in minors]


class TestDegenerateRegions:
    """min(0, x, -x) and min(0, y) on R^2: the form 0 of the first minor
    is minimal only on the line x = 0, so it selects no full-dimensional
    region."""

    MINORS = [((0, 0), (1, 0), (-1, 0)), ((0, 0), (0, 1))]

    def test_generic_start_gives_the_quadrants(self):
        fan = _normal_fan(self.MINORS, (1, 3))
        assert [c.rays for c in fan.maximal_cones] == [
            ((-1, 0), (0, -1)), ((-1, 0), (0, 1)),
            ((0, -1), (1, 0)), ((0, 1), (1, 0))]

    def test_start_on_a_wall_is_rejected(self):
        """At (0, 1) all three forms of the first minor tie, and the
        first, 0, is selected: its region is the ray through (0, 1)."""
        with pytest.raises(ValueError, match=r"region selected at \(0, 1\) "
                                             "is not full-dimensional"):
            _normal_fan(self.MINORS, (0, 1))

    def test_region_with_a_line_is_rejected(self):
        """min(0, x) alone leaves y free: its regions are half-planes."""
        with pytest.raises(NotPointedError):
            _normal_fan([((0, 0), (1, 0))], (1, 3))


class TestGr37Fan:
    """The walk one rank up: Trop+Gr(3, 7) in its 6 web variables, from
    the 35 minors of the Gr(3, 7) web.  Its 42 rays match the 42 cluster
    variables of Gr(3, 7), of finite type E6 (Scott, Proc. London Math.
    Soc. 92, 2006)."""

    START = (1, 3, 7, 29, 31, 97)

    def test_f_vector_cone_sizes_and_walls(self):
        fan = _normal_fan(_tropical_minors(3, 7).values(), self.START)
        assert fan.f_vector() == (42, 392, 1463, 2583, 2163, 693)
        sizes = collections.Counter(len(c.rays) for c in fan.maximal_cones)
        assert sizes == {6: 595, 7: 63, 8: 28, 9: 7}
        assert _wall_violations(fan, self.START) == []


def located(bitset, width, n):
    """The indices p < n whose bit ``p * width`` is set in ``bitset``,
    which must have no other bit set."""
    found = [p for p in range(n) if bitset >> p * width & 1]
    assert bitset == sum(1 << p * width for p in found)
    return found


def assert_locate_matches_sums(fan, points):
    """``fan.locate(points)`` against plain halfspace sums: the smallest
    power-of-two width from 16 with ``2**(w-1) > max ||h||_1 * max |x|``,
    every point, each cone's points, and each normal's zeros."""
    width, every, held, zero = fan.locate(points)
    bound = max(sum(abs(a) for a in h) for h in fan._normals) * \
        max(abs(v) for x in points for v in x)
    expected_width = 16
    while not 2 ** (expected_width - 1) > bound:
        expected_width *= 2
    assert width == expected_width
    assert every == sum(1 << p * width for p in range(len(points)))
    assert [located(h, width, len(points)) for h in held] == [
        [p for p, x in enumerate(points)
         if all(_dot(h, x) >= 0 for h in cone.halfspaces)]
        for cone in fan.maximal_cones]
    assert [located(z, width, len(points)) for z in zero] == [
        [p for p, x in enumerate(points) if _dot(h, x) == 0]
        for h in fan._normals]
    return width


def broken_fans(fan):
    """The three broken fans of ``TestBrokenFanCovering``: one cone left
    out, a cone that overlaps two others improperly, the first cone
    twice."""
    cones = fan.maximal_cones
    extra = cone_from_rays(sorted(ray_set(("r2", "r7", "r8", "r14"))), 4)
    return [Fan(4, cones[1:]), Fan(4, cones + (extra,)),
            Fan(4, cones + (Cone(4, cones[0].halfspaces),))]


def random_points(n, seed=41, size=40):
    """``n`` seeded points of ``[-size, size]^4``."""
    rng = random.Random(seed)
    return [tuple(rng.randint(-size, size) for _ in range(4))
            for _ in range(n)]


class TestBatchLocator:
    """``Fan.locate`` against plain halfspace sums, sharing no code."""

    def test_batches_of_every_size(self, fan36):
        points = random_points(2000)
        start = 0
        for size in (1, 511, 512, 513, 463):
            assert assert_locate_matches_sums(
                fan36, points[start:start + size]) == 16
            start += size
        assert start == len(points)

    def test_large_coordinates_widen_the_fields(self, fan36):
        """Points near 10**6 and 10**12, beside small ones."""
        small = random_points(300)
        for size, width in ((10 ** 6, 32), (10 ** 12, 64)):
            large = random_points(300, seed=width, size=size)
            assert assert_locate_matches_sums(fan36, large) == width
            assert assert_locate_matches_sums(
                fan36, small[:150] + large[:150]) == width

    def test_extreme_values_fit_their_fields(self, fan36):
        """At ``x = m * sign(h)`` the normal h of largest norm N takes
        ``m * N``, the largest value a field must hold; m is the largest
        that fits a width and the smallest that needs the next."""
        norm = max(sum(abs(a) for a in h) for h in fan36._normals)
        signs = [tuple((a > 0) - (a < 0) for a in h) for h in fan36._normals
                 if sum(abs(a) for a in h) == norm]
        for width in (16, 32, 64):
            m = (2 ** (width - 1) - 1) // norm
            for k, w in ((m, width), (m + 1, 2 * width)):
                points = [tuple(k * s for s in h) for h in signs]
                points += [tuple(-v for v in x) for x in points]
                assert assert_locate_matches_sums(
                    fan36, points + random_points(20)) == w

    def test_zero_is_in_every_cone(self, fan36, cones_holding):
        width, every, held, zero = fan36.locate([Z])
        assert every == 1 and held == [1] * 48
        assert zero == [1] * len(fan36._normals)
        assert cones_holding(fan36, Z) == list(range(48))

    def test_broken_fans(self, fan36):
        points = random_points(1500, seed=7)
        for fan in broken_fans(fan36):
            for start in range(0, len(points), 512):
                assert_locate_matches_sums(fan, points[start:start + 512])

    def test_fan_without_normals_holds_large_points(self):
        """A cone with no halfspace holds every point; the point still
        sets the width, as no normal does."""
        fan = Fan(1, (Cone(1, ()),))
        assert fan.locate([(10 ** 6,)]) == (32, 1, [1], [])
        assert fan.locate([(0,), (-5,)]) == \
            (16, 1 | 1 << 16, [1 | 1 << 16], [])

    def test_rejects_bad_points(self, fan36):
        for points in ([(1, 2, 3)], [(1, 2, 3, Fraction(1, 2))],
                       [(1, 2, 3, 4.0)], []):
            with pytest.raises(ValueError):
                fan36.locate(points)


def odd_points_by_sums(fan, points):
    """``(p, cones, zero)`` for each point ``points[p]`` in no cone or in
    two or more, in order, from plain halfspace sums: the bitmask of the
    cones that hold it and of the normals that vanish at it."""
    odd = []
    for p, x in enumerate(points):
        cones = sum(1 << i for i, c in enumerate(fan.maximal_cones)
                    if all(_dot(h, x) >= 0 for h in c.halfspaces))
        if cones.bit_count() != 1:
            odd.append((p, cones, sum(1 << j for j, h in
                                      enumerate(fan._normals)
                                      if _dot(h, x) == 0)))
    return odd


def wall_points(fan):
    """The sum of the rays of each facet of each cone, sorted: points on
    the walls between cones, each in two cones or more."""
    return sorted({tuple(map(sum, zip(*(r for r in c.rays if not _dot(h, r)))))
                   for c in fan.maximal_cones for h in c.halfspaces})


class TestOddPoints:
    """``Fan.odd_points`` against plain halfspace sums, sharing no code:
    every point in no cone or in two or more comes once, in order, with
    its masks, and no other point comes."""

    def test_batches_of_every_size(self, fan36):
        points = random_points(1537, seed=43)
        start = 0
        for size in (1, 511, 512, 513):
            batch = points[start:start + size]
            assert list(fan36.odd_points(batch)) == \
                odd_points_by_sums(fan36, batch)
            start += size
        assert start == len(points)

    def test_zero_and_walls_at_every_width(self, fan36):
        """The origin is in every cone and on every normal; the walls,
        scaled to need fields of 16, 32 and 64 bits, are among random
        points."""
        assert list(fan36.odd_points([Z])) == [
            (0, (1 << 48) - 1, (1 << len(fan36._normals)) - 1)]
        walls = wall_points(fan36)
        widths = set()
        for scale in (1, 10 ** 4, 10 ** 9):
            batch = [tuple(scale * v for v in x) for x in walls]
            batch = random_points(150, seed=scale) + batch + [Z]
            odd = list(fan36.odd_points(batch))
            assert odd == odd_points_by_sums(fan36, batch)
            assert [p for p, _, _ in odd][-len(walls) - 1:] == \
                list(range(150, len(batch)))
            widths.add(fan36.locate(batch)[0])
        assert widths == {16, 32, 64}

    def test_broken_fans(self, fan36):
        """A point in no cone and a point in two cones off a wall each
        show up on some broken fan."""
        points = random_points(1500, seed=7)
        found = set()
        for fan in broken_fans(fan36):
            for start in range(0, len(points), 512):
                batch = points[start:start + 512]
                odd = list(fan.odd_points(batch))
                assert odd == odd_points_by_sums(fan, batch)
                found |= {(cones.bit_count(), zero == 0)
                          for _, cones, zero in odd}
        assert {(0, True), (2, True)} <= found


class TestTropPhi2:
    def test_zero_point(self):
        assert set(trop_phi2((0, 0, 0, 0))) == {0}

    def test_all_ones(self):
        values = dict(zip(PLUECKER_TRIPLES, trop_phi2((1, 1, 1, 1))))
        assert values[(2, 3, 5)] == 0
        assert values[(4, 5, 6)] == 5
        assert values[(1, 4, 5)] == 1

    @pytest.mark.parametrize("x", [(1, 2, 3), (1, 2, 3, 4, 5), ()])
    def test_rejects_wrong_length(self, x):
        with pytest.raises(ValueError, match="4 int or Fraction"):
            trop_phi2(x)

    @pytest.mark.parametrize("x", [(0.5, 0, 0, 0), (0, 0, 0, 1.0),
                                   (0, "1", 0, 0), (0, 0, None, 0)])
    def test_rejects_non_rational_coordinates(self, x):
        with pytest.raises(ValueError, match="4 int or Fraction"):
            trop_phi2(x)

    @given(st.tuples(*[st.fractions(-20, 20, max_denominator=12)] * 4))
    def test_matches_fraction_evaluation(self, x):
        minors = all_tropical_minors()
        expected = tuple(min(_dot(form, x) for form in minors[idx])
                         for idx in PLUECKER_TRIPLES)
        got = trop_phi2(x)
        assert got == expected
        assert all(type(v) is Fraction for v in got)

    def test_linear_on_maximal_cones(self, fan36):
        rng = random.Random(13)
        for cone in fan36.maximal_cones[:8]:
            rays = sorted(cone.rays)
            for _ in range(5):
                cx = [rng.randint(1, 6) for _ in rays]
                cy = [rng.randint(1, 6) for _ in rays]
                x = tuple(sum(c * r[i] for c, r in zip(cx, rays))
                          for i in range(4))
                y = tuple(sum(c * r[i] for c, r in zip(cy, rays))
                          for i in range(4))
                t = Fraction(rng.randint(1, 9), 10)
                mid = tuple(t * a + (1 - t) * b for a, b in zip(x, y))
                expected = tuple(t * a + (1 - t) * b for a, b in
                                 zip(trop_phi2(x), trop_phi2(y)))
                assert trop_phi2(mid) == expected


class TestIntegerHeights:
    @given(st.tuples(*[st.fractions(-20, 20, max_denominator=12)] * 4),
           st.sampled_from([1, 2, 7]))
    def test_scales_the_fraction_heights(self, x, k):
        """At ``s * x``, with s the lcm of the denominators times k, the
        heights are s times those of ``trop_phi2`` and of the plain minima
        at x, as ints."""
        s = k * lcm(*(v.denominator for v in x))
        minors = all_tropical_minors()
        expected = tuple(s * min(_dot(form, x) for form in minors[idx])
                         for idx in PLUECKER_TRIPLES)
        got = integer_heights(tuple(int(s * v) for v in x))
        assert got == tuple(s * v for v in trop_phi2(x)) == expected
        assert all(type(v) is int for v in got)

    def test_the_42_forms_have_7_distinct_members(self):
        forms = [f for minor in all_tropical_minors().values()
                 for f in minor]
        assert (len(forms), len(set(forms))) == (42, 7)

    @given(st.tuples(*[st.one_of(st.integers(-50, 50),
                                 st.integers(-2 ** 70, 2 ** 70))] * 4))
    @example((0, 0, 0, 0))
    @example((-1, -2 ** 64, 2 ** 64 + 1, -3))
    @example((2 ** 65, 2 ** 65, -2 ** 66, 2 ** 64 - 1))
    def test_matches_the_minima_of_all_42_forms(self, x):
        """At int points, negative ones and ones beyond 2**64 included,
        the heights are each minor's least value over all its forms in
        ``all_tropical_minors()``, evaluated one by one."""
        assert integer_heights(x) == \
            minor_values(all_tropical_minors().values(), x)

    @pytest.mark.parametrize("x", [
        (0.5, 0, 0, 0), (0, 0, 0, 1.0), (Fraction(1, 2), 0, 0, 0),
        (0, Fraction(3), 0, 0), (0, "1", 0, 0), (0, 0, None, 0),
        (1, 2, 3), (1, 2, 3, 4, 5), ()])
    def test_rejects_all_but_4_ints(self, x):
        with pytest.raises(ValueError, match="4 int coordinates"):
            integer_heights(x)


class TestFanJson:
    def test_shape(self, fan36):
        data = fan_to_json()
        assert data["f_vector"] == [16, 66, 98, 48]
        assert len(data["rays"]) == 16
        assert len(data["maximal_cones"]) == 48
        assert len(data["bipyramids"]) == 2
        # rays listed in label order: first row is the label-1 ray
        assert data["rays"][0] == [0, 0, 1, 0]
        assert data["ray_labels"][0] == "r1"
