import hashlib
import itertools
import operator
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

import tropd4.reference as reference
import tropd4.verify as verify
from tropd4.correspondence import psi
from tropd4.fan import compute_fan_f36, trop_phi2
from tropd4.geometry import Cone, Fan, cone_from_rays
from tropd4.hypersimplex import canonical_subdivision, induced_subdivision
from tropd4.reference import ray_set


def _interior_points(seed, samples_per_cone):
    """The rational points ``check_interior_point_stability(seed,
    samples_per_cone)`` samples, in order."""
    rng = random.Random(seed)
    points = []
    for c in compute_fan_f36().maximal_cones:
        rays = sorted(c.rays)
        for _ in range(samples_per_cone):
            coeffs = [Fraction(rng.randint(1, 50), rng.randint(1, 8))
                      for _ in rays]
            points.append(tuple(sum(a * r[i] for a, r in zip(coeffs, rays))
                                for i in range(4)))
    return points


def _record_heights(monkeypatch):
    """A list that records each call of ``verify.integer_heights`` as its
    ``(x, heights)``."""
    calls = []
    real_heights = verify.integer_heights

    def heights(x):
        calls.append((x, real_heights(x)))
        return calls[-1][1]
    monkeypatch.setattr(verify, "integer_heights", heights)
    return calls


def _rejected_cell_fails_every_point_that_has_it(monkeypatch):
    """Reject the most common cell short of all, and expect exactly one
    "matroidal cells" violation per sampled point whose cells include it.

    Each sample's cells are recorded as the lower envelope of its integer
    heights, whichever way the check itself judges the sample; the integer
    point they are taken at must be a positive integer multiple of the
    sample's rational point.  Returns the rejected cell.
    """
    points = _interior_points(3, 2)
    calls = _record_heights(monkeypatch)
    assert verify.check_interior_point_stability(3, samples_per_cone=2) == []
    assert len(calls) == len(points) == 96
    for (x, _), point in zip(calls, points):
        k = next(Fraction(v) / p for v, p in zip(x, point) if p)
        assert k > 0 and k.denominator == 1
        assert x == tuple(k * p for p in point)
    cells_of = [induced_subdivision(w) for _, w in calls]

    counts = Counter(c for cells in cells_of for c in cells)
    chosen = max((c for c in counts if counts[c] < len(points)),
                 key=counts.get)
    assert counts[chosen] >= 2
    real_verdict = verify.is_matroid_basis_set
    monkeypatch.setattr(verify, "is_matroid_basis_set",
                        lambda cell: cell != chosen and real_verdict(cell))
    calls.clear()
    violations = verify.check_interior_point_stability(3, samples_per_cone=2)

    assert [induced_subdivision(w) for _, w in calls] == cells_of
    expected = [[str(v) for v in point]
                for point, cells in zip(points, cells_of) if chosen in cells]
    assert len(expected) == counts[chosen]
    assert [v["check"] for v in violations] == \
        ["matroidal cells"] * len(expected)
    assert [v["point"] for v in violations] == expected
    return chosen


def test_rejected_cell_fails_every_point_that_has_it(monkeypatch, fan36):
    """Reusing basis-exchange verdicts across samples hides no failure,
    with the samples judged by their cones' certificates."""
    chosen = _rejected_cell_fails_every_point_that_has_it(monkeypatch)
    assert any(chosen in canonical_subdivision(c.rays)
               for c in fan36.maximal_cones)


def test_rejected_cell_fails_every_point_on_the_envelope_path(monkeypatch):
    """The same, with every certificate failing, so that every sample
    takes the lower envelope."""
    envelopes = []

    def induced(w):
        envelopes.append(w)
        return induced_subdivision(w)

    monkeypatch.setattr(verify, "certified",
                        lambda forms, heights: (16, 0, 0))
    monkeypatch.setattr(verify, "induced_subdivision", induced)
    _rejected_cell_fails_every_point_that_has_it(monkeypatch)
    assert len(envelopes) == 2 * 96


def test_one_failing_sample_alone_takes_the_envelope(monkeypatch):
    """With the middle sample of each cone's batch of 20 failing its
    certificate, that sample alone takes a lower envelope, at its own
    heights, and the check still passes: the envelope gives the
    canonical cells."""
    batches, envelopes = [], []
    real_certified = verify.certified

    def certified(forms, heights):
        width, weak, ok = real_certified(forms, heights)
        assert weak == ok == sum(1 << p * width for p in range(len(heights)))
        batches.append(heights)
        return width, weak, ok & ~(1 << 10 * width)

    def induced(w):
        envelopes.append(w)
        return induced_subdivision(w)

    monkeypatch.setattr(verify, "certified", certified)
    monkeypatch.setattr(verify, "induced_subdivision", induced)
    assert verify.check_interior_point_stability(7) == []
    assert [len(b) for b in batches] == [20] * 48
    assert envelopes == [b[10] for b in batches]


def test_samples_are_judged_at_reduced_integer_heights(monkeypatch):
    """At the 960 seed-7 samples, the heights the check reads are the
    ``trop_phi2`` heights at the sample times the lcm of its reduced
    denominators: each sample is judged at its point in lowest terms."""
    points = _interior_points(7, 20)
    calls = _record_heights(monkeypatch)
    assert verify.check_interior_point_stability(7) == []
    assert len(calls) == len(points) == 960
    for (_, w), point in zip(calls, points):
        scale = lcm(*(v.denominator for v in point))
        assert w == tuple(h * scale for h in trop_phi2(point))


class TestConeProofs:
    def test_every_cone_is_proved(self):
        assert verify.check_cone_proofs() == []

    def test_neighbour_subdivisions_fail_every_cone(self, monkeypatch, fan36):
        cones = [c.rays for c in fan36.maximal_cones]
        neighbour = dict(zip(cones, cones[1:] + cones[:1]))
        monkeypatch.setattr(verify, "canonical_subdivision",
                            lambda rays: canonical_subdivision(neighbour[rays]))
        violations = verify.check_cone_proofs()
        assert [v["check"] for v in violations] == \
            ["subdivision constant on cone"] * 48

    def test_active_form_not_minimal_at_one_ray_fails(self, monkeypatch,
                                                      fan36):
        """Lowering one minor's value at one ray leaves the canonical
        point's active form above the minimum there, in every cone with
        that ray."""
        ray = fan36.rays[0]
        real_heights = verify.integer_heights

        def heights(x):
            w = real_heights(x)
            return w[:3] + (w[3] - 1,) + w[4:] if x == ray else w

        monkeypatch.setattr(verify, "integer_heights", heights)
        violations = verify.check_cone_proofs()
        assert [v["check"] for v in violations] == \
            ["heights linear on cone"] * len(violations)
        assert [v["cone"] for v in violations] == \
            [[list(r) for r in c.rays] for c in fan36.maximal_cones
             if ray in c.rays]


class TestTable1IsDerived:
    def test_swapped_rows_fail_alone(self, monkeypatch):
        """With the first EEEG row and the first EEFG row of Table 1
        swapped, ``check_table1`` fails on exactly those two rows: no type
        is learned from the table.  The caches that could hold a type read
        from the table are cleared before and after."""
        import tropd4.correspondence as correspondence
        import tropd4.hypersimplex as hypersimplex
        import tropd4.reference as reference
        table = dict(reference.TABLE1)
        eeeg, eefg = table["EEEG"], table["EEFG"]
        table["EEEG"] = (eefg[0],) + eeeg[1:]
        table["EEFG"] = (eeeg[0],) + eefg[1:]
        caches = (correspondence.classify_all_cones,
                  hypersimplex.reference_signatures)
        monkeypatch.setattr(reference, "TABLE1", table)
        for cache in caches:
            cache.cache_clear()
        try:
            violations = verify.check_table1()
        finally:
            monkeypatch.undo()
            for cache in caches:
                cache.cache_clear()
        assert [(v["rays"], v["got"], v["expected"]) for v in violations] == [
            (list(eefg[0]), "EEFG", "EEEG"), (list(eeeg[0]), "EEEG", "EEFG")]


class TestTypeSignatures:
    """The signature of each cone's canonical subdivision is its type's,
    and the types' signatures are distinct."""

    def test_passes(self):
        assert verify.check_interior_point_stability(3, 0) == []

    def test_swapped_references_fail_the_eeff_cones(self, monkeypatch,
                                                    cone_types):
        refs = dict(verify.reference_signatures())
        refs["EEFFa"], refs["EEFFb"] = refs["EEFFb"], refs["EEFFa"]
        monkeypatch.setattr(verify, "reference_signatures", lambda: refs)
        violations = verify.check_interior_point_stability(3, 0)
        assert {v["check"] for v in violations} == {"signature of cone type"}
        assert sorted(v["type"] for v in violations) == \
            sorted(t for t in cone_types.values() if t.startswith("EEFF"))

    def test_equal_references_fail(self, monkeypatch):
        refs = dict(verify.reference_signatures())
        refs["EEFFb"] = refs["EEFFa"]
        monkeypatch.setattr(verify, "reference_signatures", lambda: refs)
        violations = verify.check_interior_point_stability(3, 0)
        assert violations[0] == {"check": "type signatures distinct",
                                 "types": ["EEFFa", "EEFFb"]}
        assert [v["type"] for v in violations[1:]] == ["EEFFb"] * 6


def _cover_points(seed, n_samples):
    """The points ``check_fan_covering(seed, n_samples)`` draws, in order."""
    rng = random.Random(seed)
    return [tuple(rng.randint(-40, 40) for _ in range(4))
            for _ in range(n_samples)]


def _holds(cone, x):
    """Whether ``x`` satisfies every halfspace of ``cone``."""
    return all(sum(map(operator.mul, h, x)) >= 0 for h in cone.halfspaces)


def test_covering_builds_no_cone(fan36, sweep_calls):
    """Once the fan is built, the covering check reads its cones'
    halfspaces and rays and sweeps nothing."""
    assert verify.check_fan_covering(7) == []
    assert sweep_calls == []


class TestBrokenFanCovering:
    """Each covering violation, on a fan broken on purpose, at exactly the
    points that brute-force halfspace tests name."""

    def test_hole_fails_exactly_the_uncovered_points(self, monkeypatch,
                                                     fan36):
        cones = fan36.maximal_cones[1:]
        monkeypatch.setattr(verify, "compute_fan_f36",
                            lambda: Fan(4, cones))
        expected = [list(x) for x in _cover_points(7, 3000)
                    if not any(_holds(c, x) for c in cones)]
        assert len(expected) == 91
        assert verify.check_fan_covering(7, 3000) == [
            {"check": "fan covers point", "point": x} for x in expected]

    def test_improper_overlap_fails_off_the_shared_cone(self, monkeypatch,
                                                        fan36):
        """The cones r2,r5,r7,r14 and r2,r5,r8,r14 share the facet
        r2,r5,r14.  The pointed cone over their rays but r5 meets both in
        more than a common face.  A point in two or more cones fails when
        it is not in the cone spanned by the rays they all share, or is not
        the origin when they share none."""
        rays = {c.rays for c in fan36.maximal_cones}
        for labels in (("r2", "r5", "r7", "r14"), ("r2", "r5", "r8", "r14")):
            assert tuple(sorted(ray_set(labels))) in rays
        extra = cone_from_rays(sorted(ray_set(("r2", "r7", "r8", "r14"))), 4)
        assert extra.is_pointed and len(extra.rays) == 4
        cones = fan36.maximal_cones + (extra,)
        monkeypatch.setattr(verify, "compute_fan_f36",
                            lambda: Fan(4, cones))
        spanned = {}
        expected = []
        for x in _cover_points(7, 3000):
            hits = [c for c in cones if _holds(c, x)]
            assert hits, x
            shared = frozenset.intersection(*(frozenset(c.rays)
                                              for c in hits))
            if shared and shared not in spanned:
                spanned[shared] = cone_from_rays(sorted(shared), 4)
            if len(hits) > 1 and not (_holds(spanned[shared], x) if shared
                                      else not any(x)):
                expected.append(list(x))
        assert len(expected) == 285
        assert verify.check_fan_covering(7, 3000) == [
            {"check": "overlap is a common face", "point": x}
            for x in expected]

    def test_cone_held_twice_fails_inside_it(self, monkeypatch, fan36):
        """A copy of the first cone overlaps it in its interior, where the
        smallest face holding a point is the whole cone, not a proper
        face.  On its boundary both copies and their neighbours meet in a
        common proper face, so those points pass."""
        first = fan36.maximal_cones[0]
        cones = fan36.maximal_cones + (Cone(4, first.halfspaces),)
        monkeypatch.setattr(verify, "compute_fan_f36",
                            lambda: Fan(4, cones))
        expected = [list(x) for x in _cover_points(7, 10000)
                    if all(sum(map(operator.mul, h, x)) > 0
                           for h in first.halfspaces)]
        assert len(expected) == 312
        assert verify.check_fan_covering(7) == [
            {"check": "overlap is a common face", "point": x}
            for x in expected]

    def test_every_hit_cone_is_judged(self, monkeypatch, cones_holding):
        """The point x = a + c lies on the diagonal of the square face
        a, b, c, d of a cone over a square pyramid, so that cone's face
        holding x is the square.  A simplicial cone with the edge a, c,
        first in fan order, holds x on that edge, which is all the two
        cones share.  Only the second hit cone shows the overlap."""
        a, b, c, d = (0, 0, 0, 1), (2, 0, 0, 1), (2, 2, 0, 1), (0, 2, 0, 1)
        pyramid = cone_from_rays([a, b, c, d, (1, 1, 1, 1)], 4)
        edge = cone_from_rays([a, c, (-1, 0, 0, 0), (0, -1, 1, 0)], 4)
        fan = Fan(4, (pyramid, edge))
        assert fan.maximal_cones == (edge, pyramid)
        x = tuple(map(operator.add, a, c))
        assert cones_holding(fan, x) == [0, 1]
        assert edge.face_containing(x) == {a, c}
        assert pyramid.face_containing(x) == {a, b, c, d}
        monkeypatch.setattr(verify, "compute_fan_f36", lambda: fan)
        monkeypatch.setattr(verify, "_draws", lambda rng, low, high: iter(x))
        assert verify.check_fan_covering(7, 1) == [
            {"check": "overlap is a common face", "point": list(x)}]

    def test_overlap_verdict_is_kept_per_sign_pattern(self, monkeypatch,
                                                      cones_holding):
        """The cone Q over e1, e1 + e2, e3, e4 lies inside the orthant P.
        Both hold (1, 0, 1, 1) and (2, 1, 1, 1).  At the first, the face
        of each holding it is e1, e3, e4, all the rays they share, so it
        passes; the second is interior to both, so it fails.  Only the
        normal x2 that vanishes at the first tells the two apart: a
        verdict kept per set of hit cones alone would pass the second."""
        e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        fan = Fan(4, (cone_from_rays(e, 4),
                      cone_from_rays([e[0], (1, 1, 0, 0), e[2], e[3]], 4)))
        first, second = (1, 0, 1, 1), (2, 1, 1, 1)
        assert cones_holding(fan, first) == [0, 1]
        assert cones_holding(fan, second) == [0, 1]
        monkeypatch.setattr(verify, "compute_fan_f36", lambda: fan)
        monkeypatch.setattr(verify, "_draws",
                            lambda rng, low, high: iter(first + second))
        assert verify.check_fan_covering(7, 2) == [
            {"check": "overlap is a common face", "point": list(second)}]


class TestDraws:
    """``_draws`` against ``randint``, and the points the two sampled
    checks hand on, pinned."""

    @pytest.mark.parametrize("low, high",
                             [(-40, 40), (1, 50), (1, 8), (3, 3), (-8, 7)])
    def test_stream_is_randints(self, low, high):
        """The three ranges in use, a range of one value and one of 16, a
        power of two, over 100 seeds: on a Python whose ``randint``
        draws another stream, this fails."""
        for seed in range(100):
            rng = random.Random(seed)
            expected = [rng.randint(low, high) for _ in range(300)]
            draws = verify._draws(random.Random(seed), low, high)
            assert list(itertools.islice(draws, 300)) == expected

    @pytest.mark.parametrize("low, high", [(5, 1), (1, 0), (0, -40)])
    def test_empty_range_raises_as_randint_does(self, low, high):
        """A range with no value raises ValueError at the first draw, as
        ``randint`` does, where the rejection loop would never end."""
        with pytest.raises(ValueError):
            random.Random(7).randint(low, high)
        with pytest.raises(ValueError, match="empty range"):
            next(verify._draws(random.Random(7), low, high))

    def test_two_streams_on_one_random_keep_their_order(self):
        """A numerator, then a denominator, from two generators on one
        ``Random``, as the interior check draws them."""
        for seed in range(50):
            rng = random.Random(seed)
            expected = [rng.randint(low, high) for _ in range(150)
                        for low, high in ((1, 50), (1, 8))]
            rng = random.Random(seed)
            streams = verify._draws(rng, 1, 50), verify._draws(rng, 1, 8)
            assert [next(s) for _ in range(150) for s in streams] == expected

    @pytest.mark.parametrize("seed, digest", [
        (7, "7a6c88d9764a0d499d21b6ff1dc52f75"),
        (0, "d479633c3fa1fd3f78f7c2f1dc06f890"),
        (3, "0e4d6bd747f24f411005eec0a6605a89"),
        (11, "3e88fca56ca6f600b8616fd57f22e2a6")])
    def test_points_handed_on_are_pinned(self, seed, digest, monkeypatch):
        """The 960 sample points handed to ``integer_heights`` by the
        interior check and the 20 batches handed to ``Fan.odd_points`` by
        the covering check, in order: the md5 of their repr is the one
        the checks gave when they drew with ``randint``."""
        heights, batches = _record_heights(monkeypatch), []
        real = Fan.odd_points

        def odd_points(fan, points):
            batches.append(points)
            return real(fan, points)
        monkeypatch.setattr(Fan, "odd_points", odd_points)
        verify.check_interior_point_stability(seed)
        verify.check_fan_covering(seed)
        calls = [x for x, _ in heights] + batches
        assert (len(heights), len(batches)) == (960, 20)
        assert hashlib.md5(repr(calls).encode()).hexdigest() == digest


class TestFanWalls:
    """``_wall_violations`` on the fan and on fans broken on purpose: each
    wall in exactly two cones with opposite normals, and the generic point
    (1, 3, 7, 29) in the interior of one cone."""

    POINT = (1, 3, 7, 29)

    @staticmethod
    def walls(violations):
        return [v for v in violations if v["check"] == "fan wall in two cones"]

    def test_fan_passes(self, fan36):
        assert verify._wall_violations(fan36, self.POINT) == []
        assert verify.check_fan() == []

    def test_dropped_or_duplicated_cone_fails_its_four_walls(self, fan36):
        first = fan36.maximal_cones[0]
        assert len(first.rays) == 4
        for cones, holding in ((fan36.maximal_cones[1:], 1),
                               (fan36.maximal_cones
                                + (Cone(4, first.halfspaces),), 3)):
            walls = self.walls(verify._wall_violations(Fan(4, cones),
                                                       self.POINT))
            assert len(walls) == 4
            assert {tuple(r for r in first.rays if r not in v["wall"])
                    for v in walls} == {(r,) for r in first.rays}
            assert all(len(v["normals"]) == holding for v in walls)

    def test_negated_normal_fails_its_wall(self, fan36):
        """A cone that keeps its rays but has one facet normal negated: the
        wall is still in two cones, with the same normal twice."""
        cones = list(fan36.maximal_cones)
        bad = Cone(4, cones[0].halfspaces)
        h = bad.halfspaces[0]
        bad.halfspaces = (tuple(-a for a in h),) + bad.halfspaces[1:]
        cones[0] = bad
        [wall] = self.walls(verify._wall_violations(Fan(4, cones), self.POINT))
        assert wall["normals"] == [tuple(-a for a in h)] * 2
        assert wall["wall"] == tuple(
            r for r in bad.rays if not sum(map(operator.mul, h, r)))

    def test_point_on_a_wall_or_in_a_hole_fails(self, fan36, cones_holding):
        """The point fails on a ray, in two or more cones; in a hole left
        by a dropped cone, in none; and on the wall that a dropped cone
        shared with a neighbour, in one cone but on its normal."""
        [one] = cones_holding(fan36, self.POINT)
        first = fan36.maximal_cones[one]
        ray = first.rays[0]
        assert [v["check"] for v in verify._wall_violations(fan36, ray)] == \
            ["generic point in one cone"]
        fan = Fan(4, fan36.maximal_cones[:one] + fan36.maximal_cones[one + 1:])
        on_wall = tuple(map(sum, zip(*first.rays[1:])))
        for point, cones in ((self.POINT, []),
                             (on_wall, cones_holding(fan, on_wall))):
            assert verify._wall_violations(fan, point)[-1] == {
                "check": "generic point in one cone", "point": point,
                "cones": cones}
        assert len(cones_holding(fan, on_wall)) == 1

    def test_check_fan_reports_the_walls(self, monkeypatch, fan36):
        cones = fan36.maximal_cones[1:]
        monkeypatch.setattr(verify, "compute_fan_f36", lambda: Fan(4, cones))
        checks = Counter(v["check"] for v in verify.check_fan())
        assert checks["fan wall in two cones"] == 4


def _rewired(adj, drop, add=None):
    """A copy of the adjacency ``adj`` without the edge ``drop``, and with
    the edge ``add`` when one is given."""
    out = {u: set(vs) for u, vs in adj.items()}
    a, b = drop
    out[a].discard(b)
    out[b].discard(a)
    if add:
        a, b = add
        out[a].add(b)
        out[b].add(a)
    return out


def _circulant(n, start=0):
    """Vertices ``start`` to ``start + n - 1`` on a cycle, each joined to
    the two before it and the two after it."""
    return {start + i: {start + (i + d) % n for d in (1, 2, -1, -2)}
            for i in range(n)}


class TestSmallChecksFire:
    """Each check below reports its own violation when one of its inputs
    is wrong, so an empty list shows that its comparison was made."""

    def test_dropped_pseudotriangulation(self, monkeypatch):
        real = verify.enumerate_pseudotriangulations
        monkeypatch.setattr(verify, "enumerate_pseudotriangulations",
                            lambda n: real(n)[1:] if n == 4 else real(n))
        assert verify.check_enumeration() == [{
            "check": "pseudotriangulation count", "n": 4, "got": 49,
            "expected": 50}]

    @pytest.mark.parametrize("shape, edges", [
        ("dropped", 99), ("moved", 100), ("disconnected", 100),
        ("small", 98)])
    def test_wrong_flip_graph(self, monkeypatch, shape, edges):
        """A flip edge dropped; one moved to a non-neighbour (degrees 3
        and 5); two disjoint circulant graphs on 25 vertices, each vertex
        joined to the two before and after it (every degree 4,
        disconnected); and one such graph on 49 vertices (every degree 4,
        connected, too few edges)."""
        adj = verify.flip_graph(4)
        b = min(adj[0])
        c = min(set(adj) - adj[0] - {0})
        graph = {
            "dropped": _rewired(adj, (0, b)),
            "moved": _rewired(adj, (0, b), (0, c)),
            "disconnected": {**_circulant(25), **_circulant(25, 25)},
            "small": _circulant(49),
        }[shape]
        monkeypatch.setattr(verify, "flip_graph", lambda n: graph)
        assert verify.check_enumeration() == [{
            "check": "flip graph shape", "edges": edges}]

    def test_wrong_cluster_complex_f_vector(self, monkeypatch):
        real = verify.cluster_complex
        monkeypatch.setattr(verify, "cluster_complex",
                            lambda: ((16, 66, 99, 50),) + real()[1:])
        assert verify.check_cluster_complex() == [{
            "check": "cluster complex f-vector", "got": [16, 66, 99, 50],
            "expected": [16, 66, 100, 50]}]

    @pytest.mark.parametrize("wrong", ["dropped", "moved"])
    def test_wrong_symmetry_classes(self, monkeypatch, wrong):
        """An orbit dropped (six orbits), or one pseudotriangulation moved
        to another orbit (seven orbits of the wrong sizes)."""
        real = verify.classify_modulo

        def classify(ts, generators, n):
            orbits = real(ts, generators, n)
            if wrong == "dropped":
                return orbits[1:]
            t = min(orbits[0], key=sorted)
            return [orbits[0] - {t}, orbits[1] | {t}, *orbits[2:]]
        monkeypatch.setattr(verify, "classify_modulo", classify)
        orbits = classify(verify.enumerate_pseudotriangulations(4),
                          verify.full_symmetry_generators(), 4)
        assert verify.check_symmetry_classes() == [{
            "check": "symmetry classes", "orbits": len(orbits),
            "sizes": sorted(map(len, orbits), reverse=True)}]
        assert (len(orbits), wrong) in ((6, "dropped"), (7, "moved"))

    def test_degree_against_negative_simple(self, monkeypatch):
        """The degree raised by one on the orbit under tau of the pair
        (-alpha_1, alpha_2), so that it is still invariant under tau: the
        pairs of that orbit that hold a negative simple root fail."""
        real = verify.compatibility_degree
        pair, orbit = ((-1, 0, 0, 0), (0, 1, 0, 0)), set()
        while pair not in orbit:
            orbit.add(pair)
            pair = tuple(map(verify.tau_on_root, pair))
        monkeypatch.setattr(verify, "compatibility_degree",
                            lambda a, b: real(a, b) + ((a, b) in orbit))
        roots = sorted(set(map(psi, reference.RAY_COORDS.values())))
        expected = [{"check": "degree against negative simple", "i": i + 1,
                     "beta": beta}
                    for i in range(4) for beta in roots
                    if (tuple(-(j == i) for j in range(4)), beta) in orbit]
        assert {"check": "degree against negative simple", "i": 1,
                "beta": (0, 1, 0, 0)} in expected
        assert verify.check_compatibility_relations() == expected

    def test_each_degree_computed_once(self, monkeypatch):
        """The two relations read one table: each ordered pair of the 16
        roots is paired once, 256 pairings where the two loops ask 576."""
        real, pairs = verify.compatibility_degree, []
        monkeypatch.setattr(verify, "compatibility_degree",
                            lambda a, b: pairs.append((a, b)) or real(a, b))
        assert verify.check_compatibility_relations() == []
        assert len(pairs) == len(set(pairs)) == 256

    def test_degree_rotation_invariance(self, monkeypatch):
        """tau with the images of -alpha_1 and alpha_1 swapped: every
        failing pair holds one of the two, and the degrees against the
        negative simple roots, which tau does not enter, still pass."""
        real = verify.tau_on_root
        swap = {(-1, 0, 0, 0): (1, 0, 0, 0), (1, 0, 0, 0): (-1, 0, 0, 0)}
        monkeypatch.setattr(verify, "tau_on_root",
                            lambda r: real(swap.get(r, r)))
        violations = verify.check_compatibility_relations()
        assert violations
        assert {v["check"] for v in violations} == \
            {"degree rotation invariance"}
        assert all(set(v["pair"]) & set(swap) for v in violations)

    def test_dropped_minor(self, monkeypatch):
        real = verify.all_tropical_minors
        monkeypatch.setattr(verify, "all_tropical_minors",
                            lambda: dict(list(real().items())[1:]))
        assert verify.check_minors() == [{"check": "minor count", "got": 19}]

    def test_wrong_ray_coordinates(self, monkeypatch, fan36):
        """r2, in no bipyramid, listed at a point that is no ray."""
        monkeypatch.setitem(reference.RAY_COORDS, "r2", (9, 9, 9, 9))
        assert verify.check_fan() == [{
            "check": "fan ray set", "got": sorted(map(list, fan36.rays))}]

    def test_wrong_fan_f_vector(self, monkeypatch):
        monkeypatch.setattr(reference, "FAN_F_VECTOR", (16, 66, 98, 49))
        assert verify.check_fan() == [{
            "check": "fan f-vector", "got": [16, 66, 98, 48],
            "expected": [16, 66, 98, 49]}]

    def test_dropped_cone(self, monkeypatch, fan36):
        """Without its first cone, a simplex, the fan has 47 maximal
        cones, 45 of them with four rays."""
        broken = Fan(4, fan36.maximal_cones[1:])
        monkeypatch.setattr(verify, "compute_fan_f36", lambda: broken)
        violations = verify.check_fan()
        assert violations[:2] == [
            {"check": "fan f-vector", "got": [16, 66, 98, 47],
             "expected": [16, 66, 98, 48]},
            {"check": "maximal cone ray counts",
             "sizes": [4] * 45 + [5, 5]}]
        assert {v["check"] for v in violations[2:]} == \
            {"fan wall in two cones"}

    def test_samples_off_their_cone_subdivision(self, monkeypatch, fan36,
                                                 cone_types):
        """Every certificate failing and every lower envelope giving the
        canonical cells of the first EEEG cone: matroidal cells, so each
        cone of another type fails once per sample, and only on its
        signature."""
        eeeg = next(c for c in fan36.maximal_cones
                    if cone_types[frozenset(c.rays)] == "EEEG")
        cells = canonical_subdivision(eeeg.rays)
        monkeypatch.setattr(verify, "certified",
                            lambda forms, heights: (16, 0, 0))
        monkeypatch.setattr(verify, "induced_subdivision", lambda w: cells)
        assert verify.check_interior_point_stability(7, 1) == [
            {"check": "signature constant on cone",
             "cone": [list(r) for r in c.rays],
             "type": cone_types[frozenset(c.rays)]}
            for c in fan36.maximal_cones
            if cone_types[frozenset(c.rays)] != "EEEG"]
