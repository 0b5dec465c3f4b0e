import itertools

import pytest

import tropd4.correspondence as correspondence
import tropd4.fan as fan_mod
import tropd4.verify as verify
from tropd4.chords import apply_symmetry, reflect
from tropd4.clusters import compatibility_degree, snake_pairs
from tropd4.correspondence import (
    cluster_classes,
    cone_of_cluster,
    finer_equivalence_classes,
    parity_preserving_reflections,
    plane_type_of_cluster,
    psi,
    psi_inverse,
    rays_of_cluster,
    split_bipyramid_facets,
    table1_report,
    table2_report,
    verify_cluster_fan_correspondence,
    verify_parity_reflection_theorem,
)
from tropd4.geometry import Fan
from tropd4.reference import (
    BIPYRAMIDS,
    RAY_COORDS,
    SECOND_CHART_EDGES,
    TABLE2,
    ray_set,
)

# the base pseudotriangulation, whose pairs carry -alpha_1..-alpha_4
SNAKE = frozenset(snake_pairs())


class TestPsi:
    def test_rows(self):
        assert psi((0, 0, 1, 0)) == (-1, 0, 0, 0)
        assert psi((1, -1, -1, 0)) == (1, 2, 1, 1)
        assert psi((-1, 0, 0, 1)) == (0, 1, 0, 0)

    def test_inverse(self):
        for coords in RAY_COORDS.values():
            assert psi_inverse(psi(coords)) == coords

    def test_unknown_ray(self):
        with pytest.raises(KeyError):
            psi((9, 9, 9, 9))


class TestConeOfCluster:
    def test_snake_lands_in_bipyramid(self):
        cone = cone_of_cluster(SNAKE)
        assert frozenset(cone.rays) == ray_set(BIPYRAMIDS[0])
        assert rays_of_cluster(SNAKE) < set(cone.rays)

    def test_partition_between_simplicial_and_bipyramids(
            self, pseudotriangulations4):
        bips = {frozenset(ray_set(b)) for b in BIPYRAMIDS}
        exact, into_bips = [], []
        for t in pseudotriangulations4:
            cone = cone_of_cluster(t)
            if frozenset(cone.rays) in bips:
                into_bips.append(t)
                assert len(rays_of_cluster(t)) == 4
            else:
                exact.append(t)
                assert rays_of_cluster(t) == frozenset(cone.rays)
        assert len(exact) == 46 and len(into_bips) == 4
        # injective on the 46, two-to-one onto each bipyramid
        assert len({frozenset(cone_of_cluster(t).rays)
                    for t in exact}) == 46
        for b in bips:
            covering = [rays_of_cluster(t) for t in into_bips
                        if rays_of_cluster(t) < b]
            assert len(covering) == 2
            assert len(covering[0] & covering[1]) == 3

    def test_split_facets_biject_with_clusters(
            self, pseudotriangulations4):
        split = split_bipyramid_facets()
        clusters = [rays_of_cluster(t) for t in pseudotriangulations4]
        assert sorted(map(sorted, split)) == sorted(map(sorted, clusters))


class TestCorrespondenceTheorem:
    def test_report_has_no_violations(self):
        report = verify_cluster_fan_correspondence()
        assert report["violations"] == []
        assert report["fan_edge_count"] == 66
        assert report["compatible_pair_count"] == 66

    @pytest.mark.parametrize("size", [4, 5])
    def test_fan_missing_a_cone_fails(self, fan36, monkeypatch, size):
        """With one simplicial cone or one bipyramid removed from the
        cached fan, the split no longer gives the 50 clusters, and only the
        missing bipyramid fails the fan check's bipyramid comparison and
        the comparison of the fan's apex pairs with the listed ones."""
        drop = next(c for c in fan36.maximal_cones if len(c.rays) == size)
        broken = Fan(4, tuple(c for c in fan36.maximal_cones
                              if c is not drop))
        for module in (fan_mod, correspondence, verify):
            monkeypatch.setattr(module, "compute_fan_f36", lambda: broken)
        checks = {v["check"] for v in
                  verify_cluster_fan_correspondence()["violations"]}
        assert "split fan facets biject with the 50 clusters" in checks
        assert ("bipyramid split structure" in checks) == (size == 5)
        fan_checks = {v["check"] for v in verify.check_fan()}
        assert ("bipyramid cones" in fan_checks) == (size == 5)

    def test_negative_simple_neighborhood(self):
        """-alpha_1 is compatible with exactly nine roots."""
        neg = (-1, 0, 0, 0)
        compatible = {psi(r) for r in RAY_COORDS.values()
                      if psi(r) != neg and compatibility_degree(neg, psi(r)) == 0}
        assert compatible == {
            (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1),
            (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 1, 1, 1),
            (0, 0, 1, 0), (0, 0, 0, 1)}

    def test_second_chart_pairs_are_compatible_two_cones(self, fan36):
        """The six listed pairs are compatible and span 2-cones; they are
        edges drawn in the second chart, not missing edges."""
        faces = fan36.face_ray_sets()
        for la, lb in SECOND_CHART_EDGES:
            a, b = RAY_COORDS[la], RAY_COORDS[lb]
            assert compatibility_degree(psi(a), psi(b)) == 0
            assert frozenset((a, b)) in faces

    @pytest.mark.xfail(reason="the fan's 2-cones equal all 66 compatible "
                       "pairs; reading the six second-chart pairs as "
                       "missing 2-cones contradicts the computed fan",
                       strict=True)
    def test_literal_exclusion_reading(self, fan36):
        faces = fan36.face_ray_sets()
        fan_edges = {f for f in faces if len(f) == 2}
        excluded = {frozenset((RAY_COORDS[a], RAY_COORDS[b]))
                    for a, b in SECOND_CHART_EDGES}
        roots = [psi(r) for r in fan36.rays]
        compat = {frozenset((psi_inverse(a), psi_inverse(b)))
                  for a, b in itertools.combinations(roots, 2)
                  if compatibility_degree(a, b) == 0}
        assert fan_edges == compat - excluded


class TestPlaneTypesOfClusters:
    def test_snake_type(self):
        assert plane_type_of_cluster(SNAKE) == "FFFGG"

    def test_distribution(self, pseudotriangulations4):
        counts = {}
        for t in pseudotriangulations4:
            pt = plane_type_of_cluster(t)
            counts[pt] = counts.get(pt, 0) + 1
        assert counts == {"EEFG": 12, "EFFG": 12, "EEFFa": 12,
                          "EEFFb": 6, "EEEG": 4, "FFFGG": 4}

    def test_constant_on_cones(self, pseudotriangulations4):
        by_cone = {}
        for t in pseudotriangulations4:
            key = frozenset(cone_of_cluster(t).rays)
            by_cone.setdefault(key, set()).add(plane_type_of_cluster(t))
        assert all(len(types) == 1 for types in by_cone.values())


class TestTables:
    def test_table1_exact(self):
        rows = table1_report()
        assert len(rows) == 48
        assert all(r["type"] == r["expected"] for r in rows)

    def test_table2_exact(self):
        rows = table2_report()
        assert all(r["count"] == r["expected"] for r in rows)
        incidence = {}
        for r in rows:
            incidence.setdefault(r["class"], {})[r["type"]] = r["count"]
        assert incidence == TABLE2

    def test_class_labels_unique(self):
        labeled = cluster_classes()
        assert sorted(labeled) == [f"T{i}" for i in range(1, 8)]
        assert sum(len(o) for o in labeled.values()) == 50


class TestReflectionTheorem:
    def test_snake_reflection_example(self):
        t = SNAKE
        image = apply_symmetry(reflect(0), t, 4)
        assert plane_type_of_cluster(t) == \
            plane_type_of_cluster(image) == "FFFGG"

    def test_full_sweep_and_necessity(self):
        report = verify_parity_reflection_theorem()
        assert report["violations"] == []
        assert report["necessity"] == {"EEEG": True, "FFFGG": True}

    def test_parity_reflections_are_the_even_axes(self):
        ops = parity_preserving_reflections()
        assert [op.axis for op in ops] == [0, 2, 4, 6]
        assert all(op.kind == "reflect" for op in ops)

    def test_finer_classes_union_to_type_fibers(self, pseudotriangulations4):
        classes = finer_equivalence_classes()
        fibers = {}
        for t in pseudotriangulations4:
            fibers.setdefault(plane_type_of_cluster(t), set()).add(t)
        for c in classes:
            types = {plane_type_of_cluster(t) for t in c}
            assert len(types) == 1
            assert c <= fibers[types.pop()]
        for fiber in fibers.values():
            covering = [c for c in classes if c <= fiber]
            assert set().union(*covering) == fiber
