import itertools

import pytest

import tropd4.correspondence as correspondence
import tropd4.fan as fan_mod
import tropd4.reference as reference
import tropd4.verify as verify
from tropd4.chords import SIGMA, apply_symmetry, chord_text, reflect
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
    BIPYRAMID_APEXES,
    BIPYRAMIDS,
    LABEL_OF_RAY,
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

    def test_each_ray_set_is_looked_up_once(self, pseudotriangulations4):
        """The 50 clusters have 50 ray sets, and each scans the fan once,
        however often its cone is asked for."""
        correspondence._cone_of_rays.cache_clear()
        for t in pseudotriangulations4 * 4:
            cone_of_cluster(t)
        info = correspondence._cone_of_rays.cache_info()
        assert (info.misses, info.hits) == (50, 150)

    @pytest.mark.parametrize("copies, count", [(0, 0), (2, 2)])
    def test_cluster_in_no_cone_or_two(self, fan36, monkeypatch, copies,
                                       count):
        """With the snake's bipyramid dropped from the fan, or listed
        twice, the snake's cluster is in 0 or 2 maximal cones: every
        lookup raises, as an error is not kept."""
        cone = cone_of_cluster(SNAKE)
        cones = [c for c in fan36.maximal_cones if c != cone]
        broken = Fan(4, tuple(cones + [cone] * copies))
        monkeypatch.setattr(correspondence, "compute_fan_f36",
                            lambda: broken)
        correspondence._cone_of_rays.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(RuntimeError,
                                   match=f"into {count} maximal cones"):
                    cone_of_cluster(SNAKE)
        finally:
            monkeypatch.undo()
            correspondence._cone_of_rays.cache_clear()
        assert cone_of_cluster(SNAKE) == cone

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
        correspondence._cone_of_rays.cache_clear()
        try:
            checks = {v["check"] for v in
                      verify_cluster_fan_correspondence()["violations"]}
            fan_checks = {v["check"] for v in verify.check_fan()}
        finally:
            monkeypatch.undo()
            correspondence._cone_of_rays.cache_clear()
        assert "split fan facets biject with the 50 clusters" in checks
        assert ("bipyramid split structure" in checks) == (size == 5)
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


def _without_compatible(monkeypatch, labels):
    """Patch ``cluster_complex`` to drop the pair of rays ``labels`` from
    the compatible pairs; returns the pair's sorted ray tuple."""
    f_vector, faces, facets = correspondence.cluster_complex()
    pair = frozenset(RAY_COORDS[label] for label in labels)
    faces = {**faces, 2: faces[2] - {frozenset(map(psi, pair))}}
    monkeypatch.setattr(correspondence, "cluster_complex",
                        lambda: (f_vector, faces, facets))
    return tuple(sorted(pair))


class TestEdgeComparisonsFire:
    """Each comparison of the fan's 2-cones with the compatible pairs and
    with the listed second-chart pairs reports its own violation."""

    def test_pair_dropped_from_the_compatible_ones(self, monkeypatch,
                                                   fan36):
        """A 2-cone of the fan that is not listed in the second chart."""
        listed = {ray_set(p) for p in SECOND_CHART_EDGES}
        edge = next(f for f in sorted(map(sorted, fan36.face_ray_sets()))
                    if len(f) == 2 and frozenset(f) not in listed)
        labels = [LABEL_OF_RAY[r] for r in edge]
        pair = _without_compatible(monkeypatch, labels)
        report = verify_cluster_fan_correspondence()
        assert report["violations"] == [{
            "check": "fan 2-cones equal compatible pairs",
            "missing_from_fan": [], "not_compatible": [pair]}]
        assert report["compatible_pair_count"] == 65

    def test_listed_pair_dropped_from_the_compatible_ones(self,
                                                          monkeypatch):
        pair = _without_compatible(monkeypatch, SECOND_CHART_EDGES[0])
        assert verify_cluster_fan_correspondence()["violations"] == [
            {"check": "fan 2-cones equal compatible pairs",
             "missing_from_fan": [], "not_compatible": [pair]},
            {"check": "listed second-chart pairs compatible",
             "detail": "some listed pair is not compatible"}]

    def test_apex_pair_listed_in_the_second_chart(self, monkeypatch):
        """An apex pair spans no 2-cone and is not compatible."""
        monkeypatch.setattr(reference, "SECOND_CHART_EDGES",
                            SECOND_CHART_EDGES + (BIPYRAMID_APEXES[0],))
        assert verify_cluster_fan_correspondence()["violations"] == [
            {"check": "listed second-chart pairs compatible",
             "detail": "some listed pair is not compatible"},
            {"check": "listed second-chart pairs are 2-cones",
             "detail": "some listed pair spans no 2-cone"}]


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

    def test_swapped_types_fail_table2(self, swapped_eeff_types):
        """Two orbits whose splits match no row are labeled ``?`` and
        reported, the two rows they no longer match are reported with
        count 0, and nothing raises."""
        labels = sorted(cluster_classes())
        assert [l for l in labels if l.startswith("T")] == \
            ["T1", "T2", "T3", "T5", "T7"]
        assert len([l for l in labels if l.startswith("?")]) == 2
        rows = table2_report()
        assert sum(r["count"] for r in rows) == 50
        assert {(r["class"], r["type"]) for r in rows if r["count"] == 0} \
            == {(c, t) for c in ("T4", "T6") for t in ("EEFFa", "EEFFb")}
        wrong = [r for r in rows if r["count"] != r["expected"]]
        assert len(wrong) == 8
        assert all(r["class"].startswith("?") or r["count"] == 0
                   for r in wrong)
        assert [(v["class"], v["type"], v["got"], v["expected"])
                for v in verify.check_table2()] == \
            [(r["class"], r["type"], r["count"], r["expected"])
             for r in wrong]

    def test_a_row_labels_one_orbit(self, monkeypatch):
        """When every orbit has T7's split, the first takes T7 and the
        other six are labeled ``?<position>``."""
        monkeypatch.setattr(correspondence, "plane_type_split",
                            lambda orbit: {"EEFFa": 2})
        cluster_classes.cache_clear()
        try:
            labels = list(cluster_classes())
        finally:
            cluster_classes.cache_clear()
        assert labels[0] == "T7"
        assert labels[1:] == [f"?{i}" for i in range(1, 7)]


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

    def test_one_retyped_cone_fails_only_the_sweep(
            self, monkeypatch, cone_types, pseudotriangulations4):
        """With one EEFG cone typed EFFG, the report holds one "reflection
        preserves plane type" line per (t, op, sigma) whose image leaves or
        enters that cone, and no other line."""
        cone = next(c for c, pt in cone_types.items() if pt == "EEFG")
        retyped = dict(cone_types)
        retyped[cone] = "EFFG"
        monkeypatch.setattr(correspondence, "classify_all_cones",
                            lambda: retyped)
        inside = {t for t in pseudotriangulations4
                  if frozenset(cone_of_cluster(t).rays) == cone}
        expected = []
        for t in pseudotriangulations4:
            for op in parity_preserving_reflections():
                for with_sigma in (False, True):
                    u = apply_symmetry(op, t, 4)
                    if with_sigma:
                        u = apply_symmetry(SIGMA, u, 4)
                    if (t in inside) != (u in inside):
                        expected.append((sorted(chord_text(c, 4) for c in t),
                                         (op.kind, op.axis, with_sigma)))
        report = verify_parity_reflection_theorem()
        assert {v["check"] for v in report["violations"]} == \
            {"reflection preserves plane type"}
        assert [(v["pseudotriangulation"], v["op"])
                for v in report["violations"]] == expected
        assert len(expected) == 16
        assert report["necessity"] == {"EEEG": True, "FFFGG": True}

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

    @pytest.mark.parametrize("wrong, meeting", [
        ("split", 2), ("merged", 1), ("overlapping", 2)])
    def test_wrong_finer_class_fails_necessity(self, monkeypatch, wrong,
                                               meeting):
        """The finer class of the EEEG fiber split in two; merged with a
        class of neither fiber; or kept whole, with one of its members
        also put in a class of neither fiber, listed after it: the EEEG
        fiber alone fails."""
        classes = finer_equivalence_classes()
        types = [{plane_type_of_cluster(t) for t in c} for c in classes]
        k = types.index({"EEEG"})
        other = next(i for i, ts in enumerate(types)
                     if not ts & {"EEEG", "FFFGG"})
        t = min(classes[k], key=sorted)
        drop, changed = {
            "split": ({k}, [classes[k] - {t}, frozenset({t})]),
            "merged": ({k, other}, [classes[k] | classes[other]]),
            "overlapping": ({k, other}, [classes[k], classes[other] | {t}]),
        }[wrong]
        rest = [c for i, c in enumerate(classes) if i not in drop]
        monkeypatch.setattr(correspondence, "finer_equivalence_classes",
                            lambda: rest + changed)
        report = verify_parity_reflection_theorem()
        assert report["violations"] == [{
            "check": "necessity for type fiber", "type": "EEEG",
            "classes_meeting_fiber": meeting}]
        assert report["necessity"] == {"EEEG": False, "FFFGG": True}
