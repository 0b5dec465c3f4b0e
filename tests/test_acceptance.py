"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria with stated runtime budgets are timed on cold caches so the
numbers mean something when the module runs standalone.
"""

import itertools
import random
import time
from fractions import Fraction

import tropd4.clusters as clusters
import tropd4.fan as fan_mod
from tropd4.chords import (
    RHO,
    all_chords,
    apply_to_chord,
    crossing,
    pair_rep,
    parse_chord,
    reflect,
)
from tropd4.clusters import (
    classify_modulo,
    cluster_complex,
    compatibility_degree,
    enumerate_pseudotriangulations,
    flip_graph,
    full_symmetry_generators,
    graph_is_connected,
    root_of_pair,
    root_pair_bijection,
    tau_on_root,
)
from tropd4.correspondence import (
    psi,
    psi_inverse,
    rays_of_cluster,
    split_bipyramid_facets,
    table2_report,
    verify_parity_reflection_theorem,
)
from tropd4.fan import bipyramid_cones, compute_fan_f36, trop_phi2
from tropd4.geometry import NotPointedError, cone_from_rays, cone_rays, \
    point_in_hull
from tropd4.hypersimplex import (
    hypersimplex_vertices,
    induced_subdivision,
    is_matroid_basis_set,
    subdivision_signature,
)
from tropd4.reference import (
    BIPYRAMIDS,
    CONES_PER_TYPE,
    PSI_TABLE,
    RAY_COORDS,
    SECOND_CHART_EDGES,
    TABLE1,
    TABLE2,
    ray_set,
)
from tropd4.webmatrix import PLUECKER_TRIPLES, _web, all_tropical_minors

from test_webmatrix import EXPECTED_MATRIX, EXPECTED_MINORS


def _passed(num, text):
    print(f"criterion {num:2d} PASS: {text}")


def test_criterion_01_enumeration_and_flip_graph():
    clusters.enumerate_pseudotriangulations.cache_clear()
    clusters.flip_graph.cache_clear()
    clusters._compatibility_graph.cache_clear()
    start = time.monotonic()
    ts = enumerate_pseudotriangulations(4)
    adj = flip_graph(4)
    elapsed = time.monotonic() - start
    assert len(ts) == 50
    assert all(len(v) == 4 for v in adj.values())
    assert sum(len(v) for v in adj.values()) // 2 == 100
    assert graph_is_connected(adj)
    assert elapsed < 1.0
    _passed(1, f"50 pseudotriangulations, 4-regular connected flip graph "
               f"with 100 edges in {elapsed:.3f}s")


def test_criterion_02_cluster_complex_f_vector():
    clusters.cluster_complex.cache_clear()
    start = time.monotonic()
    f_vector, _, _ = cluster_complex()
    elapsed = time.monotonic() - start
    assert f_vector == (16, 66, 100, 50)
    assert elapsed < 1.0
    _passed(2, f"cluster complex f-vector (16, 66, 100, 50) in {elapsed:.3f}s")


def test_criterion_03_seven_symmetry_classes():
    start = time.monotonic()
    orbits = classify_modulo(enumerate_pseudotriangulations(4),
                             full_symmetry_generators(), 4)
    elapsed = time.monotonic() - start
    assert len(orbits) == 7
    assert sorted((len(o) for o in orbits), reverse=True) == \
        [16, 8, 8, 8, 4, 4, 2]
    assert elapsed < 1.0
    _passed(3, f"7 classes with sizes 16,8,8,8,4,4,2 in {elapsed:.3f}s")


def test_criterion_04_root_dictionary_and_relations():
    for label, (root, chord) in PSI_TABLE.items():
        pair = pair_rep(parse_chord(chord, 4), 4)
        assert root_of_pair(pair) == root, label
        assert psi(RAY_COORDS[label]) == root
        assert psi_inverse(root) == RAY_COORDS[label]
    roots = sorted(root_pair_bijection())
    assert len(roots) == 16
    for i in range(4):
        neg = tuple(-1 if j == i else 0 for j in range(4))
        for beta in roots:
            expected = -1 if beta == neg else beta[i]
            assert compatibility_degree(neg, beta) == expected
    for a, b in itertools.product(roots, repeat=2):
        assert compatibility_degree(a, b) == \
            compatibility_degree(tau_on_root(a), tau_on_root(b))
    _passed(4, "all 16 dictionary rows and both compatibility relations "
               "over 16x16 root pairs")


def test_criterion_05_web_matrix_and_minors():
    m = _web(3, 6)
    for i in range(3):
        for j in range(6):
            assert m[i][j] == EXPECTED_MATRIX[i][j], (i + 1, j + 1)
    minors = all_tropical_minors()  # raises PositivityError on bad signs
    assert len(minors) == 20
    for idx in PLUECKER_TRIPLES:
        assert set(minors[idx]) == EXPECTED_MINORS[idx], idx
    _passed(5, "matrix matches entry-for-entry; 20 tropical minors match; "
               "positivity holds")


def test_criterion_06_fan():
    fan_mod.compute_fan_f36.cache_clear()
    start = time.monotonic()
    fan = compute_fan_f36()
    f_vector = fan.f_vector()
    elapsed = time.monotonic() - start
    assert set(fan.rays) == set(RAY_COORDS.values())
    assert f_vector == (16, 66, 98, 48)
    bips = {frozenset(c.rays) for c in bipyramid_cones()}
    assert bips == {frozenset(ray_set(b)) for b in BIPYRAMIDS}
    assert sorted(len(c.rays) for c in fan.maximal_cones) == [4] * 46 + [5, 5]
    assert elapsed < 60.0
    _passed(6, f"16 rays, f-vector (16, 66, 98, 48), two bipyramid cones "
               f"in {elapsed:.2f}s")


def test_criterion_07_correspondence_theorem():
    fan = compute_fan_f36()
    fan_edges = {f for f in fan.face_ray_sets() if len(f) == 2}
    roots = [psi(r) for r in fan.rays]
    compat = {frozenset((psi_inverse(a), psi_inverse(b)))
              for a, b in itertools.combinations(roots, 2)
              if compatibility_degree(a, b) == 0}
    assert len(compat) == 66
    assert fan_edges == compat
    # the six pairs listed separately are compatible pairs drawn in the
    # second chart; they are among the 66, not exceptions to them (the
    # strict reading as non-edges is refuted: see the xfail in
    # test_correspondence and the decisions log)
    listed = {frozenset((RAY_COORDS[a], RAY_COORDS[b]))
              for a, b in SECOND_CHART_EDGES}
    assert listed <= fan_edges and len(listed) == 6
    split = split_bipyramid_facets()
    clusters_rays = [rays_of_cluster(t)
                     for t in enumerate_pseudotriangulations(4)]
    assert sorted(map(sorted, split)) == sorted(map(sorted, clusters_rays))
    assert len(split) == 50
    _passed(7, "fan 2-cones = 66 compatible pairs (six drawn in the second "
               "chart); split bipyramids give the 50 clusters")


def test_criterion_08_cone_type_table(cone_types):
    counts = {}
    for t in cone_types.values():
        counts[t] = counts.get(t, 0) + 1
    assert counts == CONES_PER_TYPE
    assert set(counts) == set(TABLE1)
    for plane_type, rows in TABLE1.items():
        for labels in rows:
            assert cone_types[frozenset(ray_set(labels))] == plane_type
    _passed(8, "48 cones typed EEEG:4 EEFFa:12 EEFFb:6 EEFG:12 EFFG:12 "
               "FFFGG:2, matching the printed table per cone")


def test_criterion_09_matroidality_and_stability():
    rng = random.Random(1729)
    fan = compute_fan_f36()
    start = time.monotonic()
    for cone in fan.maximal_cones:
        rays = sorted(cone.rays)
        canonical = tuple(sum(c) for c in zip(*rays))
        cells = induced_subdivision(trop_phi2(canonical))
        assert all(is_matroid_basis_set(c) for c in cells)
        base = subdivision_signature(cells)
        for _ in range(20):
            coeffs = [Fraction(rng.randint(1, 60), rng.randint(1, 7))
                      for _ in rays]
            x = tuple(sum(f * r[i] for f, r in zip(coeffs, rays))
                      for i in range(4))
            sample_cells = induced_subdivision(trop_phi2(x))
            assert all(is_matroid_basis_set(c) for c in sample_cells)
            assert subdivision_signature(sample_cells) == base
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    _passed(9, f"48 cones x (1 canonical + 20 random) interior points: all "
               f"cells matroidal, signatures stable, in {elapsed:.1f}s")


def test_criterion_10_class_type_incidence():
    rows = table2_report()
    incidence = {}
    for r in rows:
        assert r["count"] == r["expected"]
        incidence.setdefault(r["class"], {})[r["type"]] = r["count"]
    assert incidence == TABLE2
    _passed(10, "class-by-type incidence matches the printed table "
                "cell-for-cell")


def test_criterion_11_reflection_theorem():
    report = verify_parity_reflection_theorem()
    assert report["violations"] == []
    assert report["necessity"] == {"EEEG": True, "FFFGG": True}
    _passed(11, "50 x 4 reflections x 2 side-swap sweep: zero type changes; "
                "necessity holds for EEEG and FFFGG")


def test_criterion_12_property_suites():
    rng = random.Random(403)

    # exact-geometry round trip on 1000 sampled cones
    round_trips = 0
    while round_trips < 1000:
        dim = rng.choice((3, 4))
        halfspaces = [tuple(rng.randint(-4, 4) for _ in range(dim))
                      for _ in range(rng.randint(dim, dim + 3))]
        try:
            rays = cone_rays(halfspaces, dim)
        except NotPointedError:
            continue
        if rays:
            rebuilt = cone_from_rays(rays, dim)
            assert sorted(rebuilt.rays) == sorted(rays)
        for r in rays:
            assert all(sum(a * b for a, b in zip(h, r)) >= 0
                       for h in halfspaces)
        round_trips += 1

    # subdivision cover: 1000 sampled points of the hypersimplex lie in a cell
    cells = induced_subdivision(trop_phi2((3, -1, 2, -2)))
    verts = hypersimplex_vertices()
    cell_vertex_lists = [
        [verts[PLUECKER_TRIPLES.index(t)] for t in sorted(c)] for c in cells]
    for _ in range(1000):
        weights = [rng.randint(0, 4) for _ in verts]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        y = tuple(sum(Fraction(w, total) * v[i]
                      for w, v in zip(weights, verts)) for i in range(6))
        assert any(point_in_hull(y, vl) for vl in cell_vertex_lists)

    # crossing axioms on 1000 sampled chord pairs across n = 3, 4, 5
    checked = 0
    while checked < 1000:
        n = rng.choice((3, 4, 5))
        chords = all_chords(n)
        a, b = rng.sample(chords, 2)
        assert crossing(a, b, n) == crossing(b, a, n)
        assert not crossing(a, a, n)
        endpoints = lambda c: {c.p} if c.is_tangent else {c.p, c.q}
        if endpoints(a) & endpoints(b):
            assert not crossing(a, b, n)
        op = rng.choice((RHO, reflect(rng.randrange(2 * n))))
        assert crossing(a, b, n) == crossing(
            apply_to_chord(op, a, n), apply_to_chord(op, b, n), n)
        checked += 1

    _passed(12, "round-trip, subdivision-cover, and crossing-axiom "
                "properties hold on 1000 seeded samples each")
