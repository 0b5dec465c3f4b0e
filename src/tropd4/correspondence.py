"""Bridge between fan rays, almost positive roots, and chord pairs.

The ray dictionary identifies each of the 16 rays with an almost positive
root and a chord pair.  Under that dictionary the maximal cones of the fan
carry the 50 pseudotriangulations (the two bipyramid cones carry two each),
the 2-dimensional cones are exactly the compatible root pairs, and the
plane type of a cone is constant on the pseudotriangulations it carries.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from . import reference
from .chords import SIGMA, apply_symmetry, chord_text, parse_chord, reflect
from .clusters import (
    N4,
    classify_modulo,
    cluster_complex,
    cluster_of,
    enumerate_pseudotriangulations,
    full_symmetry_generators,
    root_of_pair,
)
from .fan import bipyramid_cones, compute_fan_f36
from .hypersimplex import classify_plane_type


@lru_cache(maxsize=1)
def _psi_maps():
    """The ray-to-root dictionary and its inverse.  Each ray's root is
    computed from its chord pair, so a wrong root column is reported by
    ``verify.check_psi_rows`` alone and breaks no other check."""
    to_root = {}
    for label, coords in reference.RAY_COORDS.items():
        _, chord = reference.PSI_TABLE[label]
        to_root[coords] = root_of_pair(parse_chord(chord, N4))
    return to_root, {root: coords for coords, root in to_root.items()}


def psi(ray):
    """Root attached to a fan ray."""
    to_root, _ = _psi_maps()
    ray = tuple(ray)
    if ray not in to_root:
        raise KeyError(f"{ray} is not a ray of the fan")
    return to_root[ray]


def psi_inverse(root):
    _, to_ray = _psi_maps()
    root = tuple(root)
    if root not in to_ray:
        raise KeyError(f"{root} is not an almost positive root")
    return to_ray[root]


def rays_of_cluster(t):
    return frozenset(psi_inverse(r) for r in cluster_of(t))


def cone_of_cluster(t):
    """The unique maximal cone whose rays contain the cluster's rays."""
    return _cone_of_rays(rays_of_cluster(t))


@lru_cache(maxsize=None)
def _cone_of_rays(rays):
    """:func:`cone_of_cluster` by ray set, found once per set."""
    hits = [c for c in compute_fan_f36().maximal_cones if rays <= set(c.rays)]
    if len(hits) != 1:
        raise RuntimeError(
            f"cluster maps into {len(hits)} maximal cones instead of one")
    return hits[0]


@lru_cache(maxsize=1)
def classify_all_cones():
    """Plane type of every maximal cone, keyed by its frozen ray set."""
    return {frozenset(c.rays): classify_plane_type(c.rays)
            for c in compute_fan_f36().maximal_cones}


def plane_type_of_cluster(t):
    return classify_all_cones()[frozenset(cone_of_cluster(t).rays)]


def plane_type_split(orbit):
    """``{plane type: count}`` over the pseudotriangulations of ``orbit``,
    sorted by plane type."""
    counts = Counter(plane_type_of_cluster(t) for t in orbit)
    return dict(sorted(counts.items()))


def _apex_pairs():
    """Each bipyramid's apexes, keyed by its ray set: its one ray pair
    spanning no 2-face of the fan.  The fan is face to face, so a 2-face
    spanned by two of its rays lies in a common face with it and is one
    of its 2-faces.  Raises RuntimeError unless there is one such pair."""
    faces = compute_fan_f36().face_ray_sets()
    apexes = {}
    for c in bipyramid_cones():
        non_edges = [frozenset(p) for p in itertools.combinations(c.rays, 2)
                     if frozenset(p) not in faces]
        if len(non_edges) != 1:
            raise RuntimeError(
                f"cone {list(c.rays)} has {len(non_edges)} missing diagonals")
        apexes[frozenset(c.rays)] = non_edges[0]
    return apexes


def split_bipyramid_facets():
    """Maximal cells after cutting each bipyramid along its equator: the
    50 ray sets, each other cone whole, plus equator and one apex twice
    per bipyramid, its apexes read from :func:`_apex_pairs`."""
    apexes = _apex_pairs()
    facets = [frozenset(c.rays) for c in compute_fan_f36().maximal_cones
              if frozenset(c.rays) not in apexes]
    for rays, pair in apexes.items():
        facets += [(rays - pair) | {a} for a in sorted(pair)]
    return facets


def verify_cluster_fan_correspondence():
    """Check that fan 2-cones match compatible root pairs, that splitting
    the bipyramids turns the fan's facets into the 50 clusters, and that
    the fan's apex pairs are the listed ones.

    The bijection and ``verify.check_fan`` fix the number of clusters in
    bipyramids at 4, so it is not counted again.

    Returns a report dict; ``report["violations"]`` is empty on success.
    """
    fan = compute_fan_f36()
    violations = []

    faces = fan.face_ray_sets()
    fan_edges = {f for f in faces if len(f) == 2}
    # 2-faces of these pointed cones have exactly two extreme rays, so the
    # ray-pair sets of size 2 are exactly the 2-dimensional cones.
    compatible = cluster_complex()[1][2]
    compat_pairs = {frozenset(p) for p in itertools.combinations(fan.rays, 2)
                    if frozenset(map(psi, p)) in compatible}
    if fan_edges != compat_pairs:
        missing = sorted(tuple(sorted(p)) for p in compat_pairs - fan_edges)
        extra = sorted(tuple(sorted(p)) for p in fan_edges - compat_pairs)
        violations.append({
            "check": "fan 2-cones equal compatible pairs",
            "missing_from_fan": missing, "not_compatible": extra})

    second_chart = {frozenset((reference.RAY_COORDS[a], reference.RAY_COORDS[b]))
                    for a, b in reference.SECOND_CHART_EDGES}
    if not second_chart <= compat_pairs:
        violations.append({"check": "listed second-chart pairs compatible",
                           "detail": "some listed pair is not compatible"})
    if not second_chart <= fan_edges:
        violations.append({"check": "listed second-chart pairs are 2-cones",
                           "detail": "some listed pair spans no 2-cone"})

    cluster_ray_sets = [rays_of_cluster(t)
                        for t in enumerate_pseudotriangulations(N4)]
    split = split_bipyramid_facets()
    if sorted(map(sorted, split)) != sorted(map(sorted, cluster_ray_sets)):
        violations.append({
            "check": "split fan facets biject with the 50 clusters",
            "detail": {
                "split_only": sorted(map(sorted,
                                         set(split) - set(cluster_ray_sets))),
                "clusters_only": sorted(map(sorted,
                                            set(cluster_ray_sets) - set(split)))}})

    apexes = _apex_pairs()
    for b, apex_labels in zip(reference.BIPYRAMIDS, reference.BIPYRAMID_APEXES):
        if apexes.get(reference.ray_set(b)) != reference.ray_set(apex_labels):
            violations.append({"check": "bipyramid split structure",
                               "bipyramid": sorted(b)})

    return {
        "fan_edge_count": len(fan_edges),
        "compatible_pair_count": len(compat_pairs),
        "violations": violations,
    }


# -- class/type tables --------------------------------------------------------

@lru_cache(maxsize=1)
def cluster_classes():
    """The 7 symmetry classes, labeled T1..T7 by their type splits.  An
    orbit that matches no row of ``reference.TABLE2``, or only a row an
    earlier orbit took, is labeled ``?<position>`` for table2_report."""
    ts = enumerate_pseudotriangulations(N4)
    orbits = classify_modulo(ts, full_symmetry_generators(), N4)
    label_of = {tuple(sorted(split.items())): label
                for label, split in reference.TABLE2.items()}
    labeled = {}
    for i, orbit in enumerate(orbits):
        label = label_of.get(tuple(plane_type_split(orbit).items()))
        labeled[label if label and label not in labeled else f"?{i}"] = orbit
    return labeled


def table1_report():
    """Computed (cone ray labels, plane type) rows, in printed-table order."""
    types = classify_all_cones()
    rows = []
    for plane_type, cones in reference.TABLE1.items():
        for labels in cones:
            computed = types[frozenset(reference.ray_set(labels))]
            rows.append({"rays": list(labels), "type": computed,
                         "expected": plane_type})
    return rows


def table2_report():
    """Computed class-by-type incidence with expected counts, then a row
    of count 0 for each incidence of a listed class that no orbit took."""
    classes = cluster_classes()
    rows = [{"class": label, "type": pt, "count": count,
             "expected": reference.TABLE2.get(label, {}).get(pt, 0)}
            for label in sorted(classes)
            for pt, count in plane_type_split(classes[label]).items()]
    return rows + [{"class": label, "type": pt, "count": 0, "expected": n}
                   for label, split in reference.TABLE2.items()
                   if label not in classes for pt, n in split.items()]


# -- reflection theorem -------------------------------------------------------

def parity_preserving_reflections():
    """Reflections of the octagon fixing vertex parity: even axes."""
    return tuple(reflect(a) for a in range(0, 2 * N4, 2))


def finer_equivalence_classes():
    """Orbits under parity-preserving reflections and the side swap."""
    ts = enumerate_pseudotriangulations(N4)
    gens = parity_preserving_reflections() + (SIGMA,)
    return classify_modulo(ts, gens, N4)


def verify_parity_reflection_theorem():
    """Sufficiency sweep plus necessity for the EEEG and FFFGG fibers.

    The sweep compares each pseudotriangulation t with op(t) and
    sigma(op(t)) for every parity-preserving reflection op.  Each op is a
    bijection on the 50 pseudotriangulations, so sigma alone preserves the
    type as well; every generator of the finer classes then does, and each
    finer class lies in one type fiber without a check of its own.
    """
    ts = enumerate_pseudotriangulations(N4)
    types = {t: plane_type_of_cluster(t) for t in ts}
    violations = []
    for t in ts:
        for op in parity_preserving_reflections():
            image = apply_symmetry(op, t, N4)
            for with_sigma, u in ((False, image),
                                  (True, apply_symmetry(SIGMA, image, N4))):
                image_type = types[u]
                if image_type != types[t]:
                    violations.append({
                        "check": "reflection preserves plane type",
                        "pseudotriangulation": sorted(chord_text(c, N4)
                                                      for c in t),
                        "op": (op.kind, op.axis, with_sigma),
                        "types": [types[t], image_type]})

    classes = finer_equivalence_classes()
    necessity = {}
    for plane_type in ("EEEG", "FFFGG"):
        fiber = {t for t in ts if types[t] == plane_type}
        matching = [c for c in classes if c & fiber]
        necessity[plane_type] = (len(matching) == 1
                                 and set(matching[0]) == fiber)
        if not necessity[plane_type]:
            violations.append({
                "check": "necessity for type fiber",
                "type": plane_type,
                "classes_meeting_fiber": len(matching)})
    return {
        "finer_class_count": len(classes),
        "necessity": necessity,
        "violations": violations,
    }
