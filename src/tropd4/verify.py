"""Consolidated verification: every pipeline claim checked in one report.

Each check returns a list of violation dicts (empty when the check passes);
:func:`full_report` aggregates them into the machine-readable report used
by ``tropd4 verify-all``.  Randomized sweeps draw from a seeded generator,
so reports are byte-stable for a fixed seed, and the table sections do not
depend on the seed at all.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from fractions import Fraction
from math import gcd, lcm

from . import reference
from .clusters import (
    N4,
    classify_modulo,
    cluster_complex,
    compatibility_degree,
    enumerate_pseudotriangulations,
    flip_graph,
    full_symmetry_generators,
    graph_is_connected,
    tau_on_root,
)
from .correspondence import (
    classify_all_cones,
    psi,
    table1_report,
    table2_report,
    verify_cluster_fan_correspondence,
    verify_parity_reflection_theorem,
)
from .fan import (
    GENERIC_POINT,
    bipyramid_cones,
    compute_fan_f36,
    integer_heights,
)
from .hypersimplex import (
    canonical_point,
    canonical_subdivision,
    certified,
    is_matroid_basis_set,
    induced_subdivision,
    reference_signatures,
    subdivision_forms,
    subdivision_signature,
)
from .webmatrix import all_tropical_minors


def check_enumeration():
    violations = []
    counts = {3: 14, 4: 50}
    for n, expected in counts.items():
        got = len(enumerate_pseudotriangulations(n))
        if got != expected:
            violations.append({"check": "pseudotriangulation count",
                               "n": n, "got": got, "expected": expected})
    adj = flip_graph(4)
    edges = sum(len(v) for v in adj.values()) // 2
    if edges != 100 or not all(len(v) == 4 for v in adj.values()) \
            or not graph_is_connected(adj):
        violations.append({"check": "flip graph shape",
                           "edges": edges})
    return violations


def check_cluster_complex():
    f_vector = cluster_complex()[0]
    if f_vector != reference.CLUSTER_COMPLEX_F_VECTOR:
        return [{"check": "cluster complex f-vector", "got": list(f_vector),
                 "expected": list(reference.CLUSTER_COMPLEX_F_VECTOR)}]
    return []


def check_symmetry_classes():
    ts = enumerate_pseudotriangulations(N4)
    orbits = classify_modulo(ts, full_symmetry_generators(), N4)
    sizes = sorted((len(o) for o in orbits), reverse=True)
    if sizes != [16, 8, 8, 8, 4, 4, 2]:
        return [{"check": "symmetry classes", "orbits": len(orbits),
                 "sizes": sizes}]
    return []


def check_psi_rows():
    """The three-column dictionary, one violation per row whose typed root
    is not the one :func:`psi` derives from its chord."""
    violations = []
    for label, coords in reference.RAY_COORDS.items():
        root, chord = reference.PSI_TABLE[label]
        computed = psi(coords)
        if computed != root:
            violations.append({"check": "ray dictionary row", "ray": label,
                               "chord": chord, "computed_root": computed,
                               "expected_root": root})
    return violations


def check_compatibility_relations():
    violations = []
    roots = sorted(set(map(psi, reference.RAY_COORDS.values())))
    for i in range(4):
        neg = tuple(-1 if j == i else 0 for j in range(4))
        for beta in roots:
            expected = beta[i] if beta != neg else -1
            if compatibility_degree(neg, beta) != expected:
                violations.append({"check": "degree against negative simple",
                                   "i": i + 1, "beta": beta})
    for a, b in itertools.product(roots, repeat=2):
        if compatibility_degree(a, b) != \
                compatibility_degree(tau_on_root(a), tau_on_root(b)):
            violations.append({"check": "degree rotation invariance",
                               "pair": [a, b]})
    return violations


def check_minors():
    violations = []
    minors = all_tropical_minors()  # raises PositivityError on bad signs
    if len(minors) != 20:
        violations.append({"check": "minor count", "got": len(minors)})
    return violations


def check_fan():
    violations = []
    fan = compute_fan_f36()
    if set(fan.rays) != set(reference.RAY_COORDS.values()):
        violations.append({"check": "fan ray set",
                           "got": sorted(map(list, fan.rays))})
    fv = fan.f_vector()
    if fv != reference.FAN_F_VECTOR:
        violations.append({"check": "fan f-vector", "got": list(fv),
                           "expected": list(reference.FAN_F_VECTOR)})
    bips = {frozenset(c.rays) for c in bipyramid_cones()}
    expected = {frozenset(reference.ray_set(b)) for b in reference.BIPYRAMIDS}
    if bips != expected:
        violations.append({"check": "bipyramid cones"})
    sizes = sorted(len(c.rays) for c in fan.maximal_cones)
    if sizes != [4] * 46 + [5, 5]:
        violations.append({"check": "maximal cone ray counts", "sizes": sizes})
    return violations + _wall_violations(fan, GENERIC_POINT)


def _wall_violations(fan, point):
    """Each wall of ``fan``, pointed cones, the rays of a cone tight on a
    facet normal, read off its tight masks, must be in exactly two cones
    with opposite normals, and the generic ``point`` in one cone, on no
    normal: then they cover space once (De Loera, Rambau & Santos, ch. 4)."""
    walls = {}
    for c in fan.maximal_cones:
        for h, m in zip(c.halfspaces, c.tight):
            walls.setdefault(tuple(r for i, r in enumerate(c.rays)
                                   if m >> i & 1), []).append(h)
    bad = [{"check": "fan wall in two cones", "wall": wall, "normals": hs}
           for wall, hs in walls.items()
           if len(hs) != 2 or any(map(operator.add, *hs))]
    _, _, held, zero = fan.locate([point])
    cones = [i for i, h in enumerate(held) if h]
    if len(cones) != 1 or any(zero):
        bad.append({"check": "generic point in one cone", "point": point,
                    "cones": cones})
    return bad


def check_table1():
    return [{"check": "cone type", "rays": row["rays"], "got": row["type"],
             "expected": row["expected"]}
            for row in table1_report() if row["type"] != row["expected"]]


def check_table2():
    return [{"check": "class-type incidence", "class": row["class"],
             "type": row["type"], "got": row["count"],
             "expected": row["expected"]}
            for row in table2_report() if row["count"] != row["expected"]]


def _draws(rng, low, high):
    """The endless stream of ``rng.randint(low, high)``, drawn with
    ``rng.getrandbits`` alone: CPython's rejection rule
    (``Random._randbelow_with_getrandbits``), which draws the bit length of
    the range's size until the value is below the size.  ``random`` does
    not promise that rule across versions; ``tests/test_verify.py`` pins
    the stream against ``randint``.  A range with no value raises
    ValueError at the first draw, as ``randint`` does."""
    size = high - low + 1
    if size < 1:
        raise ValueError(f"empty range for randint({low}, {high})")
    bits, getrandbits = size.bit_length(), rng.getrandbits
    while True:
        r = getrandbits(bits)
        if r < size:
            yield low + r


def check_interior_point_stability(seed, samples_per_cone=20):
    """Random interior points of every cone: matroidal cells, one signature.

    Each sample's signature is compared with that of its cone's canonical
    subdivision S_C.  The signature of S_C must be the one
    :func:`reference_signatures` gives for the type that
    :func:`classify_all_cones` reads off the cone's rays, and the six
    reference signatures must be pairwise distinct, so the signature
    separates the types.  Each ray's coefficient is at least 1/8, so every
    sample is interior, and by :func:`check_cone_proofs` (a) and (b) its
    heights satisfy the certificate of S_C (see :func:`subdivision_forms`)
    and induce S_C's cells; only a sample that fails it takes a lower
    envelope.  A sample is judged at its integer multiple x, the point
    times its common denominator: a positive scale of the heights keeps
    the cells.  A cone's samples are certified as one batch
    (:func:`certified`), then judged in order.  Samples share most of
    their cells, so each distinct cell is judged for basis exchange and
    each distinct subdivision signed once.
    """
    rng = random.Random(seed)
    numerators, denominators = _draws(rng, 1, 50), _draws(rng, 1, 8)
    violations = []
    matroidal = functools.cache(is_matroid_basis_set)
    signature = functools.cache(subdivision_signature)

    fan = compute_fan_f36()
    cone_types = classify_all_cones()
    references = reference_signatures()
    sigs = list(references.values())
    clashing = sorted(t for t, s in references.items() if sigs.count(s) > 1)
    if clashing:
        violations.append({"check": "type signatures distinct",
                           "types": clashing})
    for c in fan.maximal_cones:
        rays = c.rays
        plane_type = cone_types[frozenset(rays)]
        canonical = canonical_subdivision(rays)
        if signature(canonical) != references.get(plane_type):
            violations.append({"check": "signature of cone type",
                               "cone": [list(r) for r in rays],
                               "type": plane_type})
        samples = []
        for _ in range(samples_per_cone):
            # the point sum(a / b * r) over the rays is x / den, summed in
            # integers over the lcm of the b's; lowest terms keep x, and so
            # the fields the certificate is evaluated in, small
            pairs = [(next(numerators), next(denominators)) for _ in rays]
            den = lcm(*(b for _, b in pairs))
            coeffs = [a * (den // b) for a, b in pairs]
            x = [sum(map(operator.mul, coeffs, column))
                 for column in zip(*rays)]
            g = gcd(den, *x)
            samples.append((tuple(v // g for v in x), den // g))
        if not samples:
            continue  # a batch needs a point
        heights = [integer_heights(x) for x, _ in samples]
        width, _, ok = certified(subdivision_forms(canonical), heights)
        for p, ((x, den), w) in enumerate(zip(samples, heights)):
            cells = canonical if ok >> p * width & 1 \
                else induced_subdivision(w)
            if not all(map(matroidal, cells)):
                violations.append({"check": "matroidal cells",
                                   "cone": [list(r) for r in rays],
                                   "point": [str(Fraction(v, den))
                                             for v in x]})
                continue
            if signature(cells) != signature(canonical):
                violations.append({"check": "signature constant on cone",
                                   "cone": [list(r) for r in rays],
                                   "type": plane_type})
    return violations


def check_cone_proofs():
    """Prove that each cone's canonical subdivision S_C is the subdivision
    at every interior point of the cone, and that it is matroidal.

    (a) The heights are linear on the cone C.  Let p be the canonical
    point, the sum of the rays, and f* a form of one minor minimal at p.
    Then ``f*(p) = sum(f*(r)) >= sum(min_f f(r))`` over the rays r, with
    equality exactly when f* is minimal at every ray, and so on all of
    C: a point of C is ``x = sum(a_r * r)`` with every ``a_r >= 0``, so
    every form f of the minor has
    ``f(x) = sum(a_r * f(r)) >= sum(a_r * f*(r)) = f*(x)``.  So when each
    minor's value at p is the sum of its values at the rays, the heights
    at x are ``sum(a_r * h(r))``, where h is :func:`integer_heights`: the
    rays and p are integer points, so their heights are integers.  Each
    ray's heights are evaluated once, for all its cones, and each cone's
    p on its own, so the sum is compared with an evaluation of its own.

    (b) The certificate of S_C (see :func:`subdivision_forms`) holds
    inside C.  A point x interior to C is a combination of all the rays
    of C with every ``a_r > 0``.  By (a), an equality form that vanishes
    at every ray's heights vanishes at x's, and a strict form that is
    nonnegative at every ray's heights and positive at one or more is
    positive at x's.  So x satisfies the certificate, and its heights
    induce exactly the cells of S_C.  When every value is ``>= 0``,
    "positive at some ray" is the same as positive at the sum of the
    rays' heights, the heights at p, which is how it is tested.

    The forms are linear, so (b) reads them at the integer heights of
    the rays that (a) gives and at their sum, one batch of
    :func:`certified`: it passes when every ray's heights are in its
    ``weak`` bits and their sum is in its ``ok`` bits.

    (c) Every cell of S_C satisfies the basis-exchange axiom.  With (a)
    and (b), the heights at every interior point of C induce exactly
    these cells, so they induce a matroid subdivision on the whole open
    cone.  That holds up to the completeness of the cells: the
    certificate proves that each cell is a lower facet of the lifted
    hull, not that no lower facet is missing.  The 48 subdivisions share
    most of their cells, so each distinct cell is judged once per call.

    Only the 7 orbit representatives' subdivisions are lower envelopes;
    each other cone's cells are a representative's moved by a vertex map
    of the fan's symmetries (``hypersimplex._fan_orbits``).  (a)-(c) still
    read every cone's own heights and cells, so a wrong vertex map fails
    the report.  A relabelling of 1..6 or the complement is an affine
    automorphism of Delta(3,6), so it carries the representative's tiling
    onto a tiling: completeness rests on the same envelopes as before.

    Reports one violation per cone where (a), (b) or (c) fails; (c) is
    judged on every cone, (b) only where (a) holds.  The sampled sweep of
    :func:`check_interior_point_stability` is checked as well.
    """
    violations = []
    matroidal = functools.cache(is_matroid_basis_set)
    fan = compute_fan_f36()
    ray_heights = {r: integer_heights(r) for r in fan.rays}
    for c in fan.maximal_cones:
        rays = c.rays
        cone = [list(r) for r in rays]
        canonical = canonical_subdivision(rays)
        if not all(map(matroidal, canonical)):
            violations.append({"check": "canonical cells matroidal",
                               "cone": cone})
        heights = [ray_heights[r] for r in rays]
        total = tuple(map(sum, zip(*heights)))
        if total != integer_heights(canonical_point(rays)):
            violations.append({"check": "heights linear on cone",
                               "cone": cone})
            continue
        width, weak, ok = certified(subdivision_forms(canonical),
                                    [*heights, total])
        if not all(weak >> p * width & 1 for p in range(len(heights))) \
                or not ok >> len(heights) * width & 1:
            violations.append({"check": "subdivision constant on cone",
                               "cone": cone})
    return violations


def check_fan_covering(seed, n_samples=10000):
    """Random integer points: each lies in a cone; overlaps share a face.

    A point x in two or more cones passes when in each of them the
    smallest face holding x (:meth:`Cone.face_containing`) is a proper
    face with exactly the rays they all share.  Then x is in the relative
    interior of the cone of those rays, a face of each and empty at the
    origin, so the test is at least as strict as asking that x lie in that
    cone.  A point whose smallest face is the whole cone is interior to
    it, where no other maximal cone of a fan reaches: a cone held twice
    fails there.  On a complete fan whose cones meet in common faces, both
    tests pass at every point.

    The points are located in batches (:meth:`Fan.odd_points`), and only
    those in no cone or in two or more are visited.  A hit cone's normals
    that vanish at x cut out its face holding x, so the overlap test is
    made once per set of hit cones and vanishing normals.
    """
    draws = _draws(random.Random(seed), -40, 40)
    violations = []
    fan = compute_fan_f36()
    verdicts = {}  # a point's (cones, zero) masks -> its overlap passes
    batch = 512  # the points located at once
    for start in range(0, n_samples, batch):
        points = list(zip(*[itertools.islice(
            draws, 4 * min(batch, n_samples - start))] * 4))
        for p, cones, zero in fan.odd_points(points):
            x = points[p]
            if not cones:
                violations.append({"check": "fan covers point",
                                   "point": list(x)})
                continue
            if (cones, zero) not in verdicts:
                hit = [c for i, c in enumerate(fan.maximal_cones)
                       if cones >> i & 1]
                shared = frozenset.intersection(*(frozenset(c.rays)
                                                  for c in hit))
                verdicts[cones, zero] = not any(
                    c.face_containing(x) != shared
                    or len(shared) == len(c.rays) for c in hit)
            if not verdicts[cones, zero]:
                violations.append({"check": "overlap is a common face",
                                   "point": list(x)})
    return violations


def check_reflection_theorem():
    return verify_parity_reflection_theorem()["violations"]


def check_correspondence():
    return verify_cluster_fan_correspondence()["violations"]


def full_report(seed=0, samples_per_cone=20, cover_samples=10000):
    """The consolidated report; passing means ``violations == []``."""
    violations = []
    for check in (check_enumeration, check_cluster_complex,
                  check_symmetry_classes, check_psi_rows,
                  check_compatibility_relations, check_minors, check_fan,
                  check_correspondence, check_table1, check_table2,
                  check_reflection_theorem, check_cone_proofs):
        violations.extend(check())
    violations.extend(check_interior_point_stability(seed, samples_per_cone))
    violations.extend(check_fan_covering(seed, cover_samples))
    fan = compute_fan_f36()
    return {
        "tables": {
            "table1": [{"rays": r["rays"], "type": r["type"]}
                       for r in table1_report()],
            "table2": [{"class": r["class"], "type": r["type"],
                        "count": r["count"]} for r in table2_report()],
        },
        "fvectors": {
            "fan": list(fan.f_vector()),
            "cluster_complex": list(cluster_complex()[0]),
        },
        "violations": violations,
    }
