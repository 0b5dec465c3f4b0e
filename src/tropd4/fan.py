"""The complete rank-4 fan cut out by the tropical minors.

Each tropicalized minor is a minimum of linear forms, linear on the regions
where one fixed form attains the minimum.  The fan is the common
refinement of these linearity domains over the 20 minors: every surviving
region is split by the argmin choice, keeping only full-dimensional pieces.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .geometry import Cone, Fan
from .webmatrix import PLUECKER_TRIPLES, all_tropical_minors


def _argmin_halfspaces(forms, i):
    """Halfspaces selecting form i as the minimum: f_j - f_i >= 0 for all j."""
    fi = forms[i]
    return tuple(tuple(a - b for a, b in zip(fj, fi))
                 for j, fj in enumerate(forms) if j != i)


def trop_phi2(x):
    """Values of all 20 tropical minors at x, in lexicographic triple order.

    ``x`` is scaled to integers by the lcm of its denominators, so the
    minima are taken over integers; each value is returned as a Fraction.
    """
    scale = lcm(*(v.denominator for v in x))
    xs = tuple(v.numerator * (scale // v.denominator) for v in x)
    minors = all_tropical_minors()
    return tuple(Fraction(min(sum(map(operator.mul, form, xs))
                              for form in minors[idx]), scale)
                 for idx in PLUECKER_TRIPLES)


@lru_cache(maxsize=1)
def compute_fan_f36() -> Fan:
    """Common refinement of the minors' linearity domains, as cones.

    Each region, an irredundant halfspace list, is split by the argmin
    choice of each minor; a piece survives when its cone has dimension 4.
    Its facets come from that cone's own sweep: a halfspace is a facet when
    the rays tight on it, with the lines, span dimension 3 (Fukuda &
    Prodon 1996, LNCS 1120).
    """
    dim = 4
    minors = all_tropical_minors()
    regions = [()]  # halfspace tuples; () is all of R^4
    for idx in PLUECKER_TRIPLES:
        forms = minors[idx]
        if len(forms) == 1:
            continue
        refined = []
        for hs in regions:
            for i in range(len(forms)):
                c = Cone(dim, hs + _argmin_halfspaces(forms, i))
                if c.dim() == dim:
                    refined.append(c.facets())
        regions = refined
    cones = [Cone(dim, hs) for hs in regions]
    keys = [c.rays for c in cones]
    if len(set(keys)) != len(keys):
        raise RuntimeError("refinement produced duplicate cones")
    return Fan(dim, tuple(cones))


def bipyramid_cones(fan=None):
    """The non-simplicial maximal cones (more rays than the dimension)."""
    fan = fan or compute_fan_f36()
    return [c for c in fan.maximal_cones if len(c.rays) > fan.ambient_dim]


def fan_to_json(fan=None, ray_labels=None):
    """JSON-ready fan description: rays, cones as ray indices, f-vector.

    When every ray has a conventional label (r1..r16), rays are listed in
    label order; otherwise lexicographically.
    """
    fan = fan or compute_fan_f36()
    rays = fan.rays
    if ray_labels and all(r in ray_labels for r in rays):
        rays = sorted(rays, key=lambda r: int(ray_labels[r][1:]))
    index = {r: i for i, r in enumerate(rays)}
    data = {
        "ambient_dim": fan.ambient_dim,
        "rays": [list(r) for r in rays],
        "maximal_cones": [sorted(index[r] for r in c.rays)
                          for c in fan.maximal_cones],
        "f_vector": list(fan.f_vector()),
        "bipyramids": [sorted(index[r] for r in c.rays)
                       for c in bipyramid_cones(fan)],
    }
    if ray_labels:
        data["ray_labels"] = [ray_labels.get(r, "") for r in rays]
    return data
