"""The complete fan cut out by the tropical minors of a web.

Each tropicalized minor is a minimum of linear forms, linear on the regions
where one fixed form attains the minimum.  Those regions are the cones of
the inner normal fan of the minor's Newton polytope, the convex hull of its
forms.  Their common refinement over the minors is the inner normal fan of
the Minkowski sum of these polytopes, the Newton polytope of the product
of the minors (Gritzmann & Sturmfels, "Minkowski addition of polytopes",
SIAM J. Discrete Math. 6, 1993).  :func:`_normal_fan` builds it from the
minors' forms and their dimension, the number of web variables, and
:func:`compute_fan_f36` from the 20 minors of Gr(3, 6).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from .geometry import Fan, cone_from_rays, integer_rows
from .reference import LABEL_OF_RAY
from .webmatrix import all_tropical_minors


def integer_heights(x):
    """Values of all 20 tropical minors at the integer point x, in
    lexicographic triple order, as a tuple of ints.  The 42 forms of the
    minors are evaluated from one flat table; a minor with one form takes
    its value without ``min``.  Raises ValueError unless ``x`` has 4 int
    coordinates."""
    if len(x) != 4 or not all(isinstance(v, int) for v in x):
        raise ValueError(f"expected 4 int coordinates, got {x!r}")
    a, b, c, d = x
    forms, spans = _minor_table()
    values = [p * a + q * b + r * c + s * d for p, q, r, s in forms]
    return tuple(values[i] if j - i == 1 else min(values[i:j])
                 for i, j in spans)


def trop_phi2(x):
    """Values of all 20 tropical minors at x, in lexicographic triple order,
    as a tuple of Fractions: :func:`integer_heights` at x scaled to
    integers by the lcm of its denominators, divided by that scale.
    Raises ValueError unless ``x`` has 4 int or Fraction coordinates."""
    if len(x) != 4 or not all(isinstance(v, (int, Fraction)) for v in x):
        raise ValueError(f"expected 4 int or Fraction coordinates, got {x!r}")
    [row], scale = integer_rows([x])
    return tuple(Fraction(m, scale) for m in integer_heights(row))


@lru_cache(maxsize=1)
def _minor_table():
    """The forms of the 20 minors in one flat tuple, in triple order, and
    the ``(start, stop)`` of each minor's forms in it."""
    forms, spans = [], []
    for minor in all_tropical_minors().values():
        spans.append((len(forms), len(forms) + len(minor)))
        forms += minor
    return tuple(forms), tuple(spans)


def _normal_fan(minors, dim) -> Fan:
    """Inner normal fan of the Newton polytope of the product of
    ``minors``, each a tuple of forms of ``dim`` entries, in order.

    The Minkowski sum is kept as the cone over the rows ``(p, 1)``, whose
    rays are the sum's vertices and whose halfspaces ``(a, a_0)`` are its
    facets, with inner normal ``a``; each minor's forms are added to the
    vertices and the hull is taken again.  A vertex's maximal cone is
    spanned by the inner normals of the facets through it.  A minor with a
    single form is skipped: adding one point translates the sum, which
    moves no facet normal and leaves the normal fan as it is.
    """
    newton = cone_from_rays([(0,) * dim + (1,)], dim + 1)
    for forms in minors:
        if len(forms) == 1:
            continue
        newton = cone_from_rays(sorted(
            {tuple(map(operator.add, v, form + (0,)))
             for v in newton.rays for form in forms}), dim + 1)
    return Fan(dim, tuple(
        cone_from_rays([h[:-1] for h in newton.halfspaces
                        if not sum(map(operator.mul, h, v))], dim)
        for v in newton.rays))


@lru_cache(maxsize=1)
def compute_fan_f36() -> Fan:
    """:func:`_normal_fan` of the 20 minors of Gr(3, 6), in triple order."""
    return _normal_fan(all_tropical_minors().values(), 4)


def bipyramid_cones():
    """The non-simplicial maximal cones (more rays than the dimension)."""
    fan = compute_fan_f36()
    return [c for c in fan.maximal_cones if len(c.rays) > fan.ambient_dim]


def fan_to_json():
    """JSON-ready fan description: rays in label order (r1..r16) with
    their labels, cones as ray indices, f-vector, bipyramids."""
    fan = compute_fan_f36()
    rays = sorted(fan.rays, key=lambda r: int(LABEL_OF_RAY[r][1:]))
    index = {r: i for i, r in enumerate(rays)}
    return {
        "ambient_dim": fan.ambient_dim,
        "rays": [list(r) for r in rays],
        "maximal_cones": [sorted(index[r] for r in c.rays)
                          for c in fan.maximal_cones],
        "f_vector": list(fan.f_vector()),
        "bipyramids": [sorted(index[r] for r in c.rays)
                       for c in bipyramid_cones()],
        "ray_labels": [LABEL_OF_RAY[r] for r in rays],
    }
