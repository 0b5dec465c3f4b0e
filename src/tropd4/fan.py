"""The complete fan cut out by the tropical minors of a web.

Each tropicalized minor is a minimum of linear forms, linear on the regions
where one fixed form attains the minimum.  Those regions are the cones of
the inner normal fan of the minor's Newton polytope, the convex hull of its
forms.  Their common refinement over the minors is the inner normal fan of
the Minkowski sum of these polytopes, the Newton polytope of the product
of the minors (Gritzmann & Sturmfels, "Minkowski addition of polytopes",
SIAM J. Discrete Math. 6, 1993): its maximal cones are the regions on
which every minor keeps one minimal form.  :func:`_normal_fan` walks these
regions from a generic start point, crossing one wall at a time, as Gfan
walks a Groebner fan (Fukuda, Jensen & Thomas, "Computing Groebner fans",
Math. Comp. 76, 2007), and :func:`compute_fan_f36` walks the 20 minors of
Gr(3, 6) from :data:`GENERIC_POINT`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache

from .geometry import Cone, Fan, NotPointedError, integer_rows
from .reference import LABEL_OF_RAY
from .webmatrix import all_tropical_minors

# The start of the walk over the fan of Gr(3, 6): a point on no wall,
# which ``verify.check_fan`` proves lies in exactly one maximal cone.
GENERIC_POINT = (1, 3, 7, 29)


def integer_heights(x):
    """Values of all 20 tropical minors at the integer point x, in
    lexicographic triple order, as a tuple of ints.  The minors' 42 forms
    are only 7 distinct ones: each is evaluated once, and each minor takes
    the ``min`` of its forms' values, or the value of its one form.
    Raises ValueError unless ``x`` has 4 int coordinates."""
    if len(x) != 4 or not all(isinstance(v, int) for v in x):
        raise ValueError(f"expected 4 int coordinates, got {x!r}")
    a, b, c, d = x
    forms, minors = _minor_table()
    values = [p * a + q * b + r * c + s * d for p, q, r, s in forms]
    return tuple([values[i] if get is None else min(get(values))
                  for i, get in minors])


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
    """The distinct forms of the 20 minors, in order of first use, and
    per minor, in triple order, ``(i, get)``: ``i`` indexes its first form
    among them, and ``get``, None for a minor of one form, picks its
    forms' values out of the list of the distinct forms' values."""
    index, minors = {}, []
    for minor in all_tropical_minors().values():
        positions = [index.setdefault(f, len(index)) for f in minor]
        minors.append((positions[0], operator.itemgetter(*positions)
                       if len(positions) > 1 else None))
    return tuple(index), tuple(minors)


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def _normal_fan(minors, start) -> Fan:
    """The fan of the regions on which each of ``minors``, tuples of
    forms, keeps one minimal form, walked from the region of ``start``.

    A region is known by each minor's selected form f: it is the one-sweep
    :class:`Cone` of the rows ``g - f`` for the minor's other forms g.
    Each wall, a facet of a region with inner normal h, read off its tight
    mask, is crossed once, at the sum s of its rays, where each minor
    selects the form least at ``s - eps * h`` for small ``eps > 0``: the
    least ``(f(s), -f(h))``.  A minor with a single form is skipped.  A
    region with a line raises NotPointedError, and one of lower dimension
    ValueError, naming the point it was selected at.
    """
    dim = len(start)
    minors = [forms for forms in minors if len(forms) > 1]
    cones, crossed = {}, set()
    todo = [(start, (0,) * dim)]
    while todo:
        point, normal = todo.pop()
        selection = tuple(min(forms, key=lambda f: (_dot(f, point),
                                                    -_dot(f, normal)))
                          for forms in minors)
        if selection in cones:
            continue
        cone = Cone(dim, sorted({tuple(map(operator.sub, g, f))
                                 for f, forms in zip(selection, minors)
                                 for g in forms}))
        if cone.lines:
            raise NotPointedError(cone.lines[0])
        if (1 << len(cone.rays)) - 1 in cone.tight:
            raise ValueError(f"the region selected at {point} is not "
                             f"full-dimensional")
        cones[selection] = cone
        for h, mask in zip(cone.halfspaces, cone.tight):
            wall = tuple(r for i, r in enumerate(cone.rays) if mask >> i & 1)
            if wall not in crossed:
                crossed.add(wall)
                todo.append((tuple(map(sum, zip(*wall))), h))
    return Fan(dim, tuple(cones.values()))


@lru_cache(maxsize=1)
def compute_fan_f36() -> Fan:
    """:func:`_normal_fan` of the 20 minors of Gr(3, 6), walked from
    :data:`GENERIC_POINT`."""
    return _normal_fan(all_tropical_minors().values(), GENERIC_POINT)


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
