"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: the lower-envelope
oracle enumerates affine supports by brute force instead of running the
double-description sweep, and solves its linear systems with its own
Fraction and fraction-free eliminations, so it imports nothing from
``tropd4``.  The cone-ray oracle solves every (d-1)-subset of halfspaces by
cofactors instead of inserting them one at a time; the cone-face oracle
takes the facets from it and intersects them, and the facet oracle takes
the cone's generators from it and ranks the ones tight on each row.  The
fan oracle cuts a maximal cone out of the differences of the forms that
are minimal at one of its interior points, as the linearity domains of the
minors define it, instead of walking the regions with the
double-description sweep.  The secondary-cone
forms of a cell come from one square fraction-free solve per point outside
its affine basis, instead of back substitution through one elimination of
all the points.  The hull-membership oracle solves for barycentric
coordinates over the affine bases among the vertices, instead of
evaluating facet functionals.  The basis-exchange
oracle works on frozensets, and the matroid subdivisions of Delta(3,6) are
also recognized by their tropical Plücker relations.  The matroid f-vector
oracle reads a matroid polytope's faces off ordered set partitions and
their dimensions off connected components, instead of ranking vertices.
The orbit oracle applies all 720 permutations of 1..6 to a cell's
triples, instead of only those that sort the elements by degree.
The crossing oracle realizes chords as exact rational segments and tests
proper intersection, instead of applying the combinatorial crossing rules.
The compatible-set oracle tries every k-set of chord pairs, with each pair's
second chord from its own antipode map and crossings from that realization,
instead of growing noncrossing sets by common neighbours.
The plane-type oracle looks a subdivision's signature up among the
signatures of labeled representative cones, instead of reading letters
off the subdivisions at the rays.  The pivot-column oracle takes the
reduced row echelon form over Fractions, dividing each pivot row by its
pivot, instead of keeping integers by exact fraction-free updates.  The
GF(2) rank oracle eliminates 0/1 vectors as lists, row by row, instead
of reading spans off tables.  The type-A oracle counts the sets of
pairwise noncrossing diagonals of an n-gon by trying every set of each
size, the faces of the associahedron's normal fan, which the fan of the
web of Gr(2, n) must be (Speyer & Williams, J. Algebraic Combin. 22,
2005), instead of walking a fan.
The minor-value oracle takes each minor's minimum over all its forms,
repeated ones included, each summed term by term, instead of evaluating
the distinct forms once.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction


def brute_force_lower_cells(points, heights):
    """Maximal lower-envelope cells by enumerating affine support sets.

    For every affinely independent (d+1)-subset, solve for the affine
    function through the lifted points; if it supports the lift from below,
    its tight set is a cell.  The lifted rows ``(u_i, 1, h_i)`` are scaled
    to integers once, and each subset's system is solved fraction-free for
    ``D`` and ``D * (a, c)`` with ``D`` = +-det, so ``D * (h_i - value_i)``
    is an integer whose sign decides support.
    """
    reduced = _affine_coordinates(points)
    d = len(reduced[0])
    lifted = [u + (1, Fraction(h)) for u, h in zip(reduced, heights)]
    scale = math.lcm(*(x.denominator for row in lifted for x in row))
    rows = [tuple(int(x * scale) for x in row) for row in lifted]
    cells = set()
    for subset in itertools.combinations(rows, d + 1):
        sol = _fraction_free_solve(subset)
        if sol is None:  # affinely dependent: no unique affine function
            continue
        det, x = sol
        if det < 0:
            det, x = -det, [-v for v in x]
        # map stops at the end of x, before the height column
        slack = [det * r[-1] - sum(map(operator.mul, x, r)) for r in rows]
        if min(slack) < 0:
            continue
        cells.add(frozenset(i for i, s in enumerate(slack) if s == 0))
    return sorted(cells, key=sorted)


def _fraction_free_solve(aug):
    """``(D, D * x)`` for the square system with augmented integer rows
    ``aug``, where ``D`` is +-det and ``D * x`` is integral; None when the
    system is singular.

    Bareiss elimination keeps every entry an integer.  Back-substitution
    runs on ``D * x``, which is integral by Cramer's rule, so each of its
    divisions is exact too.
    """
    rows = [list(r) for r in aug]
    n = len(rows)
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        head = rows[c]
        p = head[c]
        for i in range(c + 1, n):
            g = rows[i][c]
            rows[i] = [(p * v - g * w) // prev for v, w in zip(rows[i], head)]
        prev = p
    x = [0] * n
    for c in reversed(range(n)):
        row = rows[c]
        q, r = divmod(prev * row[n] - sum(row[k] * x[k]
                                          for k in range(c + 1, n)), row[c])
        assert r == 0, "inexact back-substitution"
        x[c] = q
    return prev, x


def _affine_rank(pts):
    base = pts[0]
    diffs = [tuple(x - o for x, o in zip(p, base)) for p in pts[1:]]
    rows = [list(map(Fraction, d)) for d in diffs]
    ncols = len(base)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def fraction_rref(rows):
    """``(pivots, reduced)``: the pivot columns of the integer ``rows`` and
    their reduced row echelon form over Fractions, its nonzero rows only,
    by Gauss-Jordan elimination that divides each pivot row by its pivot.
    """
    rows = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, rows[:len(pivots)]


def _solve(columns, target):
    """Exact x with ``sum x_j * columns[j] == target``, or None if none.

    :func:`fraction_rref` of the augmented matrix: there is no solution
    when its last column is a pivot; free variables are set to zero.
    """
    n = len(columns)
    pivots, reduced = fraction_rref(
        [[col[i] for col in columns] + [t] for i, t in enumerate(target)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, c in zip(reduced, pivots):
        x[c] = row[n]
    return x


def _affine_coordinates(points):
    """Coordinates of every point in an affine basis of the points' span.

    The basis is the first point plus each later point that raises the
    affine rank; the coordinates of a point solve for its offset from the
    first point in the differences of the basis points.
    """
    pts = [tuple(Fraction(x) for x in p) for p in points]
    basis = [pts[0]]
    for p in pts[1:]:
        if _affine_rank(basis + [p]) == len(basis):
            basis.append(p)
    origin = basis[0]
    columns = [tuple(x - o for x, o in zip(b, origin)) for b in basis[1:]]
    return [tuple(_solve(columns, tuple(x - o for x, o in zip(p, origin))))
            for p in pts]


def brute_force_point_in_hull(y, vertices):
    """``y in conv(vertices)``, by Carathéodory's theorem.

    A point of the hull is a convex combination of affinely independent
    vertices, and those extend, by further vertices, to an affine basis of
    the vertices' span.  So ``y`` is in the hull exactly when, for some
    ``dim + 1`` affinely independent vertices, its coordinates in that
    basis exist and are nonnegative.  They are solved for with Fraction
    elimination.
    """
    pts = [tuple(Fraction(x) for x in v) for v in vertices]
    k = _affine_rank(pts)
    for basis in itertools.combinations(pts, k + 1):
        if _affine_rank(basis) < k:
            continue
        origin = basis[0]
        columns = [tuple(x - o for x, o in zip(b, origin)) for b in basis[1:]]
        x = _solve(columns, tuple(v - o for v, o in zip(y, origin)))
        if x is not None and min(x, default=0) >= 0 and sum(x) <= 1:
            return True
    return False


# -- extreme rays by brute force ----------------------------------------------

def _det(rows):
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def brute_force_cone_rays(halfspaces, dim):
    """Extreme rays of the pointed cone ``{x : <h, x> >= 0}``, by brute force.

    An extreme ray is cut out by ``dim - 1`` linearly independent tight
    halfspaces.  For every such subset, the vector of signed maximal minors
    (the generalized cross product) spans the common kernel; it is zero
    exactly when the subset has lower rank.  Each feasible sign of it is
    kept, as a primitive integer vector.  Returns the sorted distinct rays.
    """
    hs = [tuple(int(x) for x in h) for h in halfspaces]
    rays = set()
    for subset in itertools.combinations(hs, dim - 1):
        rows = [list(h) for h in subset]
        v = tuple((-1) ** j * _det([r[:j] + r[j + 1:] for r in rows])
                  for j in range(dim))
        if not any(v):
            continue
        for s in (1, -1):
            w = tuple(s * x for x in v)
            if all(sum(a * b for a, b in zip(h, w)) >= 0 for h in hs):
                g = math.gcd(*w)
                rays.add(tuple(x // g for x in w))
    return sorted(rays)


def _kernel(rows, dim):
    """Primitive integer basis of ``{x : <h, x> = 0 for h in rows}``, by
    Fraction Gauss-Jordan elimination; one vector per free column."""
    aug = [[Fraction(x) for x in h] for h in rows]
    pivots = []
    for c in range(dim):
        r = len(pivots)
        piv = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        v = [Fraction(int(c == free)) for c in range(dim)]
        for row, c in zip(aug, pivots):
            v[c] = -row[free]
        scale = math.lcm(*(x.denominator for x in v))
        w = [int(x * scale) for x in v]
        g = math.gcd(*w)
        basis.append(tuple(x // g for x in w))
    return basis


def brute_force_cone_facets(halfspaces, dim):
    """Facet normals of the full-dimensional cone ``{x : <h, x> >= 0}``.

    The cone is generated by its lines, both ways, and the extreme rays of
    the pointed cone cut from it by the lines' orthogonal complement; the
    lines are the kernel of the halfspaces, and the rays come from
    :func:`brute_force_cone_rays`.  A halfspace is a facet when the
    generators tight on it span dimension ``dim - 1``, by Fraction
    elimination.  Returns the sorted distinct primitive normals.
    """
    hs = {tuple(x // math.gcd(*h) for x in h) for h in halfspaces if any(h)}
    gens = _cone_generators(hs, dim)
    origin = (0,) * dim
    return sorted(h for h in hs if _affine_rank([origin] + [
        g for g in gens if sum(map(operator.mul, h, g)) == 0]) == dim - 1)


def brute_force_cone_dim(halfspaces, dim):
    """Dimension of ``{x : <h, x> >= 0}``: the rank of its generators, by
    Fraction elimination."""
    hs = [tuple(h) for h in halfspaces if any(h)]
    return _affine_rank([(0,) * dim] + _cone_generators(hs, dim))


def _cone_generators(hs, dim):
    """Lines and extreme rays that generate ``{x : <h, x> >= 0}``.

    The lines are the kernel of the nonzero halfspaces ``hs``; the rays are
    those of the pointed cone cut from the cone by the lines' orthogonal
    complement, from :func:`brute_force_cone_rays`.
    """
    lines = _kernel(hs, dim)
    both = lines + [tuple(-x for x in l) for l in lines]
    return brute_force_cone_rays(sorted(hs) + both, dim) + lines


def brute_force_cone_faces(rays, dim):
    """Nonzero faces of a full-dimensional pointed cone, as frozensets of
    its extreme ``rays``.  The facet normals are the extreme rays of the
    dual cone, found by :func:`brute_force_cone_rays`; every face is an
    intersection of facets, or the whole cone."""
    facets = {frozenset(r for r in rays
                        if sum(map(operator.mul, h, r)) == 0)
              for h in brute_force_cone_rays(rays, dim)}
    faces = {frozenset(rays)}
    for k in range(1, len(facets) + 1):
        for group in itertools.combinations(facets, k):
            faces.add(frozenset.intersection(*group))
    faces.discard(frozenset())
    return faces


# -- secondary-cone forms ------------------------------------------------------

def brute_force_cell_forms(points, cell):
    """Equality and strict forms of a full-dimensional ``cell`` of a
    subdivision of ``points``, by fraction-free solves.

    The basis is the first point of the cell plus each later cell point
    that raises the affine rank.  Each other point p is an affine
    combination ``sum(l_j * b_j)`` of the basis: with every point lifted
    to ``(p, 1)`` and scaled to integers, the first coordinates on which
    the lifted basis is independent give a square system, which
    :func:`_fraction_free_solve` solves for ``D`` and ``D * l``.  The form
    of p in the heights w is ``D * w_p - sum(D * l_j * w_{b_j})``, scaled
    to a primitive integer vector positive at p.  Returns the forms of the
    cell points outside the basis, then of the points outside the cell,
    each group by index.
    """
    lifted = [tuple(map(Fraction, p)) + (Fraction(1),) for p in points]
    scale = math.lcm(*(x.denominator for p in lifted for x in p))
    pts = [tuple(int(x * scale) for x in p) for p in lifted]
    members = sorted(cell)
    basis = [members[0]]
    for i in members[1:]:
        if _affine_rank([points[j] for j in basis + [i]]) == len(basis):
            basis.append(i)

    def system(coords, target):
        return [[pts[b][k] for b in basis] + [target[k]] for k in coords]
    zero = (0,) * len(pts[0])
    coords = next(c for c in itertools.combinations(range(len(zero)),
                                                    len(basis))
                  if _fraction_free_solve(system(c, zero)) is not None)
    forms = {}
    for p in range(len(points)):
        if p in basis:
            continue
        det, x = _fraction_free_solve(system(coords, pts[p]))
        form = [0] * len(points)
        form[p] = det
        for b, v in zip(basis, x):
            form[b] = -v
        g = math.gcd(*form) * (1 if det > 0 else -1)
        forms[p] = tuple(v // g for v in form)
    equalities = tuple(forms[p] for p in members if p in forms)
    stricts = tuple(forms[p] for p in sorted(forms) if p not in cell)
    return equalities, stricts


def certificate_holds(forms, w, weak=False):
    """Whether heights ``w`` satisfy the secondary-cone certificate
    ``(equalities, stricts)``, read form by form in Fractions: each
    equality form vanishes at w and each strict form is positive there,
    or, when ``weak``, ``>= 0`` there."""
    equalities, stricts = forms

    def value(form):
        return sum(Fraction(a) * Fraction(h) for a, h in zip(form, w))
    return all(value(f) == 0 for f in equalities) and \
        all(value(f) >= 0 if weak else value(f) > 0 for f in stricts)


def minor_values(minors, x):
    """Each of ``minors``, a sequence of its linear forms, at the point
    ``x``: the least value of its forms there."""
    return tuple(min(sum(a * v for a, v in zip(form, x)) for form in forms)
                 for forms in minors)


# -- fan cones from argmin forms ----------------------------------------------

def argmin_halfspaces(forms, i):
    """Sorted distinct primitive normals of ``f_j - f_i >= 0`` over the
    forms ``f_j`` unequal to ``f_i``: the region where form i is minimal."""
    hs = set()
    for f in forms:
        d = tuple(a - b for a, b in zip(f, forms[i]))
        if any(d):
            g = math.gcd(*d)
            hs.add(tuple(x // g for x in d))
    return sorted(hs)


def argmin_region(x, minors):
    """Halfspaces of the region around ``x`` on which every minor keeps the
    form that is minimal at ``x``, where ``minors`` lists each minor's
    forms.  The minimum must be attained once: ``x`` lies on no wall."""
    hs = set()
    for forms in minors:
        values = [sum(map(operator.mul, f, x)) for f in forms]
        low = min(values)
        assert values.count(low) == 1, f"{x} lies on a wall of {forms}"
        hs.update(argmin_halfspaces(forms, values.index(low)))
    return sorted(hs)


# -- matroid verdicts ---------------------------------------------------------

def gf2_rank(vectors):
    """Rank over GF(2) of 0/1 ``vectors``, by Gaussian elimination on lists:
    each pivot row clears its column from every later row."""
    rows = [[x % 2 for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                rows[i] = [(x + y) % 2 for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def brute_force_matroid_basis_set(bases):
    """Basis-exchange axiom over frozensets, by brute force over all pairs."""
    bset = {frozenset(b) for b in bases}
    if not bset:
        raise ValueError("empty basis set")
    for A, B in itertools.product(bset, repeat=2):
        for a in A - B:
            if not any(frozenset(A - {a} | {b}) in bset for b in B - A):
                return False
    return True


def _matroid_faces(bases, rest, memo):
    """The faces, as basis sets, that the ordered partitions of the
    elements ``rest`` reach from the face ``bases``.

    A weight that is constant on each block of an ordered set partition
    and falls from block to block is largest on one face of the matroid
    polytope, and every face arises so (Gelfand, Goresky, MacPherson &
    Serganova, 1987).  That face keeps, block by block, the bases with the
    most elements in the block: the weight of a basis B is a positive
    combination of its counts ``|B & F|`` over the unions F of the first
    blocks, and the greedy basis maximizes them all at once.  The bases
    left after a block have one count on it, so the faces reached depend
    only on ``bases`` and ``rest``, and are kept in ``memo``.
    """
    if not rest or len(bases) == 1:
        return {bases}
    if (bases, rest) not in memo:
        faces = set()
        for k in range(1, len(rest) + 1):
            for block in map(set, itertools.combinations(sorted(rest), k)):
                best = max(len(b & block) for b in bases)
                faces |= _matroid_faces(
                    frozenset(b for b in bases if len(b & block) == best),
                    rest - block, memo)
        memo[bases, rest] = faces
    return memo[bases, rest]


def _matroid_components(bases, ground):
    """Number of connected components of the matroid on ``ground``: e and
    f are joined when B - e + f is a basis for a basis B holding e and not
    f, as then the circuit of f in B holds e; a loop or coloop is a
    component alone."""
    component = {e: {e} for e in ground}
    for b in bases:
        for e, f in itertools.product(b, ground - b):
            if b - {e} | {f} in bases and component[e] is not component[f]:
                merged = component[e] | component[f]
                for x in merged:
                    component[x] = merged
    return len({id(c) for c in component.values()})


def matroid_f_vector(bases):
    """Face counts by dimension of the matroid polytope of ``bases``, which
    must satisfy basis exchange, on the ground set 1..6: the polytope
    itself left out unless it is a point.

    The faces are reached from the 4,683 ordered partitions of the ground
    set (see :func:`_matroid_faces`).  Each face is the polytope of a
    matroid, of dimension 6 minus its number of connected components
    (Feichtner & Sturmfels, "Matroid polytopes, nested sets and Bergman
    fans", 2005, Prop. 2.4).
    """
    ground = frozenset(range(1, 7))
    faces = _matroid_faces(frozenset(map(frozenset, bases)), ground, {})
    dims = [len(ground) - _matroid_components(f, ground) for f in faces]
    return tuple(dims.count(d) for d in range(max(dims) or 1))


# -- orbits of cells under relabelling ----------------------------------------

_TRIPLES = tuple(itertools.combinations(range(1, 7), 3))
_TRIPLE_BIT = {t: 1 << i for i, t in enumerate(_TRIPLES)}
# per permutation p of 1..6, the bit of each triple's image under e -> p[e-1]
_IMAGE_BITS = tuple(
    {t: _TRIPLE_BIT[tuple(sorted(p[e - 1] for e in t))] for t in _TRIPLES}
    for p in itertools.permutations(range(1, 7)))


def brute_force_orbit(cell):
    """The images of ``cell``, a set of triples of 1..6, under all 720
    permutations of 1..6, each as a 20-bit mask: bit i stands for the i-th
    triple in lexicographic order."""
    cell = set(cell)
    return frozenset(sum(map(image.__getitem__, cell))
                     for image in _IMAGE_BITS)


def brute_force_orbit_key(cell):
    """The least image of ``cell`` over all 720 relabellings of 1..6, as a
    20-bit mask (see :func:`brute_force_orbit`)."""
    return min(brute_force_orbit(cell))


# -- the symmetries of the positive fan ------------------------------------

# The cyclic shift of 1..6, the reversal, and the complement, on triples.
_FAN_MOVES = (
    lambda t: tuple(sorted(e % 6 + 1 for e in t)),
    lambda t: tuple(sorted(7 - e for e in t)),
    lambda t: tuple(e for e in range(1, 7) if e not in t),
)


def fan_symmetry_group(cells_of):
    """The group that the cyclic shift, the reversal and the complement
    generate on the rays, as permutations of ``sorted(cells_of)``, tuples
    whose entry i is the index of ray i's image.

    ``cells_of`` gives each ray's subdivision as sets of triples.  A move
    takes a ray to the ray whose cells are its own cells with every triple
    moved; that ray must be unique, so the rays' subdivisions must differ.
    """
    rays = sorted(cells_of)
    index = {frozenset(map(frozenset, cells_of[r])): i
             for i, r in enumerate(rays)}
    assert len(index) == len(rays)
    generators = [tuple(index[frozenset(frozenset(map(move, cell))
                                        for cell in cells_of[r])]
                        for r in rays) for move in _FAN_MOVES]
    group = {tuple(range(len(rays)))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple(g[i] for i in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def satisfies_tropical_plucker_relations(w):
    """Min-convention 3-term tropical Plücker relations for heights ``w``.

    ``w`` lists the heights of the 20 vertices of Delta(3,6) in
    lexicographic triple order.  For each s and each 4-set ijkl avoiding s
    (the 30 octahedral faces), the minimum of w(sij)+w(skl), w(sik)+w(sjl),
    w(sil)+w(sjk) must be attained at least twice.  Heights satisfy them
    exactly when they induce a matroid subdivision (Speyer, "Tropical
    linear spaces", math/0410455).
    """
    index = {t: i for i, t in
             enumerate(itertools.combinations(range(1, 7), 3))}

    def p(*triple):
        return w[index[tuple(sorted(triple))]]

    for s in range(1, 7):
        rest = [x for x in range(1, 7) if x != s]
        for i, j, k, l in itertools.combinations(rest, 4):
            terms = sorted((p(s, i, j) + p(s, k, l), p(s, i, k) + p(s, j, l),
                            p(s, i, l) + p(s, j, k)))
            if terms[0] != terms[1]:
                return False
    return True


# -- geometric chord realization ----------------------------------------------

# Rational points on the unit circle, ordered by angle in [0, 180), used to
# realize the polygon vertices exactly; vertex k + n is the antipode of k.
_HALF_TURN_DIRECTIONS = {
    3: [(1, 0), (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(-3, 5), Fraction(4, 5))],
    4: [(1, 0), (Fraction(4, 5), Fraction(3, 5)), (0, 1),
        (Fraction(-4, 5), Fraction(3, 5))],
    5: [(1, 0), (Fraction(15, 17), Fraction(8, 17)),
        (Fraction(3, 5), Fraction(4, 5)), (Fraction(-3, 5), Fraction(4, 5)),
        (Fraction(-15, 17), Fraction(8, 17))],
}


def classify_by_signature(sig, references):
    """The plane type whose signature in ``references``, a dict from type
    to the signature of a labeled representative cone, equals ``sig``.
    Raises ``ValueError`` when none does."""
    for plane_type, ref in references.items():
        if sig == ref:
            return plane_type
    raise ValueError(f"signature matches no reference type: {sig}")


def _vertex_position(v, n):
    d = _HALF_TURN_DIRECTIONS[n][v % n]
    sign = 1 if v < n else -1
    return (sign * d[0], sign * d[1])


def realize_chord(chord, n, eps):
    """Endpoints of a chord as exact rational points.

    Tangent chords run from their vertex to a point at distance ~eps from
    the center, offset to the correct side of the line of sight: side R is
    the counterclockwise side (endpoint eps^2 * P + eps * P_perp), side L
    the clockwise one.
    """
    if chord.is_tangent:
        p = _vertex_position(chord.p, n)
        perp = (-p[1], p[0])
        s = 1 if chord.side == "R" else -1
        end = (eps * eps * p[0] + s * eps * perp[0],
               eps * eps * p[1] + s * eps * perp[1])
        return _vertex_position(chord.p, n), end
    return _vertex_position(chord.p, n), _vertex_position(chord.q, n)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_cross_properly(s1, s2):
    """Exact proper-intersection predicate; degeneracies raise."""
    a, b = s1
    c, d = s2
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    shared = len({a, b} & {c, d}) > 0
    if not shared and 0 in (o1, o2, o3, o4):
        raise AssertionError("degenerate chord realization; adjust eps")
    return (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0) and not shared


def geometric_crossing(c1, c2, n, eps=Fraction(1, 10)):
    """Crossing of two chords decided from the exact segment realization."""
    if c1 == c2:
        return False
    if not c1.is_tangent and not c2.is_tangent \
            and len({c1.p, c1.q} & {c2.p, c2.q}) > 0:
        return False
    if c1.is_tangent and c2.is_tangent and c1.p == c2.p:
        return False
    if c1.is_tangent != c2.is_tangent:
        t = c1 if c1.is_tangent else c2
        d = c2 if c1.is_tangent else c1
        if t.p in (d.p, d.q):
            return False
    return segments_cross_properly(realize_chord(c1, n, eps),
                                   realize_chord(c2, n, eps))


def _antipode(chord, n):
    """The half-turn image of a chord: each vertex moves by n, and a
    tangent chord keeps its side."""
    m = 2 * n
    if chord.is_tangent:
        return chord._replace(p=(chord.p + n) % m)
    p, q = sorted(((chord.p + n) % m, (chord.q + n) % m))
    return chord._replace(p=p, q=q)


def _compatible(a, b, n):
    """Whether none of the four chords of pairs a and b cross."""
    return not any(geometric_crossing(c, d, n)
                   for c in (a, _antipode(a, n))
                   for d in (b, _antipode(b, n)))


def brute_force_compatible_sets(pairs, n, k):
    """Every k-set of ``pairs`` (one chord standing for each pair) that is
    pairwise compatible, found by trying all k-subsets."""
    pairs = list(pairs)
    ok = {frozenset((a, b)) for a, b in itertools.combinations(pairs, 2)
          if _compatible(a, b, n)}
    return {frozenset(s) for s in itertools.combinations(pairs, k)
            if all(frozenset(e) in ok for e in itertools.combinations(s, 2))}


def brute_force_maximal_compatible_sets(pairs, n):
    """The pairwise compatible sets of ``pairs`` that no further pair
    extends."""
    pairs = list(pairs)
    maximal, k = set(), 1
    sets = brute_force_compatible_sets(pairs, n, k)
    while sets:
        bigger = brute_force_compatible_sets(pairs, n, k + 1)
        maximal |= {s for s in sets if not any(s < b for b in bigger)}
        sets, k = bigger, k + 1
    return maximal


def noncrossing_diagonal_counts(n):
    """The numbers of sets of 1, 2, ... pairwise noncrossing diagonals of a
    convex n-gon, found by trying every set of each size up to the first
    size with none.  Diagonals (a, b) and (c, d), a < c, cross exactly
    when a < c < b < d."""
    diagonals = [(a, b) for a, b in itertools.combinations(range(n), 2)
                 if 1 < b - a < n - 1]
    crossing = {(d, e) for d, e in itertools.combinations(diagonals, 2)
                if d[0] < e[0] < d[1] < e[1]}
    counts = []
    for size in itertools.count(1):
        count = sum(crossing.isdisjoint(itertools.combinations(s, 2))
                    for s in itertools.combinations(diagonals, size))
        if not count:
            return tuple(counts)
        counts.append(count)
